"""Scalability and administration: parallel execution, backup, restore.

Exercises the two SP-side service claims of the paper's architecture
section: computation pushed into a parallel, fault-tolerant engine (here
a 6-shard cluster whose shards are two-member replica groups), and the
DBaaS administration services (backup/recovery) a tenant outsources.

Run:  python examples/parallel_and_backup.py
"""

import shutil
import tempfile
from pathlib import Path

import repro.api as api
from repro.cluster import Coordinator, FaultInjector, ShardGroup
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.storage import DiskCatalog, DurableServer, create_backup, restore_backup

ROWS = 3000


def load(proxy, **options) -> None:
    regions = ["apac", "emea", "amer"]
    proxy.create_table(
        "orders",
        [("oid", ValueType.int_()), ("region", ValueType.string(6)),
         ("amount", ValueType.decimal(2))],
        [(i, regions[i % 3], float((i * 73) % 900) + 0.50) for i in range(ROWS)],
        sensitive=["amount"],
        rng=seeded_rng(23),
        **options,
    )


def main() -> None:
    # -- shard-parallel encrypted aggregation, two members die mid-query -----
    injector = FaultInjector()
    groups = [
        ShardGroup(
            [injector.wrap(SDBServer(shard_id=g), f"s{g}r{o}") for o in range(2)]
        )
        for g in range(6)
    ]
    cluster = Coordinator(groups)
    conn = api.connect(server=cluster, modulus_bits=512, value_bits=64,
                       rng=seeded_rng(22))
    load(conn.proxy, shard_by="oid")

    doomed = {"s0", "s3"}

    def kill_mid_query(label):
        # whichever member is about to serve shard 0's / shard 3's leg dies
        member, op = label.split(".")
        if member[:2] in doomed and op.startswith("execute_"):
            doomed.discard(member[:2])
            injector.kill(member)

    injector.on_op.append(kill_mid_query)
    cur = conn.execute(
        "SELECT region, COUNT(*) AS n, SUM(amount) AS revenue "
        "FROM orders GROUP BY region ORDER BY revenue DESC"
    )
    table = cur.fetch_table()
    scatter = cur.report.scatter
    print(f"route: {scatter.mode} over {scatter.shards} shards")
    print("failover while the query ran (two members 'died', their reads "
          "were retried on the replicas):")
    for event in cluster.failover.events:
        print(f"  {event}")
    print(table.pretty())
    conn.close()

    # -- backup / restore at the SP ------------------------------------------------
    live_dir = tempfile.mkdtemp(prefix="sdb-live-")
    backup_dir = Path(tempfile.mkdtemp(prefix="sdb-backup-")) / "nightly"
    durable = DurableServer(live_dir)
    dconn = api.connect(server=durable, modulus_bits=512, value_bits=64,
                        rng=seeded_rng(22))
    dproxy = dconn.proxy
    load(dproxy)
    durable.checkpoint()

    manifest = create_backup(durable.disk, backup_dir)
    print(f"\nbackup written: {sorted(manifest['tables'])} "
          f"({sum(t['bytes'] for t in manifest['tables'].values())} bytes, "
          f"ciphertext only)")

    # disaster: the live directory is lost
    durable.close()
    shutil.rmtree(live_dir)

    restored_dir = tempfile.mkdtemp(prefix="sdb-restored-")
    restore_backup(backup_dir, DiskCatalog(Path(restored_dir) / "tables"))
    recovered = DurableServer(restored_dir)
    dproxy.server = recovered
    check = dconn.execute(
        "SELECT COUNT(*) AS n, SUM(amount) AS revenue FROM orders"
    ).fetch_table()
    print(f"restored deployment answers: {check.to_dicts()[0]}")

    recovered.close()
    shutil.rmtree(restored_dir)
    shutil.rmtree(backup_dir.parent)


if __name__ == "__main__":
    main()
