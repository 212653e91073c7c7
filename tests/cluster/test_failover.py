"""Kill replicas under load: the cluster answers are always correct.

The replication contract: **every healthy member holds every committed
write**, so promotion never moves data -- it only selects a survivor --
and any query interrupted by a member death retries transparently
against the promoted group.  Fault injection
(:class:`~repro.cluster.faults.FaultInjector`) kills members at exact
protocol points:

* a shard's primary dies *mid-query* (while executing or streaming a
  scatter leg);
* a primary dies *mid-INSERT* (while the write fan-out is in flight);
* a primary dies *mid-rebalance* (while its group streams movers);
* a joining replica dies *mid-catch-up* (the sync aborts, the group is
  untouched);

plus the acceptance scenario: a 4-shard x 2-replica cluster survives a
primary kill under a concurrent TPC-H read + INSERT stream, stays
identical to the 1-shard oracle, and the promoted topology outlives the
coordinator that performed the promotion.
"""

import threading

import pytest

import repro.api as api
from repro.cluster import (
    Coordinator,
    FaultInjector,
    FaultyBackend,
    ShardGroup,
)
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.workloads.tpch.dbgen import generate
from repro.workloads.tpch.loader import DEFAULT_SHARD_COLUMNS, load_encrypted
from repro.workloads.tpch.queries import QUERIES

pytestmark = pytest.mark.crash

SCALE_FACTOR = 0.0004
SEED = 19920101

#: held out of the initial load and streamed in concurrently (acceptance)
HELD_OUT_LINEITEMS = 40


@pytest.fixture(scope="module")
def data():
    return generate(scale_factor=SCALE_FACTOR, seed=SEED)


def _connect_replicated(
    data, num_groups, rng_seed, replicas=1, trim_lineitem=0
):
    """A cluster of ``num_groups`` replica groups over fault-injectable
    in-process shards; member ``s<g>r<o>`` is ordinal o of group g."""
    injector = FaultInjector()
    groups = [
        ShardGroup(
            [
                FaultyBackend(SDBServer(shard_id=g), f"s{g}r{o}", injector)
                for o in range(1 + replicas)
            ]
        )
        for g in range(num_groups)
    ]
    conn = api.connect(
        server=Coordinator(groups),
        modulus_bits=256,
        value_bits=64,
        rng=seeded_rng(rng_seed),
    )
    loaded = dict(data)
    if trim_lineitem:
        loaded["lineitem"] = data["lineitem"][:-trim_lineitem]
    load_encrypted(
        conn.proxy, loaded, rng=seeded_rng(rng_seed + 1),
        shard_by=DEFAULT_SHARD_COLUMNS,
    )
    return conn, injector, groups


@pytest.fixture(scope="module")
def oracle_answers(data):
    conn = api.connect(
        shards=1, modulus_bits=256, value_bits=64, rng=seeded_rng(101)
    )
    load_encrypted(
        conn.proxy, data, rng=seeded_rng(102), shard_by=DEFAULT_SHARD_COLUMNS
    )
    answers = _answers(conn)
    conn.close()
    return answers


def _normalize(table, ordered):
    rows = [
        tuple(round(v, 4) if isinstance(v, float) else v for v in row)
        for row in table.rows()
    ]
    return rows if ordered else sorted(rows, key=repr)


def _answers(conn, numbers=range(1, 23)):
    out = {}
    for number in numbers:
        sql = QUERIES[number]
        out[number] = _normalize(
            conn.proxy.query(sql).table, "ORDER BY" in sql.upper()
        )
    return out


def _assert_matches(got: dict, want: dict):
    for number in got:
        rows_got, rows_want = got[number], want[number]
        assert len(rows_got) == len(rows_want), f"Q{number} cardinality"
        for row_got, row_want in zip(rows_got, rows_want):
            for value_got, value_want in zip(row_got, row_want):
                if isinstance(value_want, float) or isinstance(value_got, float):
                    assert value_got == pytest.approx(
                        value_want, rel=1e-6, abs=1e-6
                    ), f"Q{number}: {row_got} != {row_want}"
                else:
                    assert value_got == value_want, (
                        f"Q{number}: {row_got} != {row_want}"
                    )


def _kill_mid_query(data, oracle_answers, rng_seed, op):
    """Kill ``s0r0`` the moment it starts serving ``op`` for a query."""
    conn, injector, groups = _connect_replicated(data, 2, rng_seed=rng_seed)
    killed = []

    def kill_mid_scatter(label):
        if label == f"s0r0.{op}" and not killed:
            killed.append(label)
            injector.kill("s0r0")

    injector.on_op.append(kill_mid_scatter)
    _assert_matches(_answers(conn), oracle_answers)
    assert killed, "the scatter never touched the doomed member"
    status = groups[0].replica_status()
    assert status["primary_ordinal"] == 1
    kinds = [e.kind for e in conn.proxy.server.failover.events]
    assert "evict" in kinds and "promote" in kinds
    conn.close()


def test_primary_killed_mid_query_retries_transparently(data, oracle_answers):
    # the kill lands on the very execute_prepared that is serving a
    # scatter leg: that call fails, the group evicts + promotes, and its
    # read retry re-runs the leg on the survivor inside the same query
    _kill_mid_query(data, oracle_answers, 301, "execute_prepared")


def test_primary_killed_mid_fetch_retries_transparently(data, oracle_answers):
    # the leg's result is pinned to the member that dies while streaming
    # it: the group cannot resume it elsewhere, so the coordinator's leg
    # retry re-executes the leg against the promoted member
    _kill_mid_query(data, oracle_answers, 311, "fetch_rows")


def test_primary_killed_mid_insert_commits_on_survivors(data, oracle_answers):
    held_out = data["lineitem"][-HELD_OUT_LINEITEMS:]
    conn, injector, groups = _connect_replicated(
        data, 2, rng_seed=401, trim_lineitem=HELD_OUT_LINEITEMS
    )
    placeholders = ",".join("?" * len(held_out[0]))
    insert_sql = f"INSERT INTO lineitem VALUES ({placeholders})"
    cursor = conn.cursor()
    inserts = []

    def kill_mid_fanout(label):
        # die while the write fan-out is applying this very INSERT: the
        # survivor has (or will) apply it, the dead member is evicted,
        # and the statement still reports success
        if label.endswith(".execute_dml"):
            inserts.append(label)
            if len(inserts) == len(held_out):  # mid-stream, first member
                injector.kill(label.split(".")[0])

    injector.on_op.append(kill_mid_fanout)
    for row in held_out:
        cursor.execute(insert_sql, row)
    assert any(m.state == "down" for g in groups for m in g.members)
    # no insert was lost or doubled: every TPC-H answer matches the
    # oracle loaded with the full lineitem table
    _assert_matches(_answers(conn), oracle_answers)
    conn.close()


def test_primary_killed_mid_rebalance_copy(data, oracle_answers):
    conn, injector, groups = _connect_replicated(data, 2, rng_seed=501)
    incoming = [
        ShardGroup(
            [
                FaultyBackend(SDBServer(shard_id=2 + g), f"s{2 + g}r{o}", injector)
                for o in range(2)
            ]
        )
        for g in range(2)
    ]
    copies = []

    def kill_mid_copy(label):
        if label.startswith("copy:"):
            copies.append(label)
            if len(copies) == 3:
                injector.kill("s1r0")  # a source primary dies mid-stream

    report = conn.rebalance(4, endpoints=incoming, on_step=kill_mid_copy)
    assert report.new_count == 4 and report.rows_moved > 0
    assert groups[1].replica_status()["primary_ordinal"] == 1
    _assert_matches(_answers(conn), oracle_answers)
    # the promoted, resharded topology survives a coordinator restart
    fresh = Coordinator(list(conn.proxy.server.shards))
    assert fresh.num_shards == 4
    assert fresh.replica_status()[1]["primary_ordinal"] == 1
    conn.proxy.server = fresh
    _assert_matches(_answers(conn), oracle_answers)
    conn.close()


def test_replica_killed_during_catchup_aborts_sync(data, oracle_answers):
    conn, injector, groups = _connect_replicated(data, 2, rng_seed=601)
    joiner = FaultyBackend(SDBServer(shard_id=0), "joiner", injector)
    stores = []

    def kill_mid_sync(label):
        if label.startswith("joiner.") and len(stores) == 2:
            injector.kill("joiner")
        if label in ("joiner.shard_store", "joiner.append_table"):
            stores.append(label)

    injector.on_op.append(kill_mid_sync)
    with pytest.raises(api.ShardUnavailableError):
        groups[0].add_replica(joiner, chunk_rows=64)
    # the failed join left no trace: membership is back to two, the
    # group still serves, and the abort is on the failover log
    assert len(groups[0].members) == 2
    kinds = [e.kind for e in conn.proxy.server.failover.events]
    assert "sync-abort" in kinds
    _assert_matches(_answers(conn), oracle_answers)
    conn.close()


@pytest.mark.slow
def test_acceptance_4x2_cluster_survives_primary_kill_under_load(
    data, oracle_answers
):
    """Acceptance: 4 shards x 2 replicas, primary killed mid-stream under
    concurrent TPC-H reads + INSERTs -- every query completes, answers
    stay oracle-identical, and the promoted topology survives a
    coordinator restart."""
    held_out = data["lineitem"][-HELD_OUT_LINEITEMS:]
    conn, injector, groups = _connect_replicated(
        data, 4, rng_seed=701, trim_lineitem=HELD_OUT_LINEITEMS
    )
    placeholders = ",".join("?" * len(held_out[0]))
    insert_sql = f"INSERT INTO lineitem VALUES ({placeholders})"
    errors: list = []
    failover_seen: list = []
    inserted = threading.Event()

    def reader():
        session = api.connect(proxy=conn.proxy)
        cursor = session.cursor()
        try:
            while not inserted.is_set():
                cursor.execute(QUERIES[6])
                cursor.fetchall()
                if cursor.report.failover:
                    failover_seen.extend(cursor.report.failover)
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    def writer():
        session = api.connect(proxy=conn.proxy)
        cursor = session.cursor()
        try:
            for index, row in enumerate(held_out):
                cursor.execute(insert_sql, row)
                if index == HELD_OUT_LINEITEMS // 2:
                    injector.kill("s1r0")  # primary dies mid-stream
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)
        finally:
            inserted.set()

    threads = [threading.Thread(target=reader) for _ in range(3)]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=300)
    assert not errors
    assert not any(thread.is_alive() for thread in threads)
    assert groups[1].replica_status()["primary_ordinal"] == 1

    # every committed row survived on the promoted topology
    _assert_matches(_answers(conn), oracle_answers)
    counts = [
        status["tables"].get("lineitem", 0)
        for status in conn.proxy.server.shard_status()
    ]
    assert sum(counts) == len(data["lineitem"])

    # the promotion is durable: a fresh coordinator over the same groups
    # adopts replica 1 as group 1's primary and keeps answering
    fresh = Coordinator(groups)
    assert fresh.replica_status()[1]["primary_ordinal"] == 1
    assert fresh.failover.generation >= 1
    conn.proxy.server = fresh
    _assert_matches(_answers(conn), oracle_answers)
    conn.close()
