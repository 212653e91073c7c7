"""Replica sets, weighted placement, fault injection: the fast unit tier.

The crash suite (``test_failover.py``) pins the full failover protocol
against the TPC-H oracle; this file covers the mechanics underneath it --
the weighted residue map, the fault injector, the group's read/write
fan-out and eviction rules, replica catch-up, the throttle, and the
``replicas=`` / report / leakage surfaces -- with tiny in-process
clusters that keep the tier-1 run fast.
"""

import threading
import time

import pytest

import repro.api as api
from repro.api.exceptions import ShardUnavailableError
from repro.cluster import (
    Coordinator,
    FailoverManager,
    FaultInjector,
    FaultyBackend,
    RateLimiter,
    ShardGroup,
    ShardMap,
    shard_map_for,
)
from repro.cluster.router import ROUTING_SPACE
from repro.core.meta import ValueType
from repro.core.security import replication_leakage
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


# -- weighted residue maps ----------------------------------------------------


def test_uniform_map_matches_legacy_modulus_placement():
    for n in (1, 2, 3, 4, 7):
        shard_map = shard_map_for(n)
        assert all(
            shard_map.shard_of(r) == r % n for r in range(0, ROUTING_SPACE, 97)
        )


def test_weighted_map_splits_proportionally():
    shard_map = ShardMap.from_weights((3, 1))
    shares = [shard_map.share_of(0), shard_map.share_of(1)]
    assert shares[0] == pytest.approx(0.75, abs=0.01)
    assert shares[1] == pytest.approx(0.25, abs=0.01)
    # every residue is assigned, and only to a valid shard
    assert shard_map.num_shards == 2
    assert set(shard_map.assignments) == {0, 1}


def test_equal_weights_collapse_to_uniform():
    assert shard_map_for(3, (2, 2, 2)).assignments == shard_map_for(3).assignments


def test_weight_validation():
    with pytest.raises(ValueError):
        ShardMap.from_weights((1, 0))
    with pytest.raises(ValueError):
        shard_map_for(2, (1, 2, 3))


# -- fault injection ----------------------------------------------------------


def test_fault_injector_kill_and_revive():
    injector = FaultInjector()
    backend = FaultyBackend(SDBServer(shard_id=0), "s0", injector)
    assert backend.ping()
    injector.kill("s0")
    with pytest.raises(ShardUnavailableError):
        backend.ping()
    injector.revive("s0")
    assert backend.ping()


def test_fault_injector_drop_next_is_one_shot():
    injector = FaultInjector()
    backend = FaultyBackend(SDBServer(shard_id=0), "s0", injector)
    injector.drop_next("s0", "ping")
    with pytest.raises(ShardUnavailableError):
        backend.ping()
    assert backend.ping()  # only the next call was dropped


def test_fault_injector_on_op_hooks_see_every_call():
    injector = FaultInjector()
    backend = FaultyBackend(SDBServer(shard_id=0), "s0", injector)
    seen = []
    injector.on_op.append(seen.append)
    backend.ping()
    backend.catalog_names()
    assert seen == ["s0.ping", "s0.catalog_names"]


# -- group read/write mechanics ----------------------------------------------


def _group(num_members=2, weights=None, injector=None, prefix="m"):
    injector = injector if injector is not None else FaultInjector()
    members = [
        FaultyBackend(SDBServer(shard_id=0), f"{prefix}{o}", injector)
        for o in range(num_members)
    ]
    return ShardGroup(members, weights=weights), injector


def _stored_names(backend):
    return set(backend.catalog_names())


def test_writes_fan_out_to_every_member():
    group, _ = _group(3)
    from repro.engine.schema import ColumnSpec, DataType, Schema
    from repro.engine.table import Table

    table = Table(
        Schema((ColumnSpec("x", DataType.INT),)), [[1, 2, 3]]
    )
    group.store_table("t", table)
    for member in group.members:
        assert member.backend.shard_dump("t").num_rows == 3


def test_reads_spread_by_weight():
    group, injector = _group(2, weights=(3, 1))
    counts = {"m0": 0, "m1": 0}

    def hook(label):
        name, _, op = label.partition(".")
        if op == "ping":
            counts[name] += 1

    injector.on_op.append(hook)
    for _ in range(40):
        group.ping()
    assert counts["m0"] == 30 and counts["m1"] == 10


def test_dead_member_is_evicted_and_reads_survive():
    group, injector = _group(2)
    injector.kill("m0")
    assert group.ping()  # retried onto the survivor
    status = group.replica_status()
    assert status["primary_ordinal"] == 1
    states = [m["state"] for m in status["members"]]
    assert states == ["down", "healthy"]
    kinds = [e.kind for e in group.failover.events]
    assert "evict" in kinds and "promote" in kinds


def test_all_members_dead_raises_typed_error():
    group, injector = _group(2)
    injector.kill("m0")
    injector.kill("m1")
    with pytest.raises(ShardUnavailableError):
        group.ping()


def test_member_that_misses_a_write_is_evicted():
    group, injector = _group(2)
    from repro.engine.schema import ColumnSpec, DataType, Schema
    from repro.engine.table import Table

    table = Table(Schema((ColumnSpec("x", DataType.INT),)), [[1]])
    # m1 drops exactly one store_table call but stays alive: it missed a
    # committed write, so it can no longer serve and must be evicted
    injector.drop_next("m1", "store_table")
    group.store_table("t", table)
    states = [m.state for m in group.members]
    assert states == ["healthy", "down"]
    assert "t" in _stored_names(group.members[0].backend)


def test_deterministic_write_error_propagates_untranslated():
    group, _ = _group(2)
    with pytest.raises(Exception) as info:
        group.drop_table("never_created")
    assert not isinstance(info.value, ShardUnavailableError)
    # nobody was evicted: the write was wrong, not the members
    assert all(m.state == "healthy" for m in group.members)


def test_unmapped_remote_error_is_not_a_transport_failure():
    """A daemon-side exception the wire client has no class for is still
    the *request's* failure: it surfaces to the caller and no member of
    the group is suspected or evicted for having answered."""
    from repro.net import RemoteError, RemoteServer, start_server

    class Broken(SDBServer):
        def execute(self, query, session=None):
            raise IndexError("list index out of range")

        def drop_table(self, name):
            raise IndexError("list index out of range")

    daemons = [start_server(sdb_server=Broken(shard_id=0))[0] for _ in range(2)]
    group = ShardGroup(
        [RemoteServer.connect("127.0.0.1", d.port) for d in daemons]
    )
    try:
        for call in (lambda: group.execute("SELECT 1"),
                     lambda: group.drop_table("t")):
            with pytest.raises(RemoteError) as info:
                call()
            assert info.value.error_type == "IndexError"
            assert not isinstance(info.value, ConnectionError)
            assert [m.state for m in group.members] == ["healthy", "healthy"]
        assert [e.kind for e in group.failover.events] == []
        assert group.ping()  # and the wires are still usable
    finally:
        group.close()
        for daemon in daemons:
            daemon.shutdown()
            daemon.server_close()


def test_promotion_survives_via_durable_record():
    injector = FaultInjector()
    groups = [
        ShardGroup(
            [
                FaultyBackend(SDBServer(shard_id=g), f"s{g}r{o}", injector)
                for o in range(2)
            ]
        )
        for g in range(2)
    ]
    coordinator = Coordinator(groups)
    injector.kill("s1r0")
    coordinator.replica_status()  # probes, evicts, promotes, persists
    assert groups[1].replica_status()["primary_ordinal"] == 1

    fresh = Coordinator(groups)
    assert fresh.replica_status()[1]["primary_ordinal"] == 1
    assert fresh.failover.generation >= 1
    coordinator.close()


# -- replica catch-up ---------------------------------------------------------


def test_add_replica_streams_to_parity():
    group, injector = _group(1)
    from repro.engine.schema import ColumnSpec, DataType, Schema
    from repro.engine.table import Table

    table = Table(
        Schema((ColumnSpec("x", DataType.INT),)), [list(range(500))]
    )
    group.store_table("t", table)
    joiner = FaultyBackend(SDBServer(shard_id=0), "m1", injector)
    member = group.add_replica(joiner, chunk_rows=128)
    assert member.state == "healthy"
    assert joiner.shard_dump("t").num_rows == 500
    # the new member serves reads once the original dies
    injector.kill("m0")
    assert group.shard_dump("t").num_rows == 500


def test_add_replica_copy_is_throttled_by_limiter():
    group, _ = _group(1)
    from repro.engine.schema import ColumnSpec, DataType, Schema
    from repro.engine.table import Table

    table = Table(
        Schema((ColumnSpec("x", DataType.INT),)), [list(range(300))]
    )
    group.store_table("t", table)

    class Recording(RateLimiter):
        rows = 0

        def charge(self, rows):
            Recording.rows += rows
            return super().charge(rows)

    limiter = Recording(max_rows_per_s=100_000)
    group.add_replica(SDBServer(shard_id=0), limiter=limiter, chunk_rows=64)
    assert Recording.rows >= 300  # every copied window was charged


def test_rate_limiter_sleeps_only_over_burst():
    fast = RateLimiter(max_rows_per_s=1_000_000)
    fast.charge(100)
    assert fast.slept_s == 0.0
    slow = RateLimiter(max_rows_per_s=50_000)
    before = time.monotonic()
    slow.charge(60_000)  # 10k rows over the one-second burst -> ~0.2s
    assert time.monotonic() - before >= 0.1
    assert slow.slept_s > 0.0
    assert RateLimiter(None).charge(10_000_000) == 0.0


# -- api surface: connect(replicas=), report, leakage -------------------------


def _connect_replicated(num_shards=2, replicas=1, seed=11):
    return api.connect(
        shards=num_shards,
        replicas=replicas,
        modulus_bits=256,
        value_bits=64,
        rng=seeded_rng(seed),
    )


def _load_pay(conn, rows=40):
    conn.proxy.create_table(
        "pay",
        [("id", ValueType.int_()), ("amount", ValueType.int_())],
        [[i, i * 10] for i in range(rows)],
        sensitive=["amount"],
        rng=seeded_rng(23),
        shard_by="id",
    )


def test_connect_replicas_builds_groups():
    conn = _connect_replicated(2, replicas=2)
    coordinator = conn.proxy.server
    assert all(isinstance(s, ShardGroup) for s in coordinator.shards)
    assert all(len(s.members) == 3 for s in coordinator.shards)
    _load_pay(conn)
    cursor = conn.execute("SELECT SUM(amount) FROM pay")
    assert cursor.fetchone()[0] == sum(i * 10 for i in range(40))
    assert cursor.report.failover == ()
    conn.close()


def test_connect_replicas_rejected_off_the_shards_shape():
    with pytest.raises(api.InterfaceError):
        api.connect(server=SDBServer(), replicas=2)


def test_failover_surfaces_on_report_and_leakage():
    injector = FaultInjector()
    groups = [
        ShardGroup(
            [
                FaultyBackend(SDBServer(shard_id=g), f"s{g}r{o}", injector)
                for o in range(2)
            ]
        )
        for g in range(2)
    ]
    conn = api.connect(
        server=Coordinator(groups), modulus_bits=256, rng=seeded_rng(31)
    )
    _load_pay(conn)
    injector.kill("s0r0")
    observed = ()
    for _ in range(6):
        cursor = conn.execute("SELECT SUM(amount) FROM pay")
        assert cursor.fetchone()[0] == sum(i * 10 for i in range(40))
        if cursor.report.failover:
            observed = cursor.report
            break
    assert observed, "the kill never surfaced as a failover event"
    assert any("promote" in line for line in observed.failover)
    assert any("cluster: failover:" in line for line in observed.leakage)

    entries = replication_leakage(conn.proxy.server)
    assert any("replica-placement" in line for line in entries)
    assert any("failover event" in line for line in entries)
    conn.close()


def test_concurrent_queries_all_survive_a_kill():
    injector = FaultInjector()
    groups = [
        ShardGroup(
            [
                FaultyBackend(SDBServer(shard_id=g), f"s{g}r{o}", injector)
                for o in range(2)
            ]
        )
        for g in range(2)
    ]
    conn = api.connect(
        server=Coordinator(groups), modulus_bits=256, rng=seeded_rng(37)
    )
    _load_pay(conn)
    expected = sum(i * 10 for i in range(40))
    errors, results = [], []

    def worker():
        session = api.connect(proxy=conn.proxy)
        try:
            for _ in range(5):
                cursor = session.execute("SELECT SUM(amount) FROM pay")
                results.append(cursor.fetchone()[0])
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for thread in threads:
        thread.start()
    injector.kill("s1r0")
    for thread in threads:
        thread.join(timeout=60)
    assert not errors
    assert results and all(value == expected for value in results)
    conn.close()


# -- weighted topologies end to end -------------------------------------------


def test_weighted_connect_skews_placement():
    conn = api.connect(
        shards=2, weights=(3, 1), modulus_bits=256, rng=seeded_rng(41)
    )
    _load_pay(conn, rows=200)
    counts = [
        status["tables"]["pay"]
        for status in conn.proxy.server.shard_status()
    ]
    assert sum(counts) == 200
    assert counts[0] > counts[1]  # ~3:1 split
    cursor = conn.execute("SELECT SUM(amount) FROM pay")
    assert cursor.fetchone()[0] == sum(i * 10 for i in range(200))
    conn.close()


def test_same_count_reweight_moves_rows_and_persists():
    conn = api.connect(shards=2, modulus_bits=256, rng=seeded_rng(43))
    _load_pay(conn, rows=200)
    before = [
        status["tables"]["pay"]
        for status in conn.proxy.server.shard_status()
    ]
    report = conn.rebalance(2, weights=(3, 1), max_rows_per_s=500_000)
    assert report.rows_moved > 0
    after = [
        status["tables"]["pay"]
        for status in conn.proxy.server.shard_status()
    ]
    assert sum(after) == 200
    assert after[0] > before[0]
    assert any("weighted topology" in note for note in report.notes)
    assert any("capacity weights" in line for line in report.leakage)
    cursor = conn.execute("SELECT SUM(amount) FROM pay")
    assert cursor.fetchone()[0] == sum(i * 10 for i in range(200))

    # the weighted topology is durable: a fresh coordinator adopts it
    fresh = Coordinator(list(conn.proxy.server.shards))
    assert tuple(fresh.topology.weights) == (3, 1)
    conn.proxy.server = fresh
    cursor = conn.execute("SELECT SUM(amount) FROM pay")
    assert cursor.fetchone()[0] == sum(i * 10 for i in range(200))
    conn.close()


def test_failover_manager_generation_is_monotone():
    manager = FailoverManager()
    mark = manager.mark()
    manager.record("suspect", 0, 1, "probe timeout")
    manager.promote(0, 1, "primary died")
    events = manager.events_since(mark)
    assert [e.kind for e in events] == ["suspect", "promote"]
    assert manager.generation == 1
    manager.adopt_generation(5)
    assert manager.generation == 5
    manager.adopt_generation(2)  # never rolls back
    assert manager.generation == 5
