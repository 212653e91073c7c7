"""E9 -- Architecture claim: parallel execution and fault tolerance.

Section 2.2: the new architecture "enjoys all the benefits such as
fault-tolerance, parallel-execution, and scalability provided by the
underlying Spark SQL engine".  Here that engine is the sharded cluster
(:mod:`repro.cluster`): a coordinator scatters each eligible query as a
partial query per shard plus a merge, and replica groups absorb dead
members.  This bench shows

* eligible encrypted queries take the scatter route on 2, 4 and 8
  in-process shards and produce the single-SP answers (correctness is in
  tests/engine/test_parallel.py),
* members killed mid-query are evicted and the read retried on a
  replica, so no query is lost,
* the partial/merge plan touches each shard independently (the
  scalability mechanism; in-process shards share one interpreter, so the
  bench reports route shape, not a speedup claim -- separate shard
  processes are bench_e14's subject).
"""

import pytest

import repro.api as api
from repro.api.exceptions import ShardUnavailableError
from repro.bench.harness import ResultTable, smoke_scaled
from repro.cluster import Coordinator, FaultInjector, ShardGroup
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.obs.metrics import global_metrics

ROWS = smoke_scaled(2000, 400)
SQL = "SELECT region, SUM(amount) AS total FROM pay GROUP BY region"
COLUMNS = [
    ("id", ValueType.int_()),
    ("region", ValueType.string(8)),
    ("amount", ValueType.decimal(2)),
]


def _rows():
    regions = ["east", "west", "north", "south"]
    return [
        (i, regions[i % 4], float((i * 37) % 500) + 0.25) for i in range(ROWS)
    ]


def _deployment(shards=None, server=None):
    conn = api.connect(
        shards=shards, server=server, modulus_bits=256, value_bits=64,
        rng=seeded_rng(41),
    )
    conn.proxy.create_table(
        "pay", COLUMNS, _rows(), sensitive=["amount"], rng=seeded_rng(42),
        shard_by="id" if shards or server else None,
    )
    return conn


def _answers(cursor) -> dict:
    return {row[0]: row[1] for row in cursor.execute(SQL).fetchall()}


def _matches(got: dict, want: dict) -> bool:
    return len(got) == len(want) and all(
        abs(got[k] - v) < 1e-6 for k, v in want.items()
    )


def _read_retries() -> float:
    counter = global_metrics().counter("sdb_replica_read_retries_total")
    return sum(v["value"] for v in counter.snapshot()["values"])


@pytest.fixture(scope="module")
def serial_result():
    conn = _deployment()
    answers = _answers(conn.cursor())
    conn.close()
    return answers


def test_parallel_plan_report(serial_result):
    table = ResultTable(
        "E9: shard-parallel encrypted aggregation",
        ["shards", "route", "shards scattered", "matches serial"],
    )
    for shards in (2, 4, 8):
        conn = _deployment(shards=shards)
        cursor = conn.cursor()
        matches = _matches(_answers(cursor), serial_result)
        scatter = cursor.report.scatter
        table.add(shards, scatter.mode, scatter.shards, matches)
        conn.close()
        assert scatter.mode == "scatter"
        assert scatter.shards == shards
        assert matches
    table.note("encrypted SUM merges because partial share-sums stay in the ring")
    table.emit()


def test_fault_tolerance_report(serial_result):
    table = ResultTable(
        "E9b: members killed mid-query absorbed by replica failover",
        ["killed members", "retries", "evictions", "promotions",
         "lost queries", "matches serial"],
    )
    for kills in (0, 1, 3):
        injector = FaultInjector()
        groups = [
            ShardGroup(
                [injector.wrap(SDBServer(shard_id=g), f"s{g}r{o}")
                 for o in range(2)]
            )
            for g in range(4)
        ]
        conn = _deployment(server=Coordinator(groups))
        doomed = {f"s{g}" for g in range(kills)}

        def kill_mid_query(label, doomed=doomed, injector=injector):
            # the member about to serve its group's scatter leg dies
            member, op = label.split(".")
            if member[:2] in doomed and op.startswith("execute_"):
                doomed.discard(member[:2])
                injector.kill(member)

        injector.on_op.append(kill_mid_query)
        retries_before = _read_retries()
        lost, matches = 0, False
        try:
            matches = _matches(_answers(conn.cursor()), serial_result)
        except ShardUnavailableError:
            lost = 1
        retries = round(_read_retries() - retries_before)
        kinds = [e.kind for e in conn.proxy.server.failover.events]
        evictions, promotions = kinds.count("evict"), kinds.count("promote")
        table.add(kills, retries, evictions, promotions, lost, matches)
        conn.close()
        assert not doomed, "the query never touched a doomed shard"
        assert lost == 0 and matches
        assert retries == kills and evictions == kills
    table.note("a dead member is evicted and its read re-run on a replica: "
               "a lost member, not a lost query")
    table.emit()


def test_parallel_query_speed(benchmark):
    conn = _deployment(shards=4)
    cursor = conn.cursor()
    benchmark(_answers, cursor)
    assert cursor.report.scatter.mode == "scatter"
    conn.close()


def test_serial_query_speed(benchmark):
    conn = _deployment()
    benchmark(_answers, conn.cursor())
    conn.close()
