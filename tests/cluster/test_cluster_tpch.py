"""Cluster vs single-shard differential: all 22 TPC-H queries.

A 4-shard cluster (fact tables PRF-sharded, dimensions primary-resident)
and a 1-shard cluster over the same generated data must decrypt to
identical relations for every TPC-H query -- scatter-gather and the
fallback materialization may change *where* work runs, never the answer.
"""

import pytest

import repro.api as api
from repro.crypto.prf import seeded_rng
from repro.sql.params import bind_parameters
from repro.sql.parser import parse
from repro.workloads.tpch.dbgen import generate
from repro.workloads.tpch.loader import (
    DEFAULT_SHARD_COLUMNS,
    load_encrypted,
    load_plain,
)
from repro.workloads.tpch.queries import QUERIES

SCALE_FACTOR = 0.0004
SEED = 19920101


def _cluster(num_shards: int, rng_seed: int):
    conn = api.connect(
        shards=num_shards, modulus_bits=256, value_bits=64,
        rng=seeded_rng(rng_seed),
    )
    data = generate(scale_factor=SCALE_FACTOR, seed=SEED)
    load_encrypted(
        conn.proxy, data, rng=seeded_rng(rng_seed + 1),
        shard_by=DEFAULT_SHARD_COLUMNS,
    )
    return conn


@pytest.fixture(scope="module")
def one_shard():
    conn = _cluster(1, rng_seed=101)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def four_shards():
    conn = _cluster(4, rng_seed=202)
    yield conn
    conn.close()


@pytest.fixture(scope="module")
def two_shards():
    conn = _cluster(2, rng_seed=303)
    yield conn
    conn.close()


def _normalize(table, ordered: bool):
    rows = [
        tuple(round(v, 4) if isinstance(v, float) else v for v in row)
        for row in table.rows()
    ]
    return rows if ordered else sorted(rows, key=repr)


@pytest.mark.parametrize("number", list(range(1, 23)))
def test_tpch_identical_on_1_and_4_shards(one_shard, four_shards, number):
    sql = QUERIES[number]
    small = one_shard.proxy.query(sql).table
    large = four_shards.proxy.query(sql).table
    assert large.num_rows == small.num_rows, f"Q{number} cardinality"
    assert large.num_columns == small.num_columns
    _assert_same_rows(large, small, "ORDER BY" in sql.upper(), number)


def _assert_same_rows(got_table, want_table, ordered: bool, number: int):
    got = _normalize(got_table, ordered)
    want = _normalize(want_table, ordered)
    assert len(got) == len(want), f"Q{number} cardinality"
    for row_got, row_want in zip(got, want):
        for value_got, value_want in zip(row_got, row_want):
            if isinstance(value_want, float) or isinstance(value_got, float):
                assert value_got == pytest.approx(
                    value_want, rel=1e-6, abs=1e-6
                ), f"Q{number}: {row_got} != {row_want}"
            else:
                assert value_got == value_want, (
                    f"Q{number}: {row_got} != {row_want}"
                )


@pytest.fixture(scope="module")
def plain():
    return load_plain(generate(scale_factor=SCALE_FACTOR, seed=SEED))


@pytest.mark.parametrize("number", list(range(1, 23)))
def test_adhoc_and_prepared_share_one_path(two_shards, plain, number):
    """One rewritten plan run ad hoc (``Coordinator.execute``) and twice
    prepared decrypts to the plaintext answer every time, routed and
    reported identically, with all three cluster phases timed."""
    sql = QUERIES[number]
    proxy = two_shards.proxy
    coordinator = proxy.server
    plan = proxy.rewriter.rewrite(parse(sql)).defer_masks()

    def values():
        return plan.bind_slots(proxy.store.keys.n, (), rng=proxy.rewriter.rng)

    def decrypt(table):
        return proxy._decryptor.decrypt(table, plan.outputs)

    runs = [decrypt(coordinator.execute(bind_parameters(plan.query, values())))]
    reports = [coordinator.last_scatter]
    stmt_id = coordinator.prepare_query(plan.query)
    for _ in range(2):
        result_id, _ = coordinator.execute_prepared(stmt_id, values())
        runs.append(decrypt(coordinator.fetch_rows(result_id)))
        reports.append(coordinator.scatter_report(result_id))
        coordinator.close_result(result_id)
    coordinator.close_prepared(stmt_id)
    want = plain.execute(sql)
    for table in runs:
        _assert_same_rows(table, want, "ORDER BY" in sql.upper(), number)
    shapes = {
        (r.mode, r.shards, r.reason, r.leakage) for r in reports
    }
    assert len(shapes) == 1, shapes
    for report in reports:
        assert set(report.timings) == {"route_s", "scatter_s", "merge_s"}


def test_sharded_placement_actually_split(four_shards):
    coordinator = four_shards.proxy.server
    counts = [
        status["tables"].get("lineitem", 0)
        for status in coordinator.shard_status()
    ]
    assert sum(counts) > 0
    assert sum(1 for count in counts if count > 0) >= 2
