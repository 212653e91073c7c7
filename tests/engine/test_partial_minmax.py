"""Re-aggregable secure MIN/MAX partials (engine/partial.py).

``sdb_agg_min/max(token, share)`` now scatters: the partial emits the
winning order token (a plain MIN/MAX -- tokens share one mask across
slices, so they stay comparable) next to the winning share, and the merge
re-applies the UDF over the per-slice winners.  Pinned here at the plan
level and end-to-end on a 4-shard cluster against a single SP.
"""

import pytest

from repro.core.udfs import register_sdb_udfs
from repro.engine.partial import (
    EXTREME_UDFS,
    ineligibility,
    plan_split,
)
from repro.engine.udf import UDFRegistry
from repro.sql import ast
from repro.sql.parser import parse


@pytest.fixture()
def udfs():
    registry = UDFRegistry()
    register_sdb_udfs(registry)
    return registry


def test_extreme_udfs_are_eligible(udfs):
    query = parse(
        "SELECT sdb_agg_min(sdb_signed(t, 97), s) AS lo FROM enc"
    )
    assert ineligibility(query, udfs, lambda name: True) is None


def test_extreme_udf_wrong_arity_stays_serial(udfs):
    query = parse("SELECT sdb_agg_min(t) AS lo FROM enc")
    reason = ineligibility(query, udfs, lambda name: True)
    assert "token, share" in reason


def test_plan_emits_token_and_share_partials(udfs):
    query = parse("SELECT sdb_agg_max(t, s) AS hi FROM enc")
    split = plan_split(query, udfs)
    partial_aliases = [item.alias for item in split.partial.items]
    assert partial_aliases == ["__a0_t", "__a0"]
    token_item, share_item = split.partial.items
    assert isinstance(token_item.expr, ast.Aggregate)
    assert token_item.expr.func == "max"
    assert isinstance(share_item.expr, ast.FuncCall)
    # merge re-applies the UDF over (token winner, share winner)
    merge_expr = split.merge.items[0].expr
    assert isinstance(merge_expr, ast.FuncCall)
    assert merge_expr.name.lower() in EXTREME_UDFS
    assert [a.name for a in merge_expr.args] == ["__a0_t", "__a0"]


# -- end to end on a 4-shard cluster ---------------------------------------------


QUERIES = [
    "SELECT MIN(sal) AS lo FROM pay",
    "SELECT MAX(sal) AS hi FROM pay",
    "SELECT MIN(sal) AS lo, MAX(sal) AS hi, SUM(sal) AS t FROM pay",
    "SELECT dept, MIN(sal) AS lo, MAX(sal) AS hi FROM pay "
    "GROUP BY dept ORDER BY dept",
    "SELECT MIN(sal) AS lo FROM pay WHERE id <= 30",
]


@pytest.fixture()
def deployments():
    import repro.api as api
    from repro.core.meta import ValueType
    from repro.core.server import SDBServer
    from repro.crypto.prf import seeded_rng

    columns = [
        ("id", ValueType.int_()),
        ("dept", ValueType.string(8)),
        ("sal", ValueType.decimal(2)),
    ]
    rows = [
        (i, ["eng", "ops", "hr"][i % 3], float((i * 41) % 700) + 0.50)
        for i in range(1, 41)
    ]
    serial = api.connect(
        server=SDBServer(), modulus_bits=256, value_bits=64, rng=seeded_rng(55)
    )
    parallel = api.connect(
        shards=4, modulus_bits=256, value_bits=64, rng=seeded_rng(56)
    )
    serial.proxy.create_table(
        "pay", columns, rows, sensitive=["sal"], rng=seeded_rng(57)
    )
    parallel.proxy.create_table(
        "pay", columns, rows, sensitive=["sal"], rng=seeded_rng(57),
        shard_by="id",
    )
    yield serial, parallel
    serial.close()
    parallel.close()


@pytest.mark.parametrize("sql", QUERIES)
def test_parallel_minmax_matches_serial(deployments, sql):
    serial, parallel = deployments
    expected = serial.cursor().execute(sql).fetchall()
    cursor = parallel.cursor()
    assert cursor.execute(sql).fetchall() == expected
    assert cursor.report.scatter.mode == "scatter"
