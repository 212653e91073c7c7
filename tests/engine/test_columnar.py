"""The columnar batch path: differential testing against the row path.

The row interpreter is the reference semantics; the batch path must be
indistinguishable from it on every query it accepts, and must fall back
(not diverge, not crash) on everything else.  The differential test drives
both engines over the same generated workload used by the SQLite oracle
tests, comparing ordered row lists -- stronger than the multiset comparison
used cross-engine, because the two paths share tie-breaking rules.
"""

import random

import pytest

from repro.core.udfs import register_sdb_udfs
from repro.crypto import secret_sharing as ss
from repro.crypto.keys import generate_system_keys
from repro.crypto.prf import seeded_rng
from repro.engine import (
    Catalog,
    ColumnBatch,
    ColumnSpec,
    DataType,
    Engine,
    Schema,
    Table,
)
from repro.engine.expressions import EvaluationError
from repro.engine.udf import UDFRegistry

from tests.engine.querygen import COLUMNS, QueryGenerator, random_rows

NUM_QUERIES = 150
ROWS_PER_TABLE = 40


def _dtype(kind: str) -> DataType:
    return DataType.INT if kind == "int" else DataType.STRING


@pytest.fixture(scope="module")
def engines():
    rng = random.Random(20260727)
    catalog = Catalog()
    for name, columns in COLUMNS.items():
        schema = Schema(tuple(ColumnSpec(c, _dtype(k)) for c, k in columns))
        catalog.create(
            name, Table.from_rows(schema, random_rows(rng, name, ROWS_PER_TABLE))
        )
    return Engine(catalog, batch_enabled=False), Engine(catalog)


def test_differential_batch_vs_row(engines):
    row_engine, batch_engine = engines
    generator = QueryGenerator(random.Random(31337))
    mismatches = []
    batch_hits = 0
    for i in range(NUM_QUERIES):
        sql = generator.query()
        expected = list(row_engine.execute(sql).rows())
        result = batch_engine.execute(sql)
        actual = list(result.rows())
        if result.exec_info.path == "batch":
            batch_hits += 1
        else:
            # every generated query -- single-table or inner join -- must
            # take the batch path; a silent fallback here would mask
            # batch-evaluator breakage
            mismatches.append((i, sql, "fell back", result.exec_info.fallback))
            continue
        if actual != expected:
            mismatches.append((i, sql, expected[:5], actual[:5]))
    assert not mismatches, f"{len(mismatches)} diverging queries: {mismatches[:3]}"
    assert batch_hits > 0


def test_join_runs_on_batch_path(engines):
    row_engine, batch_engine = engines
    for sql in [
        "SELECT t1.a, t2.y FROM t1, t2 WHERE t1.a = t2.x",
        "SELECT t1.c, COUNT(*) AS n FROM t1, t2 "
        "WHERE t1.a = t2.x AND t2.y IS NOT NULL GROUP BY t1.c ORDER BY t1.c",
        "SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.x AND t2.y > 0 ORDER BY t1.a",
        "SELECT t1.a, t2.x FROM t1 CROSS JOIN t2 "
        "WHERE t1.a IS NOT NULL ORDER BY t1.a, t2.x LIMIT 9",
    ]:
        result = batch_engine.execute(sql)
        assert list(result.rows()) == list(row_engine.execute(sql).rows()), sql
        assert result.exec_info.path == "batch", (sql, result.exec_info.fallback)


def test_left_join_falls_back_to_row_path(engines):
    row_engine, batch_engine = engines
    sql = "SELECT t1.a, t2.y FROM t1 LEFT JOIN t2 ON t1.a = t2.x"
    expected = list(row_engine.execute(sql).rows())
    result = batch_engine.execute(sql)
    assert list(result.rows()) == expected
    assert result.exec_info.path == "row"
    assert "unsupported" in result.exec_info.fallback


def test_subquery_falls_back_to_row_path(engines):
    row_engine, batch_engine = engines
    sql = "SELECT a FROM t1 WHERE b = (SELECT MAX(x) FROM t2)"
    expected = list(row_engine.execute(sql).rows())
    result = batch_engine.execute(sql)
    assert list(result.rows()) == expected
    assert result.exec_info.path == "row"
    assert "unsupported" in result.exec_info.fallback


def test_errors_surface_identically(engines):
    row_engine, batch_engine = engines
    sql = "SELECT a / (a - a) FROM t1"
    with pytest.raises(EvaluationError):
        row_engine.execute(sql)
    with pytest.raises(EvaluationError):
        batch_engine.execute(sql)


def test_short_circuit_guard_errors_fall_back(engines):
    """The row path's per-row OR short-circuit hides a division by zero
    that the eager batch path hits; the fallback must reproduce the row
    path's successful result, not surface the batch error."""
    row_engine, batch_engine = engines
    # for every row, either d = d short-circuits to keep, or d is NULL and
    # the right side evaluates to NULL without ever dividing -- the row
    # path never errors, the eager batch path always would
    sql = "SELECT a FROM t1 WHERE d = d OR 1 / (d - d) > 0"
    expected = list(row_engine.execute(sql).rows())
    result = batch_engine.execute(sql)
    assert list(result.rows()) == expected
    assert result.exec_info.path == "row"
    assert result.exec_info.fallback.startswith("error")


def test_three_valued_logic_matches(engines):
    row_engine, batch_engine = engines
    for sql in [
        "SELECT a FROM t1 WHERE a > 0 AND b > 0",
        "SELECT a FROM t1 WHERE a > 0 OR b > 0",
        "SELECT a FROM t1 WHERE NOT (a > 0)",
        "SELECT a, b FROM t1 WHERE a IS NULL OR b IS NOT NULL",
        "SELECT a FROM t1 WHERE a IN (1, 2, 3) OR c LIKE 'r%'",
        "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END FROM t1",
    ]:
        result = batch_engine.execute(sql)
        assert list(result.rows()) == list(row_engine.execute(sql).rows()), sql
        assert result.exec_info.path == "batch"


def test_order_by_expression_and_limit(engines):
    row_engine, batch_engine = engines
    sql = "SELECT a, b FROM t1 WHERE a IS NOT NULL AND b IS NOT NULL ORDER BY a * b DESC, a LIMIT 7"
    result = batch_engine.execute(sql)
    assert list(result.rows()) == list(row_engine.execute(sql).rows())
    assert result.exec_info.path == "batch"


def test_distinct_then_order(engines):
    row_engine, batch_engine = engines
    sql = "SELECT DISTINCT c FROM t1 ORDER BY c DESC"
    result = batch_engine.execute(sql)
    assert list(result.rows()) == list(row_engine.execute(sql).rows())
    assert result.exec_info.path == "batch"


def test_grouped_with_having_and_order(engines):
    row_engine, batch_engine = engines
    sql = (
        "SELECT c, COUNT(*) AS n, SUM(a) AS s, AVG(b) AS m FROM t1 "
        "WHERE a IS NOT NULL GROUP BY c HAVING COUNT(*) >= 2 ORDER BY n DESC, c"
    )
    result = batch_engine.execute(sql)
    assert list(result.rows()) == list(row_engine.execute(sql).rows())
    assert result.exec_info.path == "batch"


def test_distinct_aggregates_both_paths(engines):
    row_engine, batch_engine = engines
    sql = (
        "SELECT COUNT(DISTINCT a) AS c, SUM(DISTINCT a) AS s, "
        "MIN(DISTINCT a) AS lo, MAX(DISTINCT a) AS hi FROM t1"
    )
    expected = list(row_engine.execute(sql).rows())
    result = batch_engine.execute(sql)
    assert list(result.rows()) == expected
    assert result.exec_info.path == "batch"


def test_global_aggregate_on_empty_filter(engines):
    row_engine, batch_engine = engines
    sql = "SELECT COUNT(*) AS n, SUM(a) AS s FROM t1 WHERE a > 1000"
    result = batch_engine.execute(sql)
    assert list(result.rows()) == [(0, None)]
    assert list(row_engine.execute(sql).rows()) == [(0, None)]
    assert result.exec_info.path == "batch"


# -- secure UDFs on the batch path --------------------------------------------


@pytest.fixture(scope="module")
def secure_engines():
    keys = generate_system_keys(modulus_bits=128, value_bits=24, rng=seeded_rng(5))
    rng = seeded_rng(6)
    ck = keys.random_column_key(rng)
    row_ids = [keys.random_row_id(rng) for _ in range(64)]
    values = [rng.randrange(1, 2**20) for _ in range(64)]
    shares = ss.encrypt_column(keys, values, row_ids, ck)
    plain = [rng.randrange(0, 50) for _ in range(64)]
    schema = Schema(
        (ColumnSpec("q", DataType.INT), ColumnSpec("e", DataType.SHARE))
    )
    catalog = Catalog()
    catalog.create("enc", Table(schema, [plain, shares]))
    udfs = UDFRegistry()
    register_sdb_udfs(udfs)
    return (
        Engine(catalog, udfs, batch_enabled=False),
        Engine(catalog, udfs),
        keys,
    )


def test_secure_udfs_batch_equals_row(secure_engines):
    row_engine, batch_engine, keys = secure_engines
    n = keys.n
    for sql in [
        f"SELECT sdb_mul(e, e, {n}) FROM enc WHERE q < 25",
        f"SELECT sdb_add(e, e, {n}) FROM enc",
        f"SELECT sdb_agg_sum(e, {n}) AS s FROM enc WHERE q >= 10",
        f"SELECT q, sdb_agg_sum(e, {n}) AS s FROM enc GROUP BY q ORDER BY q",
    ]:
        result = batch_engine.execute(sql)
        assert list(result.rows()) == list(row_engine.execute(sql).rows()), sql
        assert result.exec_info.path == "batch", (sql, result.exec_info.fallback)


def test_unregistered_udf_takes_row_path():
    """Only register_batch entries promise purity, so a scalar UDF without
    a batch form must run on the row path -- eager batch evaluation of
    AND/OR/CASE branches would change a stateful UDF's call pattern."""
    schema = Schema((ColumnSpec("a", DataType.INT),))
    catalog = Catalog()
    catalog.create("t", Table(schema, [[10, 20, 30]]))
    udfs = UDFRegistry()
    calls = []

    def stamped(x):
        calls.append(x)
        return x + len(calls)

    udfs.register_scalar("stamped", stamped)
    engine = Engine(catalog, udfs)
    result = engine.execute("SELECT stamped(7) FROM t")
    assert result.exec_info.path == "row"
    assert "no batch form" in result.exec_info.fallback
    assert list(result.rows()) == [(8,), (9,), (10,)]
    assert len(calls) == 3


# -- ColumnBatch representation ----------------------------------------------


def test_batch_results_do_not_alias_storage():
    """A passthrough projection must copy: DML after a SELECT must not
    retroactively mutate the already-returned result (row-path behavior)."""
    schema = Schema((ColumnSpec("a", DataType.INT),))
    catalog = Catalog()
    table = Table(schema, [[1, 2, 3]])
    catalog.create("t", table)
    engine = Engine(catalog)
    result = engine.execute("SELECT a FROM t")
    assert result.exec_info.path == "batch"
    assert result.columns[0] is not table.columns[0]
    table.append_rows([(4,)])
    table.set_cell("a", 0, 99)
    assert list(result.rows()) == [(1,), (2,), (3,)]


def test_column_batch_round_trip():
    schema = Schema((ColumnSpec("a", DataType.INT), ColumnSpec("b", DataType.STRING)))
    table = Table(schema, [[1, 2, 3], ["x", "y", "z"]])
    batch = table.to_batch()
    assert batch.num_rows == 3
    assert batch.column("a") == [1, 2, 3]
    taken = batch.take([2, 0])
    assert taken.column("b") == ["z", "x"]
    assert list(taken.to_table().rows()) == [(3, "z"), (1, "x")]


def test_column_batch_from_columns_infers_specs():
    batch = ColumnBatch.from_columns(["n", "s"], [[None, 4], ["a", None]])
    assert batch.schema["n"].dtype is DataType.INT
    assert batch.schema["s"].dtype is DataType.STRING
    assert batch.to_table().num_rows == 2
