"""Index-probe access paths: probe == scan, same rows in the same order.

The engine chooses probe vs scan inside ``access_path`` from the exact
match count; these tests drive the same statements with the probe forced
on (floor = 0) and forced off (floor = inf) through the function's
test-only hook and require identical results -- for SELECT (materialized
and pipelined), UPDATE and DELETE, over tables with NULLs, duplicates,
int/float/date/string/mixed keys, and with writes interleaved so every
maintenance hook is exercised.  The row interpreter (which never probes)
is a second, independent reference.
"""

import datetime
import random

import pytest

from repro.engine import Catalog, Engine
from repro.engine.executor import INDEX_MIN_ROWS, access_path
from repro.engine.index import HashIndex, OrderedIndex
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table
from repro.engine.udf import UDFRegistry

from tests.engine.querygen import COLUMNS, QueryGenerator, random_rows

NEVER = float("inf")


@pytest.fixture()
def floor(monkeypatch):
    """Set the access-path floor: 0 forces probes, NEVER forces scans."""

    def set_floor(value):
        monkeypatch.setattr(access_path, "min_rows", value)

    return set_floor


# -- the index structures themselves ------------------------------------------


def test_hash_index_tracks_adds_and_removes():
    index = HashIndex.build([5, None, 7, 5, 5.0], None)
    assert index.rids((5,)) == [0, 3, 4]  # 5 == 5.0: one bucket
    assert index.count((5, 7)) == 4
    assert index.rids((7, 5)) == [0, 2, 3, 4]  # merged ascending
    index.remove(5, 3)
    assert index.rids((5,)) == [0, 4]
    assert index.add(5, 1) and index.rids((5,)) == [0, 1, 4]
    assert index.add(None, 9) and index.count((None,)) == 0
    assert not index.add("five", 6)  # another comparison family
    index.remove(7, 2)
    assert 7 not in index.buckets


def test_ordered_index_spans_and_maintenance():
    column = [30, 10, None, 20, 10, 40]
    index = OrderedIndex.build(column, None)
    assert index.values == [10, 10, 20, 30, 40]
    assert index.rids == [1, 4, 3, 0, 5]
    assert index.span(10, True, 30, True) == (0, 4)
    assert index.span(10, False, 30, False) == (2, 3)
    assert index.span(None, False, 20, False) == (0, 2)
    assert index.span(35, True, None, False) == (4, 5)
    assert index.span(50, True, 5, True) == (5, 5)  # empty, never negative
    assert index.rids_between(0, 4) == [0, 1, 3, 4]
    assert index.add(10, 2)  # lands between rids 1 and 4
    assert index.rids[:3] == [1, 2, 4]
    index.remove(10, 1)
    assert index.values == [10, 10, 20, 30, 40] and index.rids[:2] == [2, 4]
    assert not index.add("x", 7)


@pytest.mark.parametrize("column", [
    [1, "one", 2],                          # mixed families
    [1.0, float("nan"), 2.0],               # NaN equals nothing
    [datetime.date(2020, 1, 1), datetime.datetime(2020, 1, 1)],
])
def test_unindexable_columns_are_refused(column):
    assert HashIndex.build(column, None) is None
    assert OrderedIndex.build(column, None) is None


def test_unhashable_and_unordered_columns():
    assert HashIndex.build([[1], [2]], None) is None
    cells = [object(), object()]
    assert HashIndex.build(cells, None) is not None  # identity-hashable
    assert OrderedIndex.build(cells, None) is None   # but no total order


# -- table hooks --------------------------------------------------------------


def _table(rows, names=("k", "v")):
    specs = tuple(ColumnSpec(name, DataType.INT) for name in names)
    return Table.from_rows(Schema(specs), rows)


def test_row_ids_survive_deletes_without_renumbering():
    table = _table([(i % 5, i) for i in range(40)])
    hashed = table.hash_index("k")
    ordered = table.ordered_index("v")
    assert table.positions(hashed.rids((3,))) == [3, 8, 13, 18, 23, 28, 33, 38]
    table.delete_rows([0, 8])
    assert table.hash_index("k") is hashed  # maintained, not rebuilt
    assert table.ordered_index("v") is ordered
    positions = table.positions(hashed.rids((3,)))
    assert [table.column("v")[p] for p in positions] == [3, 13, 18, 23, 28, 33, 38]
    table.append_rows([(3, 100), (9, 101)])
    table.set_cell("k", 0, 3)  # row v=1 moves into bucket 3
    positions = table.positions(hashed.rids((3,)))
    assert positions == sorted(positions)
    assert [table.column("v")[p] for p in positions] == [
        1, 3, 13, 18, 23, 28, 33, 38, 100,
    ]
    start, stop = ordered.span(99, True, None, False)
    assert table.positions(ordered.rids_between(start, stop)) == [38, 39]


def test_mass_delete_drops_indexes_and_full_delete_resets():
    table = _table([(i, i) for i in range(32)])
    table.hash_index("k")
    table.delete_rows([1])
    assert table.index_names() == [("k", "hash")]
    table.delete_rows(list(range(10)))  # > 1/8 of the rows
    assert table.index_names() == []
    rebuilt = table.hash_index("k")
    assert table.positions(rebuilt.rids((20,))) == [9]
    table.keep_rows([False] * table.num_rows)
    assert table.num_rows == 0 and table.index_names() == []
    table.append_rows([(7, 7)])
    assert table.positions(table.hash_index("k").rids((7,))) == [0]


def test_family_breaking_write_retires_the_index():
    table = _table([(i, i) for i in range(10)])
    table.hash_index("k")
    table.ordered_index("k")
    table.set_cell("k", 4, "four")
    assert table.index_names() == []
    assert table.hash_index("k") is None  # stays unindexed, never retried


def test_private_copies_are_never_indexed():
    table = _table([(i, i) for i in range(10)])
    copy = Table(table.schema, table.columns, indexable=False)
    assert copy.hash_index("k") is None and copy.index_names() == []


def test_small_tables_stay_unindexed_by_default():
    table = _table([(i, i) for i in range(INDEX_MIN_ROWS - 1)])
    catalog = Catalog()
    catalog.create("t", table)
    engine = Engine(catalog)
    result = engine.execute("SELECT v FROM t WHERE k = 3")
    assert result.exec_info.access == ("scan(t)",)
    assert table.index_names() == []
    table.append_rows([(INDEX_MIN_ROWS, 0)])
    result = engine.execute("SELECT v FROM t WHERE k = 3")
    assert result.exec_info.access[0].startswith("index(t.k) = -> 1/")
    # a predicate keeping most rows scans even though the index exists
    result = engine.execute("SELECT v FROM t WHERE k >= 3")
    assert result.exec_info.access == ("scan(t)",)
    assert ("k", "ordered") in table.index_names()


# -- differential: random tables, random statements ----------------------------

DATES = [datetime.date(2020, 1, 1) + datetime.timedelta(days=d) for d in range(12)]
WORDS = ["red", "green", "blue", "teal", "pink", "grey"]

WIDE_SPECS = (
    ColumnSpec("i", DataType.INT),
    ColumnSpec("f", DataType.DECIMAL, scale=2),
    ColumnSpec("d", DataType.DATE),
    ColumnSpec("s", DataType.STRING),
    ColumnSpec("m", DataType.STRING),   # mixed int/str: unindexable
    ColumnSpec("x", DataType.INT),
)


def _wide_row(rng):
    def maybe(value):
        return None if rng.random() < 0.1 else value

    return (
        maybe(rng.randint(-8, 8)),
        maybe(rng.choice([0.5, 1.0, 1.5, 2, 2.5, 3])),  # int among floats
        maybe(rng.choice(DATES)),
        maybe(rng.choice(WORDS)),
        rng.choice([1, 2, "one", "two"]),
        rng.randint(0, 1000),
    )


def _literal(value):
    if isinstance(value, datetime.date):
        return f"DATE '{value.isoformat()}'"
    if isinstance(value, str):
        return f"'{value}'"
    return repr(value)


def _wide_predicate(rng):
    column, domain = rng.choice([
        ("i", list(range(-9, 10))),
        ("f", [0.5, 1, 1.5, 2.0, 2.5, 3, 9.75]),
        ("d", DATES + [datetime.date(2019, 6, 1)]),
        ("s", WORDS + ["mauve"]),
        ("m", [1, 2]),
    ])
    shape = rng.choice(["=", "in", "between", "<", "<=", ">", ">=", "flip"])
    if column == "m":  # ordering a mixed column is an error on every path
        shape = rng.choice(["=", "in"])
    a, b = rng.choice(domain), rng.choice(domain)
    if shape == "in":
        items = [_literal(rng.choice(domain)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.2:
            items.append("NULL")
        return f"{column} IN ({', '.join(items)})"
    if shape == "between":
        if rng.random() < 0.8:  # the rest are empty (low > high) ranges
            a, b = sorted((a, b))
        return f"{column} BETWEEN {_literal(a)} AND {_literal(b)}"
    if shape == "flip":
        return f"{_literal(a)} {rng.choice(['=', '<', '>='])} {column}"
    return f"{column} {shape} {_literal(a)}"


def _wide_where(rng):
    conjuncts = [_wide_predicate(rng) for _ in range(rng.randint(1, 2))]
    if rng.random() < 0.5:
        # a residual the index cannot answer: a UDF call over the rows
        conjuncts.insert(rng.randrange(len(conjuncts) + 1), "bump(x) > 300")
    return " AND ".join(conjuncts)


def _udfs():
    udfs = UDFRegistry()
    udfs.register_scalar("bump", lambda v: None if v is None else v + 1)
    udfs.register_batch(
        "bump", lambda n, col: [None if v is None else v + 1 for v in col]
    )
    return udfs


def _wide_engines(rng, rows=120):
    data = [_wide_row(rng) for _ in range(rows)]
    engines = []
    for batch in (True, True, False):
        catalog = Catalog()
        catalog.create("w", Table.from_rows(Schema(WIDE_SPECS), data))
        engines.append(Engine(catalog, _udfs(), batch_enabled=batch))
    return engines


def _rows(table):
    return list(table.rows())


@pytest.mark.parametrize("seed", range(12))
def test_probe_equals_scan_with_interleaved_writes(seed, floor):
    """Three engines over identical data run one statement stream: probe
    forced on, probe forced off, row interpreter.  Every SELECT must
    return the same rows in the same order; every write the same count."""
    rng = random.Random(f"access-{seed}")
    probing, scanning, reference = _wide_engines(rng)
    probes = 0
    for _ in range(60):
        roll = rng.random()
        if roll < 0.5:
            limit = f" LIMIT {rng.randint(0, 6)}" if rng.random() < 0.3 else ""
            sql = f"SELECT i, f, d, s, x FROM w WHERE {_wide_where(rng)}{limit}"
            floor(0)
            got = probing.execute(sql)
            pipelined = probing.execute_iter(sql)
            streamed = list(pipelined.rows)
            probes += got.exec_info.access[0].startswith("index(")
            floor(NEVER)
            want = scanning.execute(sql)
            assert want.exec_info.access == ("scan(w)",)
            assert _rows(got) == _rows(want), sql
            assert [tuple(r) for r in streamed] == _rows(want), sql
            assert pipelined.info.access == got.exec_info.access
            assert _rows(reference.execute(sql)) == _rows(want), sql
            continue
        if roll < 0.65:
            values = ", ".join(
                "NULL" if v is None else _literal(v) for v in _wide_row(rng)
            )
            sql = f"INSERT INTO w VALUES ({values})"
        elif roll < 0.85:
            # rewrite an indexed column, sometimes to NULL
            target = rng.choice(["i", "f", "d", "s"])
            value = {
                "i": rng.randint(-8, 8), "f": rng.choice([0.5, 2, 2.5]),
                "d": rng.choice(DATES), "s": rng.choice(WORDS),
            }[target]
            new = "NULL" if rng.random() < 0.15 else _literal(value)
            sql = f"UPDATE w SET {target} = {new}, x = x + 1 WHERE {_wide_where(rng)}"
        else:
            sql = f"DELETE FROM w WHERE {_wide_predicate(rng)} AND x < 400"
        floor(0)
        got = probing.execute_dml(sql)
        floor(NEVER)
        assert scanning.execute_dml(sql) == got, sql
        assert reference.execute_dml(sql) == got, sql
    floor(NEVER)
    final = "SELECT i, f, d, s, m, x FROM w"
    assert _rows(probing.execute(final)) == _rows(scanning.execute(final))
    assert _rows(reference.execute(final)) == _rows(scanning.execute(final))
    assert probes >= 5, "the stream never exercised a probe"
    live = probing.catalog.get("w").index_names()
    assert live and all(column != "m" for column, _ in live)


@pytest.mark.parametrize("seed", range(8))
def test_querygen_statements_agree_across_paths(seed, floor):
    """The SQLite-differential generator's statements (joins, aggregates,
    DISTINCT, OR trees) through both access paths."""
    rng = random.Random(f"querygen-access-{seed}")
    engines = []
    data = {name: random_rows(rng, name, 90) for name in COLUMNS}
    for _ in range(2):
        catalog = Catalog()
        for name, columns in COLUMNS.items():
            specs = tuple(
                ColumnSpec(c, DataType.INT if kind == "int" else DataType.STRING)
                for c, kind in columns
            )
            catalog.create(name, Table.from_rows(Schema(specs), data[name]))
        engines.append(Engine(catalog))
    probing, scanning = engines
    generator = QueryGenerator(rng)
    probes = 0
    for _ in range(80):
        sql = generator.query()
        floor(0)
        got = probing.execute(sql)
        floor(NEVER)
        want = scanning.execute(sql)
        assert _rows(got) == _rows(want), sql
        assert got.exec_info.path == want.exec_info.path
        probes += any(line.startswith("index(") for line in got.exec_info.access)
    assert probes >= 5


def test_pipelined_probe_keeps_its_snapshot(floor):
    """A pipelined result opened through a probe reflects execute time,
    even when the probed rows are rewritten or deleted before the fetch."""
    floor(0)
    catalog = Catalog()
    catalog.create("t", _table([(i % 4, i) for i in range(20)]))
    engine = Engine(catalog)
    engine.stream_segment_rows = 2
    pipeline = engine.execute_iter("SELECT k, v FROM t WHERE k = 1")
    assert pipeline.info.access == ("index(t.k) = -> 5/20 rows",)
    first = next(pipeline.rows)
    engine.execute_dml("UPDATE t SET v = -1 WHERE k = 1")
    engine.execute_dml("DELETE FROM t WHERE v = -1")
    rest = list(pipeline.rows)
    assert [first] + rest == [[1, 1], [1, 5], [1, 9], [1, 13], [1, 17]]
    assert list(engine.execute_iter("SELECT v FROM t WHERE k = 1").rows) == []


def test_pipelined_segment_falls_back_to_the_row_interpreter(floor):
    """A segment the batch evaluator rejects re-runs on the row path and
    says so on the shared ExecInfo."""
    floor(0)
    udfs = UDFRegistry()
    udfs.register_scalar("twice", lambda v: v * 2)  # scalar only: no batch form
    catalog = Catalog()
    catalog.create("t", _table([(i % 5, i) for i in range(20)]))
    engine = Engine(catalog, udfs)
    pipeline = engine.execute_iter("SELECT twice(v) FROM t WHERE k = 2")
    assert pipeline.info.path == "batch"
    assert list(pipeline.rows) == [[4], [14], [24], [34]]
    assert pipeline.info.path == "row"
    assert "no batch form" in pipeline.info.fallback
    assert pipeline.info.access == ("index(t.k) = -> 4/20 rows",)


def test_literal_of_another_family_keeps_the_scan(floor):
    """A string compared to an int column is the evaluator's business
    (equality is False, ordering is an error) -- never the index's."""
    floor(0)
    catalog = Catalog()
    catalog.create("t", _table([(i, i) for i in range(10)]))
    engine = Engine(catalog)
    result = engine.execute("SELECT v FROM t WHERE k = 'three'")
    assert _rows(result) == [] and result.exec_info.access == ("scan(t)",)
    with pytest.raises(TypeError):
        engine.execute("SELECT v FROM t WHERE k < 'three'")
