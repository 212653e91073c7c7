"""Differential testing: our engine vs. SQLite vs. encrypted execution.

Three-way oracle chain on randomly generated queries:

1. the plaintext engine must match SQLite (stdlib ``sqlite3``) -- catches
   engine bugs against an independent, battle-tested implementation;
2. encrypted proxy execution must match the plaintext engine -- catches
   rewriter/protocol bugs (this is the paper's core correctness claim);
3. a sharded cluster must match SQLite too -- catches partial/merge
   split and routing bugs.

Both comparisons treat results as multisets (generated queries without
ORDER BY have unspecified order) and compare floats with tolerance.
"""

import random
import sqlite3

import pytest

from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.engine import Catalog, ColumnSpec, DataType, Engine, Schema, Table

from tests.engine.querygen import COLUMNS, QueryGenerator, random_rows

NUM_QUERIES = 120
ROWS_PER_TABLE = 25


def _dtype(kind: str) -> DataType:
    return DataType.INT if kind == "int" else DataType.STRING


@pytest.fixture(scope="module")
def oracle_setup():
    rng = random.Random(20150831)  # VLDB'15 opening day
    data = {name: random_rows(rng, name, ROWS_PER_TABLE) for name in COLUMNS}

    connection = sqlite3.connect(":memory:")
    catalog = Catalog()
    for name, columns in COLUMNS.items():
        column_sql = ", ".join(
            f"{c} {'INTEGER' if kind == 'int' else 'TEXT'}" for c, kind in columns
        )
        connection.execute(f"CREATE TABLE {name} ({column_sql})")
        placeholders = ", ".join("?" for _ in columns)
        connection.executemany(
            f"INSERT INTO {name} VALUES ({placeholders})", data[name]
        )
        schema = Schema(
            tuple(ColumnSpec(c, _dtype(kind)) for c, kind in columns)
        )
        catalog.create(name, Table.from_rows(schema, data[name]))
    return connection, Engine(catalog), data, rng


def _normalize(rows):
    out = []
    for row in rows:
        normalized = []
        for value in row:
            if isinstance(value, bool):
                normalized.append(int(value))
            elif isinstance(value, float):
                normalized.append(round(value, 6))
            else:
                normalized.append(value)
        out.append(tuple(normalized))
    return sorted(out, key=repr)


def test_engine_matches_sqlite(oracle_setup):
    connection, engine, _, _ = oracle_setup
    generator = QueryGenerator(random.Random(4242))
    mismatches = []
    for i in range(NUM_QUERIES):
        sql = generator.query()
        expected = _normalize(connection.execute(sql).fetchall())
        actual = _normalize(engine.execute(sql).rows())
        if actual != expected:
            mismatches.append((i, sql, expected[:5], actual[:5]))
    assert not mismatches, f"{len(mismatches)} diverging queries: {mismatches[:3]}"


@pytest.fixture(scope="module")
def encrypted_setup(oracle_setup):
    _, engine, data, _ = oracle_setup
    server = SDBServer()
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(51))
    for name, columns in COLUMNS.items():
        vtypes = [
            (c, ValueType.int_() if kind == "int" else ValueType.string(8))
            for c, kind in columns
        ]
        sensitive = [c for c, kind in columns if kind == "int"]
        proxy.create_table(name, vtypes, data[name], sensitive=sensitive,
                           rng=seeded_rng(52))
    return proxy, engine


def test_encrypted_matches_plaintext(encrypted_setup):
    proxy, engine = encrypted_setup
    generator = QueryGenerator(random.Random(777))
    mismatches = []
    for i in range(NUM_QUERIES // 2):
        sql = generator.query()
        expected = _normalize(engine.execute(sql).rows())
        try:
            actual = _normalize(proxy.query(sql).table.rows())
        except Exception as exc:  # rewriter refusal is a failure here too
            mismatches.append((i, sql, "exception", repr(exc)))
            continue
        if actual != expected:
            mismatches.append((i, sql, expected[:5], actual[:5]))
    assert not mismatches, f"{len(mismatches)} diverging queries: {mismatches[:3]}"


def test_parallel_matches_sqlite(oracle_setup):
    """A 3-shard in-process cluster joins the oracle chain: eligible
    queries scatter as partial + merge, the rest take the fallback route."""
    from repro.cluster.coordinator import Coordinator

    connection, engine, _, _ = oracle_setup
    coordinator = Coordinator([SDBServer() for _ in range(3)])
    for name, columns in COLUMNS.items():
        table = engine.catalog.get(name)
        coordinator.store_sharded(
            name, table, columns[0][0], buckets=range(table.num_rows)
        )
    generator = QueryGenerator(random.Random(90210))
    mismatches = []
    routes = set()
    for i in range(NUM_QUERIES // 2):
        sql = generator.query()
        expected = _normalize(connection.execute(sql).fetchall())
        actual = _normalize(coordinator.execute(sql).rows())
        routes.add(coordinator.last_scatter.mode)
        if actual != expected:
            mismatches.append((i, sql, expected[:5], actual[:5]))
    coordinator.close()
    assert not mismatches, f"{len(mismatches)} diverging queries: {mismatches[:3]}"
    assert routes == {"scatter", "fallback"}
