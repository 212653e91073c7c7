"""E12 -- columnar batch engine vs. the row interpreter.

The paper's architectural bet (Section 2.2) is that secure operators
inherit the performance of the underlying engine; this experiment measures
the engine side of that bet.  A TPC-H Q6-style scan+filter+SUM runs twice
over the same catalog -- once on the row interpreter
(``batch_enabled=False``) and once on the columnar batch path -- and both
paths must return identical results.  A second scenario runs the *secure*
version of the pipeline: a share column aggregated with ``sdb_agg_sum``
under a 256-bit modulus, filtered on an insensitive column.

The acceptance bar for the batch engine is a >= 5x speedup on the
plaintext pipeline (asserted below, relaxed under ``BENCH_SMOKE``); the
measured rows/sec for both paths land in ``BENCH_e12_columnar.json``.
"""

import random

import pytest

from repro.bench.harness import (
    ResultTable,
    bench_smoke,
    smoke_scaled,
    time_call,
    write_bench_json,
)
from repro.core.udfs import register_sdb_udfs
from repro.crypto import secret_sharing as ss
from repro.crypto.prf import seeded_rng
from repro.engine import Catalog, ColumnSpec, DataType, Engine, Schema, Table
from repro.engine.udf import UDFRegistry

ROWS = smoke_scaled(60_000, 4_000)
ENC_ROWS = smoke_scaled(8_000, 1_000)
REPEAT = smoke_scaled(3, 1)
#: the acceptance bar for the plaintext pipeline; timing asserts are
#: skipped entirely under BENCH_SMOKE (single tiny run on a possibly
#: noisy runner -- the smoke job only checks the scripts execute)
MIN_SPEEDUP = 5.0

Q6_STYLE = (
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
    "WHERE l_quantity < 24 AND l_discount BETWEEN 4 AND 6"
)


@pytest.fixture(scope="module")
def plain_catalog():
    rng = random.Random(120)
    schema = Schema(
        (
            ColumnSpec("l_quantity", DataType.INT),
            ColumnSpec("l_extendedprice", DataType.INT),
            ColumnSpec("l_discount", DataType.INT),
        )
    )
    columns = [
        [rng.randint(1, 50) for _ in range(ROWS)],
        [rng.randint(1_000, 100_000) for _ in range(ROWS)],
        [rng.randint(0, 10) for _ in range(ROWS)],
    ]
    catalog = Catalog()
    catalog.create("lineitem", Table(schema, columns))
    return catalog


def _paths(catalog, udfs=None):
    row = Engine(catalog, udfs, batch_enabled=False)
    batch = Engine(catalog, udfs)
    return row, batch


def test_scan_filter_sum_speedup(plain_catalog):
    row_engine, batch_engine = _paths(plain_catalog)

    row_seconds, row_result = time_call(
        row_engine.execute, Q6_STYLE, repeat=REPEAT
    )
    batch_seconds, batch_result = time_call(
        batch_engine.execute, Q6_STYLE, repeat=REPEAT
    )

    assert list(row_result.rows()) == list(batch_result.rows())
    info = batch_result.exec_info
    assert info.path == "batch", info.fallback
    speedup = row_seconds / batch_seconds

    table = ResultTable(
        "E12: scan+filter+SUM, row vs. batch path",
        ["path", "seconds", "rows/sec"],
    )
    table.add("row", round(row_seconds, 4), round(ROWS / row_seconds))
    table.add("batch", round(batch_seconds, 4), round(ROWS / batch_seconds))
    table.note(f"{ROWS} rows, best of {REPEAT}; speedup {speedup:.1f}x")
    table.emit()

    write_bench_json(
        "e12_columnar",
        {
            "query": Q6_STYLE,
            "rows": ROWS,
            "repeat": REPEAT,
            "row_seconds": row_seconds,
            "batch_seconds": batch_seconds,
            "row_rows_per_sec": ROWS / row_seconds,
            "batch_rows_per_sec": ROWS / batch_seconds,
            "speedup": speedup,
        },
    )
    if not bench_smoke():
        assert speedup >= MIN_SPEEDUP, (
            f"batch path only {speedup:.1f}x faster (need {MIN_SPEEDUP}x)"
        )


def test_secure_share_sum_both_paths(bench_keys_256):
    """The secure pipeline (share SUM behind a plain filter), both paths."""
    keys = bench_keys_256
    rng = seeded_rng(1212)
    ck = keys.random_column_key(rng)
    row_ids = [keys.random_row_id(rng) for _ in range(ENC_ROWS)]
    values = [rng.randrange(1, 2**32) for _ in range(ENC_ROWS)]
    shares = ss.encrypt_column(keys, values, row_ids, ck)
    quantities = [rng.randrange(1, 50) for _ in range(ENC_ROWS)]

    schema = Schema(
        (
            ColumnSpec("l_quantity", DataType.INT),
            ColumnSpec("e_price", DataType.SHARE),
        )
    )
    catalog = Catalog()
    catalog.create("enc_lineitem", Table(schema, [quantities, shares]))
    udfs = UDFRegistry()
    register_sdb_udfs(udfs)
    row_engine, batch_engine = _paths(catalog, udfs)

    sql = (
        f"SELECT sdb_agg_sum(e_price, {keys.n}) AS s FROM enc_lineitem "
        "WHERE l_quantity < 24"
    )
    row_seconds, row_result = time_call(row_engine.execute, sql, repeat=REPEAT)
    batch_seconds, batch_result = time_call(
        batch_engine.execute, sql, repeat=REPEAT
    )

    assert list(row_result.rows()) == list(batch_result.rows())
    info = batch_result.exec_info
    assert info.path == "batch", info.fallback
    speedup = row_seconds / batch_seconds

    table = ResultTable(
        "E12: secure share SUM (256-bit ring), row vs. batch path",
        ["path", "seconds", "rows/sec"],
    )
    table.add("row", round(row_seconds, 4), round(ENC_ROWS / row_seconds))
    table.add("batch", round(batch_seconds, 4), round(ENC_ROWS / batch_seconds))
    table.note(f"{ENC_ROWS} rows, best of {REPEAT}; speedup {speedup:.1f}x")
    table.emit()

    write_bench_json(
        "e12_columnar_secure",
        {
            "rows": ENC_ROWS,
            "repeat": REPEAT,
            "modulus_bits": 256,
            "row_seconds": row_seconds,
            "batch_seconds": batch_seconds,
            "row_rows_per_sec": ENC_ROWS / row_seconds,
            "batch_rows_per_sec": ENC_ROWS / batch_seconds,
            "speedup": speedup,
        },
    )
    # the secure pipeline is UDF-bound, so the bar is lower than plaintext
    if not bench_smoke():
        assert speedup >= 2.0, f"secure batch path only {speedup:.1f}x faster"
