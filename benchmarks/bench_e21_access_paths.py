"""E21 -- index-probe access paths: point, short-range and by-key UPDATE
latency as the table grows.

The SP stores insensitive columns in clear, and the rewritten predicates
on them are plain ``column <op> constant`` comparisons.  With secondary
indexes the engine builds for itself, such a statement costs the rows it
touches, not the rows the table holds.  This bench makes that a curve:
the same three statements -- a point SELECT, a 20-key BETWEEN, an UPDATE
by key -- through the SP's prepared/DML surface at three table sizes,
once on the path the planner picks (the probe) and once with the probe
forced off (the scan every statement paid before, and still pays when
nothing is selective).

Acceptance: the probe path is flat in N -- at most 2x from the smallest
to the largest table -- while the scan path grows with N.  The table is
engine-level (no encryption): 100k encrypted rows would spend the whole
run in the upload, and the index never sees a sensitive column anyway.
"""

import random
import statistics
import time

import pytest

from repro.bench.harness import (
    ResultTable,
    bench_smoke,
    smoke_scaled,
    write_bench_json,
)
from repro.core.server import SDBServer
from repro.engine.executor import access_path
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table

SIZES = smoke_scaled((1_000, 10_000, 100_000), (400, 1_600, 6_400))
PROBE_REPS = smoke_scaled(300, 40)
SCAN_REPS = smoke_scaled(12, 4)
RANGE_WIDTH = 20
#: acceptance bar: probe latency at the largest size over the smallest
MAX_PROBE_GROWTH = 2.0

SCHEMA = Schema((
    ColumnSpec("a_id", DataType.INT),
    ColumnSpec("a_owner", DataType.STRING),
    ColumnSpec("a_region", DataType.INT),
    ColumnSpec("a_balance", DataType.INT),   # stands in for a share
))

POINT = "SELECT a_id, a_owner, a_balance FROM accounts WHERE accounts.a_id = ?"
RANGE = ("SELECT a_id, a_balance FROM accounts "
         "WHERE accounts.a_id BETWEEN ? AND ?")
UPDATE = ("UPDATE accounts SET a_balance = accounts.a_balance + 1 "
          "WHERE accounts.a_id = {key}")


def _server(rows: int) -> SDBServer:
    rng = random.Random(rows)
    table = Table.from_rows(SCHEMA, [
        (i, f"o{rng.randrange(rows // 10):05d}", rng.randrange(50),
         rng.getrandbits(200))
        for i in range(1, rows + 1)
    ])
    server = SDBServer()
    server.store_table("accounts", table)
    return server


def _select_us(server, stmt_id, params_of, reps: int) -> tuple:
    """Median microseconds per execute + fetch-all, and the last access line."""
    times, access = [], None
    for _ in range(reps):
        params = params_of()
        start = time.perf_counter()
        result = server.execute_prepared(stmt_id, params)
        server.fetch_rows(result[0])
        times.append(time.perf_counter() - start)
        server.close_result(result[0])
        access = result.info.access[0]
    return statistics.median(times) * 1e6, access


def _update_us(server, keys, reps: int) -> float:
    times = []
    for _ in range(reps):
        sql = UPDATE.format(key=next(keys))
        start = time.perf_counter()
        affected = server.execute_dml(sql)
        times.append(time.perf_counter() - start)
        assert affected == 1
    return statistics.median(times) * 1e6


def _measure(server, rows: int, reps: int) -> dict:
    rng = random.Random(f"e21-{rows}")
    point = server.prepare_query(POINT)
    span = server.prepare_query(RANGE)

    def low():
        return rng.randrange(1, rows - RANGE_WIDTH)

    keys = iter(lambda: rng.randrange(1, rows + 1), None)
    point_us, point_access = _select_us(
        server, point, lambda: [rng.randrange(1, rows + 1)], reps
    )
    range_us, range_access = _select_us(
        server, span, lambda: (lambda k: [k, k + RANGE_WIDTH - 1])(low()), reps
    )
    return {
        "point_us": point_us, "range_us": range_us,
        "update_us": _update_us(server, keys, reps),
        "access": (point_access, range_access),
    }


def test_probe_latency_is_flat_where_the_scan_is_linear():
    probe: dict = {}
    scan: dict = {}
    for rows in SIZES:
        server = _server(rows)
        _measure(server, rows, 3)  # first use builds the indexes
        probe[rows] = _measure(server, rows, PROBE_REPS)
        assert all(a.startswith("index(accounts.a_id)") for a in probe[rows]["access"])
        saved = access_path.min_rows
        access_path.min_rows = float("inf")  # test-only hook: force the scan
        try:
            scan[rows] = _measure(server, rows, SCAN_REPS)
        finally:
            access_path.min_rows = saved
        assert scan[rows]["access"] == ("scan(accounts)", "scan(accounts)")

    table = ResultTable(
        title="E21: SP latency by access path (us per statement, median)",
        columns=["rows", "path", "point", f"{RANGE_WIDTH}-key range", "update by key"],
    )
    for rows in SIZES:
        for label, numbers in (("probe", probe), ("scan", scan)):
            table.add(
                rows, label, numbers[rows]["point_us"],
                numbers[rows]["range_us"], numbers[rows]["update_us"],
            )
    small, large = SIZES[0], SIZES[-1]
    growth = {
        kind: probe[large][f"{kind}_us"] / probe[small][f"{kind}_us"]
        for kind in ("point", "range", "update")
    }
    scan_growth = {
        kind: scan[large][f"{kind}_us"] / scan[small][f"{kind}_us"]
        for kind in ("point", "range", "update")
    }
    table.note(
        f"{small} -> {large} rows ({large // small}x): probe grows "
        + ", ".join(f"{k} {v:.2f}x" for k, v in growth.items())
        + f" (bar: <= {MAX_PROBE_GROWTH}x); scan grows "
        + ", ".join(f"{k} {v:.1f}x" for k, v in scan_growth.items())
    )
    table.emit()

    if not bench_smoke():
        for kind, factor in growth.items():
            assert factor <= MAX_PROBE_GROWTH, (kind, factor)
        for kind, factor in scan_growth.items():
            assert factor >= (large / small) / 10, (kind, factor)
            assert scan[large][f"{kind}_us"] > 10 * probe[large][f"{kind}_us"]

    write_bench_json(
        "e21_access_paths",
        {
            "sizes": list(SIZES),
            "probe_us": {
                kind: {str(rows): probe[rows][f"{kind}_us"] for rows in SIZES}
                for kind in ("point", "range", "update")
            },
            "scan_us": {
                kind: {str(rows): scan[rows][f"{kind}_us"] for rows in SIZES}
                for kind in ("point", "range", "update")
            },
            "probe_growth": growth,
            "scan_growth": scan_growth,
        },
    )


if __name__ == "__main__":
    pytest.main([__file__, "-q", "-s"])
