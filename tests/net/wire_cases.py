"""One call per client stub: the inputs of the table-driven wire tests.

``CASES`` maps a case id to ``(method, args, kwargs, result)``: the call
made on a client surface, and what the recording fake ``SDBServer``
behind the daemon returns for it.  ``golden_frames.json`` holds the
request frame the *hand-written* ``RemoteServer`` (the commit before the
op table existed) put on the wire for each case; the generated stubs
must reproduce it byte for byte.

This module imports nothing from :mod:`repro.net`, so the same cases
could be replayed against any revision of the clients.
"""

import datetime
import decimal

from repro.crypto.sies import SIESCiphertext
from repro.engine.executor import ExecInfo, PreparedResult
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table
from repro.sql import ast

#: pinned so golden frames do not depend on process-global counters
SESSION_ID = 4242


def sample_table() -> Table:
    schema = Schema(
        (
            ColumnSpec("id", DataType.INT),
            ColumnSpec("price", DataType.DECIMAL, scale=2),
            ColumnSpec("share", DataType.SHARE),
            ColumnSpec("day", DataType.DATE),
        )
    )
    return Table.from_rows(
        schema,
        [
            (1, decimal.Decimal("9.99"), 2**200 + 7, datetime.date(2024, 5, 1)),
            (2, None, 0, None),
        ],
    )


def comparable(value):
    """Tables have identity equality; compare them by schema and rows."""
    if isinstance(value, Table):
        return ("table", value.schema, [tuple(row) for row in value.rows()])
    if isinstance(value, ast.Insert):
        return (
            "insert", value.table, value.columns,
            tuple(tuple(cell.value for cell in row) for row in value.rows),
        )
    if isinstance(value, (list, tuple)):
        return [comparable(item) for item in value]
    if isinstance(value, dict):
        return {key: comparable(item) for key, item in value.items()}
    return value


PLACEMENT = {"index": 1, "of": 2, "shard_by": "id"}
INSERT = ast.Insert(
    table="t",
    columns=("id", "rid"),
    rows=(
        (ast.Literal(7), ast.Literal(SIESCiphertext(value=99, nonce=3))),
        (ast.Literal(8), ast.Literal(None)),
    ),
)
SELECT = "SELECT id FROM t WHERE id = 1"
UPDATE = "UPDATE t SET id = 2 WHERE id = 1"
EXEC_INFO = ExecInfo(path="batch", fallback="", access=("scan(t)",))

#: case id -> (method, args, kwargs, what the fake SDBServer returns)
CASES = {
    "ping": ("ping", (), {}, True),
    "health": ("health", (), {}, {"shard_id": 1, "epoch": 3, "tables": 2}),
    "store_table": ("store_table", ("t", sample_table()), {"replace": True}, None),
    "drop_table": ("drop_table", ("t",), {}, None),
    "execute": ("execute", (SELECT,), {"session": 9}, sample_table()),
    "execute_dml": ("execute_dml", (UPDATE,), {"session": 9}, 1),
    "execute_dml[insert]": ("execute_dml", (INSERT,), {"session": 9}, 2),
    "begin": ("begin", (), {"session": 9}, None),
    "commit": ("commit", (), {"session": 9}, None),
    "rollback": ("rollback", (), {}, None),
    "txn_prepare": (
        "txn_prepare", ("tok-1",), {"session": 9}, {"tables": ["t"], "rows": 1},
    ),
    "txn_finalize": ("txn_finalize", ("tok-1",), {}, 1),
    "txn_discard": ("txn_discard", (), {}, 0),
    "catalog_names": ("catalog_names", (), {}, ["t", "u"]),
    "session_stats": ("session_stats", (), {}, {"9": {"reads": 1, "writes": 0}}),
    "epoch": ("epoch", (), {}, 5),
    "metrics": ("metrics", (), {}, None),
    "metrics_text": ("metrics_text", (), {}, None),
    "slow_queries": ("slow_queries", (), {}, None),
    "shard_status": (
        "shard_status", (), {},
        {"shard_id": 1, "tables": {"t": 2}, "placements": {"t": PLACEMENT}},
    ),
    "shard_store": (
        "shard_store", ("t", sample_table()),
        {"placement": PLACEMENT, "replace": True}, 2,
    ),
    "shard_dump": ("shard_dump", ("t",), {"offset": 0, "count": 10}, sample_table()),
    "append_table": ("append_table", ("t", sample_table()), {}, 2),
    "execute_partial": ("execute_partial", (SELECT,), {"session": 9}, sample_table()),
    "shard_migrate_extract": (
        "shard_migrate_extract", ("t", 8, 3, 2, 3),
        {"old_weights": (1, 1), "new_weights": (2, 1, 1)}, sample_table(),
    ),
    "shard_migrate_stage": (
        "shard_migrate_stage", ("t", sample_table()), {"placement": PLACEMENT}, 2,
    ),
    "shard_migrate_unstage": ("shard_migrate_unstage", ("t", 8, 3), {}, 1),
    "shard_migrate_promote": (
        "shard_migrate_promote", ("t",), {"placement": PLACEMENT}, 2,
    ),
    "shard_migrate_purge": (
        "shard_migrate_purge", ("t", 3, 1),
        {"placement": PLACEMENT, "weights": (2, 1, 1)}, 1,
    ),
    "shard_migrate_abort": ("shard_migrate_abort", ("t",), {}, True),
    "prepare_query": ("prepare_query", (SELECT,), {"session": 9}, 11),
    "execute_prepared": (
        "execute_prepared", (11, [5, datetime.date(2024, 5, 1)]), {"session": 9},
        PreparedResult(21, 2, EXEC_INFO),
    ),
    "fetch_rows": ("fetch_rows", (21, 100), {}, sample_table()),
    "close_result": ("close_result", (21,), {}, None),
    "close_prepared": ("close_prepared", (11,), {}, None),
}
