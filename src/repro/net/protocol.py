"""Wire protocol: frames, the value codec, and the DO<->SP op table.

A frame is a 4-byte big-endian length followed by a UTF-8 JSON document.
Requests are ``{"op": <name>, ...fields, "id": n, "session": s}``;
responses are ``{"ok": value}`` or ``{"error": text, "error_type": name,
"error_message": text}``, echoing the request ``id``.

JSON cannot natively carry everything that crosses the DO/SP boundary, so
non-JSON values are tagged objects:

=====================  =========================================
value                  encoding
=====================  =========================================
``datetime.date``      ``{"$d": "2024-01-31"}``
``SIESCiphertext``     ``{"$sies": [value, nonce]}``
``decimal.Decimal``    ``{"$dec": "12.34"}``
``Table``              ``{"$table": {"schema": [...], "columns": [...]}}``
=====================  =========================================

A query result additionally carries how the engine produced it as an
optional ``"exec"`` key inside ``$table`` (and next to ``result`` in an
``execute_prepared`` response); stored relations and legacy peers simply
never have it.

Shares are arbitrary-precision integers; Python's ``json`` round-trips
those exactly, so no tagging is needed for them.

Every operation the SP serves is one row of :data:`OPS` -- the only place
its wire name, field names and codecs are written down.  The blocking
client, the asyncio client, its sync bridge, the daemon's dispatch and
the replica group's fan-out are all derived from that table; adding an
op is one row plus the method it names.
"""

from __future__ import annotations

import datetime
import decimal
import json
import socket
import struct
from typing import NamedTuple

from repro.core.server import ServerBusyError, StaleSnapshotError
from repro.core.txn import (
    TransactionConflictError,
    TransactionError,
    TransactionStateError,
)
from repro.crypto.sies import SIESCiphertext
from repro.engine.catalog import CatalogError
from repro.engine.dml import DMLError
from repro.engine.executor import ExecInfo, ExecutionError, PreparedResult
from repro.engine.expressions import EvaluationError
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table
from repro.engine.udf import UDFError
from repro.obs.trace import SPANS_KEY, TRACE_KEY, current_span
from repro.sql import ast
from repro.sql.lexer import LexError
from repro.sql.params import BindError
from repro.sql.parser import ParseError

#: Frames above this size are rejected (a malformed peer, not a workload).
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct(">I")
HEADER_BYTES = _LENGTH.size


class NetError(ConnectionError):
    """Protocol violation or transport failure: the peer cannot be trusted
    to have processed anything."""


class RemoteError(RuntimeError):
    """The daemon raised an exception type this client cannot rebuild.

    Deliberately *not* a ``ConnectionError``: the member answered, so the
    failure is the request's, and a replica group must not strike a
    healthy member for it.
    """

    def __init__(self, message: str, error_type: str):
        super().__init__(message)
        self.error_type = error_type


# -- value codec ---------------------------------------------------------------


def encode_value(value):
    """Map a boundary value to a JSON-representable structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime.date):
        return {"$d": value.isoformat()}
    if isinstance(value, SIESCiphertext):
        return {"$sies": [value.value, value.nonce]}
    if isinstance(value, decimal.Decimal):
        return {"$dec": str(value)}
    if isinstance(value, Table):
        body = {
            "schema": [
                [c.name, c.dtype.value, c.scale] for c in value.schema.columns
            ],
            "columns": [
                [encode_value(cell) for cell in column]
                for column in value.columns
            ],
        }
        if value.exec_info is not None:
            body["exec"] = value.exec_info.to_wire()
        return {"$table": body}
    if isinstance(value, (list, tuple)):
        return [encode_value(item) for item in value]
    raise NetError(f"cannot encode {type(value).__name__} on the wire")


def decode_value(payload):
    """Inverse of :func:`encode_value`."""
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, list):
        return [decode_value(item) for item in payload]
    if isinstance(payload, dict):
        if "$d" in payload:
            return datetime.date.fromisoformat(payload["$d"])
        if "$sies" in payload:
            value, nonce = payload["$sies"]
            return SIESCiphertext(value=int(value), nonce=int(nonce))
        if "$dec" in payload:
            return decimal.Decimal(payload["$dec"])
        if "$table" in payload:
            body = payload["$table"]
            specs = tuple(
                ColumnSpec(name, DataType(dtype), scale)
                for name, dtype, scale in body["schema"]
            )
            columns = [
                [decode_value(cell) for cell in column]
                for column in body["columns"]
            ]
            table = Table.adopting(Schema(specs), columns)
            if "exec" in body:
                table.exec_info = ExecInfo.from_wire(body["exec"])
            return table
        raise NetError(f"unknown tagged value: {sorted(payload)}")
    raise NetError(f"cannot decode {type(payload).__name__}")


# -- framing ----------------------------------------------------------------------
#
# pack_frame / frame_length / unpack_body do no I/O: the blocking socket
# path below and the asyncio streams in :mod:`repro.net.aio` share them.


def pack_frame(message: dict) -> bytes:
    """One message as length header plus JSON body."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise NetError(f"frame too large: {len(body)} bytes")
    return _LENGTH.pack(len(body)) + body


def frame_length(header: bytes) -> int:
    """Body length announced by a frame header."""
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NetError(f"frame too large: {length} bytes")
    return length


def unpack_body(body: bytes) -> dict:
    return json.loads(body)


def send_message(sock: socket.socket, message: dict) -> int:
    """Serialize and send one frame; returns the bytes written."""
    frame = pack_frame(message)
    sock.sendall(frame)
    return len(frame)


def recv_frame(sock: socket.socket) -> tuple[dict, int]:
    """Receive one frame: ``(message, bytes read)``; raises
    :class:`NetError` on EOF mid-frame."""
    length = frame_length(_recv_exact(sock, HEADER_BYTES))
    return unpack_body(_recv_exact(sock, length)), HEADER_BYTES + length


def recv_message(sock: socket.socket) -> dict:
    """Receive one frame's message."""
    return recv_frame(sock)[0]


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise NetError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# -- the op table -------------------------------------------------------------------
#
# Columns (README "Wire ops" has the same legend):
#
# op       the request's ``"op"`` value
# method   what serves it -- an ``SDBServer`` method for ``read``/``write``
#          rows, an ``SDBNetServer`` one for ``control`` rows -- and the
#          name of the generated client stub
# fields   request fields in wire order, each ``name``, ``(name, codec)`` or
#          ``(name, codec, default)``; they are the stub's parameters, and
#          one without a default is required
# reply    codec of the ``"ok"`` value
# session  the method takes the request's ``session`` tag (the stub then
#          has a trailing ``session=None``)
# kind     ``read``: any one replica serves it; ``write``: every replica
#          applies it; ``control``: the daemon process itself answers, and
#          a replica group does not forward it
#
# A codec is how a value crosses the wire in either direction (a request
# field DO -> SP, a reply SP -> DO): (sender's encode, receiver's decode).


def _identity(value):
    return value


def _sql_text(query) -> str:
    return query if isinstance(query, str) else query.to_sql()


def _optional_int(value):
    return None if value is None else int(value)


def _prepared_to_wire(result: PreparedResult) -> dict:
    result_id, num_rows = result
    body = {"result": result_id, "num_rows": num_rows}
    if result.info is not None:
        body["exec"] = result.info.to_wire()
    return body


def prepared_result(body: dict) -> PreparedResult:
    """An ``execute_prepared`` response body as the in-process return value
    (``exec`` is absent from daemons that predate execution reports)."""
    info = body.get("exec")
    return PreparedResult(
        int(body["result"]), int(body["num_rows"]),
        ExecInfo.from_wire(info) if info is not None else None,
    )


CODECS = {
    "plain": (_identity, _identity),
    "value": (encode_value, decode_value),  # tagged values, lists of them, tables
    "sql": (_sql_text, _identity),  # SQL text, or an AST node rendering to it
    "int": (_identity, _optional_int),
    "bool": (_identity, bool),
    "const": (_identity, _identity),  # request only: the row fixes the value
    # reply only:
    "none": (lambda _result: True, lambda _ok: None),  # void method, bare ack
    "pong": (lambda _alive: "pong", "pong".__eq__),
    "prepared": (_prepared_to_wire, prepared_result),
}

_REQUIRED = object()


class Field(NamedTuple):
    name: str
    codec: str = "plain"
    default: object = _REQUIRED  # for ``const``: the constant itself


class Op:
    """One row of :data:`OPS`, with both ends' marshalling derived from it."""

    def __init__(self, op, method, *fields, reply="plain", session=False,
                 kind="read"):
        assert kind in ("read", "write", "control"), kind
        self.op = op
        self.method = method
        self.fields = tuple(
            Field(f) if isinstance(f, str) else Field(*f) for f in fields
        )
        self.reply = reply
        self.session = session
        self.kind = kind
        self.encode_reply, self.decode_reply = CODECS[reply]
        wire = self.fields + ((Field("session", "plain", None),) if session else ())
        #: stub parameter names: everything on the wire but the constants
        self.params = tuple(f.name for f in wire if f.codec != "const")
        # (name, default, encode) per request key, (name, default, decode)
        # per method argument, both in wire order
        self._encoders = tuple((f.name, f.default, CODECS[f.codec][0]) for f in wire)
        self._decoders = tuple(
            (f.name, f.default, CODECS[f.codec][1])
            for f in self.fields if f.codec != "const"
        )

    def request(self, *args, **kwargs) -> tuple[str, dict]:
        """DO side: a stub call's arguments as ``(op, wire fields)``."""
        given = dict(zip(self.params, args), **kwargs)
        if len(given) != len(args) + len(kwargs) or given.keys() - self.params:
            raise TypeError(
                f"{self.method}({', '.join(self.params)}) got {len(args)} "
                f"positional argument(s) and keyword(s) {sorted(kwargs)}"
            )
        out = {}
        for name, default, encode in self._encoders:
            value = given.get(name, default)
            if value is _REQUIRED:
                raise TypeError(
                    f"{self.method}() missing required argument {name!r}"
                )
            out[name] = encode(value)
        return self.op, out

    def arguments(self, request: dict) -> list:
        """SP side: the method's positional arguments from a request (peers
        may omit optional fields: an absent one takes its default)."""
        out = []
        for name, default, decode in self._decoders:
            if name in request:
                out.append(decode(request[name]))
            elif default is _REQUIRED:
                raise KeyError(name)
            else:
                out.append(default)
        return out


_NAME_TABLE = ("name", ("table", "value"))
_PLACEMENT = ("placement", "plain", None)
_CHUNK = ("name", ("num_chunks", "int"), ("chunk", "int"))

OPS = (
    Op("ping", "ping", reply="pong"),
    Op("health", "health"),
    Op("store_table", "store_table", *_NAME_TABLE, ("replace", "bool", False),
       reply="none", kind="write"),
    Op("drop_table", "drop_table", "name", reply="none", kind="write"),
    Op("execute", "execute", ("sql", "sql"), reply="value", session=True),
    Op("execute_dml", "execute_dml", ("sql", "sql"), session=True, kind="write"),
    # the structured form of execute_dml: INSERT literals include SIES
    # ciphertexts, which have no SQL text form (see dml_request)
    Op("insert_rows", "execute_dml", "name", "columns", ("rows", "value"),
       session=True, kind="write"),
    # one wire op, three methods: the constant action picks the row
    *(Op("txn", action, ("action", "const", action),
         reply="none", session=True, kind="write")
      for action in ("begin", "commit", "rollback")),
    # 2PC: stage the session's write set under a token, then decide it
    Op("txn_prepare", "txn_prepare", "token", session=True, kind="write"),
    Op("txn_finalize", "txn_finalize", "token", kind="write"),
    Op("txn_discard", "txn_discard", ("token", "plain", None), kind="write"),
    Op("catalog", "catalog_names"),
    Op("session_stats", "session_stats", kind="control"),
    # a method on clients, not a property: the session layer reads a plain
    # ``server.epoch`` attribute after every statement, and a property
    # here would turn that into a round trip each time
    Op("epoch", "epoch", reply="int", kind="control"),
    Op("metrics", "metrics", kind="control"),
    Op("metrics_text", "metrics_text", kind="control"),
    Op("slow_queries", "slow_queries", kind="control"),
    # cluster slices: placement-tagged stores, scatter partials, chunked dumps
    Op("shard_status", "shard_status"),
    Op("shard_store", "shard_store", *_NAME_TABLE, _PLACEMENT,
       ("replace", "bool", False), reply="int", kind="write"),
    Op("shard_dump", "shard_dump", "name", ("offset", "int", None),
       ("count", "int", None), reply="value"),
    Op("append_table", "append_table", *_NAME_TABLE, reply="int", kind="write"),
    Op("shard_partial", "execute_partial", ("sql", "sql"),
       reply="value", session=True),
    # elastic resharding (see repro.cluster.rebalance); extraction is a
    # pure read of the slice, every replica computes the same mover set
    Op("shard_migrate_extract", "shard_migrate_extract", *_CHUNK,
       ("old_modulus", "int"), ("new_modulus", "int"),
       ("old_weights", "plain", None), ("new_weights", "plain", None),
       reply="value"),
    Op("shard_migrate_stage", "shard_migrate_stage", *_NAME_TABLE, _PLACEMENT,
       reply="int", kind="write"),
    Op("shard_migrate_unstage", "shard_migrate_unstage", *_CHUNK,
       reply="int", kind="write"),
    Op("shard_migrate_promote", "shard_migrate_promote", "name", _PLACEMENT,
       reply="int", kind="write"),
    Op("shard_migrate_purge", "shard_migrate_purge", "name",
       ("modulus", "int"), ("keep_index", "int"), _PLACEMENT,
       ("weights", "plain", None), reply="int", kind="write"),
    Op("shard_migrate_abort", "shard_migrate_abort", "name",
       reply="bool", kind="write"),
    # PREPARE ships the rewritten SQL once; EXECUTE_PREPARED then carries
    # only the bindings and FETCH streams the encrypted result in chunks
    Op("prepare", "prepare_query", ("sql", "sql"), reply="int", session=True),
    Op("execute_prepared", "execute_prepared", ("stmt", "int"),
       ("params", "value", ()), reply="prepared", session=True),
    Op("fetch", "fetch_rows", ("result", "int"), ("count", "int", None),
       reply="value"),
    Op("close_result", "close_result", ("result", "int"), reply="none"),
    Op("close_prepared", "close_prepared", ("stmt", "int"), reply="none"),
)

#: daemon-side routing: op name -> row, and ``txn``'s action -> row
BY_OP = {row.op: row for row in OPS if row.op != "txn"}
TXN_ACTIONS = {row.fields[0].default: row for row in OPS if row.op == "txn"}
INSERT_ROWS = BY_OP["insert_rows"]


def dml_request(sql, session=None) -> tuple[str, dict]:
    """``execute_dml``'s request: INSERTs go as structured rows, UPDATE
    and DELETE as the rewritten SQL text."""
    if not isinstance(sql, ast.Insert):
        return BY_OP["execute_dml"].request(sql, session)
    if not all(isinstance(e, ast.Literal) for row in sql.rows for e in row):
        raise NetError("remote INSERT requires literal values")
    rows = [[e.value for e in row] for row in sql.rows]
    return INSERT_ROWS.request(sql.table, list(sql.columns or ()), rows, session)


#: the rows with a client stub (named ``row.method``): all but
#: ``insert_rows``, which execute_dml's stub reaches through dml_request
STUBS = tuple(row for row in OPS if row is not INSERT_ROWS)


# -- the client halves every transport shares ----------------------------------------


def build_request(op: str, fields: dict, request_id, session):
    """``(request frame, ambient span)`` for one call.

    The ambient span's identity rides the request so the daemon's spans
    stitch under it; the key is absent when tracing is off (and legacy
    daemons ignore it).
    """
    request = {"op": op, **fields}
    span = current_span()
    if span is not None:
        request[TRACE_KEY] = span.context()
    request["id"] = request_id
    request["session"] = session
    return request, span


#: Exception classes the SP may raise, keyed by the type name the daemon
#: tags every error response with (``error_type``).  Re-raising the same
#: class makes remote error paths indistinguishable from in-process ones
#: -- the differential tests pin this.
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        ParseError, LexError, BindError, ExecutionError, DMLError,
        EvaluationError, CatalogError, UDFError, StaleSnapshotError,
        ServerBusyError, TransactionConflictError, TransactionStateError,
        TransactionError, NetError, ValueError, KeyError, TypeError,
        RuntimeError,
    )
}


def error_response(exc: BaseException) -> dict:
    """A failure as the daemon reports it: the type name lets the client
    re-raise the same class, so error paths match in-process execution."""
    return {
        "error": f"{type(exc).__name__}: {exc}",
        "error_type": type(exc).__name__,
        "error_message": str(exc),
    }


def unwrap_response(response: dict, span):
    """The ``ok`` value of a response, or its error re-raised.

    Daemon-side spans piggyback on the response either way.  An error of
    a type this side cannot rebuild becomes :class:`RemoteError`; only an
    untagged one (a peer predating ``error_type``) is a :class:`NetError`.
    """
    if span is not None:
        span.tracer.absorb(response.get(SPANS_KEY))
    if "error" not in response:
        return response["ok"]
    name = response.get("error_type")
    if name is None:
        raise NetError(response["error"])
    exc_type = _ERROR_TYPES.get(name)
    if exc_type is None:
        raise RemoteError(response["error"], name)
    raise exc_type(response.get("error_message", response["error"]))


# -- generated client stubs -----------------------------------------------------------


class SyncStubs:
    """One blocking method per :data:`STUBS` entry, over the subclass's
    ``_call(op, session=None, **fields)``."""


class AsyncStubs:
    """The ``async`` twin of :class:`SyncStubs`, over an awaitable ``_call``."""


def _make_stubs(row):
    request = dml_request if row.op == "execute_dml" else row.request
    decode = row.decode_reply

    def stub(self, *args, **kwargs):
        op, fields = request(*args, **kwargs)
        return decode(self._call(op, **fields))

    async def async_stub(self, *args, **kwargs):
        op, fields = request(*args, **kwargs)
        return decode(await self._call(op, **fields))

    for owner, fn in ((SyncStubs, stub), (AsyncStubs, async_stub)):
        fn.__name__ = row.method
        fn.__qualname__ = f"{owner.__name__}.{row.method}"
        fn.__doc__ = (
            f"``{row.method}({', '.join(row.params)})``: wire op ``{row.op}``."
        )
        setattr(owner, row.method, fn)


for _row in STUBS:
    _make_stubs(_row)
