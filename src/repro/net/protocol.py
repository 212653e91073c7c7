"""Wire protocol: length-prefixed JSON frames plus a typed value codec.

A frame is a 4-byte big-endian length followed by a UTF-8 JSON document.
Requests are ``{"op": <name>, ...args}``; responses are ``{"ok": value}``
or ``{"error": message}``.

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

Operation families (dispatched by ``op`` in :mod:`repro.net.server`):
core statements (``execute`` / ``execute_dml`` / ``insert_rows`` /
``txn``), storage (``store_table`` / ``drop_table`` / ``catalog``),
prepared statements (``prepare`` / ``execute_prepared`` / ``fetch`` /
``close_*``), cluster slices (``shard_status`` / ``shard_store`` /
``shard_dump`` / ``shard_partial``) and elastic resharding
(``shard_migrate_extract`` / ``_stage`` / ``_unstage`` / ``_promote`` /
``_purge`` / ``_abort`` -- see :mod:`repro.cluster.rebalance`).
"""

from __future__ import annotations

import datetime
import decimal
import json
import socket
import struct

from repro.crypto.sies import SIESCiphertext
from repro.engine.executor import ExecInfo
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table

#: Frames above this size are rejected (a malformed peer, not a workload).
MAX_FRAME_BYTES = 1 << 30

_LENGTH = struct.Struct(">I")


class NetError(ConnectionError):
    """Protocol violation or failed remote call."""


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


def send_message(sock: socket.socket, message: dict) -> int:
    """Serialize and send one frame; returns the bytes written."""
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise NetError(f"frame too large: {len(body)} bytes")
    sock.sendall(_LENGTH.pack(len(body)) + body)
    return _LENGTH.size + len(body)


def recv_message(sock: socket.socket) -> dict:
    """Receive one frame; raises :class:`NetError` on EOF mid-frame."""
    header = _recv_exact(sock, _LENGTH.size)
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NetError(f"frame too large: {length} bytes")
    body = _recv_exact(sock, length)
    return json.loads(body.decode("utf-8"))


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
