"""Binary table format.

Layout of a ``.sdbt`` file::

    magic   b"SDBT"
    version u8 (currently 1)
    schema  u32 length + JSON: [[name, dtype, scale], ...]
    rows    u32 row count
    cells   column-major: for each column, row-count tagged cells
    digest  32-byte SHA-256 of everything above

Cells are tagged so the format carries every boundary type, most
importantly arbitrary-precision shares (length-prefixed signed big-endian
integers -- a 2048-bit share is 261 bytes, not a decimal string).

The digest turns silent corruption into a loud :class:`StorageError`,
which is what a storage service owes its tenants.
"""

from __future__ import annotations

import datetime
import hashlib
import io
import json
import struct

from repro.crypto.sies import SIESCiphertext
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table

MAGIC = b"SDBT"
VERSION = 1

_U8 = struct.Struct(">B")
_U32 = struct.Struct(">I")
_F64 = struct.Struct(">d")

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_STR = 3
_TAG_TRUE = 4
_TAG_FALSE = 5
_TAG_DATE = 6
_TAG_SIES = 7


class StorageError(ValueError):
    """Corrupt, truncated or incompatible storage file."""


# -- cell codec --------------------------------------------------------------


def write_cell(out: io.BytesIO, value) -> None:
    """Append one tagged cell to ``out``."""
    if value is None:
        out.write(_U8.pack(_TAG_NULL))
    elif isinstance(value, bool):
        out.write(_U8.pack(_TAG_TRUE if value else _TAG_FALSE))
    elif isinstance(value, int):
        out.write(_U8.pack(_TAG_INT))
        _write_bigint(out, value)
    elif isinstance(value, float):
        out.write(_U8.pack(_TAG_FLOAT))
        out.write(_F64.pack(value))
    elif isinstance(value, str):
        data = value.encode("utf-8")
        out.write(_U8.pack(_TAG_STR))
        out.write(_U32.pack(len(data)))
        out.write(data)
    elif isinstance(value, datetime.date):
        out.write(_U8.pack(_TAG_DATE))
        out.write(_U32.pack(value.toordinal()))
    elif isinstance(value, SIESCiphertext):
        out.write(_U8.pack(_TAG_SIES))
        _write_bigint(out, value.value)
        _write_bigint(out, value.nonce)
    else:
        raise StorageError(f"cannot store {type(value).__name__} cells")


def read_cell(data: memoryview, offset: int) -> tuple:
    """Read one cell at ``offset``; returns (value, next_offset)."""
    (tag,) = _U8.unpack_from(data, offset)
    offset += _U8.size
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        return _read_bigint(data, offset)
    if tag == _TAG_FLOAT:
        (value,) = _F64.unpack_from(data, offset)
        return value, offset + _F64.size
    if tag == _TAG_STR:
        (length,) = _U32.unpack_from(data, offset)
        offset += _U32.size
        return bytes(data[offset:offset + length]).decode("utf-8"), offset + length
    if tag == _TAG_DATE:
        (ordinal,) = _U32.unpack_from(data, offset)
        return datetime.date.fromordinal(ordinal), offset + _U32.size
    if tag == _TAG_SIES:
        value, offset = _read_bigint(data, offset)
        nonce, offset = _read_bigint(data, offset)
        return SIESCiphertext(value=value, nonce=nonce), offset
    raise StorageError(f"unknown cell tag {tag}")


def _write_bigint(out: io.BytesIO, value: int) -> None:
    length = (value.bit_length() + 8) // 8  # +8 leaves room for the sign bit
    out.write(_U32.pack(length))
    out.write(value.to_bytes(length, "big", signed=True))


def _read_bigint(data: memoryview, offset: int) -> tuple:
    (length,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    value = int.from_bytes(data[offset:offset + length], "big", signed=True)
    return value, offset + length


# -- table files -------------------------------------------------------------------


def serialize_table(table: Table) -> bytes:
    """Render a table to the binary format (digest included)."""
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(_U8.pack(VERSION))
    schema_json = json.dumps(
        [[c.name, c.dtype.value, c.scale] for c in table.schema.columns],
        separators=(",", ":"),
    ).encode("utf-8")
    out.write(_U32.pack(len(schema_json)))
    out.write(schema_json)
    out.write(_U32.pack(table.num_rows))
    for column in table.columns:
        for value in column:
            write_cell(out, value)
    body = out.getvalue()
    return body + hashlib.sha256(body).digest()


def deserialize_table(blob: bytes) -> Table:
    """Parse the binary format, verifying magic, version and digest."""
    if len(blob) < len(MAGIC) + 1 + 32:
        raise StorageError("file too short")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise StorageError("checksum mismatch: file is corrupt")
    data = memoryview(body)
    if bytes(data[:4]) != MAGIC:
        raise StorageError("bad magic: not an SDB table file")
    offset = 4
    (version,) = _U8.unpack_from(data, offset)
    offset += _U8.size
    if version != VERSION:
        raise StorageError(f"unsupported format version {version}")
    (schema_len,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    schema_spec = json.loads(bytes(data[offset:offset + schema_len]))
    offset += schema_len
    schema = Schema(
        tuple(
            ColumnSpec(name, DataType(dtype), scale)
            for name, dtype, scale in schema_spec
        )
    )
    (num_rows,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    columns = []
    for _ in schema.columns:
        column = []
        for _ in range(num_rows):
            value, offset = read_cell(data, offset)
            column.append(value)
        columns.append(column)
    if offset != len(body):
        raise StorageError("trailing bytes after table data")
    return Table(schema, columns)


def estimate_value_bytes(value) -> int:
    """Approximate serialized size of one value."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8)
    if isinstance(value, float):
        return 8
    if isinstance(value, datetime.date):
        return 4
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, SIESCiphertext):
        return estimate_value_bytes(value.value) + 8
    return 16


def estimate_table_bytes(table: Table) -> int:
    return sum(
        estimate_value_bytes(v) for column in table.columns for v in column
    )


def write_table(path, table: Table) -> int:
    """Write a table file atomically (temp file + rename); returns bytes."""
    import os

    blob = serialize_table(table)
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    return len(blob)


def read_table(path) -> Table:
    with open(path, "rb") as f:
        return deserialize_table(f.read())
