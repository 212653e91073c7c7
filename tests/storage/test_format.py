"""Binary table format: round trips, integrity, corruption detection."""

import datetime
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.sies import SIESCiphertext
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table
from repro.storage.format import (
    StorageError,
    deserialize_table,
    estimate_table_bytes,
    estimate_value_bytes,
    read_cell,
    read_table,
    serialize_table,
    write_cell,
    write_table,
)


def cell_round_trip(value):
    buffer = io.BytesIO()
    write_cell(buffer, value)
    restored, offset = read_cell(memoryview(buffer.getvalue()), 0)
    assert offset == len(buffer.getvalue())
    return restored


def test_cell_types_round_trip():
    for value in [
        None,
        True,
        False,
        0,
        -1,
        2**2048 + 17,
        -(2**300),
        1.5,
        "text",
        "uniçode",
        datetime.date(1970, 1, 1),
        SIESCiphertext(value=2**80, nonce=99),
    ]:
        assert cell_round_trip(value) == value


@given(st.integers(min_value=-(2**4096), max_value=2**4096))
def test_bigint_cells_property(value):
    assert cell_round_trip(value) == value


@given(st.text(max_size=200))
def test_string_cells_property(value):
    assert cell_round_trip(value) == value


def _sample_table() -> Table:
    schema = Schema(
        (
            ColumnSpec("id", DataType.INT),
            ColumnSpec("share", DataType.SHARE),
            ColumnSpec("name", DataType.STRING),
            ColumnSpec("price", DataType.DECIMAL, scale=2),
            ColumnSpec("day", DataType.DATE),
            ColumnSpec("rowid", DataType.SHARE),
        )
    )
    return Table.from_rows(
        schema,
        [
            (1, 2**255 + 3, "ada", 1.25, datetime.date(2020, 2, 2),
             SIESCiphertext(value=17, nonce=1)),
            (2, 12345, None, None, None, SIESCiphertext(value=2**64, nonce=2)),
        ],
    )


def test_table_round_trip():
    table = _sample_table()
    restored = deserialize_table(serialize_table(table))
    assert restored.schema == table.schema
    assert list(restored.rows()) == list(table.rows())


def test_empty_table_round_trip():
    schema = Schema((ColumnSpec("a", DataType.INT),))
    restored = deserialize_table(serialize_table(Table.empty(schema)))
    assert restored.num_rows == 0
    assert restored.schema == schema


def test_file_round_trip(tmp_path):
    table = _sample_table()
    path = tmp_path / "t.sdbt"
    written = write_table(path, table)
    assert path.stat().st_size == written
    restored = read_table(path)
    assert list(restored.rows()) == list(table.rows())


def test_corrupt_byte_detected():
    blob = bytearray(serialize_table(_sample_table()))
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(StorageError, match="checksum"):
        deserialize_table(bytes(blob))


def test_truncated_file_detected():
    blob = serialize_table(_sample_table())
    with pytest.raises(StorageError):
        deserialize_table(blob[: len(blob) // 2])


def test_bad_magic_detected():
    blob = bytearray(serialize_table(_sample_table()))
    # rewrite the magic *and* the digest so only the magic check can fire
    import hashlib

    blob[:4] = b"XXXX"
    body = bytes(blob[:-32])
    blob[-32:] = hashlib.sha256(body).digest()
    with pytest.raises(StorageError, match="magic"):
        deserialize_table(bytes(blob))


def test_atomic_write_leaves_no_temp_file(tmp_path):
    path = tmp_path / "t.sdbt"
    write_table(path, _sample_table())
    assert [p.name for p in tmp_path.iterdir()] == ["t.sdbt"]


def test_value_size_estimates():
    assert estimate_value_bytes(None) == 1
    assert estimate_value_bytes(True) == 1
    assert estimate_value_bytes(0) == 1
    assert estimate_value_bytes(2**2048) == 257
    assert estimate_value_bytes(1.5) == 8
    assert estimate_value_bytes("abc") == 3
    assert estimate_value_bytes(datetime.date(2020, 1, 1)) == 4
    assert estimate_value_bytes(SIESCiphertext(value=2**64, nonce=1)) == 9 + 8


def test_table_size_sums_cells():
    schema = Schema((ColumnSpec("a", DataType.INT), ColumnSpec("b", DataType.STRING)))
    table = Table.from_rows(schema, [(1, "xy"), (2, None)])
    assert estimate_table_bytes(table) == 1 + 1 + 2 + 1
