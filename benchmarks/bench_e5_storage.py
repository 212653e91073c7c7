"""E5 -- Demo step 1: key store size and storage expansion.

The attendee "checks the size of the key store": it must be O(#columns),
independent of row count, while the SP holds the bulk.  Also reports the
encrypted storage expansion factor.
"""

import pytest

from repro.bench.harness import ResultTable
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.engine import Catalog, Table
from repro.storage.format import estimate_table_bytes
from repro.workloads.tpch.dbgen import generate
from repro.workloads.tpch.loader import load_encrypted, load_plain, plain_schema


def _deploy(scale_factor):
    data = generate(scale_factor=scale_factor, seed=5)
    server = SDBServer()
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(6))
    load_encrypted(proxy, data, rng=seeded_rng(7))
    plain_bytes = sum(
        estimate_table_bytes(Table.from_rows(plain_schema(t), rows))
        for t, rows in data.items()
    )
    encrypted_bytes = sum(
        estimate_table_bytes(server.catalog.get(name))
        for name in server.catalog.names()
    )
    total_rows = sum(len(rows) for rows in data.values())
    return proxy, plain_bytes, encrypted_bytes, total_rows


def test_key_store_is_row_independent():
    table = ResultTable(
        "E5: key store vs data size",
        ["scale", "rows", "plain KB", "encrypted KB", "expansion", "key store KB"],
    )
    key_store_sizes = []
    for sf in (0.0002, 0.0004, 0.0008):
        proxy, plain_bytes, encrypted_bytes, rows = _deploy(sf)
        ks = proxy.key_store_bytes()
        key_store_sizes.append(ks)
        table.add(
            sf, rows, plain_bytes // 1024, encrypted_bytes // 1024,
            round(encrypted_bytes / plain_bytes, 2), round(ks / 1024, 2),
        )
    table.note("key store size is O(#columns): flat across scale factors")
    table.emit()
    # demo claim: 4x the data, same key store
    assert max(key_store_sizes) - min(key_store_sizes) < 512
    # the SP holds the bulk: encrypted store is orders beyond the key store
    _, _, encrypted_bytes, _ = _deploy(0.0008)
    assert encrypted_bytes > 100 * max(key_store_sizes)


def test_upload_throughput(benchmark):
    data = generate(scale_factor=0.0002, seed=8)
    rows = data["lineitem"]

    def upload():
        server = SDBServer()
        proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(9))
        load_encrypted(proxy, {"lineitem": rows}, rng=seeded_rng(10))
        return server

    server = benchmark(upload)
    assert server.catalog.get("lineitem").num_rows == len(rows)
