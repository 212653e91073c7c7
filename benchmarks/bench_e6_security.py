"""E6 -- Demo step 3 / Figure 4: the memory dump shows no plaintext.

Taps the SP (its executor, locks and streaming unchanged), runs sensitive
queries, and checks (a) zero sensitive plaintext occurs anywhere in the
SP's disk or UDF traffic, (b) stored shares are statistically uniform over
Z_n, (c) the QR attacker extracts exactly the declared leakage (comparison
signs) and nothing else.
"""

import pytest

from repro.bench.harness import ResultTable
from repro.core import security
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.workloads.tpch.dbgen import generate
from repro.workloads.tpch.loader import load_encrypted
from repro.workloads.tpch.schema import TABLES
from repro.workloads.tpch.sensitivity import FINANCIAL_PROFILE


@pytest.fixture(scope="module")
def tapped():
    data = generate(scale_factor=0.0002, seed=66)
    server = SDBServer()
    security.tap(server)
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(67))
    load_encrypted(proxy, data, rng=seeded_rng(68))
    proxy.query("SELECT SUM(l_extendedprice * (1 - l_discount)) AS rev FROM lineitem")
    proxy.query("SELECT l_orderkey FROM lineitem WHERE l_quantity > 45")
    return proxy, server, data


def _sensitive_ring_values(proxy, data):
    values = set()
    for table, rows in data.items():
        for column_index, (name, vtype) in enumerate(TABLES[table]):
            if not FINANCIAL_PROFILE.is_sensitive(table, name):
                continue
            for row in rows:
                values.add(vtype.encode(row[column_index]) % proxy.store.keys.n)
    return values


def test_memory_dump_report(tapped):
    proxy, server, data = tapped
    ring_values = _sensitive_ring_values(proxy, data)

    disk_hits = security.scan_for_plaintext(server, ring_values)
    zero_cells = security.zero_value_cells(server)
    uniformity = security.share_uniformity(server, proxy.store.keys.n)
    attacker = security.QRAttacker(server)
    udf_hits = attacker.recovered_plaintexts(ring_values)
    signs = [
        result for name, _, result in server.transcript.udf_values
        if name == "sdb_sign"
    ]

    table = ResultTable(
        "E6: SP-side observability (demo step 3)",
        ["observable", "measured", "expectation"],
    )
    table.add("sensitive plaintexts on disk", len(disk_hits), "0")
    table.add("zero-valued cells (declared E(0)=0 leakage)", len(zero_cells), "scheme property")
    table.add("sensitive plaintexts in UDF traffic", udf_hits, "0")
    table.add("stored shares inspected", uniformity.count, ">0")
    table.add("share mean / n", round(uniformity.mean_fraction, 4), "~0.5")
    table.add("share top-bit fraction", round(uniformity.top_bit_fraction, 4), "~0.5")
    table.add("distinct share fraction", round(uniformity.distinct_fraction, 4), "~1.0")
    table.add("comparison signs observed", len(signs), "declared leakage only")
    table.emit()

    assert not disk_hits
    assert udf_hits == 0
    assert uniformity.looks_uniform()


def test_plaintext_scan_speed(benchmark, tapped):
    proxy, server, data = tapped
    ring_values = _sensitive_ring_values(proxy, data)
    hits = benchmark(security.scan_for_plaintext, server, ring_values)
    assert hits == []
