"""Tests for the threat-model harness (paper Section 2.3, demo step 3)."""

import pytest

import repro.api as api
from repro.core import security
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.core.txn import TXN_STAGING_PREFIX
from repro.crypto.prf import seeded_rng

COLUMNS = [
    ("id", ValueType.int_()),
    ("balance", ValueType.decimal(2)),
]
ROWS = [(i, float(100 * i)) for i in range(1, 101)]


@pytest.fixture()
def deployment():
    server = SDBServer()
    security.tap(server)
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(31))
    proxy.create_table(
        "accounts", COLUMNS, ROWS, sensitive=["balance"], rng=seeded_rng(32)
    )
    return proxy, server


def ring_values(proxy):
    vtype = ValueType.decimal(2)
    return [vtype.encode(balance) % proxy.store.keys.n for _, balance in ROWS]


def test_db_knowledge_no_plaintext_on_disk(deployment):
    """Demo step 3: the SP disk holds no sensitive plaintext."""
    proxy, server = deployment
    hits = security.scan_for_plaintext(server, ring_values(proxy))
    assert hits == []


def test_stored_shares_look_uniform(deployment):
    proxy, server = deployment
    report = security.share_uniformity(server, proxy.store.keys.n)
    assert report.count >= 200  # balance shares + aux column
    assert report.looks_uniform()


def test_memory_dump_during_query_shows_no_plaintext(deployment):
    """The demo's Figure 4 claim: sensitive data stays encrypted during
    the entire computation, including UDF traffic."""
    proxy, server = deployment
    proxy.query("SELECT SUM(balance) AS total FROM accounts")
    proxy.query("SELECT id FROM accounts WHERE balance > 5000")
    attacker = security.QRAttacker(server)
    assert attacker.recovered_plaintexts(ring_values(proxy)) == 0


def test_qr_attacker_sees_declared_leakage_only(deployment):
    proxy, server = deployment
    proxy.query("SELECT id FROM accounts WHERE balance > 5000")
    attacker = security.QRAttacker(server)
    observations = attacker.observations()
    assert observations  # the rewritten query is visible
    signs = observations[-1].comparison_signs
    # the attacker learns exactly the comparison outcomes (50 above 5000)
    assert signs.count(1) == 50
    assert all(s in (-1, 0, 1) for s in signs if s is not None)


def test_cpa_attacker_cannot_match_existing_rows(deployment):
    """CPA: inserting a known balance does not identify equal balances."""
    proxy, server = deployment
    attacker = security.CPAAttacker(server)
    attacker.snapshot()
    # the attacker opens accounts with balances equal to existing ones
    chosen_rows = [(1000 + i, float(100 * i)) for i in range(1, 11)]
    proxy.create_table(
        "accounts2", COLUMNS, chosen_rows, sensitive=["balance"],
        rng=seeded_rng(33),
    )
    # (insertions into a fresh table; observe its shares)
    new_shares = server.catalog.get("accounts2").column("balance")
    matches = attacker.match_rows("accounts", "balance", new_shares)
    assert matches == 0  # fresh row ids -> no share collisions


def test_memory_dump_structure(deployment):
    proxy, server = deployment
    proxy.query("SELECT COUNT(*) AS c FROM accounts")
    dump = server.memory_dump()
    assert "accounts" in dump["disk"]
    assert dump["memory"]["queries"]
    # queries the attacker sees are the REWRITTEN ones (no plaintext SQL)
    assert "5000" not in " ".join(dump["memory"]["queries"])


def test_qr_attacker_requires_a_tap():
    server = SDBServer()
    with pytest.raises(ValueError):
        security.QRAttacker(server)
    transcript = security.tap(server)
    assert security.tap(server) is transcript  # tapping twice records once
    assert security.QRAttacker(server).observations() == []


def test_untapped_memory_dump_has_empty_memory():
    dump = SDBServer().memory_dump()
    assert dump["memory"] == {"queries": [], "results": [], "udf_values": []}


# -- cluster deployments ------------------------------------------------------
#
# The DB-knowledge scan must cover what a *cluster* SP observer sees: every
# shard's full catalog, including hidden relations such as the __txnstage__
# staging tables a two-phase COMMIT leaves visible between prepare and
# finalize.

CLUSTER_COLUMNS = [
    ("id", ValueType.int_()),
    ("amount", ValueType.decimal(2)),
]
# every tenth amount is exactly zero: the scheme's declared zero-leakage
CLUSTER_ROWS = [
    (i, 0.0 if i % 10 == 0 else float((i * 25) % 900) + 0.25)
    for i in range(1, 41)
]


@pytest.fixture()
def cluster_deployment():
    conn = api.connect(shards=4, modulus_bits=256, value_bits=64, rng=seeded_rng(41))
    conn.proxy.create_table(
        "pay", CLUSTER_COLUMNS, CLUSTER_ROWS,
        sensitive=["amount"], rng=seeded_rng(42), shard_by="id",
    )
    yield conn, conn.proxy.server
    conn.close()


def cluster_ring_values(conn, amounts):
    vtype = ValueType.decimal(2)
    n = conn.proxy.store.keys.n
    return [vtype.encode(a) % n for a in amounts]


def test_cluster_scan_covers_every_shard(cluster_deployment):
    conn, coordinator = cluster_deployment
    shards_seen = {
        table.split(":", 1)[0]
        for table, _, _, _ in security.iter_stored_shares(coordinator)
    }
    assert shards_seen == {"shard0", "shard1", "shard2", "shard3"}


def test_cluster_no_plaintext_on_any_shard(cluster_deployment):
    conn, coordinator = cluster_deployment
    values = cluster_ring_values(conn, [a for _, a in CLUSTER_ROWS])
    assert security.scan_for_plaintext(coordinator, values) == []


def test_cluster_zero_cells_are_the_declared_leakage(cluster_deployment):
    conn, coordinator = cluster_deployment
    hits = security.zero_value_cells(coordinator)
    zero_rows = sum(1 for _, a in CLUSTER_ROWS if a == 0.0)
    # one zero share per zero amount (the aux __s column encrypts 1, and
    # only the amount column is sensitive), spread across the shards
    amount_hits = [h for h in hits if h.column == "amount"]
    assert len(amount_hits) == zero_rows
    assert all(h.value == 0 for h in amount_hits)
    # scan_for_plaintext surfaces the same cells only on request
    values = cluster_ring_values(conn, [a for _, a in CLUSTER_ROWS])
    assert security.scan_for_plaintext(coordinator, values) == []
    with_zero = security.scan_for_plaintext(coordinator, values, include_zero=True)
    assert len([h for h in with_zero if h.column == "amount"]) >= zero_rows


def test_cluster_txn_staging_holds_no_plaintext(cluster_deployment):
    """Scan mid-2PC: staged __txnstage__ relations hold only ciphertext."""
    conn, coordinator = cluster_deployment
    conn.begin()
    conn.execute("UPDATE pay SET amount = amount + 7 WHERE id <= 20")
    before = [a for _, a in CLUSTER_ROWS]
    after = [a + 7 if i <= 20 else a for i, a in CLUSTER_ROWS]
    needles = cluster_ring_values(conn, before + after)
    observed = {}

    def scan_at_record(label):
        if label != "txn:record":
            return
        # every shard prepared: staging relations exist and are scannable
        tables = {
            table for table, _, _, _ in security.iter_stored_shares(coordinator)
        }
        observed["staging"] = sorted(
            t for t in tables if TXN_STAGING_PREFIX in t
        )
        observed["hits"] = security.scan_for_plaintext(coordinator, needles)

    coordinator.commit(session=conn.context.session_id, on_step=scan_at_record)
    conn._in_txn = False
    assert observed["staging"], "scan ran before any shard staged its delta"
    assert observed["hits"] == []
    # after finalize the staging relations are gone and the committed
    # slices are still ciphertext-only
    remaining = {
        table for table, _, _, _ in security.iter_stored_shares(coordinator)
    }
    assert not any(TXN_STAGING_PREFIX in t for t in remaining)
    assert security.scan_for_plaintext(coordinator, needles) == []
