"""Proxy-side views: expansion, nesting, cycles, invisibility at the SP."""

import pytest

from repro.core.keystore import KeyStoreError
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.rewriter import RewriteError
from repro.core.security import tap
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


@pytest.fixture()
def proxy():
    server = SDBServer()
    tap(server)
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(151))
    proxy.create_table(
        "sales",
        [("region", ValueType.string(8)), ("qty", ValueType.int_()),
         ("price", ValueType.decimal(2))],
        [("east", 10, 2.50), ("west", 3, 4.00), ("east", 5, 1.00),
         ("west", 8, 3.25)],
        sensitive=["qty", "price"],
        rng=seeded_rng(152),
    )
    return proxy


def test_view_queries_like_a_table(proxy):
    proxy.create_view(
        "revenue", "SELECT region, qty * price AS rev FROM sales"
    )
    result = proxy.query(
        "SELECT region, SUM(rev) AS total FROM revenue GROUP BY region "
        "ORDER BY region"
    )
    rows = {r[0]: r[1] for r in result.table.rows()}
    assert rows["east"] == pytest.approx(30.0)
    assert rows["west"] == pytest.approx(38.0)


def test_view_filter_on_view_output(proxy):
    proxy.create_view("big", "SELECT region, qty FROM sales WHERE qty > 4")
    result = proxy.query("SELECT COUNT(*) AS c FROM big WHERE qty < 9")
    assert result.table.column("c") == [2]


def test_views_nest(proxy):
    proxy.create_view("rev", "SELECT region, qty * price AS r FROM sales")
    proxy.create_view(
        "east_rev", "SELECT r FROM rev WHERE region = 'east'"
    )
    result = proxy.query("SELECT SUM(r) AS s FROM east_rev")
    assert result.table.column("s") == [pytest.approx(30.0)]


def test_view_with_alias_binding(proxy):
    proxy.create_view("v", "SELECT qty FROM sales")
    result = proxy.query("SELECT w.qty FROM v w WHERE w.qty = 10")
    assert result.table.column("qty") == [10]


def test_view_join_with_base_table(proxy):
    proxy.create_view(
        "totals", "SELECT region, SUM(qty) AS tq FROM sales GROUP BY region"
    )
    result = proxy.query(
        "SELECT s.region, s.qty, t.tq FROM sales s, totals t "
        "WHERE s.region = t.region AND s.qty = 10"
    )
    assert list(result.table.rows()) == [("east", 10, 15)]


def test_invalid_view_rejected_at_creation(proxy):
    with pytest.raises(Exception):
        proxy.create_view("bad", "SELECT nope FROM sales")
    assert "bad" not in proxy.store.views()


def test_recursive_view_rejected(proxy):
    proxy.store.register_view("loop", "SELECT * FROM loop")
    with pytest.raises(RewriteError, match="recursive"):
        proxy.query("SELECT * FROM loop")


def test_mutually_recursive_views_rejected(proxy):
    proxy.store.register_view("a_view", "SELECT * FROM b_view")
    proxy.store.register_view("b_view", "SELECT * FROM a_view")
    with pytest.raises(RewriteError, match="recursive"):
        proxy.query("SELECT * FROM a_view")


def test_view_name_cannot_shadow_table(proxy):
    with pytest.raises(KeyStoreError):
        proxy.create_view("sales", "SELECT region FROM sales")


def test_drop_view(proxy):
    proxy.create_view("v", "SELECT region FROM sales")
    proxy.drop_view("v")
    with pytest.raises(RewriteError):
        proxy.query("SELECT * FROM v")


def test_view_replace(proxy):
    proxy.create_view("v", "SELECT region FROM sales")
    with pytest.raises(KeyStoreError):
        proxy.create_view("v", "SELECT qty FROM sales")
    proxy.create_view("v", "SELECT qty FROM sales", replace=True)
    assert list(proxy.query("SELECT * FROM v").table.schema.names) == ["qty"]


def test_sp_sees_only_expanded_sql(proxy):
    """The SP receives the inlined derived table, never the view itself.

    (The view *name* may surface as the derived table's binding alias --
    standard SQL auto-aliasing -- but no ``FROM view`` reference exists
    for the SP to resolve.)
    """
    proxy.create_view("secret_view", "SELECT qty FROM sales WHERE qty > 4")
    proxy.query("SELECT SUM(qty) AS s FROM secret_view")
    observed = [s for s in proxy.server.transcript.queries if "SUM" in s.upper()
                or "sdb_agg" in s]
    assert observed
    for sql in proxy.server.transcript.queries:
        assert "FROM secret_view" not in sql


def test_views_survive_keystore_serialization(proxy):
    from repro.core.keystore import KeyStore

    proxy.create_view("v", "SELECT region FROM sales")
    restored = KeyStore.from_json(proxy.store.to_json())
    assert restored.views() == ["v"]
    assert restored.view("v") == "SELECT region FROM sales"
