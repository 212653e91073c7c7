"""EXPLAIN: dry-run rewriting and decryption-plan description."""

import pytest

from repro.cluster.faults import FaultInjector
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


@pytest.fixture(scope="module")
def proxy():
    server = SDBServer()
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(61))
    proxy.create_table(
        "pay",
        [("id", ValueType.int_()), ("dept", ValueType.string(8)),
         ("salary", ValueType.decimal(2))],
        [(1, "eng", 100.0), (2, "ops", 80.0)],
        sensitive=["salary"],
        rng=seeded_rng(62),
    )
    return proxy


def test_explain_select_shows_udf_rewrite(proxy):
    report = proxy.explain("SELECT salary * 2 AS double FROM pay")
    assert report.kind == "select"
    assert "sdb_" in report.rewritten_sql
    assert any(line.startswith("double: share") for line in report.outputs)


def test_explain_select_plain_output(proxy):
    report = proxy.explain("SELECT id FROM pay")
    assert any("plain" in line for line in report.outputs)
    assert "sdb_" not in report.rewritten_sql.split("FROM")[0].replace("__", "")


def test_explain_does_not_contact_server(proxy, monkeypatch):
    injector = FaultInjector()
    monkeypatch.setattr(proxy, "server", injector.wrap(proxy.server, "sp"))
    proxy.explain("SELECT SUM(salary) AS s FROM pay")
    assert injector.log == []


def test_explain_comparison_declares_leakage(proxy):
    report = proxy.explain("SELECT id FROM pay WHERE salary > 90")
    assert report.leakage  # masked-comparison sign leakage is declared


def test_explain_avg_is_proxy_side(proxy):
    report = proxy.explain("SELECT AVG(salary) AS mean FROM pay")
    assert any("proxy-side" in line for line in report.outputs)


def test_explain_update(proxy):
    report = proxy.explain("UPDATE pay SET salary = salary + 1.00 WHERE id = 1")
    assert report.kind == "update"
    assert "sdb_" in report.rewritten_sql


def test_explain_delete(proxy):
    report = proxy.explain("DELETE FROM pay WHERE salary < 50")
    assert report.kind == "delete"
    assert any("DELETE WHERE" in item for item in report.leakage)


def test_explain_insert(proxy):
    report = proxy.explain("INSERT INTO pay (id, dept, salary) VALUES (3, 'hr', 60.0)")
    assert report.kind == "insert"
    assert "fresh random row id" in " ".join(report.notes)


def test_pretty_renders_all_sections(proxy):
    report = proxy.explain("SELECT id FROM pay WHERE salary > 90")
    text = report.pretty()
    assert "rewritten:" in text
    assert "declared leakage:" in text
    assert "outputs:" in text


def test_pretty_handles_empty_leakage(proxy):
    report = proxy.explain("SELECT id FROM pay")
    assert "(none)" in report.pretty()
