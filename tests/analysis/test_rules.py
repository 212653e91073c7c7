"""Fixture suite: every rule fires on its seeded violation and stays
silent on the corrected twin next to it."""

from pathlib import Path

import pytest

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def findings_for(name):
    findings, stale = analyze_paths([FIXTURES / name], repo_root=FIXTURES)
    assert stale == []
    return findings


#: (fixture file, rule id, qualified symbols the rule must flag)
CASES = [
    (
        "taint_wire.py",
        "taint-to-wire",
        {"taint_wire.bad_ship_plaintext", "taint_wire.bad_ship_via_helper"},
    ),
    (
        "taint_wire_stub.py",
        "taint-to-wire",
        {
            "taint_wire_stub.bad_bind_plaintext",
            "taint_wire_stub.bad_plaintext_in_sql",
        },
    ),
    (
        "taint_storage.py",
        "taint-to-storage",
        {"taint_storage.bad_persist_plaintext"},
    ),
    (
        "taint_exception.py",
        "taint-to-exception",
        {"taint_exception.bad_raise_value"},
    ),
    (
        "taint_log.py",
        "taint-to-log",
        {"taint_log.bad_log_plaintext"},
    ),
    (
        "taint_telemetry.py",
        "taint-to-telemetry",
        {
            "taint_telemetry.bad_span_attr",
            "taint_telemetry.bad_metric_label",
            "taint_telemetry.bad_slowlog_body",
        },
    ),
    (
        "lock_release.py",
        "lock-no-release",
        {"lock_release.Registry.bad_acquire_no_finally"},
    ),
    (
        "lock_blocking.py",
        "blocking-under-write-lock",
        {
            "lock_blocking.Store.bad_sleep_under_write",
            "lock_blocking.Store.bad_refresh_under_write",
        },
    ),
    (
        "lock_await.py",
        "await-under-lock",
        {"lock_await.AsyncCache.bad_await_under_sync_lock"},
    ),
    (
        "lock_index_publish.py",
        "mutation-under-read-lock",
        {
            "lock_index_publish.Shard.bad_maintain_under_read",
            "lock_index_publish.Shard.bad_maintain_one_call_away",
        },
    ),
]


@pytest.mark.parametrize(
    "fixture, rule, bad_symbols",
    CASES,
    ids=[rule for _, rule, _ in CASES],
)
def test_rule_fires_on_seeded_violation_only(fixture, rule, bad_symbols):
    findings = findings_for(fixture)
    assert {f.symbol for f in findings if f.rule == rule} == bad_symbols
    # the corrected twins produce NO finding of any rule
    ok_hits = [
        f for f in findings if f.symbol.rsplit(".", 1)[-1].startswith("ok_")
    ]
    assert ok_hits == []
    # and nothing else in the fixture trips an unrelated rule
    assert {f.rule for f in findings} == {rule}


def test_lock_order_cycle_fires_on_inconsistent_order():
    findings = findings_for("lock_cycle_bad.py")
    cycles = [f for f in findings if f.rule == "lock-order-cycle"]
    assert cycles, "inconsistent lock order must produce a cycle finding"
    message = cycles[0].message
    assert "Pair._meta_lock" in message and "Pair._data_lock" in message


def test_lock_order_cycle_silent_on_consistent_order():
    findings = findings_for("lock_cycle_ok.py")
    assert [f for f in findings if f.rule == "lock-order-cycle"] == []


def test_interprocedural_trace_names_the_call_chain():
    findings = findings_for("taint_wire.py")
    via_helper = [
        f for f in findings if f.symbol == "taint_wire.bad_ship_via_helper"
    ]
    assert via_helper
    assert any("_frame" in step for step in via_helper[0].trace)


def test_findings_render_file_line_rule():
    findings = findings_for("taint_exception.py")
    rendered = findings[0].render()
    assert "taint_exception.py" in rendered
    assert "taint-to-exception" in rendered
