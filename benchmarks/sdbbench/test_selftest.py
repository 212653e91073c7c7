"""sdbbench self-test: the benchmark is deterministic and complete.

Run as ``pytest benchmarks/sdbbench`` (not part of tier-1: it launches
daemons and takes about two minutes).  ``--smoke`` numbers mean nothing;
what is checked is that the same seed gives the same work, another seed
gives other work, and every metric BENCHMARK.json promises is emitted.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(BENCH_DIR)]

import compare  # noqa: E402
import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
SINGLE_SESSION = ("tpch_local", "tpch_cluster", "oltp_mix")
#: per-layer counts that must repeat exactly with one session and one seed
EXACT_COUNTS = (
    "api.stmt_cache_hit_ratio", "api.stmt_cache_evictions",
    "net.requests_per_op", "net.bytes_sent_per_op",
)


def _smoke(tmp_path, tag: str):
    out = tmp_path / f"{tag}.jsonl"
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke", "--seed", "11",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, cwd=REPO_ROOT,
    )
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return done, {(r["workload"], r["trace"]): r for r in records}


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("sdbbench")
    return _smoke(tmp_path, "first"), _smoke(tmp_path, "second")


def test_smoke_exits_zero_and_emits_every_metric(smoke_runs):
    (done, records), _ = smoke_runs
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for mode, section in ((0, "end_to_end"), (1, "per_layer")):
            record = records[(workload, mode)]
            assert record["correct"], record["notes"]
            wanted = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {n: m["unit"] for n, m in record["metrics"].items()}
            assert got == wanted


def test_traced_run_links_spans_to_their_ops(smoke_runs):
    spans = [
        json.loads(line)
        for line in (harness.OUT_DIR / "trace.jsonl").read_text().splitlines()
    ]
    assert {s["workload"] for s in spans} == set(workloads.WORKLOADS)
    by_id = {(s["workload"], s["id"]): s for s in spans}
    children = [s for s in spans if s["parent"] is not None]
    assert children
    for span in children:
        parent = by_id[(span["workload"], span["parent"])]
        assert parent["op"] == span["op"]
        assert parent["start"] <= span["start"]


def test_same_seed_same_work(smoke_runs):
    (_, first), (_, second) = smoke_runs
    for workload in SINGLE_SESSION:
        for mode in (0, 1):
            assert (first[(workload, mode)]["signature"]
                    == second[(workload, mode)]["signature"])
        a, b = (run[(workload, 1)]["metrics"] for run in (first, second))
        for name in EXACT_COUNTS:
            assert a[name]["value"] == b[name]["value"], (workload, name)


def _stream(name: str, seed: int) -> list:
    """The generated op stream, without deploying anything."""
    workload = workloads.WORKLOADS[name](seed, harness.SMOKE, None)
    if name == "tpcc_txn":
        return workload._schedule(10, seed, 0)
    if name == "oltp_mix":
        return [(op.cls, op.payload) for block in workload.blocks for op in block]
    return [[op.cls for op in unit] for unit, _ in zip(workload.units(), range(3))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_decides_the_stream(name):
    assert _stream(name, 5) == _stream(name, 5)
    assert _stream(name, 5) != _stream(name, 6)


def test_compare_verdicts():
    steady = (100.0, 99.0, 101.0, 0.02)
    assert compare.verdict(steady, (104.0, 103.0, 105.0, 0.02), "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, (115.0, 114.0, 116.0, 0.02), "lower", 0.1) == "regressed"
    assert compare.verdict(steady, (115.0, 114.0, 116.0, 0.02), "higher", 0.1) == "improved"
    assert compare.verdict(steady, (90.0, 80.0, 100.0, 0.22), "lower", 0.1) == "unresolved"
    mid, q1, q3, spread = compare.summarize([9.0, 10.0, 11.0, 10.0, 10.0])
    assert (mid, q1 <= mid <= q3) == (10.0, True) and spread < 0.2
