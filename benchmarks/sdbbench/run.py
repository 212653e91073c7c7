"""sdbbench: one benchmark for the whole SDB stack.

Driver contract (one workload per invocation, result on the last line)::

    python3 benchmarks/sdbbench/run.py --workload oltp_mix --seed 7 \\
        --seconds 10 --trace 0

For people (all four workloads, every metric by name with its unit)::

    python3 benchmarks/sdbbench/run.py              # end-to-end, untraced
    python3 benchmarks/sdbbench/run.py --trace 1    # per-layer, traced
    python3 benchmarks/sdbbench/run.py --smoke      # tiny, both, < 60 s

``--trace 0`` measures the end-to-end metrics and nothing else runs in
the process; ``--trace 1`` is a separate run that installs the timing
wrappers (tracing.py) and reports the per-layer metrics.  End-to-end
numbers never come from a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
try:
    import harness
    import layers
    import tracing
    import workloads
except ModuleNotFoundError as missing:
    if (missing.name or "").split(".")[0] != "repro":
        raise
    # the program is built from source in the checkout: without src/ there
    # is nothing to measure, and the run must fail without a result line
    sys.exit(f"sdbbench: no program to measure ({missing}); expected "
             f"{REPO_ROOT / 'src' / 'repro'}")

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "do_cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


def _commit() -> str:
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (REPO_ROOT / ".git" / text[5:]).read_text().strip()
        return text[:12]
    except OSError:
        return "unknown"  # the driver's checkout is not a git repository


def _fingerprint(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


class Run:
    """One workload, one mode; owns the deployment for its lifetime."""

    def __init__(self, name, seed, seconds, sizes):
        self.name, self.seed, self.seconds, self.sizes = name, seed, seconds, sizes
        self.notes: list[str] = []
        self.workload = None

    def _build(self, workdir, name=None):
        return workloads.WORKLOADS[name or self.name](
            self.seed, self.sizes, workdir
        )

    def _setup(self, workdir, reps: int) -> float:
        """Median time of ``reps`` complete set-ups; the last one stays up."""
        times = []
        for rep in range(reps):
            if self.workload is not None:
                # drop the previous deployment entirely, or the generator's
                # peak RSS would count two datasets stacked on each other
                self.workload.teardown()
                self.workload = None
                gc.collect()
            home = workdir / f"setup-{rep}"  # a durable dir is never reused
            home.mkdir()
            start = time.perf_counter()
            self.workload = self._build(home)
            self.workload.setup()
            times.append(time.perf_counter() - start)
        return harness.median(times)

    @staticmethod
    def _throughput(ops) -> float:
        """Correct ops per second of measured wall time."""
        if not ops:
            return 0.0
        wall = max(op.end for op in ops) - min(op.start for op in ops)
        return sum(1 for op in ops if not op.failed) / wall if wall > 0 else 0.0

    def _judge(self, ops) -> tuple[int, int]:
        """(attempted, failed) after the oracles ran; a broken final state
        or a dead daemon fails every op of the workload."""
        dead = self.workload.dead_daemons()
        self.notes += [f"daemon died: {text}" for text in dead]
        try:
            state_failures = [] if dead else self.workload.verify(ops)
        except Exception as error:  # noqa: BLE001 -- an oracle crash is a failed run
            state_failures = [f"oracle raised {type(error).__name__}: {error}"]
        self.notes += state_failures
        self.notes += [
            f"{op.cls}: {op.error or 'result differs from the oracle'}"
            for op in ops if op.failed
        ][:5]
        attempted = max(1, len(ops))
        failed = sum(1 for op in ops if op.failed)
        if dead or state_failures:
            failed = attempted
        return attempted, failed

    def signature(self, ops) -> dict:
        """What the determinism self-test compares between two runs."""
        return {
            "op_hash": _fingerprint((op.cls, op.payload) for op in ops),
            "rows_hash": _fingerprint(
                (len(op.result) if isinstance(op.result, list) else op.result)
                for op in ops
            ),
            "ops": len(ops),
        }

    # -- --trace 0 ------------------------------------------------------------

    def end_to_end(self, workdir) -> dict:
        try:
            setup_s = self._setup(workdir, self.sizes.setup_reps)
            cpu = time.process_time()
            ops = self.workload.measure(self.seconds)
            cpu = time.process_time() - cpu
            rss_mb = self.workload.peak_rss_mb()
            attempted, failed = self._judge(ops)
        finally:
            if self.workload is not None:
                self.workload.teardown()
        latencies = [op.latency_ms for op in ops if op.error is None] or [0.0]
        tail = self.workload.tail_pct
        self.notes.append(
            f"latency_tail_ms is p{tail:g} of {len(latencies)} samples "
            f"({harness.samples_beyond(len(latencies), tail)} beyond it)"
        )
        metrics = {
            "setup_s": setup_s,
            "throughput_ops_s": self._throughput(ops),
            "latency_p50_ms": harness.median(latencies),
            "latency_tail_ms": harness.percentile(latencies, tail),
            "do_cpu_ms_per_op": cpu * 1000.0 / max(1, len(ops)),
            "peak_rss_mb": rss_mb,
        }
        return self._result(attempted, failed, metrics, END_TO_END, ops)

    # -- --trace 1 ------------------------------------------------------------

    def per_layer(self, workdir, trace_path, append: bool) -> dict:
        recorder = tracing.Recorder()
        recorder.install()
        self.workload = self._build(workdir)
        self.workload.udf_meter = recorder.meter_udfs
        try:
            recorder.enabled = True
            self.workload.setup()
            setup_spans = recorder.drain()
            # untraced reference on the same deployment, wrappers passive
            recorder.enabled = False
            reference = self.workload.measure(self.seconds / 2)
            before = layers.snapshot(self.workload)
            recorder.enabled = True
            traced = self.workload.measure(self.seconds / 2, probe=recorder)
            recorder.enabled = False
            after = layers.snapshot(self.workload)
            delta = {key: after[key] - before[key] for key in after}
            rtt_ms = layers.ping_rtt_ms(self.workload, self.sizes.ping_samples)
            attempted, failed = self._judge(reference + traced)
            metrics = layers.per_layer(
                self.workload, traced, recorder.spans, recorder, delta
            )
            extras = self.workload.extras()
            local_rate = self._local_twin_rate(workdir)
        finally:
            recorder.uninstall()
            self.workload.teardown()
        reference_rate = self._throughput(reference)
        metrics["net.rtt_ping_ms"] = rtt_ms
        metrics["core.encrypt_rows_per_s"] = layers.encrypt_rows_per_s(setup_spans)
        metrics.update(extras)
        if reference_rate:
            metrics["obs.trace_overhead_ratio"] = (
                self._throughput(traced) / reference_rate
            )
        if local_rate:
            metrics["cluster.speedup_vs_local"] = reference_rate / local_rate
        metrics["error_ratio"] = failed / attempted
        metrics.update(layers.crypto_micro(self.sizes.crypto_values))
        written = recorder.write(trace_path, self.name, append)
        self.notes.append(f"{written} spans -> {trace_path}")
        self.notes.append("self time by layer (ms): " + ", ".join(
            f"{layer} {ms:.1f}"
            for layer, ms in layers.layer_self_ms(recorder.spans).items()
        ))
        return self._result(attempted, failed, metrics, layers.PER_LAYER, traced)

    def _local_twin_rate(self, workdir) -> float:
        """``tpch_cluster`` only: the same queries on an in-process SP, so
        the cluster tier's cost or gain is one ratio."""
        if self.name != "tpch_cluster":
            return 0.0
        cluster, self.workload = self.workload, self._build(workdir, "tpch_local")
        try:
            self.workload.setup()
            return self._throughput(self.workload.measure(self.seconds / 4))
        finally:
            self.workload.teardown()
            self.workload = cluster

    def _result(self, attempted, failed, metrics, units, ops) -> dict:
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items()
            },
            "signature": self.signature(ops),
            "notes": self.notes,
        }


def _print_metrics(result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"  {name:<34} {metric['value']:>14.4f} {metric['unit']}")
    for note in result["notes"]:
        print(f"  note: {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one of the four workload names, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured phase length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, all workloads, both modes")
    parser.add_argument("--out", type=Path, default=None,
                        help="append one full JSON record per run to this file "
                             "(input of compare.py)")
    args = parser.parse_args(argv)

    def terminate(signum, _frame):  # SIGTERM unwinds like Ctrl-C: finally blocks run
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    sizes = harness.SMOKE if args.smoke else harness.FULL
    seconds = args.seconds
    if seconds is None:
        spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
        seconds = 0.2 if args.smoke else float(spec["run_seconds"])
    modes = (0, 1) if args.smoke else (args.trace,)
    trace_path = harness.OUT_DIR / "trace.jsonl"

    header = {
        "commit": _commit(), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "modulus_bits": harness.MODULUS_BITS, "seed": args.seed,
        "seconds": seconds, "smoke": args.smoke,
    }
    print("sdbbench " + " ".join(f"{k}={v}" for k, v in header.items()))

    result = None
    all_correct = True
    traced_before = False
    for mode in modes:
        for name in names:
            run = Run(name, args.seed, seconds, sizes)
            with harness.WorkDir() as workdir:
                if mode:
                    result = run.per_layer(workdir, trace_path, traced_before)
                    traced_before = True
                else:
                    result = run.end_to_end(workdir)
            all_correct &= result["correct"]
            print(f"{name} trace={mode} ops={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
            _print_metrics(result)
            if args.out is not None:
                args.out.parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a", encoding="utf-8") as handle:
                    record = {"workload": name, "trace": mode, **header, **result}
                    handle.write(json.dumps(record) + "\n")
    # the driver reads the last line: exactly these four keys
    print(json.dumps({
        key: result[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
