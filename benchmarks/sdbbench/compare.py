"""Compare sdbbench result sets against the bounds in BENCHMARK.json.

A result set is the file ``run.py --out FILE`` appends to: one JSON
record per run.  Only untraced records (``trace == 0``) are read;
end-to-end numbers never come from a traced run.

    compare.py A.jsonl            # spread of one set: is the benchmark steady?
    compare.py A.jsonl B.jsonl    # B against A (A is the parent)

One row per (workload, end-to-end metric).  With two sets the verdict is

* ``unresolved`` -- either set's run-to-run spread (distance between the
  quartiles, as a share of the median) is wider than the bound, so
  neither "same" nor "worse" can be claimed;
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B's median is better than A's by more than either
  set's own spread (the medians of two sets of the same code differ by
  about that much);
* ``unchanged``  -- everything else.

Exit code 1 when anything regressed (two sets) or is noisier than its
bound (one set).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path) -> dict:
    """workload -> metric -> values, from the untraced records of a set."""
    out: dict = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if record.get("trace"):
            continue
        metrics = out.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
    return out


def summarize(values) -> tuple:
    """(median, q1, q3, spread as a share of the median)."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3, (q3 - q1) / abs(mid) if mid else 0.0


def worse_by(parent: float, change: float, better: str) -> float:
    """Relative change in the *worse* direction (negative: it got better)."""
    if not parent:
        return 0.0
    delta = (change - parent) / abs(parent)
    return delta if better == "lower" else -delta


def verdict(a, b, better: str, bound: float) -> str:
    if max(a[3], b[3]) > bound:
        return "unresolved"
    moved = worse_by(a[0], b[0], better)
    if moved > bound:
        return "regressed"
    if -moved > max(a[3], b[3]):
        return "improved"
    return "unchanged"


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) not in (1, 2):
        print(__doc__)
        return 2
    spec = {m["name"]: m for m in json.loads(SPEC.read_text())["end_to_end"]}
    sets = [load(path) for path in paths]
    bad = 0
    for workload in sets[0]:
        for name, metric in spec.items():
            a = summarize(sets[0][workload][name])
            bound = metric["bound"]
            row = (f"{workload:<13} {name:<18} {a[0]:>11.4f} "
                   f"[{a[1]:.4f} {a[2]:.4f}] spread {a[3]:6.1%}")
            if len(sets) == 1:
                steady = "steady" if a[3] <= bound / 3 else (
                    "ok" if a[3] <= bound else "noisy")
                bad += steady == "noisy" and name != "setup_s"
                print(f"{row}  bound {bound:.0%}  {steady}")
                continue
            b = summarize(sets[1][workload][name])
            moved = worse_by(a[0], b[0], metric["better"])
            result = verdict(a, b, metric["better"], bound)
            bad += result == "regressed"
            print(f"{row} | {b[0]:>11.4f} [{b[1]:.4f} {b[2]:.4f}] "
                  f"spread {b[3]:6.1%} | worse by {moved:+7.1%} "
                  f"bound {bound:.0%}  {result}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
