"""sdbbench plumbing: sizes, SP daemons, /proc sampling, statistics.

Everything here is workload-independent.  The benchmark reads and writes
only below its own directory (``.work/`` for daemon state, ``out/`` for
traces), because the driver runs it from a checkout where nothing else
is writable by contract.
"""

from __future__ import annotations

import ctypes
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SOURCE_ROOT = REPO_ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
OUT_DIR = BENCH_DIR / "out"

#: paper scale is 2048; 256 keeps a run inside the driver's time budget.
#: Absolute numbers are therefore the sandbox's, not the paper's.
MODULUS_BITS = 256
VALUE_BITS = 64

_LISTEN = re.compile(r"listening on ([^\s:]+):(\d+)")


@dataclass(frozen=True)
class Sizes:
    """Every knob that decides how much work a run does."""

    tpch_scale: float
    tpch_max_passes: int
    accounts: int
    oltp_max_blocks: int
    tpcc: dict
    tpcc_transactions: int
    tpcc_warm: int
    setup_reps: int
    ping_samples: int
    #: modulus bits -> values in the crypto micro-benchmark column
    crypto_values: dict


FULL = Sizes(
    tpch_scale=0.0002,
    tpch_max_passes=100,
    accounts=5000,
    oltp_max_blocks=150,
    tpcc=dict(warehouses=4, districts=4, customers=30, items=100),
    tpcc_transactions=2000,
    tpcc_warm=8,
    setup_reps=3,
    ping_samples=200,
    crypto_values={256: 4000, 2048: 40},
)

#: bit-rot check: every code path, no meaningful numbers (a traced run
#: needs two measured units: untraced reference, then traced)
SMOKE = Sizes(
    tpch_scale=0.0001,
    tpch_max_passes=2,
    accounts=300,
    oltp_max_blocks=2,
    tpcc=dict(warehouses=2, districts=2, customers=4, items=8),
    tpcc_transactions=10,
    tpcc_warm=2,
    setup_reps=1,
    ping_samples=20,
    crypto_values={256: 200, 2048: 4},
)


# -- statistics ---------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (no interpolation: a reported latency is
    always one that was observed)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return percentile(values, 50)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count - max(1, math.ceil(pct / 100.0 * count))


# -- /proc ----------------------------------------------------------------------

def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` of a live process (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


# -- SP daemons -------------------------------------------------------------------

def _die_with_parent() -> None:
    """Child-side: ask the kernel to SIGKILL this daemon if the benchmark
    process dies without running its ``finally`` blocks (SIGKILL, OOM)."""
    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGKILL)


class DaemonDied(RuntimeError):
    """A service-provider daemon exited while the benchmark needed it."""


class Daemon:
    """One ``python -m repro.cli.server`` process owned by the benchmark.

    Launched through the public CLI on an ephemeral port.  stdout and
    stderr go to files in the run's work directory, so a chatty or dying
    daemon can never block on a full pipe and its last words are still
    there to print.
    """

    def __init__(self, workdir: Path, label: str, args: list):
        self.label = label
        self.stdout_path = workdir / f"{label}.out"
        self.stderr_path = workdir / f"{label}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(SOURCE_ROOT) + os.pathsep + env.get("PYTHONPATH", "")
        )
        start = time.perf_counter()
        with open(self.stdout_path, "wb") as out, \
                open(self.stderr_path, "wb") as err:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli.server",
                 "--host", "127.0.0.1", "--port", "0", *args],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                env=env, cwd=str(workdir), preexec_fn=_die_with_parent,
            )
        self.host, self.port = self._await_listening()
        #: seconds from exec to the "listening" line (recovery included)
        self.startup_s = time.perf_counter() - start

    def _await_listening(self, timeout: float = 60.0):
        deadline = time.perf_counter() + timeout
        while True:
            match = _LISTEN.search(self.stdout_path.read_text(errors="replace"))
            if match is not None:
                return match.group(1), int(match.group(2))
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop(kill=True)
                raise DaemonDied(
                    f"daemon {self.label} failed to start:\n{self.last_words()}"
                )
            time.sleep(0.002)

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    def died(self) -> bool:
        return self.process.poll() is not None

    def last_words(self, limit: int = 2000) -> str:
        text = self.stderr_path.read_text(errors="replace").strip()
        return text[-limit:] if text else "(empty stderr)"

    def peak_rss_kb(self) -> int:
        return peak_rss_kb(self.process.pid)

    def stop(self, kill: bool = False) -> None:
        """Stop and reap; ``kill`` skips the polite SIGTERM (crash test)."""
        if self.process.poll() is None:
            if kill:
                self.process.kill()
            else:
                self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()


class WorkDir:
    """A private scratch directory below ``.work/``, removed on exit."""

    def __init__(self):
        WORK_ROOT.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))

    def __enter__(self) -> Path:
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # last run out removes the (empty) root
        except OSError:
            pass
