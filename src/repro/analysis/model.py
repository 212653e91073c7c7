"""Findings and rule identities shared by every ``sdb-lint`` pass."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


#: Every rule the analyzer can emit, with a one-line contract.  The ids are
#: stable: baselines, fixtures and CI reference them by name.
RULES = {
    "taint-to-wire": "sensitive plaintext reaches wire serialization "
    "without crossing a crypto boundary",
    "taint-to-storage": "sensitive plaintext reaches an SP-side storage "
    "write without crossing a crypto boundary",
    "taint-to-exception": "sensitive plaintext is interpolated into an "
    "exception message",
    "taint-to-log": "sensitive plaintext is interpolated into a log call",
    "taint-to-repr": "a __repr__/__str__ returns sensitive plaintext",
    "taint-to-telemetry": "sensitive plaintext reaches a span attribute, "
    "metric label, or slow-query-log entry",
    "lock-order-cycle": "the global lock-order graph has a cycle "
    "(potential deadlock)",
    "lock-no-release": "a lock is acquired without a guaranteed release "
    "on exception paths (no try/finally, no context manager)",
    "blocking-under-write-lock": "a call that may block (network, sleep) "
    "runs while holding a ReadWriteLock write side",
    "await-under-lock": "an await expression runs while holding a "
    "synchronous lock (blocks the whole event loop)",
    "mutation-under-read-lock": "state that readers share (a table, one "
    "of its indexes) is mutated in place while only the read side of a "
    "ReadWriteLock is held",
}


@dataclass(frozen=True)
class Finding:
    """One analyzer finding, addressable by (rule, file, symbol)."""

    rule: str
    file: str            # repo-relative posix path
    line: int
    symbol: str          # qualified function ("module.Class.func") or ""
    message: str
    severity: Severity = Severity.ERROR
    #: call chain for interprocedural findings, outermost first
    trace: tuple = field(default_factory=tuple)

    def render(self) -> str:
        where = f"{self.file}:{self.line}"
        sym = f" [{self.symbol}]" if self.symbol else ""
        out = f"{where}: {self.rule}: {self.message}{sym}"
        if self.trace:
            out += "\n    via " + " -> ".join(self.trace)
        return out
