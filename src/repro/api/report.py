"""The unified per-execution report: one typed object per query.

Historically the session layer scattered execution telemetry across loose
cursor attributes -- ``cursor.cost``, ``cursor.leakage``, ``cursor.notes``,
``cursor.rewritten_sql`` -- plus backend-specific surfaces (the cluster's
scatter report, the engine's batch/row execution path).  A
:class:`QueryReport` folds all of them into a single value that stays
available across streaming fetches.  The old cursor attributes remain as
thin deprecated delegates, so nothing breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class QueryReport:
    """Everything one execution reported, in one place.

    ``scatter`` is the cluster coordinator's
    :class:`~repro.cluster.coordinator.ScatterReport` for this execution
    (None on single-SP deployments); ``exec_path`` / ``batch_fallback`` /
    ``access`` are the engine's :class:`~repro.engine.executor.ExecInfo`
    for *this* execution, carried with its result (in-process and over
    the wire alike; None/empty where the backend reports none, e.g. a
    scatter across shards).  ``access`` has one line per base table:
    ``index(accounts.a_id) = -> 1/5000 rows`` when a secondary index was
    probed, ``scan(accounts)`` when the table was scanned.
    ``leakage`` already folds routing leakage into the rewrite's declared
    leakage -- it is the complete disclosure list for the execution.
    """

    kind: str
    rewritten_sql: Optional[str]
    cost: Optional[object]           # CostBreakdown
    leakage: tuple
    notes: tuple
    scatter: Optional[object] = None  # ScatterReport
    exec_path: Optional[str] = None   # 'batch' | 'row' | None (unknown)
    batch_fallback: Optional[str] = None
    #: access path per base table (index probe vs scan); () when unknown
    access: tuple = ()
    #: replica failover events (suspect/evict/promote) absorbed by this
    #: execution's transparent retry -- empty on a healthy cluster
    failover: tuple = ()
    #: per-phase durations in seconds (parse/rewrite/bind/route/scatter/
    #: merge/server/decrypt), folded from the execution's span timings;
    #: None when the backend reported none
    timing: Optional[dict] = None

    @property
    def scatter_leakage(self) -> tuple:
        """The routing-only slice of :attr:`leakage`."""
        return tuple(self.scatter.leakage) if self.scatter is not None else ()

    def pretty(self) -> str:
        lines = [f"-- {self.kind.upper()} --"]
        if self.rewritten_sql:
            lines.append(f"rewritten: {self.rewritten_sql}")
        if self.scatter is not None:
            lines.append(
                f"route: {self.scatter.mode} over {self.scatter.shards} "
                f"shard(s) ({self.scatter.reason})"
            )
        if self.failover:
            lines.append("failover events:")
            lines.extend(f"  - {event}" for event in self.failover)
        if self.exec_path:
            path = self.exec_path
            if self.batch_fallback:
                path += f" (batch fallback: {self.batch_fallback})"
            lines.append(f"execution path: {path}")
        for line in self.access:
            lines.append(f"access: {line}")
        lines.append("declared leakage:")
        if self.leakage:
            lines.extend(f"  - {item}" for item in self.leakage)
        else:
            lines.append("  (none)")
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        if self.timing:
            lines.append("timing:")
            lines.extend(
                f"  {phase}: {seconds * 1000.0:.3f} ms"
                for phase, seconds in self.timing.items()
                if seconds is not None
            )
        return "\n".join(lines)

    # ``render`` is the name some tooling expects; same text as pretty().
    render = pretty
