"""Partition-parallel execution with task retry.

The paper's new architecture claims SDB inherits "fault-tolerance,
parallel-execution, and scalability" from the underlying Spark SQL engine
(Section 2.2).  This module builds that substrate from first principles:

* tables split into contiguous **partitions**;
* a **task scheduler** that runs one task per partition on a thread pool
  and *retries failed tasks* (Spark's recovery model: tasks are
  deterministic and idempotent, so re-running a lost task is recovery);
* **partial aggregation**: eligible queries are planned as a partial
  query per partition plus a merge query over the union of partials --
  the same two-phase shape Spark SQL plans for distributed aggregates.

The split planning itself lives in :mod:`repro.engine.partial`, shared
with the sharded cluster executor (:mod:`repro.cluster`): partitions on a
thread pool and encrypted shards on separate service providers merge with
the same partial/merge pair.  Eligibility is conservative; everything else
transparently falls back to the serial engine -- correctness never depends
on the parallel path.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

from repro.engine.catalog import Catalog
from repro.engine.executor import Engine
from repro.engine.partial import (
    PARTIALS_TABLE as _PARTIALS_TABLE,
    RE_AGGREGABLE_UDFS,
    concat_tables,
    ineligibility,
    plan_split,
)
from repro.engine.table import Table
from repro.engine.udf import UDFRegistry
from repro.sql import ast
from repro.sql.parser import parse

__all__ = [
    "RE_AGGREGABLE_UDFS",
    "FaultInjector",
    "ParallelEngine",
    "ParallelPlan",
    "TaskFailure",
    "TaskScheduler",
    "TaskStats",
    "partition_table",
]


class TaskFailure(RuntimeError):
    """A task attempt failed (injected or real)."""


def partition_table(table: Table, num_partitions: int) -> list[Table]:
    """Split a table into up to ``num_partitions`` contiguous chunks.

    Every chunk shares the parent schema; sizes differ by at most one row.
    Fewer partitions come back when the table is smaller than requested.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    total = table.num_rows
    if total == 0:
        return [table]
    num_partitions = min(num_partitions, total)
    base, extra = divmod(total, num_partitions)
    parts = []
    start = 0
    for i in range(num_partitions):
        size = base + (1 if i < extra else 0)
        # throw-away per-query copies: indexing one would cost more than
        # the single scan it serves
        parts.append(
            Table(
                table.schema,
                [col[start:start + size] for col in table.columns],
                indexable=False,
            )
        )
        start += size
    return parts


@dataclass
class TaskStats:
    """Scheduler counters (reset per query)."""

    tasks: int = 0
    attempts: int = 0
    retries: int = 0
    failures: int = 0


class FaultInjector:
    """Deterministic task-failure injection for recovery tests.

    ``failures`` maps ``(stage, partition)`` to how many attempts should
    fail before one succeeds: ``{("partial", 2): 1}`` makes partition 2's
    first partial-stage attempt raise, mimicking a lost executor.
    """

    def __init__(self, failures: dict):
        self._remaining = dict(failures)
        self._lock = threading.Lock()

    def check(self, stage: str, partition: int) -> None:
        key = (stage, partition)
        with self._lock:
            remaining = self._remaining.get(key, 0)
            if remaining > 0:
                self._remaining[key] = remaining - 1
                raise TaskFailure(f"injected failure: {stage} partition {partition}")


class TaskScheduler:
    """Run per-partition tasks on a pool, retrying failures.

    Tasks must be deterministic and side-effect free (ours re-execute a
    read-only query on an immutable partition), which is exactly the
    property that makes retry a sound recovery strategy.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        max_attempts: int = 3,
        fault_injector: Optional[FaultInjector] = None,
    ):
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.max_workers = max_workers
        self.max_attempts = max_attempts
        self.fault_injector = fault_injector
        self.stats = TaskStats()

    def run(self, stage: str, tasks: list[Callable[[], object]]) -> list:
        """Execute all tasks; returns results in task order."""
        self.stats.tasks += len(tasks)

        def attempt(index_task):
            index, task = index_task
            last_error = None
            for attempt_no in range(self.max_attempts):
                self.stats.attempts += 1
                if attempt_no:
                    self.stats.retries += 1
                try:
                    if self.fault_injector is not None:
                        self.fault_injector.check(stage, index)
                    return task()
                except TaskFailure as exc:
                    last_error = exc
            self.stats.failures += 1
            raise TaskFailure(
                f"{stage} partition {index} failed after "
                f"{self.max_attempts} attempts"
            ) from last_error

        with ThreadPoolExecutor(max_workers=self.max_workers) as pool:
            return list(pool.map(attempt, enumerate(tasks)))


@dataclass(frozen=True)
class ParallelPlan:
    """How one query was executed."""

    mode: str              # 'parallel' | 'serial'
    reason: str            # eligibility note (serial) or summary (parallel)
    partitions: int = 0


class ParallelEngine:
    """An Engine facade that parallelizes eligible single-table queries.

    Drop-in compatible with :class:`repro.engine.executor.Engine` for the
    ``execute`` / ``execute_dml`` surface, so an :class:`SDBServer` can use
    it unchanged.
    """

    def __init__(
        self,
        catalog: Catalog,
        udfs: Optional[UDFRegistry] = None,
        num_partitions: int = 4,
        scheduler: Optional[TaskScheduler] = None,
        batch_enabled: bool = True,
    ):
        self.catalog = catalog
        self.udfs = udfs or UDFRegistry()
        self.num_partitions = num_partitions
        self.scheduler = scheduler or TaskScheduler()
        #: partition tasks and the merge engine inherit this flag, so every
        #: eligible partial query runs on the columnar batch path.
        self.batch_enabled = batch_enabled
        self._serial = Engine(catalog, self.udfs, batch_enabled=batch_enabled)
        self.last_plan: Optional[ParallelPlan] = None

    # -- public surface ------------------------------------------------------

    def execute(self, query) -> Table:
        if isinstance(query, str):
            query = parse(query)
        reason = ineligibility(query, self.udfs, self.catalog)
        if reason is not None:
            self.last_plan = ParallelPlan(mode="serial", reason=reason)
            return self._serial.execute(query)
        return self._execute_parallel(query)

    def execute_dml(self, statement) -> int:
        return self._serial.execute_dml(statement)

    # -- parallel execution ------------------------------------------------------------

    def _execute_parallel(self, query: ast.Select) -> Table:
        table = self.catalog.get(query.from_clause.name)
        partitions = partition_table(table, self.num_partitions)
        split = plan_split(query, self.udfs)
        binding = query.from_clause.name

        def make_task(part: Table):
            def task():
                catalog = Catalog()
                catalog.create(binding, part)
                engine = Engine(catalog, self.udfs, batch_enabled=self.batch_enabled)
                return engine.execute(split.partial)

            return task

        results = self.scheduler.run(
            "partial", [make_task(part) for part in partitions]
        )
        union = concat_tables(results)
        merge_catalog = Catalog()
        merge_catalog.create(_PARTIALS_TABLE, union)
        merge_engine = Engine(
            merge_catalog, self.udfs, batch_enabled=self.batch_enabled
        )
        out = merge_engine.execute(split.merge)
        self.last_plan = ParallelPlan(
            mode="parallel",
            reason=(
                "partial aggregation"
                if split.kind == "aggregate"
                else "partitioned scan"
            ),
            partitions=len(partitions),
        )
        return out
