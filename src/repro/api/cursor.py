"""The DB-API cursor: execute, stream, iterate.

A cursor is a lightweight view over one execution at a time.  SELECT rows
are pulled from the server (and decrypted) lazily in ``arraysize`` chunks;
``fetchall`` on a million-row result still decrypts it, but ``fetchone`` on
the same result decrypts only the first chunk.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.api import exceptions as exc
from repro.api.statement import SelectExecution, Statement

#: description type codes, per output value kind
_TYPE_CODES = {"int": "INT", "decimal": "DECIMAL", "date": "DATE",
               "string": "STRING", "bool": "BOOL"}


class Cursor:
    """PEP-249 cursor over one :class:`~repro.api.connection.Connection`."""

    def __init__(self, connection):
        self.connection = connection
        self.arraysize = 256
        self.description: Optional[tuple] = None
        self.rowcount = -1
        self.statement: Optional[Statement] = None
        self._execution: Optional[SelectExecution] = None
        self._dml_result = None
        self._buffer: deque = deque()
        self._schema = None  # schema of the last decrypted chunk
        self._static_rows = False  # buffer holds pre-rendered rows (EXPLAIN)
        self._plan = None  # PlanNode from the last EXPLAIN on this cursor
        self._closed = False

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._reset()
        self._closed = True
        self.connection._cursors.discard(self)

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise exc.InterfaceError("cursor is closed")
        self.connection._check_open()

    def _reset(self) -> None:
        if self._execution is not None:
            self._execution.close()
        self._execution = None
        self._dml_result = None
        self._buffer.clear()
        self._schema = None
        self._static_rows = False
        self._plan = None
        self.description = None
        self.rowcount = -1

    # -- execution ----------------------------------------------------------

    def execute(self, operation, params: Sequence = ()) -> "Cursor":
        """Run a statement; ``operation`` is SQL text or a prepared Statement."""
        self._check_open()
        self._reset()
        try:
            if isinstance(operation, Statement):
                statement = operation
            else:
                statement = self.connection.statement(operation)
            self.statement = statement
            if statement.kind == "select":
                self._execution = statement.execute_select(params)
                self.rowcount = self._execution.num_rows
                self.description = _describe(self._execution.plan)
            elif statement.kind == "explain":
                self._plan = statement.execute_explain()
                self._load_plan_rows(self._plan)
            else:
                self._dml_result = statement.execute_dml(params)
                self.rowcount = self._dml_result.affected
        except exc.Error:
            raise
        except Exception as error:
            raise exc.map_exception(error) from error
        return self

    def executemany(self, operation, seq_of_params) -> "Cursor":
        """Run a DML statement once per parameter row; sums ``rowcount``."""
        self._check_open()
        self._reset()
        try:
            if isinstance(operation, Statement):
                statement = operation
            else:
                statement = self.connection.statement(operation)
            self.statement = statement
            if statement.kind in ("select", "explain"):
                raise exc.ProgrammingError(
                    f"executemany cannot run a {statement.kind} statement; "
                    "iterate execute() for queries"
                )
            total = 0
            last = None
            for params in seq_of_params:
                last = statement.execute_dml(params)
                total += last.affected
            self._dml_result = last
            self.rowcount = total
        except exc.Error:
            raise
        except Exception as error:
            raise exc.map_exception(error) from error
        return self

    def _load_plan_rows(self, tree) -> None:
        """Expose an EXPLAIN plan tree as a one-column static result set."""
        from repro.engine.schema import ColumnSpec, DataType, Schema

        lines = tree.explain().split("\n")
        self._buffer.extend((line,) for line in lines)
        self._static_rows = True
        self._schema = Schema((ColumnSpec("plan", DataType.STRING),))
        self.rowcount = len(lines)
        self.description = (("plan", "STRING", None, None, None, None, None),)

    # -- fetch --------------------------------------------------------------

    def _require_results(self) -> SelectExecution:
        if self._execution is None:
            raise exc.InterfaceError("no result set (execute a SELECT first)")
        return self._execution

    @staticmethod
    def _fetch_mapped(fetch, *args):
        """Run a fetch step, mapping pipeline errors like execute() does.

        Pipelined results evaluate rows at FETCH time, so runtime errors
        (division by zero, ...) that used to surface inside execute() now
        surface here -- they must land in the same PEP-249 hierarchy.
        """
        try:
            return fetch(*args)
        except exc.Error:
            raise
        except Exception as error:
            raise exc.map_exception(error) from error

    def _refill(self, want: int) -> None:
        if self._static_rows:
            return  # EXPLAIN rows are fully buffered at execute time
        execution = self._require_results()
        while len(self._buffer) < want and not execution.closed:
            chunk = self._fetch_mapped(
                execution.fetch_chunk, max(self.arraysize, want)
            )
            self._schema = chunk.schema
            if chunk.num_rows == 0:
                break
            self._buffer.extend(chunk.rows())

    def fetchone(self) -> Optional[tuple]:
        self._check_open()
        self._refill(1)
        return self._buffer.popleft() if self._buffer else None

    def fetchmany(self, size: Optional[int] = None) -> list:
        self._check_open()
        want = self.arraysize if size is None else size
        self._refill(want)
        return [self._buffer.popleft() for _ in range(min(want, len(self._buffer)))]

    def fetchall(self) -> list:
        self._check_open()
        if self._static_rows:
            rows = list(self._buffer)
            self._buffer.clear()
            return rows
        execution = self._require_results()
        rows = list(self._buffer)
        self._buffer.clear()
        if not execution.closed:
            rest = self._fetch_mapped(execution.fetch_rest)
            self._schema = rest.schema
            rows.extend(rest.rows())
        return rows

    def fetch_table(self):
        """Remaining rows as a :class:`~repro.engine.table.Table`.

        Most useful straight after ``execute`` (the shell and the proxy's
        compatibility shim render whole relations); rows already buffered
        by ``fetchone``/``fetchmany`` are included, so mixing is safe.
        """
        self._check_open()
        if self._static_rows:
            from repro.engine.table import Table

            rows = list(self._buffer)
            self._buffer.clear()
            return Table.from_rows(self._schema, rows)
        execution = self._require_results()
        table = (
            self._fetch_mapped(execution.fetch_rest)
            if not execution.closed
            else None
        )
        if table is not None:
            self._schema = table.schema
        if self._buffer:
            buffered = list(self._buffer)
            self._buffer.clear()
            from repro.engine.table import Table

            rebuilt = buffered + (list(table.rows()) if table is not None else [])
            return Table.from_rows(self._schema, rebuilt)
        if table is None:
            if self._schema is not None:
                from repro.engine.table import Table

                return Table.empty(self._schema)
            raise exc.InterfaceError("result set already consumed")
        return table

    def __iter__(self):
        return self

    def __next__(self):
        row = self.fetchone()
        if row is None:
            raise StopIteration
        return row

    # -- PEP-249 no-ops ------------------------------------------------------

    def setinputsizes(self, sizes) -> None:  # deliberate no-op (PEP-249)
        pass

    def setoutputsize(self, size, column=None) -> None:
        pass

    # -- SDB extensions ------------------------------------------------------

    def explain(self, operation=None):
        """The structured plan tree, without executing anything.

        With ``operation`` (SQL text or a prepared Statement), plan it
        directly; with no argument, return the tree from the last
        ``EXPLAIN`` executed on this cursor.  Either way the result is the
        same :class:`~repro.engine.planner.PlanNode` the ``EXPLAIN``
        statement and the shell's ``\\explain`` render -- one plan object,
        three surfaces.
        """
        self._check_open()
        if operation is None:
            if self._plan is None:
                raise exc.InterfaceError(
                    "no plan: execute an EXPLAIN first, or pass a statement"
                )
            return self._plan
        try:
            from repro.core.explain import plan as build_plan

            source = (
                operation.parsed
                if isinstance(operation, Statement)
                else operation
            )
            self._plan = build_plan(self.connection.proxy, source)
        except exc.Error:
            raise
        except Exception as error:
            raise exc.map_exception(error) from error
        return self._plan

    @property
    def plan(self):
        """Plan tree from the last ``EXPLAIN``/:meth:`explain` (or None)."""
        return self._plan

    @property
    def report(self):
        """Unified :class:`~repro.api.report.QueryReport` for the last execution.

        Folds the legacy per-attribute telemetry (``cost``,
        ``rewritten_sql``, ``leakage``, ``notes``), the cluster scatter
        report, and the execution path / access paths the SP returned with
        *this* result (in-process or over the wire) into one frozen value.
        Built on access from the retained execution handle, so it survives
        streaming fetches; None before any execution.
        """
        from repro.api.report import QueryReport

        if self._execution is not None:
            execution = self._execution
            info = execution.exec_info
            return QueryReport(
                kind="select",
                rewritten_sql=execution.rewritten_sql,
                cost=execution.cost(),
                leakage=execution.plan.leakage + execution.scatter_leakage,
                notes=execution.plan.notes,
                scatter=execution.scatter,
                exec_path=info.path if info is not None else None,
                batch_fallback=info.fallback if info is not None else None,
                access=tuple(info.access) if info is not None else (),
                failover=tuple(
                    getattr(execution.scatter, "failover", ()) or ()
                ),
                timing=execution.timing_summary(),
            )
        if self._dml_result is not None:
            result = self._dml_result
            return QueryReport(
                kind=self.statement.kind if self.statement else "dml",
                rewritten_sql=result.rewritten_sql,
                cost=result.cost,
                leakage=tuple(result.leakage),
                notes=tuple(result.notes),
            )
        return None

    # The attribute quartet below predates QueryReport.  Each is a
    # deprecated alias kept for compatibility; prefer ``cursor.report``.

    @property
    def cost(self):
        """Per-execution :class:`~repro.core.proxy.CostBreakdown` so far.

        Deprecated alias: prefer ``cursor.report.cost``.
        """
        if self._execution is not None:
            return self._execution.cost()
        if self._dml_result is not None:
            return self._dml_result.cost
        return None

    @property
    def rewritten_sql(self) -> Optional[str]:
        """Deprecated alias: prefer ``cursor.report.rewritten_sql``."""
        if self._execution is not None:
            return self._execution.rewritten_sql
        if self._dml_result is not None:
            return self._dml_result.rewritten_sql
        return None

    @property
    def leakage(self) -> tuple:
        """Deprecated alias: prefer ``cursor.report.leakage``."""
        if self._execution is not None:
            return self._execution.plan.leakage + self._execution.scatter_leakage
        if self._dml_result is not None:
            return self._dml_result.leakage
        return ()

    @property
    def notes(self) -> tuple:
        """Deprecated alias: prefer ``cursor.report.notes``."""
        if self._execution is not None:
            return self._execution.plan.notes
        if self._dml_result is not None:
            return self._dml_result.notes
        return ()


def _describe(plan) -> tuple:
    """PEP-249 7-tuples from the decryption plan's output columns."""
    from repro.core.plan import PlainSlot, ShareSlot

    description = []
    for output in plan.outputs:
        vtype = None
        if isinstance(output.spec, (PlainSlot, ShareSlot)):
            vtype = output.spec.vtype
        type_code = _TYPE_CODES.get(vtype.kind) if vtype is not None else None
        precision = scale = None
        if vtype is not None and vtype.kind == "decimal":
            scale = vtype.scale
        internal_size = vtype.width if vtype is not None else None
        description.append(
            (output.name, type_code, None, internal_size, precision, scale, None)
        )
    return tuple(description)
