"""SQL execution.

A straightforward but complete interpreter: FROM planning (greedy equi-join
ordering with hash joins), WHERE filtering, hash aggregation with both
built-in aggregates and aggregate UDFs, HAVING, projection, DISTINCT,
ORDER BY (with select-alias resolution) and LIMIT.  Subqueries -- scalar,
IN, EXISTS, derived tables -- call back into the engine; uncorrelated
subqueries are evaluated once and correlated ones are memoized on the outer
values they actually read.

The executor is deliberately engine-agnostic about *what* the values are:
encrypted shares flow through scans, joins and group-bys exactly like plain
values, and only UDFs interpret them.  That property is the architectural
point of the paper (Section 2.2).

Two execution paths share this pipeline:

* the **row path** -- the reference interpreter described above;
* the **batch path** -- a columnar fast path for single-table
  scan -> filter -> project -> aggregate queries, which evaluates each
  expression once per *column* through
  :class:`~repro.engine.expressions.BatchEvaluator` instead of once per
  row.  Any shape the batch path cannot handle (joins, subqueries,
  intervals, unresolvable ORDER BY) falls back to the row path; any
  *error* raised while batch-evaluating also falls back, so queries that
  legitimately fail produce the row path's exception.  Every top-level
  result carries an :class:`ExecInfo` saying which path produced it.

Base-table scans go through :func:`access_path`, the one place that
chooses between probing a secondary index and scanning (SELECT, the
pipelined ``execute_iter`` and UPDATE/DELETE all call it).
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple, Optional, Sequence

from repro.engine.catalog import Catalog
from repro.engine.columnar import (
    BatchScope,
    BatchUnsupported,
    ColumnBatch,
    infer_column_spec,
)
from repro.engine.expressions import (
    BatchEvaluator,
    Evaluator,
    EvaluationError,
    RowScope,
    _MISSING,
)
from repro.engine.index import value_kind
from repro.engine.schema import Schema
from repro.engine.table import Table
from repro.engine.udf import UDFRegistry
from repro.sql import ast
from repro.sql.parser import parse


class ExecutionError(ValueError):
    """Raised for semantically invalid queries."""


@dataclasses.dataclass
class ExecInfo:
    """How one statement was executed.

    Travels *with the result* (``Table.exec_info``, the pipelined result
    handle, an optional key on the wire) instead of living on the shared
    engine, so concurrent sessions can never read each other's.  A
    pipelined result shares one instance with its row generator: a
    segment that falls back to the row interpreter updates it in flight.
    """

    #: 'batch' | 'row' -- which interpreter produced the rows
    path: str = "batch"
    #: why the batch path was not used ('' = it was)
    fallback: str = ""
    #: one line per base table planned: ``index(t.c) = -> 1/5000 rows``
    #: or ``scan(t)``; empty where no base table was planned
    access: tuple = ()

    def to_wire(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_wire(cls, payload: dict) -> "ExecInfo":
        return cls(
            path=payload.get("path", "batch"),
            fallback=payload.get("fallback", ""),
            access=tuple(payload.get("access", ())),
        )


class PreparedResult(tuple):
    """``(result_id, num_rows)`` as returned by ``execute_prepared``, plus
    how the statement ran.

    Still unpacks as the historical pair; :attr:`info` is the execution's
    :class:`ExecInfo` (None where the backend reports none, e.g. a scatter
    over several shards).  Carrying it on the return value -- and as an
    optional ``exec`` key on the wire -- is what keeps one session's
    report from reading another's path off shared engine state.
    """

    def __new__(cls, result_id: int, num_rows: int, info=None):
        self = super().__new__(cls, (result_id, num_rows))
        self.info = info
        return self


class Pipeline(NamedTuple):
    """What :meth:`Engine.execute_iter` hands back for a streamable query."""

    names: list
    rows: object
    info: ExecInfo


# -- access paths -------------------------------------------------------------
#
# The probe-vs-scan choice rests on what the index itself observes: the
# exact number of matching rows (a bucket length, or the distance between
# two bisects) against the table's row count.  Both thresholds are
# constants, not options -- the scan is what the probe reduces to whenever
# they are not met.

#: tables smaller than this are scanned, and never indexed: the scan is
#: already as cheap as planning the probe
INDEX_MIN_ROWS = 256

#: probe only when the predicate keeps at most 1/N of the rows.  Measured
#: on 20k rows: at 1/4 a probe is 2-5x cheaper than the scan; at 1/2 an
#: ordered probe (which sorts the positions it materializes) only breaks
#: even, so wide analytic predicates keep the scan they always had
INDEX_MAX_FRACTION = 4

_FLIPPED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _sargable(conjunct, binding: str, names=None) -> Optional[tuple]:
    """``(column, op, operands)`` for ``column <op> literal`` on this table.

    ``names`` are the table's columns; None (EXPLAIN, which has no
    catalog at hand) accepts any column qualified with ``binding``.

    Covers ``=``, the four inequalities (either operand order), a
    non-negated ``BETWEEN`` and a non-negated ``IN`` over literals.  NULL
    operands disqualify a comparison (it is never true; the scan says so
    too) and are simply dropped from ``IN`` lists, where they cannot make
    a row qualify.
    """

    def owned(node) -> bool:
        if not isinstance(node, ast.Column):
            return False
        if names is None:
            return node.table == binding
        return node.table in (None, binding) and node.name in names

    def constant(node) -> bool:
        return isinstance(node, ast.Literal) and node.value is not None

    if isinstance(conjunct, ast.BinaryOp) and conjunct.op in _FLIPPED:
        left, right, op = conjunct.left, conjunct.right, conjunct.op
        if isinstance(left, ast.Literal):
            left, right, op = right, left, _FLIPPED[op]
        if owned(left) and constant(right):
            return left.name, op, (right.value,)
    elif isinstance(conjunct, ast.Between) and not conjunct.negated:
        if (
            owned(conjunct.subject)
            and constant(conjunct.low)
            and constant(conjunct.high)
        ):
            return (
                conjunct.subject.name, "between",
                (conjunct.low.value, conjunct.high.value),
            )
    elif isinstance(conjunct, ast.InList) and not conjunct.negated:
        if owned(conjunct.subject) and all(
            isinstance(item, ast.Literal) for item in conjunct.items
        ):
            values = [i.value for i in conjunct.items if i.value is not None]
            return conjunct.subject.name, "in", tuple(dict.fromkeys(values))
    return None


def _probe(table: Table, column: str, op: str, operands: tuple):
    """``(match count, rid thunk)`` from the column's index, or None.

    None means this predicate cannot be answered from an index: the
    column is unindexable, or a literal is of another comparison family
    than the column (the scan keeps the evaluator's semantics for that).
    """
    if op in ("=", "in"):
        index = table.hash_index(column)
    else:
        index = table.ordered_index(column)
    if index is None:
        return None
    if index.kind is not None and any(
        value_kind(value) != index.kind for value in operands
    ):
        return None
    if op in ("=", "in"):
        return index.count(operands), lambda: index.rids(operands)
    if op == "between":
        start, stop = index.span(operands[0], True, operands[1], True)
    elif op in ("<", "<="):
        start, stop = index.span(None, False, operands[0], op == "<=")
    else:
        start, stop = index.span(operands[0], op == ">=", None, False)
    return stop - start, lambda: index.rids_between(start, stop)


def access_path(binding: str, name: str, table: Table, conjuncts: list) -> tuple:
    """Choose how to read ``table``: ``(scope, residual conjuncts, access)``.

    ``scope`` is a :class:`BatchScope` over the table narrowed to the rows
    an index probe selected -- the same rows, in the same (ascending
    position) order, the probed conjunct would have kept in a scan -- and
    ``residual`` the conjuncts still to be evaluated over it.  When no
    conjunct is sargable, the table is below the floor, or even the most
    selective probe keeps too many rows, the scope is the whole table and
    every conjunct is residual: the scan is the fallback the probe
    reduces to.  ``access`` is the human-readable line for reports.

    ``access_path.min_rows`` is a test-only hook: 0 forces the probe for
    every selective predicate, ``float('inf')`` forces the scan.
    """
    scope = BatchScope.for_table(binding, table)
    total = table.num_rows
    best = None
    if table.indexable and total >= access_path.min_rows:
        names = table.schema.names
        for conjunct in conjuncts:
            sargable = _sargable(conjunct, binding, names)
            if sargable is None:
                continue
            probe = _probe(table, *sargable)
            if probe is not None and (best is None or probe[0] < best[0]):
                best = (*probe, conjunct, sargable)
    if best is None or best[0] * INDEX_MAX_FRACTION > total:
        return scope, list(conjuncts), f"scan({name})"
    count, rids, chosen, (column, op, _) = best
    scope = scope.select(table.positions(rids()))
    residual = [c for c in conjuncts if c is not chosen]
    return scope, residual, f"index({name}.{column}) {op} -> {count}/{total} rows"


access_path.min_rows = INDEX_MIN_ROWS


def describe_access(from_clause, where) -> list:
    """``[(table, [candidate, ...])]``: what :func:`access_path` will
    consider for each base table of a statement, from its shape alone.

    A candidate is the ``(column, op)`` of a sargable conjunct (never
    its literal).  EXPLAIN renders these: the probe-vs-scan choice itself
    needs the match count, which only exists at execute time.  Shapes the
    batch path does not plan (derived tables, outer joins) yield [].
    """
    try:
        refs, conjuncts = _batch_join_tree(from_clause)
    except BatchUnsupported:
        return []
    conjuncts = conjuncts + _split_conjuncts(where)
    out = []
    for ref in refs:
        candidates = []
        for conjunct in conjuncts:
            sargable = _sargable(conjunct, ref.binding)
            if sargable is not None:
                candidates.append(sargable[:2])
        out.append((ref.name, list(dict.fromkeys(candidates))))
    return out


class _TrackingScope(RowScope):
    """Wraps an outer scope to detect and record correlated column access."""

    def __init__(self, inner: Optional[RowScope]):
        super().__init__({}, outer=None)
        self._inner = inner
        self.accessed: list[tuple[Optional[str], str, object]] = []

    def _lookup_local(self, name, table):
        if self._inner is None:
            return _MISSING
        try:
            value = self._inner.lookup(name, table)
        except EvaluationError:
            return _MISSING
        self.accessed.append((table, name, value))
        return value


class Engine:
    """Executes :class:`repro.sql.ast.Select` queries against a catalog."""

    def __init__(
        self,
        catalog: Catalog,
        udfs: Optional[UDFRegistry] = None,
        batch_enabled: bool = True,
    ):
        self.catalog = catalog
        self.udfs = udfs or UDFRegistry()
        self.batch_enabled = batch_enabled
        self._subquery_cache: dict = {}
        self._scan_cache: dict = {}

    # -- public API --------------------------------------------------------

    def execute(self, query, outer_scope: Optional[RowScope] = None) -> Table:
        """Run a query (SQL text or AST) and return a result table."""
        if isinstance(query, str):
            query = parse(query)
        if outer_scope is None:
            self._subquery_cache = {}
            self._scan_cache = {}
        return self._execute_select(query, outer_scope)

    #: rows per pipelined-execution segment (see :meth:`execute_iter`);
    #: matches the session layer's default ``cursor.arraysize``
    stream_segment_rows = 256

    def execute_iter(self, query) -> Optional[Pipeline]:
        """A :class:`Pipeline` (names, row iterator, info) for streamable queries.

        Returns None when the query is not streamable.  Streamable shapes
        are single-table scan -> filter -> project pipelines (no
        aggregates, grouping, ordering, DISTINCT or subqueries; LIMIT is
        honored by stopping the scan early).  The iterator is *pipelined*
        at :attr:`stream_segment_rows` granularity: residual predicates
        and the projection are evaluated one segment at a time, only as
        the consumer pulls rows, on the columnar batch path (a segment
        the batch evaluator cannot handle re-runs on the row interpreter).

        The access path is resolved *here*, at execute time, and only the
        selected rows of the referenced columns are snapshotted (cell
        references only): the result reflects the table as of execution
        time, exactly like the materializing path, even if DML or a key
        rotation lands between the execution and a later fetch -- and a
        selective predicate never copies the table to honor that.
        """
        if isinstance(query, str):
            query = parse(query)
        if not isinstance(query.from_clause, ast.TableRef):
            return None
        if (
            query.group_by
            or query.order_by
            or query.having is not None
            or query.distinct
        ):
            return None
        roots = [item.expr for item in query.items]
        if query.where is not None:
            roots.append(query.where)
        for root in roots:
            for node in ast.walk(root):
                if isinstance(
                    node,
                    (ast.Aggregate, ast.ScalarSubquery, ast.InSubquery, ast.Exists),
                ):
                    return None
                if isinstance(node, ast.FuncCall) and self.udfs.has_aggregate(
                    node.name
                ):
                    return None
        table_ref = query.from_clause
        table = self.catalog.get(table_ref.name)
        binding = table_ref.binding
        names = table.schema.names
        items = self._expand_stars(query.items, {binding: names})
        out_names = self._output_names_from(items)
        conjuncts = _split_conjuncts(query.where)
        conjuncts = conjuncts + _hoist_common_or_equalities(conjuncts)
        if self.batch_enabled:
            scope, residual, access = access_path(
                binding, table_ref.name, table, conjuncts
            )
            info = ExecInfo(access=(access,))
        else:  # the row interpreter is the reference: it scans
            scope, residual = BatchScope.for_table(binding, table), conjuncts
            info = ExecInfo(
                path="row", fallback="disabled",
                access=(f"scan({table_ref.name})",),
            )
        limit = query.limit
        if limit is not None and not residual:
            scope = scope.head(max(limit, 0))
        referenced = {
            node.name
            for root in [item.expr for item in items] + residual
            for node in ast.walk(root)
            if isinstance(node, ast.Column)
        }
        columns = {
            name: scope.lookup(name, binding)
            for name in names
            if name in referenced
        }
        total = scope.length
        if scope.indices is None:
            # an unfiltered scope hands out the live lists: copy them
            columns = {name: list(column) for name, column in columns.items()}
        segment_rows = max(1, int(self.stream_segment_rows))

        def rows():
            if limit is not None and limit <= 0:
                return
            produced = 0
            for start in range(0, total, segment_rows):
                stop = min(start + segment_rows, total)
                for row in self._stream_segment(
                    binding, columns, total, start, stop, residual, items, info
                ):
                    yield row
                    produced += 1
                    if limit is not None and produced >= limit:
                        return

        return Pipeline(out_names, rows(), info)

    def _stream_segment(
        self, binding, columns, total, start, stop, residual, items, info
    ) -> list:
        """Filter + project rows ``[start, stop)`` of a pipelined snapshot."""
        if self.batch_enabled:
            whole = start == 0 and stop == total
            scope = BatchScope(
                {binding: columns}, stop - start,
                indices=None if whole else list(range(start, stop)),
            )
            try:
                scope = self._batch_filter(scope, residual)
                evaluator = BatchEvaluator(self, scope)
                out = [evaluator.column(item.expr) for item in items]
                return [list(row) for row in zip(*out)]
            except BatchUnsupported as exc:
                info.path, info.fallback = "row", f"unsupported: {exc}"
            except Exception as exc:  # noqa: BLE001 -- row path re-raises
                info.path, info.fallback = "row", f"error: {exc!r}"
        out = []
        for i in range(start, stop):
            row = {name: column[i] for name, column in columns.items()}
            evaluator = Evaluator(self, RowScope({binding: row}))
            if all(evaluator.evaluate(c) is True for c in residual):
                out.append([evaluator.evaluate(item.expr) for item in items])
        return out

    def execute_dml(self, statement) -> int:
        """Run an INSERT/UPDATE/DELETE (SQL text or AST); returns row count."""
        from repro.engine.dml import execute_dml

        if isinstance(statement, str):
            from repro.sql.parser import parse_statement

            statement = parse_statement(statement)
        self._subquery_cache = {}
        self._scan_cache = {}
        return execute_dml(self, statement)

    def execute_subquery(
        self, query: ast.Select, scope: RowScope, limit_one: bool = False
    ) -> Table:
        """Run a subquery with memoization and index-based decorrelation.

        First execution records which outer columns the subquery read.  If
        none: the result is cached unconditionally.  Otherwise results are
        memoized per tuple of outer values, and -- when the correlation is
        an equality ``inner_expr = outer_expr`` on one of the subquery's
        tables -- that table is indexed once so later executions scan only
        the matching bucket instead of the whole relation.  Together these
        turn TPC-H's per-row correlated subqueries into per-group,
        per-bucket work.
        """
        key = id(query)
        entry = self._subquery_cache.get(key)
        if entry is None:
            tracker = _TrackingScope(scope)
            result = self._execute_select(query, tracker)
            names = tuple(dict.fromkeys((t, n) for t, n, _ in tracker.accessed))
            entry = {"names": names, "results": {}, "index": None, "analyzed": False}
            self._subquery_cache[key] = entry
            if not names:
                entry["results"][()] = result
                return result
            values = self._outer_values(scope, names)
            entry["results"][values] = result
            return result
        names = entry["names"]
        if not names:
            return entry["results"][()]
        values = self._outer_values(scope, names)
        cached = entry["results"].get(values, _MISSING)
        if cached is not _MISSING:
            return cached
        if not entry["analyzed"]:
            entry["analyzed"] = True
            entry["index"] = self._build_correlation_index(query)
        index = entry["index"]
        if index is not None:
            try:
                outer_key = Evaluator(self, scope).evaluate(index["outer_expr"])
            except EvaluationError:
                entry["index"] = None
                outer_key = _MISSING
            if outer_key is not _MISSING:
                bucket = index["buckets"].get(outer_key, [])
                result = self._execute_select(
                    query,
                    scope,
                    preplanned={index["binding"]: bucket},
                    drop_conjunct=index["conjunct"],
                )
                entry["results"][values] = result
                return result
        result = self._execute_select(query, scope)
        entry["results"][values] = result
        return result

    def _build_correlation_index(self, query: ast.Select):
        """Index one subquery table on its correlated-equality key.

        Applies when the FROM clause is a cross list of plain table refs
        and some top-level conjunct is ``inner = outer`` with the inner
        side resolvable from exactly one of those tables and the outer
        side resolvable from none of them.
        """
        if query.from_clause is None:
            return None
        items = _flatten_cross(query.from_clause)
        if not all(isinstance(item, ast.TableRef) for item in items):
            return None
        local_columns = {}
        for item in items:
            if item.name not in self.catalog:
                return None
            local_columns[item.binding] = self.catalog.get(item.name).schema.names
        conjuncts = _split_conjuncts(query.where)
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            for inner_side, outer_side in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                inner_bindings = _expr_bindings(inner_side, local_columns)
                if inner_bindings is None or len(inner_bindings) != 1:
                    continue
                if _references_local(outer_side, local_columns):
                    continue
                if not any(isinstance(n, ast.Column) for n in ast.walk(outer_side)):
                    continue  # constant, not a correlation
                binding = next(iter(inner_bindings))
                table_ref = next(i for i in items if i.binding == binding)
                rows, _ = self._plan_table_expr(table_ref, None)
                buckets: dict = {}
                try:
                    for bindings in rows:
                        scope = RowScope(bindings)
                        key = Evaluator(self, scope).evaluate(inner_side)
                        if key is None:
                            continue  # NULL equality never matches
                        buckets.setdefault(key, []).append(bindings)
                except EvaluationError:
                    return None
                return {
                    "binding": binding,
                    "outer_expr": outer_side,
                    "conjunct": conjunct,
                    "buckets": buckets,
                }
        return None

    @staticmethod
    def _outer_values(scope: RowScope, names) -> tuple:
        out = []
        for table, name in names:
            try:
                out.append(scope.lookup(name, table))
            except EvaluationError:
                out.append(None)
        return tuple(out)

    # -- SELECT pipeline ------------------------------------------------------

    def _execute_select(
        self, query: ast.Select, outer_scope, preplanned=None, drop_conjunct=None
    ) -> Table:
        if (
            self.batch_enabled
            and outer_scope is None
            and preplanned is None
            and drop_conjunct is None
            and query.from_clause is not None
        ):
            access: list = []
            try:
                result = self._execute_batch(query, access)
            except BatchUnsupported as exc:
                fallback = f"unsupported: {exc}"
            except Exception as exc:  # noqa: BLE001 -- row path re-raises
                # Semantic errors (division by zero, type mismatches, ...)
                # must surface from the reference interpreter; eager batch
                # evaluation may also error where per-row short-circuiting
                # would not, and the retry resolves both cases identically.
                fallback = f"error: {exc!r}"
            else:
                result.exec_info = ExecInfo(access=tuple(access))
                return result
        elif outer_scope is None:
            fallback = (
                "disabled" if not self.batch_enabled
                else "shape: no FROM clause"
            )
        result = self._execute_select_rows(
            query, outer_scope, preplanned, drop_conjunct
        )
        if outer_scope is None:
            # the row interpreter scans (it is the reference the probe is
            # checked against); no per-table access line to report
            result.exec_info = ExecInfo(path="row", fallback=fallback)
        return result

    def _execute_select_rows(
        self, query: ast.Select, outer_scope, preplanned=None, drop_conjunct=None
    ) -> Table:
        if query.from_clause is None:
            rows = [({}, ())]
            binding_columns: dict[str, tuple[str, ...]] = {}
            where_residual = [query.where] if query.where is not None else []
        else:
            conjuncts = _split_conjuncts(query.where)
            if drop_conjunct is not None:
                conjuncts = [c for c in conjuncts if c is not drop_conjunct]
            conjuncts = conjuncts + _hoist_common_or_equalities(conjuncts)
            rows, binding_columns, where_residual = self._plan_from(
                query.from_clause, conjuncts, outer_scope, preplanned
            )

        # WHERE (whatever join planning did not consume)
        if where_residual:
            kept = []
            for bindings in rows:
                scope = RowScope(bindings, outer=outer_scope)
                ev = Evaluator(self, scope)
                if all(ev.evaluate(c) is True for c in where_residual):
                    kept.append(bindings)
            rows = kept

        aggregates = self._collect_aggregates(query)
        if aggregates or query.group_by:
            result_rows, contexts, names = self._grouped(
                query, rows, aggregates, outer_scope
            )
        else:
            result_rows, contexts, names = self._projected(
                query, rows, binding_columns, outer_scope
            )

        return self._finish(query, result_rows, contexts, names, outer_scope)

    def _finish(self, query, result_rows, contexts, names, outer_scope) -> Table:
        """Shared DISTINCT -> ORDER BY -> LIMIT -> schema tail of SELECT."""
        if query.distinct:
            seen = set()
            deduped, dedup_ctx = [], []
            for row, ctx in zip(result_rows, contexts):
                key = tuple(row)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
                    dedup_ctx.append(ctx)
            result_rows, contexts = deduped, dedup_ctx

        if query.order_by:
            result_rows = self._order(
                query, result_rows, contexts, names, outer_scope
            )

        if query.limit is not None:
            result_rows = result_rows[: query.limit]

        schema = Schema(
            tuple(
                _infer_spec(name, [row[i] for row in result_rows])
                for i, name in enumerate(names)
            )
        )
        return Table.from_rows(schema, result_rows)

    # -- batch (columnar) pipeline -----------------------------------------

    def _execute_batch(self, query: ast.Select, access: list) -> Table:
        """Columnar scan -> filter -> join -> project/aggregate.

        Single-table queries run the fused filter pipeline directly; an
        inner/cross join tree of base tables additionally hash-joins the
        per-table filtered scopes over selection vectors (the columnar
        analogue of the row path's greedy-ordered hash joins).  Raises
        :exc:`BatchUnsupported` for shapes the batch evaluator cannot
        express; the caller falls back to the row path.  ``access``
        collects one access-path line per base table read.
        """
        refs, on_conjuncts = _batch_join_tree(query.from_clause)
        conjuncts = on_conjuncts + _split_conjuncts(query.where)
        conjuncts = conjuncts + _hoist_common_or_equalities(conjuncts)
        if len(refs) == 1 and not on_conjuncts:
            table_ref = refs[0]
            table = self.catalog.get(table_ref.name)
            binding_columns = {table_ref.binding: table.schema.names}
            scope = self._batch_scan(table_ref, conjuncts, access)
        else:
            scope, binding_columns = self._batch_join(refs, conjuncts, access)

        aggregates = self._collect_aggregates(query)
        if aggregates or query.group_by:
            result_rows, contexts, names = self._batch_grouped(
                query, scope, aggregates
            )
            return self._finish(query, result_rows, contexts, names, None)
        return self._batch_projected(query, scope, binding_columns)

    def _batch_scan(self, table_ref, conjuncts, access: list):
        """One base table through its access path, fully filtered."""
        scope, residual, line = access_path(
            table_ref.binding, table_ref.name,
            self.catalog.get(table_ref.name), conjuncts,
        )
        access.append(line)
        return self._batch_filter(scope, residual)

    def _batch_filter(self, scope, conjuncts):
        """Fused conjunct pipeline: evaluate each conjunct as a mask and
        cascade the selection so later conjuncts only see surviving rows
        (the columnar analogue of the row path's per-row short-circuit
        across conjuncts)."""
        for conjunct in conjuncts:
            if scope.length == 0:
                break
            mask = BatchEvaluator(self, scope).evaluate(conjunct)
            if isinstance(mask, list):
                selected = [i for i, m in enumerate(mask) if m is True]
                if len(selected) < scope.length:
                    scope = scope.select(selected)
            elif mask is not True:
                scope = scope.select([])
        return scope

    def _batch_join(self, refs, conjuncts, access: list):
        """Greedy-ordered columnar hash joins over filtered per-table scopes.

        Conjuncts resolvable from a single table are pushed below the join
        (filtering that table's scope before any keys are built); equi
        conjuncts spanning the joined prefix and the next table become hash
        keys, exactly like the row path's planner; whatever remains filters
        the joined scope at the end.
        """
        binding_names: dict[str, tuple] = {}
        for ref in refs:
            if ref.binding in binding_names:
                raise BatchUnsupported(f"duplicate binding {ref.binding!r}")
            binding_names[ref.binding] = self.catalog.get(ref.name).schema.names

        local: dict[str, list] = {binding: [] for binding in binding_names}
        join_conjuncts = []
        for conjunct in conjuncts:
            owners = _expr_bindings(conjunct, binding_names)
            if owners is not None and len(owners) == 1:
                local[next(iter(owners))].append(conjunct)
            else:
                join_conjuncts.append(conjunct)

        scopes = {
            ref.binding: self._batch_scan(ref, local[ref.binding], access)
            for ref in refs
        }

        planned = [(None, {ref.binding: binding_names[ref.binding]}) for ref in refs]
        order = _greedy_order(planned, join_conjuncts)
        first = refs[order[0]].binding
        current = scopes[first]
        current_columns = {first: binding_names[first]}
        available = list(join_conjuncts)
        for idx in order[1:]:
            binding = refs[idx].binding
            right_columns = {binding: binding_names[binding]}
            equi, available = _extract_equi(
                available, current_columns, right_columns
            )
            current = self._batch_hash_join(current, scopes[binding], equi)
            current_columns.update(right_columns)
        current = self._batch_filter(current, available)
        return current, current_columns

    def _batch_hash_join(self, left, right, equi):
        """Inner hash join of two batch scopes into one per-binding-indexed
        scope; NULL keys never match.  Without equi keys this is the cross
        product (mirroring the row path)."""
        if equi:
            left_eval = BatchEvaluator(self, left)
            right_eval = BatchEvaluator(self, right)
            left_keys = [left_eval.column(l) for l, _ in equi]
            right_keys = [right_eval.column(r) for _, r in equi]
            index: dict = {}
            for j in range(right.length):
                key = tuple(column[j] for column in right_keys)
                if None in key:
                    continue  # SQL: NULL = anything is never true
                index.setdefault(key, []).append(j)
            left_pos: list = []
            right_pos: list = []
            for i in range(left.length):
                key = tuple(column[i] for column in left_keys)
                if None in key:
                    continue
                for j in index.get(key, ()):
                    left_pos.append(i)
                    right_pos.append(j)
        else:
            left_pos = [i for i in range(left.length) for _ in range(right.length)]
            right_pos = list(range(right.length)) * left.length

        by_binding = {}
        for binding in left.bindings:
            rows = left.base_rows(binding)
            by_binding[binding] = [rows[i] for i in left_pos]
        for binding in right.bindings:
            rows = right.base_rows(binding)
            by_binding[binding] = [rows[j] for j in right_pos]
        return BatchScope.joined(
            {**left.bindings, **right.bindings}, by_binding, len(left_pos)
        )

    def _batch_projected(self, query, scope, binding_columns) -> Table:
        """Columnar projection with DISTINCT/ORDER BY/LIMIT handled in place.

        The row path carries a per-row scope into :meth:`_order` so ORDER BY
        can reference arbitrary expressions; here those expressions are
        evaluated as extra columns over the same filtered scope instead.
        """
        items = self._expand_stars(query.items, binding_columns)
        names = self._output_names_from(items)
        evaluator = BatchEvaluator(self, scope)
        out_columns = [evaluator.column(item.expr) for item in items]

        order_keys = []
        if query.order_by:
            alias_to_index = {name: i for i, name in enumerate(names)}
            for order_item in query.order_by:
                expr = order_item.expr
                if (
                    isinstance(expr, ast.Column)
                    and expr.table is None
                    and expr.name in alias_to_index
                ):
                    column = out_columns[alias_to_index[expr.name]]
                elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                    column = out_columns[expr.value - 1]  # ORDER BY ordinal
                else:
                    column = evaluator.column(expr)
                order_keys.append((column, order_item.descending))

        if query.distinct:
            seen = set()
            indices = []
            for i in range(scope.length):
                key = tuple(column[i] for column in out_columns)
                if key not in seen:
                    seen.add(key)
                    indices.append(i)
        else:
            indices = list(range(scope.length))

        for column, descending in reversed(order_keys):
            indices.sort(
                key=lambda i, column=column: (column[i] is None, column[i]),
                reverse=descending,
            )

        if query.limit is not None:
            indices = indices[: query.limit]

        if order_keys or len(indices) != scope.length:
            out_columns = [[col[i] for i in indices] for col in out_columns]
        else:
            # bare-column projections pass the catalog's (or the scope
            # cache's) own list through; copy so the result table never
            # aliases live storage -- the row path copies unconditionally,
            # and DML must not retroactively mutate returned results
            out_columns = [list(col) for col in out_columns]
        batch = ColumnBatch.from_columns(names, out_columns)
        return batch.to_table()

    def _batch_grouped(self, query, scope, aggregates):
        """Hash aggregation over precomputed key and argument vectors."""
        group_exprs = list(query.group_by)
        evaluator = BatchEvaluator(self, scope)
        key_columns = [evaluator.column(g) for g in group_exprs]

        agg_inputs = []
        for node in aggregates:
            if isinstance(node, ast.Aggregate):
                agg_inputs.append(
                    None if node.arg is None else evaluator.column(node.arg)
                )
            else:  # aggregate UDF: keep batch-constant args as scalars
                agg_inputs.append([evaluator.evaluate(a) for a in node.args])

        if group_exprs:
            buckets: dict = {}
            order_of_groups: list = []
            for i in range(scope.length):
                key = tuple(column[i] for column in key_columns)
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = bucket = []
                    order_of_groups.append(key)
                bucket.append(i)
        else:
            # a global aggregate yields one row even over empty input
            buckets = {(): list(range(scope.length))}
            order_of_groups = [()]

        names = self._output_names(query)
        result_rows, contexts = [], []
        for key in order_of_groups:
            indices = buckets[key]
            bound = dict(zip(group_exprs, key))
            for node, inputs in zip(aggregates, agg_inputs):
                bound[node] = self._fold_aggregate(node, inputs, indices)
            scope_out = RowScope({}, outer=None)
            evaluator_out = Evaluator(self, scope_out, bound=bound)
            if query.having is not None and evaluator_out.evaluate(query.having) is not True:
                continue
            result_rows.append([evaluator_out.evaluate(item.expr) for item in query.items])
            contexts.append((scope_out, bound))
        return result_rows, contexts, names

    def _fold_aggregate(self, node, inputs, indices):
        """Aggregate one group from precomputed argument vectors."""
        if isinstance(node, ast.Aggregate):
            if node.func == "count" and node.arg is None:
                return len(indices)
            column = inputs
            values = [column[i] for i in indices if column[i] is not None]
            if node.distinct and node.func in ("count", "sum", "avg"):
                # MIN/MAX fall through: DISTINCT cannot change their result
                distinct = set(values)
                if node.func == "count":
                    return len(distinct)
                if node.func == "sum":
                    return sum(distinct) if distinct else None
                return (sum(distinct) / len(distinct)) if distinct else None
            if node.func == "count":
                return len(values)
            if not values:
                return None
            if node.func == "sum":
                return sum(values)
            if node.func == "avg":
                return sum(values) / len(values)
            if node.func == "min":
                return min(values)
            return max(values)
        udf = self.udfs.aggregate(node.name)
        folded = udf.fold(inputs, indices)
        if folded is not NotImplemented:
            return folded
        state = udf.initial
        step = udf.step
        for i in indices:
            state = step(
                state,
                *(arg[i] if isinstance(arg, list) else arg for arg in inputs),
            )
        return udf.finish(state)

    # -- FROM planning -----------------------------------------------------------

    def _plan_from(self, from_clause, conjuncts, outer_scope, preplanned=None):
        """Return (rows, binding_columns, residual_conjuncts).

        Flattens cross-join chains and greedily orders them so every step is
        a hash join on the equi-conjuncts available at that point; explicit
        JOIN ... ON trees keep their structure.
        """
        items = _flatten_cross(from_clause)
        planned = [
            self._plan_table_expr(item, outer_scope, preplanned) for item in items
        ]
        available = list(conjuncts)

        if len(planned) == 1:
            rows, columns = planned[0]
            binding_columns = dict(columns)
        else:
            order = _greedy_order(planned, available)
            rows, columns = planned[order[0]]
            binding_columns = dict(columns)
            for idx in order[1:]:
                right_rows, right_columns = planned[idx]
                equi, available = _extract_equi(
                    available, binding_columns, dict(right_columns)
                )
                rows = self._hash_join(
                    rows, binding_columns, right_rows, dict(right_columns),
                    equi, kind="inner", on_residual=None, outer_scope=outer_scope,
                )
                binding_columns.update(right_columns)

        # whatever equi-conjuncts remain (single-table case or leftovers)
        return rows, binding_columns, available

    def _plan_table_expr(self, texpr, outer_scope, preplanned=None):
        """Plan one FROM item -> (rows, {binding: column-names})."""
        if isinstance(texpr, ast.TableRef):
            table = self.catalog.get(texpr.name)
            binding = texpr.binding
            names = table.schema.names
            if preplanned is not None and binding in preplanned:
                return preplanned[binding], {binding: names}
            cache_key = (texpr.name.lower(), binding)
            rows = self._scan_cache.get(cache_key)
            if rows is None:
                rows = [{binding: dict(zip(names, row))} for row in table.rows()]
                self._scan_cache[cache_key] = rows
            return rows, {binding: names}
        if isinstance(texpr, ast.SubqueryRef):
            table = self._execute_select(texpr.query, outer_scope)
            names = table.schema.names
            rows = [{texpr.alias: dict(zip(names, row))} for row in table.rows()]
            return rows, {texpr.alias: names}
        if isinstance(texpr, ast.Join):
            left_rows, left_columns = self._plan_table_expr(texpr.left, outer_scope)
            right_rows, right_columns = self._plan_table_expr(texpr.right, outer_scope)
            if texpr.kind == "cross":
                rows = [
                    {**l, **r} for l in left_rows for r in right_rows
                ]
                return rows, {**left_columns, **right_columns}
            conjuncts = _split_conjuncts(texpr.condition)
            equi, residual = _extract_equi(conjuncts, left_columns, right_columns)
            rows = self._hash_join(
                left_rows, left_columns, right_rows, right_columns,
                equi, kind=texpr.kind,
                on_residual=residual, outer_scope=outer_scope,
            )
            return rows, {**left_columns, **right_columns}
        raise ExecutionError(f"cannot plan {type(texpr).__name__}")

    def _hash_join(
        self, left_rows, left_columns, right_rows, right_columns,
        equi, kind, on_residual, outer_scope,
    ):
        """Hash join with optional residual ON predicate and LEFT padding."""
        residual = on_residual or []
        if equi:
            left_exprs = [l for l, _ in equi]
            right_exprs = [r for _, r in equi]
            index: dict = {}
            for bindings in right_rows:
                scope = RowScope(bindings, outer=outer_scope)
                ev = Evaluator(self, scope)
                key = tuple(ev.evaluate(e) for e in right_exprs)
                if None in key:
                    continue  # SQL: NULL = anything is never true
                index.setdefault(key, []).append(bindings)
            def candidates(key):
                return () if None in key else index.get(key, ())
        else:
            def candidates(key):
                return right_rows

            left_exprs = []

        null_right = {
            binding: {name: None for name in names}
            for binding, names in right_columns.items()
        }

        out = []
        for bindings in left_rows:
            scope = RowScope(bindings, outer=outer_scope)
            ev = Evaluator(self, scope)
            key = tuple(ev.evaluate(e) for e in left_exprs)
            matched = False
            for right in candidates(key):
                merged = {**bindings, **right}
                if residual:
                    mscope = RowScope(merged, outer=outer_scope)
                    mev = Evaluator(self, mscope)
                    if not all(mev.evaluate(c) is True for c in residual):
                        continue
                matched = True
                out.append(merged)
            if not matched and kind == "left":
                out.append({**bindings, **null_right})
        return out

    # -- aggregation ------------------------------------------------------------

    def _collect_aggregates(self, query: ast.Select):
        """All aggregate nodes in SELECT/HAVING/ORDER BY (not subqueries)."""
        roots = [item.expr for item in query.items]
        if query.having is not None:
            roots.append(query.having)
        roots.extend(o.expr for o in query.order_by)
        found = []
        seen = set()
        for root in roots:
            for node in ast.walk(root):
                if node in seen:
                    continue
                if isinstance(node, ast.Aggregate):
                    seen.add(node)
                    found.append(node)
                elif isinstance(node, ast.FuncCall) and self.udfs.has_aggregate(node.name):
                    seen.add(node)
                    found.append(node)
        return found

    def _grouped(self, query, rows, aggregates, outer_scope):
        group_exprs = list(query.group_by)
        groups: dict = {}
        order_of_groups: list = []
        for bindings in rows:
            scope = RowScope(bindings, outer=outer_scope)
            ev = Evaluator(self, scope)
            key = tuple(ev.evaluate(g) for g in group_exprs)
            state = groups.get(key)
            if state is None:
                state = _GroupState(self, aggregates)
                groups[key] = state
                order_of_groups.append(key)
            state.accumulate(ev)

        if not group_exprs and not groups:
            # global aggregate over the empty input still yields one row
            state = _GroupState(self, aggregates)
            groups[()] = state
            order_of_groups.append(())

        names = self._output_names(query)
        result_rows, contexts = [], []
        for key in order_of_groups:
            state = groups[key]
            bound = dict(zip(group_exprs, key))
            bound.update(state.results())
            scope = RowScope({}, outer=outer_scope)
            ev = Evaluator(self, scope, bound=bound)
            if query.having is not None and ev.evaluate(query.having) is not True:
                continue
            row = [ev.evaluate(item.expr) for item in query.items]
            result_rows.append(row)
            contexts.append((scope, bound))
        return result_rows, contexts, names

    def _projected(self, query, rows, binding_columns, outer_scope):
        items = self._expand_stars(query.items, binding_columns)
        names = self._output_names_from(items)
        result_rows, contexts = [], []
        for bindings in rows:
            scope = RowScope(bindings, outer=outer_scope)
            ev = Evaluator(self, scope)
            result_rows.append([ev.evaluate(item.expr) for item in items])
            contexts.append((scope, {}))
        return result_rows, contexts, names

    def _expand_stars(self, items, binding_columns):
        out = []
        for item in items:
            if isinstance(item.expr, ast.Star):
                targets = (
                    [item.expr.table] if item.expr.table else list(binding_columns)
                )
                for binding in targets:
                    if binding not in binding_columns:
                        raise ExecutionError(f"unknown table {binding!r} in star")
                    for name in binding_columns[binding]:
                        out.append(
                            ast.SelectItem(expr=ast.Column(name, table=binding))
                        )
            else:
                out.append(item)
        return out

    def _output_names(self, query: ast.Select):
        return self._output_names_from(query.items)

    @staticmethod
    def _output_names_from(items) -> list[str]:
        names = []
        for i, item in enumerate(items):
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expr, ast.Column):
                names.append(item.expr.name)
            elif isinstance(item.expr, ast.Aggregate):
                names.append(item.expr.func)
            else:
                names.append(f"_col{i}")
        # de-duplicate while keeping order
        seen: dict[str, int] = {}
        unique = []
        for name in names:
            count = seen.get(name, 0)
            seen[name] = count + 1
            unique.append(name if count == 0 else f"{name}_{count}")
        return unique

    # -- ordering ------------------------------------------------------------------

    def _order(self, query, result_rows, contexts, names, outer_scope):
        alias_to_index = {name: i for i, name in enumerate(names)}
        decorated = list(zip(result_rows, contexts))

        for order_item in reversed(query.order_by):
            expr = order_item.expr
            index = None
            if isinstance(expr, ast.Column) and expr.table is None and expr.name in alias_to_index:
                index = alias_to_index[expr.name]
            elif isinstance(expr, ast.Literal) and isinstance(expr.value, int):
                index = expr.value - 1  # ORDER BY ordinal

            def key(pair, index=index, expr=expr):
                row, (scope, bound) = pair
                if index is not None:
                    value = row[index]
                else:
                    value = Evaluator(self, scope, bound=bound).evaluate(expr)
                return (value is None, value)

            decorated.sort(key=key, reverse=order_item.descending)
        return [row for row, _ in decorated]


class _GroupState:
    """Accumulators for one group: built-in aggregates and aggregate UDFs."""

    def __init__(self, engine: Engine, aggregates):
        self._engine = engine
        self._aggregates = aggregates
        self._states: list = []
        for node in aggregates:
            if isinstance(node, ast.Aggregate):
                self._states.append(_BUILTIN_INITIAL[node.func]())
            else:  # aggregate UDF call
                self._states.append(engine.udfs.aggregate(node.name).initial)

    def accumulate(self, evaluator: Evaluator):
        for i, node in enumerate(self._aggregates):
            if isinstance(node, ast.Aggregate):
                self._states[i] = _builtin_step(node, self._states[i], evaluator)
            else:
                udf = self._engine.udfs.aggregate(node.name)
                args = [evaluator.evaluate(a) for a in node.args]
                self._states[i] = udf.step(self._states[i], *args)

    def results(self) -> dict:
        out = {}
        for node, state in zip(self._aggregates, self._states):
            if isinstance(node, ast.Aggregate):
                out[node] = _builtin_finish(node, state)
            else:
                out[node] = self._engine.udfs.aggregate(node.name).finish(state)
        return out


def _count_initial():
    return {"count": 0, "distinct": set()}


def _sum_initial():
    return {"sum": None, "distinct": set()}


def _minmax_initial():
    return {"value": None}


def _avg_initial():
    return {"sum": None, "count": 0, "distinct": set()}


_BUILTIN_INITIAL = {
    "count": _count_initial,
    "sum": _sum_initial,
    "avg": _avg_initial,
    "min": _minmax_initial,
    "max": _minmax_initial,
}


def _builtin_step(node: ast.Aggregate, state, evaluator: Evaluator):
    if node.func == "count" and node.arg is None:
        state["count"] += 1
        return state
    value = evaluator.evaluate(node.arg)
    if value is None:
        return state
    if node.distinct and node.func in ("count", "sum", "avg"):
        # MIN/MAX are insensitive to DISTINCT; they keep the plain state
        state["distinct"].add(value)
        return state
    if node.func == "count":
        state["count"] += 1
    elif node.func == "sum":
        state["sum"] = value if state["sum"] is None else state["sum"] + value
    elif node.func == "avg":
        state["sum"] = value if state["sum"] is None else state["sum"] + value
        state["count"] += 1
    elif node.func == "min":
        state["value"] = value if state["value"] is None else min(state["value"], value)
    elif node.func == "max":
        state["value"] = value if state["value"] is None else max(state["value"], value)
    return state


def _builtin_finish(node: ast.Aggregate, state):
    if node.func == "count":
        return len(state["distinct"]) if node.distinct else state["count"]
    if node.func == "sum":
        if node.distinct:
            return sum(state["distinct"]) if state["distinct"] else None
        return state["sum"]
    if node.func == "avg":
        if node.distinct:
            values = state["distinct"]
            return (sum(values) / len(values)) if values else None
        if state["count"] == 0:
            return None
        return state["sum"] / state["count"]
    return state["value"]


# -- join planning helpers ------------------------------------------------------


def _split_conjuncts(expr) -> list:
    if expr is None:
        return []
    if isinstance(expr, ast.BinaryOp) and expr.op == "and":
        return _split_conjuncts(expr.left) + _split_conjuncts(expr.right)
    return [expr]


def _split_disjuncts(expr) -> list:
    if isinstance(expr, ast.BinaryOp) and expr.op == "or":
        return _split_disjuncts(expr.left) + _split_disjuncts(expr.right)
    return [expr]


def _hoist_common_or_equalities(conjuncts: list) -> list:
    """Factor equalities shared by every branch of an OR conjunct.

    ``(a=b AND p) OR (a=b AND q)`` implies ``a=b``; hoisting it gives the
    join planner a hash key (TPC-H Q19's shape).  The original OR stays in
    place, so this only *adds* implied conjuncts.
    """
    hoisted = []
    for conjunct in conjuncts:
        if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "or"):
            continue
        branches = _split_disjuncts(conjunct)
        common = None
        for branch in branches:
            equalities = {
                c for c in _split_conjuncts(branch)
                if isinstance(c, ast.BinaryOp) and c.op == "="
            }
            common = equalities if common is None else (common & equalities)
            if not common:
                break
        if common:
            hoisted.extend(common)
    return hoisted


def _batch_join_tree(texpr) -> tuple:
    """Flatten an inner/cross join tree of base tables for the batch path.

    Returns ``(refs, on_conjuncts)``.  Inner-join ON conditions join the
    global conjunct pool: for inner joins, filtering the re-ordered product
    by the pooled conjuncts is equivalent to the structured evaluation.
    LEFT joins and derived tables raise :exc:`BatchUnsupported` (padding
    semantics and subquery scopes stay on the reference row path).
    """
    if isinstance(texpr, ast.TableRef):
        return [texpr], []
    if isinstance(texpr, ast.Join) and texpr.kind in ("inner", "cross"):
        left_refs, left_on = _batch_join_tree(texpr.left)
        right_refs, right_on = _batch_join_tree(texpr.right)
        conjuncts = left_on + right_on
        if texpr.condition is not None:
            conjuncts = conjuncts + _split_conjuncts(texpr.condition)
        return left_refs + right_refs, conjuncts
    raise BatchUnsupported(f"FROM shape: {type(texpr).__name__}")


def _flatten_cross(texpr) -> list:
    """Flatten a chain of cross joins (comma syntax) into its items."""
    if isinstance(texpr, ast.Join) and texpr.kind == "cross":
        return _flatten_cross(texpr.left) + _flatten_cross(texpr.right)
    return [texpr]


def _expr_bindings(expr, binding_columns) -> Optional[set]:
    """The set of bindings an expression touches, or None if unresolvable."""
    bindings = set()
    for node in ast.walk(expr):
        if isinstance(node, ast.Column):
            if node.table is not None:
                if node.table not in binding_columns:
                    return None
                bindings.add(node.table)
            else:
                owners = [
                    b for b, names in binding_columns.items() if node.name in names
                ]
                if len(owners) != 1:
                    return None
                bindings.add(owners[0])
        elif isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            return None
    return bindings


def _references_local(expr, binding_columns) -> bool:
    """Does the expression touch any of the given (local) bindings?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Column):
            if node.table is not None:
                if node.table in binding_columns:
                    return True
            elif any(node.name in names for names in binding_columns.values()):
                return True
        elif isinstance(node, (ast.ScalarSubquery, ast.InSubquery, ast.Exists)):
            return True  # conservatively local
    return False


def _extract_equi(conjuncts, left_columns, right_columns):
    """Split conjuncts into hash-joinable equalities and the rest.

    A conjunct qualifies when it is ``expr_L = expr_R`` with one side fully
    resolvable from the left bindings and the other from the right.
    """
    all_columns = {**left_columns, **right_columns}
    equi, residual = [], []
    for conjunct in conjuncts:
        if isinstance(conjunct, ast.BinaryOp) and conjunct.op == "=":
            left_b = _expr_bindings(conjunct.left, all_columns)
            right_b = _expr_bindings(conjunct.right, all_columns)
            if left_b is not None and right_b is not None and left_b and right_b:
                if left_b <= set(left_columns) and right_b <= set(right_columns):
                    equi.append((conjunct.left, conjunct.right))
                    continue
                if left_b <= set(right_columns) and right_b <= set(left_columns):
                    equi.append((conjunct.right, conjunct.left))
                    continue
        residual.append(conjunct)
    return equi, residual


def _greedy_order(planned, conjuncts) -> list:
    """Greedy join order: always add a table connected by an equality.

    ``planned[i]`` is ``(rows, {binding: names})``.  Starts from the first
    item (TPC-H queries list the driving table first) and repeatedly picks
    the next item that shares an equi-conjunct with the tables joined so
    far, falling back to list order when nothing connects.
    """
    remaining = list(range(len(planned)))
    order = [remaining.pop(0)]
    joined_columns = dict(planned[order[0]][1])

    def connects(idx) -> bool:
        candidate = {**joined_columns, **dict(planned[idx][1])}
        for conjunct in conjuncts:
            if not (isinstance(conjunct, ast.BinaryOp) and conjunct.op == "="):
                continue
            left_b = _expr_bindings(conjunct.left, candidate)
            right_b = _expr_bindings(conjunct.right, candidate)
            if left_b is None or right_b is None or not left_b or not right_b:
                continue
            joined = set(joined_columns)
            new = set(dict(planned[idx][1]))
            if (left_b <= joined and right_b <= new) or (
                right_b <= joined and left_b <= new
            ):
                return True
        return False

    while remaining:
        for pos, idx in enumerate(remaining):
            if connects(idx):
                remaining.pop(pos)
                break
        else:
            idx = remaining.pop(0)
        order.append(idx)
        joined_columns.update(dict(planned[idx][1]))
    return order


#: row-path alias for the shared inference rules in :mod:`repro.engine.columnar`
_infer_spec = infer_column_spec
