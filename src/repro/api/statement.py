"""Prepared statements: the query pipeline as a first-class, cacheable value.

A :class:`Statement` captures every stage of the proxy pipeline --

    parse -> rewrite -> (decryption plan) -> execute -> decrypt

-- so that the per-execution work of a repeated query collapses to binding
parameters and running the already-rewritten query.  Concretely:

* **parse** happens once, at construction;
* **rewrite** happens once per parameter *type signature* (an ``int``
  parameter and a ``decimal(2)`` parameter need different ring scales) and
  is invalidated by :attr:`KeyStore.version` (table/view changes, key
  rotation);
* **bind** computes the rewritten query's deferred literals -- ring
  encodings and token/key-inverse maskings recorded as
  :class:`~repro.core.plan.ParamSlot` transforms -- a few modular
  multiplications, not a re-rewrite;
* **execute** submits through the prepared-statement surface of the server
  (in-process or remote: both expose ``prepare_query`` /
  ``execute_prepared`` / ``fetch_rows`` / ``close_*``), so a remote
  deployment ships the rewritten SQL once and then only parameter bindings;
* **decrypt** streams: results stay at the SP and are decrypted in
  fetch-sized chunks as the application reads them.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.plan import RewrittenQuery
from repro.core.rewriter import infer_param_type
from repro.engine.table import Table
from repro.obs import trace as obs_trace
from repro.obs.metrics import DEFAULT_BUCKETS, global_metrics
from repro.sql import ast
from repro.sql.params import BindError, bind_parameters, num_parameters
from repro.sql.parser import parse_statement

_QUERY_SECONDS = global_metrics().histogram(
    "sdb_query_seconds",
    "end-to-end SELECT latency by route kind",
    buckets=DEFAULT_BUCKETS,
)
_PLAN_EVICTIONS = global_metrics().counter(
    "sdb_plan_cache_evictions_total",
    "prepared-statement plan variants evicted from the per-statement LRU",
)

_KINDS = {
    ast.Select: "select",
    ast.Insert: "insert",
    ast.Update: "update",
    ast.Delete: "delete",
    ast.TxnControl: "txn",
    ast.CreateTable: "create",
    ast.AlterCluster: "alter",
    ast.Explain: "explain",
}


def _release_handles(server_handles: list) -> None:
    """Close a statement's server-side handles (close() or GC finalizer)."""
    for server, stmt_id in server_handles:
        try:
            server.close_prepared(stmt_id)
        except Exception:
            pass  # connection already torn down
    server_handles.clear()


def _release_result(handle: list) -> None:
    """Close a server-side result set (close() or GC finalizer)."""
    if handle:
        server, result_id = handle
        handle.clear()
        try:
            server.close_result(result_id)
        except Exception:
            pass  # connection already torn down


@dataclass
class _PlanVariant:
    """One rewrite of a statement, specialized to a parameter signature."""

    plan: RewrittenQuery
    sql_text: str                  # rendered once; reused by results/channel
    store_version: int
    rewrite_s: float
    stmt_id: Optional[int] = None  # server-side prepared handle
    server_id: Optional[int] = None  # id() of the server holding stmt_id
    charged: bool = False          # rewrite cost reported once, then amortized


class Statement:
    """A parsed (and, for SELECTs, rewritten) statement bound to a connection."""

    #: plan variants held per statement; organic workloads can produce one
    #: signature per float precision or string length, so the dict is an
    #: LRU rather than unbounded (eviction also releases the variant's
    #: server-side handle)
    MAX_PLAN_VARIANTS = 8

    def __init__(self, connection, sql: str):
        self.connection = connection
        self.sql = sql
        t0 = time.perf_counter()
        self.parsed = parse_statement(sql)
        self.parse_s = time.perf_counter() - t0
        self.kind = _KINDS[type(self.parsed)]
        self.num_params = num_parameters(self.parsed)
        self._variants: OrderedDict[tuple, _PlanVariant] = OrderedDict()
        self._parse_charged = False  # parse cost reported on first execution
        self.executions = 0
        #: monotonic timestamp of the last execution (None: never executed)
        self.last_used_at: Optional[float] = None
        self.closed = False
        # server-side prepared handles this statement owns, as mutable
        # [server, stmt_id] pairs shared with a GC finalizer: a statement
        # evicted from the connection's LRU cache stays usable for anyone
        # still holding it, and its handles are released when it is
        # garbage-collected (or close()d), never while in use
        self._server_handles: list = []
        self._finalizer = weakref.finalize(
            self, _release_handles, self._server_handles
        )

    def __repr__(self) -> str:
        return f"Statement({self.kind}, {self.num_params} params, {self.sql[:60]!r})"

    @property
    def proxy(self):
        return self.connection.proxy

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release server-side prepared handles; the statement dies."""
        if self.closed:
            return
        self.closed = True
        _release_handles(self._server_handles)
        self._variants.clear()

    def _check_open(self) -> None:
        if self.closed:
            raise BindError("statement is closed")

    # -- execution ----------------------------------------------------------

    def execute(self, params: Sequence = ()):
        """Run with ``params`` bound; returns the execution handle.

        SELECTs return a :class:`SelectExecution` (streaming); DML and
        transaction control return the proxy's
        :class:`~repro.core.proxy.DMLResult`.
        """
        self._check_open()
        params = tuple(params)
        if self.kind == "select":
            return self.execute_select(params)
        if self.kind == "explain":
            return self.execute_explain()
        return self.execute_dml(params)

    def execute_explain(self):
        """Build the plan tree for an ``EXPLAIN <stmt>`` without executing.

        Returns the :class:`~repro.engine.planner.PlanNode` root.  The
        inner statement is rewritten (SELECT/UPDATE/DELETE) or described
        (INSERT/control) but never sent for execution, so EXPLAIN has no
        observable effect at the service provider beyond the routing probe
        a cluster coordinator answers locally.
        """
        self._check_open()
        from repro.core.explain import plan as build_plan

        tree = build_plan(self.proxy, self.parsed)
        self._parse_charged = True
        self._mark_used()
        return tree

    def _mark_used(self) -> None:
        self.executions += 1
        self.last_used_at = time.monotonic()

    def signatures(self) -> list[str]:
        """Rendered parameter type signatures of the cached plan variants."""
        def fmt(vtype) -> str:
            if vtype is None:
                return "null"
            if vtype.kind == "decimal":
                return f"decimal({vtype.scale})"
            if vtype.kind == "string":
                return f"string({vtype.width})"
            return vtype.kind

        return [
            "(" + ", ".join(fmt(v) for v in signature) + ")"
            for signature in self._variants
        ]

    def execute_select(self, params: Sequence = ()) -> "SelectExecution":
        self._check_open()
        params = tuple(params)
        if len(params) != self.num_params:
            raise BindError(
                f"statement expects {self.num_params} parameter(s), "
                f"got {len(params)}"
            )
        proxy = self.proxy
        context = self.connection.context
        tracer = getattr(self.connection, "tracer", obs_trace.NOOP_TRACER)
        t_total = time.perf_counter()
        with tracer.span("query") as root:
            root.set_attr("kind", "select")
            root.set_attr("params", len(params))
            # plan validation through server execution holds the shared side
            # of the proxy's key-epoch lock: the plan embeds the column keys
            # it was rewritten under, and a key rotation (exclusive side)
            # re-keying the stored shares in between would make the result
            # undecryptable.  Reads from different sessions still overlap.
            with proxy._key_lock.read_locked():
                variant = self._variant_for(params)
                t_bind = time.perf_counter()
                # mask-deferred plans re-draw their comparison masks / tokens
                # here, so consecutive binds are unlinkable on the wire
                literals = variant.plan.bind_slots(
                    proxy.store.keys.n, params, rng=proxy.rewriter.rng
                )
                bind_s = time.perf_counter() - t_bind
                tracer.record_timed(
                    "bind", root if root else None, t_bind, t_bind + bind_s,
                    slots=len(literals),
                )

                t0 = time.perf_counter()
                server = proxy.server
                if variant.stmt_id is None or variant.server_id != id(server):
                    # in-process servers take the AST directly; remote ones
                    # render the SQL text once and ship it over the wire.  The
                    # server identity check re-prepares after a server swap
                    # (e.g. crash recovery replacing proxy.server) so a stale
                    # handle can never alias a fresh one.
                    variant.stmt_id = server.prepare_query(
                        variant.plan.query, session=context.session_id
                    )
                    variant.server_id = id(server)
                    self._server_handles.append([server, variant.stmt_id])
                prepared = server.execute_prepared(
                    variant.stmt_id, literals, session=context.session_id
                )
                result_id, num_rows = prepared
                server_s = time.perf_counter() - t0
            self._mark_used()
            # snapshot-epoch observation: in-process backends expose the epoch
            # as a plain attribute; wire backends make it an explicit call, so
            # the opportunistic read stays free of extra round trips
            epoch = getattr(server, "epoch", None)
            context.observe_epoch(epoch if isinstance(epoch, int) else None)
            # cluster deployments report how the query was routed (and what
            # the routing itself leaked); read it keyed by our result id so a
            # concurrent session's route can never be attributed to this one
            reporter = getattr(server, "scatter_report", None)
            scatter = reporter(result_id) if callable(reporter) else None
            proxy.channel.record_query(
                f"EXECUTE s{variant.stmt_id} ({len(literals)} bound values)"
            )

            parse_s = 0.0 if self._parse_charged else self.parse_s
            self._parse_charged = True
            # binding is the per-execution remainder of rewriting
            rewrite_s = bind_s
            if not variant.charged:
                variant.charged = True
                rewrite_s += variant.rewrite_s
            context.record_statement(
                variant.plan.leakage
                + (tuple(scatter.leakage) if scatter else ())
            )
            route = scatter.mode if scatter is not None else "single"
            root.set_attr("route", route)
            if num_rows >= 0:
                root.set_attr("rows", num_rows)
        elapsed = time.perf_counter() - t_total
        _QUERY_SECONDS.labels(route=route).observe(elapsed)
        execution = SelectExecution(
            statement=self,
            variant=variant,
            params=params,
            result_id=result_id,
            num_rows=num_rows,
            parse_s=parse_s,
            rewrite_s=rewrite_s,
            bind_s=bind_s,
            server_s=server_s,
            scatter=scatter,
            scatter_leakage=tuple(scatter.leakage) if scatter else (),
            root_span=root if root else None,
            exec_info=getattr(prepared, "info", None),
        )
        slowlog = getattr(self.connection, "slowlog", None)
        if slowlog is not None and slowlog.is_slow(elapsed):
            self.connection._record_slow_select(elapsed, execution)
        return execution

    def execute_dml(self, params: Sequence = ()):
        """Bind into the parsed AST and run the proxy's DML pipeline.

        DML cannot cache its rewrite (INSERT draws fresh row ids, UPDATE
        re-keys under per-statement masks), so only the parse is amortized.
        """
        self._check_open()
        bound = bind_parameters(self.parsed, tuple(params))
        context = self.connection.context
        from repro.core.txn import TransactionConflictError

        try:
            result = self.proxy.execute_statement(bound, context=context)
        except TransactionConflictError:
            if self.kind == "txn" and bound.kind == "commit":
                # the server rolled the transaction back on conflict; the
                # connection must not believe one is still open
                self.connection._in_txn = False
            raise
        self._parse_charged = True
        self._mark_used()
        context.record_statement(result.leakage)
        epoch = getattr(self.proxy.server, "epoch", None)
        context.observe_epoch(epoch if isinstance(epoch, int) else None)
        if self.kind == "txn":
            # keep the connection's transaction flag honest for SQL-level
            # BEGIN/COMMIT/ROLLBACK, so Connection.commit() after a
            # cursor-issued BEGIN actually commits instead of no-opping
            self.connection._in_txn = bound.kind == "begin"
        return result

    # -- plan cache ---------------------------------------------------------

    def _variant_for(self, params: tuple) -> _PlanVariant:
        signature = tuple(infer_param_type(value) for value in params)
        store = self.proxy.store
        variant = self._variants.get(signature)
        if variant is not None and variant.store_version == store.version:
            self._variants.move_to_end(signature)
            return variant
        if variant is not None:
            # key rotation / schema change: the cached rewrite embeds stale
            # key-update parameters -- drop the server-side handle too
            self._drop_variant_handle(variant)
        t0 = time.perf_counter()
        parent = obs_trace.current_span()
        plan = self.proxy.rewriter.rewrite(self.parsed, param_types=signature)
        # bind-time re-masking: mask/token literals become extra bind
        # markers, re-drawn per execution, so caching this plan does not
        # let the SP correlate masked values across executions
        plan = plan.defer_masks()
        if self.num_params and plan.leakage:
            # what caching still leaks: the SP sees the same prepared
            # handle (same plan shape, same slot positions) per execution,
            # so executions of one statement remain linkable as such even
            # though their masked literals are fresh.  Declare it the way
            # every other leakage source is declared.
            if plan.masks_deferred or not plan.mask_sites:
                plan.leakage = plan.leakage + (
                    "prepared: executions share one plan shape (linkable "
                    "by statement handle); masks/tokens are re-drawn per "
                    "bind",
                )
            else:
                plan.leakage = plan.leakage + (
                    "prepared: rewrite-time masks/tokens are reused across "
                    "executions of this plan",
                )
        sql_text = plan.sql
        rewrite_s = time.perf_counter() - t0
        if parent is not None:
            parent.tracer.record_timed(
                "rewrite", parent, t0, t0 + rewrite_s,
                variants=len(self._variants) + 1,
            )
        variant = _PlanVariant(
            plan=plan,
            sql_text=sql_text,
            store_version=store.version,
            rewrite_s=rewrite_s,
        )
        self._variants[signature] = variant
        while len(self._variants) > self.MAX_PLAN_VARIANTS:
            _, evicted = self._variants.popitem(last=False)
            self._drop_variant_handle(evicted)
            _PLAN_EVICTIONS.inc()
        self.proxy.channel.record_query(sql_text)
        return variant

    def _drop_variant_handle(self, variant: "_PlanVariant") -> None:
        """Release a variant's server-side handle, if it still owns one.

        The server-identity check matters: after a server swap, handle ids
        restart and this stmt_id may now belong to someone else.
        """
        server = self.proxy.server
        if variant.stmt_id is None or variant.server_id != id(server):
            return
        try:
            server.close_prepared(variant.stmt_id)
        except Exception:
            pass
        self._server_handles[:] = [
            pair for pair in self._server_handles
            if not (pair[0] is server and pair[1] == variant.stmt_id)
        ]
        variant.stmt_id = None
        variant.server_id = None

    @property
    def plan_variants(self) -> int:
        """How many specialized rewrites this statement holds (introspection)."""
        return len(self._variants)


@dataclass
class SelectExecution:
    """One execution of a prepared SELECT: a server-side streaming result."""

    statement: Statement
    variant: _PlanVariant
    params: tuple
    result_id: int
    num_rows: int
    parse_s: float = 0.0
    rewrite_s: float = 0.0
    bind_s: float = 0.0
    server_s: float = 0.0
    decrypt_s: float = 0.0
    fetched: int = 0
    closed: bool = False
    #: full routing report from a cluster coordinator (None on single SP)
    scatter: Optional[object] = None
    #: routing leakage reported by a cluster coordinator for this execution
    scatter_leakage: tuple = ()
    #: the execution's root trace span (None when tracing is off); fetch-
    #: time decrypt spans attach under it even after it finished
    root_span: Optional[object] = None
    #: how the SP ran this execution (engine ExecInfo: batch/row path and
    #: access paths); arrives with the result, refreshed by every fetched
    #: chunk of a pipelined result.  None where the backend reports none.
    exec_info: Optional[object] = None

    def __post_init__(self):
        # an abandoned execution (cursor dropped before exhausting or
        # closing the result) must not pin its encrypted result at the SP
        # forever: the finalizer releases the server-side result set when
        # this object is garbage-collected
        self._result_handle = [self.statement.proxy.server, self.result_id]
        weakref.finalize(self, _release_result, self._result_handle)

    @property
    def plan(self) -> RewrittenQuery:
        return self.variant.plan

    @property
    def rewritten_sql(self) -> str:
        return self.variant.sql_text

    def cost(self):
        from repro.core.proxy import CostBreakdown

        return CostBreakdown(
            parse_s=self.parse_s,
            rewrite_s=self.rewrite_s,
            server_s=self.server_s,
            decrypt_s=self.decrypt_s,
        )

    def timing_summary(self) -> dict:
        """Per-phase durations (seconds) for the report's timing section.

        The legacy :meth:`cost` breakdown is untouched; this adds the
        finer phases (bind, and the coordinator's route/scatter/merge
        when the backend reported them).
        """
        timing = {
            "parse": self.parse_s,
            "rewrite": self.rewrite_s,
            "bind": self.bind_s,
            "server": self.server_s,
            "decrypt": self.decrypt_s,
        }
        extra = getattr(self.scatter, "timings", None)
        if extra:
            for phase in ("route", "scatter", "merge", "gather"):
                if f"{phase}_s" in extra:
                    timing[phase] = extra[f"{phase}_s"]
        return timing

    # -- streaming fetch ----------------------------------------------------

    def fetch_chunk(self, count: Optional[int]) -> Table:
        """Fetch and decrypt the next ``count`` rows (all when None)."""
        proxy = self.statement.proxy
        if self.closed:
            return self._empty()
        root = self.root_span
        fetch_cm = (
            root.tracer.span("fetch", parent=root)
            if root is not None
            else obs_trace.NOOP_SPAN
        )
        t0 = time.perf_counter()
        with fetch_cm as fetch_span:
            chunk = proxy.server.fetch_rows(self.result_id, count)
            fetch_span.set_attr("rows", chunk.num_rows)
        if chunk.exec_info is not None:
            self.exec_info = chunk.exec_info
        t1 = time.perf_counter()
        self.server_s += t1 - t0
        proxy.channel.record_result(chunk)
        table = proxy._decryptor.decrypt(
            chunk, self.plan.outputs, params=self.params
        )
        t2 = time.perf_counter()
        self.decrypt_s += t2 - t1
        self.fetched += table.num_rows
        if root is not None:
            # row count from the *encrypted* chunk (decryption is
            # row-preserving): the decrypted table is taint-tracked and
            # must not reach a telemetry sink, even for its shape
            root.tracer.record_timed(
                "decrypt", root, t1, t2, rows=chunk.num_rows
            )
        if (
            count is None
            or table.num_rows < count
            # num_rows is -1 for pipelined results: the total is unknown
            # until a short (or empty) chunk marks the end of the scan
            or (self.num_rows >= 0 and self.fetched >= self.num_rows)
        ):
            self.close()
        return table

    def fetch_rest(self) -> Table:
        return self.fetch_chunk(None)

    def _empty(self) -> Table:
        from repro.engine.schema import ColumnSpec, DataType, Schema

        specs = tuple(
            ColumnSpec(output.name, DataType.STRING)
            for output in self.plan.outputs
        )
        return Table.empty(Schema(specs))

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        _release_result(self._result_handle)
