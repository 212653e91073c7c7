"""EXPLAIN: what the proxy is about to do, without doing it.

The demo UI (Figure 3) shows the attendee the rewritten query next to the
original.  :func:`explain` packages that view -- rewritten SQL, how each
output column decrypts, declared leakage, rewriting notes -- for the
shell, tests and documentation, with no server round trip.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plan import Const, PlainSlot, PostOp, ShareSlot
from repro.engine.executor import (
    INDEX_MAX_FRACTION,
    INDEX_MIN_ROWS,
    describe_access,
)
from repro.engine.planner import PlanNode
from repro.sql import ast
from repro.sql.params import num_parameters
from repro.sql.parser import parse_statement


@dataclass(frozen=True)
class ExplainReport:
    """A dry-run description of one statement."""

    kind: str                       # 'select' | 'insert' | 'update' | 'delete'
    original_sql: str
    rewritten_sql: str
    outputs: tuple[str, ...]        # one human-readable line per output
    leakage: tuple[str, ...]
    notes: tuple[str, ...]

    def pretty(self) -> str:
        lines = [f"-- {self.kind.upper()} --"]
        lines.append("rewritten:")
        lines.append(f"  {self.rewritten_sql}")
        if self.outputs:
            lines.append("outputs:")
            lines.extend(f"  {line}" for line in self.outputs)
        lines.append("declared leakage:")
        if self.leakage:
            lines.extend(f"  - {item}" for item in self.leakage)
        else:
            lines.append("  (none)")
        if self.notes:
            lines.append("notes:")
            lines.extend(f"  - {note}" for note in self.notes)
        return "\n".join(lines)


def explain(proxy, sql: str) -> ExplainReport:
    """Rewrite ``sql`` against the proxy's key store; never contacts the SP.

    INSERTs are described rather than rewritten: rewriting one would burn
    fresh row ids for rows that are never stored.
    """
    statement = parse_statement(sql)
    if isinstance(statement, ast.Select):
        plan = proxy.rewriter.rewrite(statement)
        outputs = tuple(
            f"{column.name}: {describe_spec(column.spec)}"
            for column in plan.outputs
        )
        return ExplainReport(
            kind="select",
            original_sql=sql,
            rewritten_sql=plan.sql,
            outputs=outputs,
            leakage=plan.leakage,
            notes=plan.notes,
        )
    if isinstance(statement, ast.Insert):
        meta = proxy.store.table(statement.table)
        sensitive = [c.name for c in meta.columns.values() if c.sensitive]
        return ExplainReport(
            kind="insert",
            original_sql=sql,
            rewritten_sql=(
                f"INSERT INTO {statement.table} (...{len(meta.columns)} columns"
                f" + __rowid + __s) VALUES (<shares>)"
            ),
            outputs=(),
            leakage=tuple(
                f"insert: plaintext of insensitive column {c.name!r}"
                for c in meta.columns.values()
                if not c.sensitive
            ),
            notes=(
                f"sensitive columns encrypted at the proxy: {sensitive}",
                "each row gets a fresh random row id (CPA resistance)",
            ),
        )
    if isinstance(statement, ast.Update):
        plan = proxy.rewriter.rewrite_update(statement)
    else:
        plan = proxy.rewriter.rewrite_delete(statement)
    return ExplainReport(
        kind=type(statement).__name__.lower(),
        original_sql=sql,
        rewritten_sql=plan.sql,
        outputs=(),
        leakage=plan.leakage,
        notes=plan.notes,
    )


def plan(proxy, statement) -> PlanNode:
    """The structured plan tree for a statement, without executing it.

    ``statement`` is SQL text or a parsed AST; an ``EXPLAIN`` wrapper is
    unwrapped.  The tree combines the proxy's rewrite (with its declared
    leakage and notes) and the backend's routing decision -- a cluster
    coordinator contributes its scatter/coshard/gather subtree through
    ``explain_route``; single-SP backends report one execute node.  Plans
    describe operator shapes only: the single place data-derived content
    may appear is an explicitly declared leakage line.
    """
    if isinstance(statement, str):
        statement = parse_statement(statement)
    if isinstance(statement, ast.Explain):
        statement = statement.statement

    if isinstance(statement, ast.Select):
        markers = num_parameters(statement)
        rewritten = proxy.rewriter.rewrite(
            statement, param_types=(None,) * markers
        )
        props = {"outputs": len(rewritten.outputs)}
        if markers:
            props["params"] = markers
        rewrite_node = PlanNode(
            op="rewrite",
            detail="sensitive operations become SDB UDF calls over shares",
            props=props,
            leakage=rewritten.leakage,
            notes=rewritten.notes,
        )
        return PlanNode(
            op="select",
            detail="proxy rewrite, then routed execution",
            children=(rewrite_node, _route_node(proxy, rewritten.query)),
        )

    if isinstance(statement, ast.Insert):
        meta = proxy.store.table(statement.table)
        sensitive = [c.name for c in meta.columns.values() if c.sensitive]
        return PlanNode(
            op="insert",
            detail=f"encrypt at the proxy, route rows into {statement.table}",
            props={"rows": len(statement.rows)},
            leakage=tuple(
                f"insert: plaintext of insensitive column {c.name!r}"
                for c in meta.columns.values()
                if not c.sensitive
            ),
            notes=(
                f"sensitive columns encrypted at the proxy: {sensitive}",
                "each row gets a fresh random row id (CPA resistance)",
            ),
        )

    if isinstance(statement, (ast.Update, ast.Delete)):
        rewrite = (
            proxy.rewriter.rewrite_update
            if isinstance(statement, ast.Update)
            else proxy.rewriter.rewrite_delete
        )
        rewritten = rewrite(statement)
        kind = type(statement).__name__.lower()
        target = rewritten.statement
        return PlanNode(
            op=kind,
            detail=f"rewritten {kind.upper()} on {statement.table}, "
            "predicate evaluated over shares at the SP",
            children=_access_nodes(
                ast.TableRef(name=target.table), target.where
            ),
            leakage=rewritten.leakage,
            notes=rewritten.notes,
        )

    # control statements (BEGIN/COMMIT/ROLLBACK, DDL): nothing to plan
    kind = type(statement).__name__.lower()
    return PlanNode(
        op=kind,
        detail="control statement; executes directly",
    )


def _route_node(proxy, rewritten_query) -> PlanNode:
    """How the backend will route the rewritten query."""
    server = proxy.server
    explain_fn = getattr(server, "explain_route", None)
    if callable(explain_fn):  # a cluster coordinator
        return explain_fn(rewritten_query)
    return PlanNode(
        op="execute",
        detail="single service provider runs the rewritten query",
        props={"backend": type(server).__name__},
        children=_access_nodes(
            rewritten_query.from_clause, rewritten_query.where
        ),
    )


def _access_nodes(from_clause, where) -> tuple:
    """One ``access`` operator per base table: how the SP engine will read
    it.  Shape only -- the predicates' columns and operators, which the SP
    sees in clear anyway (sensitive predicates are UDF calls and never
    qualify); the probe-vs-scan choice is made at execute time from the
    index's exact match count and is reported by ``QueryReport.access``.
    """
    if from_clause is None:
        return ()
    nodes = []
    for table, candidates in describe_access(from_clause, where):
        if candidates:
            probes = ", ".join(
                f"index({table}.{column}) {op}" for column, op in candidates
            )
            detail = (
                f"{table}: probe {probes} when it keeps at most "
                f"1/{INDEX_MAX_FRACTION} of >= {INDEX_MIN_ROWS} rows, "
                "else scan"
            )
        else:
            detail = f"{table}: scan (no column-vs-constant predicate)"
        nodes.append(
            PlanNode(
                op="access", detail=detail,
                props={"candidates": len(candidates)},
            )
        )
    return tuple(nodes)


def describe_spec(spec) -> str:
    """One line describing how an output column decrypts."""
    if isinstance(spec, PlainSlot):
        return f"plain (result column {spec.index})"
    if isinstance(spec, ShareSlot):
        if spec.key.is_row_independent:
            key = "row-independent key"
        else:
            sources = ", ".join(s for s, _ in spec.key.terms)
            key = f"key over row ids of [{sources}]"
        return (
            f"share (result column {spec.index}, {key}, "
            f"type {spec.vtype.kind})"
        )
    if isinstance(spec, PostOp):
        left = describe_spec(spec.left)
        if spec.right is None:
            return f"proxy-side {spec.op}({left})"
        return f"proxy-side ({left} {spec.op} {describe_spec(spec.right)})"
    if isinstance(spec, Const):
        return f"constant {spec.value!r}"
    return f"<{type(spec).__name__}>"
