"""DML execution: INSERT / UPDATE / DELETE against catalog tables.

The engine mutates tables in place (the columnar :class:`Table` exposes
narrow mutation hooks used only from here).  Expressions run through the
same evaluator as queries, so rewritten DML -- INSERT literals that are
shares, UPDATE/DELETE predicates containing SDB UDF calls -- executes at
the SP without the engine knowing anything about encryption.
"""

from __future__ import annotations

from repro.engine.catalog import Catalog
from repro.engine.expressions import BatchEvaluator, Evaluator, RowScope
from repro.sql import ast


class DMLError(ValueError):
    """Semantically invalid DML (bad table/column, width mismatch)."""


def execute_dml(
    engine, statement: ast.Statement, affected_indices=None, deleted_cells=None
) -> int:
    """Run one DML statement; returns the number of affected rows.

    When ``affected_indices`` is a list it receives the row indices the
    statement touched: post-append positions for INSERT, pre-mutation
    positions for UPDATE and DELETE.  UPDATE never moves rows, so those
    positions stay valid after the call; DELETE's rows are gone by then,
    so a caller wanting their identity passes ``deleted_cells`` -- a
    ``{column name: list}`` dict whose lists receive the deleted rows'
    cells of those columns (the pre-image), captured just before the
    rows are removed.  The transaction layer uses both to map statements
    onto row-id write sets without snapshotting whole columns.
    """
    if isinstance(statement, ast.Insert):
        return _insert(engine, statement, affected_indices)
    if isinstance(statement, ast.Update):
        return _update(engine, statement, affected_indices)
    if isinstance(statement, ast.Delete):
        return _delete(engine, statement, affected_indices, deleted_cells)
    raise DMLError(f"not a DML statement: {type(statement).__name__}")


def _insert(engine, statement: ast.Insert, affected_indices=None) -> int:
    table = _get_table(engine.catalog, statement.table)
    names = list(table.schema.names)
    if statement.columns is not None:
        unknown = [c for c in statement.columns if c not in names]
        if unknown:
            raise DMLError(
                f"table {statement.table!r} has no columns {unknown}"
            )
        positions = {c: i for i, c in enumerate(statement.columns)}
    else:
        if any(len(row) != len(names) for row in statement.rows):
            raise DMLError(
                f"INSERT without a column list must provide all "
                f"{len(names)} columns of {statement.table!r}"
            )
        positions = {c: i for i, c in enumerate(names)}

    evaluator = Evaluator(engine, RowScope({}))
    rows = []
    for value_row in statement.rows:
        values = [evaluator.evaluate(v) for v in value_row]
        rows.append(
            tuple(
                values[positions[name]] if name in positions else None
                for name in names
            )
        )
    before = table.num_rows
    appended = table.append_rows(rows)
    if affected_indices is not None:
        affected_indices.extend(range(before, before + appended))
    return appended


def _matching_rows(engine, table, binding: str, where, expressions=()):
    """``(positions, values)`` of the rows a WHERE clause selects.

    ``positions`` are ascending base-row positions; ``values`` holds one
    vector per entry of ``expressions`` (an UPDATE's assignment values),
    evaluated over exactly those rows before anything is written.

    Candidates come from the access path (an index probe when a conjunct
    is sargable), the remaining conjuncts run once through the batch
    evaluator, and anything the batch evaluator cannot handle -- or any
    error it raises -- re-runs on the row interpreter, which stays the
    reference semantics (and the only path of ``batch_enabled=False``
    engines, whose per-row UDF call sequence is part of the instrumented
    transcript).
    """
    from repro.engine.executor import _split_conjuncts, access_path

    if engine.batch_enabled:
        try:
            scope, residual, _ = access_path(
                binding, binding, table, _split_conjuncts(where)
            )
            scope = engine._batch_filter(scope, residual)
            evaluator = BatchEvaluator(engine, scope)
            values = [evaluator.column(expr) for expr in expressions]
            return list(scope.base_rows(binding)), values
        except Exception:  # noqa: BLE001 -- the row interpreter re-raises
            pass
    column_names = table.schema.names
    positions = []
    values = [[] for _ in expressions]
    for i in range(table.num_rows):
        scope = RowScope({binding: dict(zip(column_names, table.row(i)))})
        evaluator = Evaluator(engine, scope)
        if where is not None and evaluator.evaluate(where) is not True:
            continue
        positions.append(i)
        for vector, expr in zip(values, expressions):
            vector.append(evaluator.evaluate(expr))
    return positions, values


def _update(engine, statement: ast.Update, affected_indices=None) -> int:
    table = _get_table(engine.catalog, statement.table)
    names = set(table.schema.names)
    for assignment in statement.assignments:
        if assignment.column not in names:
            raise DMLError(
                f"table {statement.table!r} has no column {assignment.column!r}"
            )
    # every new value is computed before the first cell is written, so
    # assignments never see partially updated rows
    positions, values = _matching_rows(
        engine, table, statement.table, statement.where,
        [a.value for a in statement.assignments],
    )
    for assignment, vector in zip(statement.assignments, values):
        for i, value in zip(positions, vector):
            table.set_cell(assignment.column, i, value)
    if affected_indices is not None:
        affected_indices.extend(positions)
    return len(positions)


def _delete(
    engine, statement: ast.Delete, affected_indices=None, deleted_cells=None
) -> int:
    table = _get_table(engine.catalog, statement.table)
    if statement.where is None:
        positions = range(table.num_rows)
    else:
        positions, _ = _matching_rows(
            engine, table, statement.table, statement.where
        )
    if affected_indices is not None:
        affected_indices.extend(positions)
    for name, cells in (deleted_cells or {}).items():
        column = table.column(name)
        cells.extend(column[i] for i in positions)
    return table.delete_rows(positions)


def _get_table(catalog: Catalog, name: str):
    try:
        return catalog.get(name)
    except KeyError:
        raise DMLError(f"unknown table {name!r}") from None
