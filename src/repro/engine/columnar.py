"""Columnar batch execution primitives.

The row interpreter in :mod:`repro.engine.executor` pays a fixed price per
row: a bindings dict, a :class:`RowScope`, an :class:`Evaluator` and one
dynamic dispatch per AST node.  For the scan -> filter -> project ->
aggregate pipelines that dominate SDB workloads (and every secure-UDF
expression, which is just ring arithmetic over big integers) none of that
per-row machinery is needed: the same expression applies to every row.

This module provides the batch-side representation:

* :class:`ColumnBatch` -- a schema plus parallel value vectors, convertible
  to and from :class:`repro.engine.table.Table` without copying columns;
* :class:`BatchScope` -- name resolution over column vectors with *lazy
  selection*: filters narrow the scope to a set of row indices and columns
  are compacted only when an expression actually reads them;
* :exc:`BatchUnsupported` -- raised whenever a query shape falls outside
  the batch path; the executor catches it and transparently re-runs the
  query on the row interpreter, which remains the reference semantics.

Columns are plain Python lists rather than ``array``/NumPy vectors on
purpose: encrypted shares are 256..2048-bit integers that no fixed-width
machine vector can hold, so the vectorization win here is architectural --
one interpretation of the expression per *column* instead of per *cell* --
plus batched number theory (:func:`repro.crypto.ntheory.batch_modinv`).
"""

from __future__ import annotations

import datetime
from typing import Optional, Sequence

from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.engine.table import Table


class BatchUnsupported(Exception):
    """The batch path cannot run this query shape; fall back to rows."""


class ColumnBatch:
    """A batch of rows in columnar form: names, specs and value vectors."""

    __slots__ = ("schema", "columns")

    def __init__(self, schema: Schema, columns: Sequence[list]):
        if len(columns) != len(schema.columns):
            raise ValueError(
                f"schema has {len(schema.columns)} columns, data has {len(columns)}"
            )
        self.schema = schema
        self.columns = list(columns)

    @classmethod
    def from_table(cls, table: Table) -> "ColumnBatch":
        """Zero-copy view over a table's column vectors."""
        return cls(table.schema, table.columns)

    @classmethod
    def from_columns(cls, names: Sequence[str], columns: Sequence[list]) -> "ColumnBatch":
        """Build a batch from raw output columns, inferring specs."""
        specs = tuple(
            infer_column_spec(name, column) for name, column in zip(names, columns)
        )
        return cls(Schema(specs), list(columns))

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def column(self, name: str) -> list:
        return self.columns[self.schema.index_of(name)]

    def take(self, indices: Sequence[int]) -> "ColumnBatch":
        return ColumnBatch(
            self.schema, [[col[i] for i in indices] for col in self.columns]
        )

    def to_table(self) -> Table:
        """Materialize as an engine table (shares the column lists)."""
        return Table.adopting(self.schema, self.columns)


class BatchScope:
    """Column-vector name resolution with lazy, composable selection.

    ``bindings`` maps ``binding -> {column name -> vector}`` over the *base*
    vectors.  Selection takes one of two shapes:

    * ``indices`` -- one shared row-index vector (the single-table filter
      case, where every binding's base vectors are parallel);
    * ``by_binding`` -- one row-index vector *per binding*, all of the same
      output length (the join case: output row ``i`` combines base row
      ``by_binding[b][i]`` of each joined binding ``b``).

    :meth:`lookup` compacts a column through the selection at most once --
    repeated reads of the same column (projection after filtering on it)
    hit the cache.
    """

    __slots__ = ("bindings", "length", "_indices", "_by_binding", "_cache")

    def __init__(
        self,
        bindings: dict,
        length: int,
        indices: Optional[list] = None,
        by_binding: Optional[dict] = None,
    ):
        self.bindings = bindings
        self._indices = indices
        self._by_binding = by_binding
        self._cache: dict = {}
        if by_binding is not None:
            self.length = length
        else:
            self.length = length if indices is None else len(indices)

    @classmethod
    def for_table(cls, binding: str, table: Table) -> "BatchScope":
        columns = dict(zip(table.schema.names, table.columns))
        return cls({binding: columns}, table.num_rows)

    @classmethod
    def joined(
        cls, bindings: dict, by_binding: dict, length: int
    ) -> "BatchScope":
        """A scope combining several bindings via per-binding row vectors."""
        return cls(bindings, length, by_binding=by_binding)

    @property
    def indices(self) -> Optional[list]:
        """Base-row positions of a single-table selection; None while the
        scope still covers its table unfiltered."""
        return self._indices

    def head(self, count: int) -> "BatchScope":
        """The first ``count`` rows of this scope."""
        if count >= self.length:
            return self
        return self.select(list(range(count)))

    def select(self, local_indices: list) -> "BatchScope":
        """Narrow to the given row positions (relative to this scope)."""
        if self._by_binding is not None:
            narrowed = {
                binding: [rows[i] for i in local_indices]
                for binding, rows in self._by_binding.items()
            }
            return BatchScope(
                self.bindings, len(local_indices), by_binding=narrowed
            )
        if self._indices is None:
            base = list(local_indices)
        else:
            indices = self._indices
            base = [indices[i] for i in local_indices]
        return BatchScope(self.bindings, len(base), indices=base)

    def base_rows(self, binding: str) -> list:
        """Base-table row indices of the current selection for ``binding``."""
        if binding not in self.bindings:
            raise BatchUnsupported(f"unknown binding {binding!r}")
        if self._by_binding is not None:
            return self._by_binding[binding]
        if self._indices is not None:
            return self._indices
        return list(range(self.length))

    def lookup(self, name: str, table: Optional[str] = None) -> list:
        key = (table, name)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        binding, column = self._lookup_base(name, table)
        if self._by_binding is not None:
            rows = self._by_binding[binding]
            column = [column[i] for i in rows]
        elif self._indices is not None:
            column = [column[i] for i in self._indices]
        self._cache[key] = column
        return column

    def _lookup_base(self, name: str, table: Optional[str]) -> tuple:
        if table is not None:
            columns = self.bindings.get(table)
            if columns is None or name not in columns:
                raise BatchUnsupported(f"unknown column {table}.{name}")
            return table, columns[name]
        hits = [
            (binding, columns[name])
            for binding, columns in self.bindings.items()
            if name in columns
        ]
        if len(hits) != 1:
            # unknown or ambiguous: the row path raises the proper error
            raise BatchUnsupported(f"cannot resolve column {name!r}")
        return hits[0]


def infer_column_spec(name: str, values: Sequence) -> ColumnSpec:
    """Infer a column spec from the first non-NULL value (row-path rules)."""
    for v in values:
        if v is None:
            continue
        if isinstance(v, bool):
            return ColumnSpec(name, DataType.BOOL)
        if isinstance(v, int):
            return ColumnSpec(name, DataType.INT)
        if isinstance(v, float):
            return ColumnSpec(name, DataType.DECIMAL, scale=2)
        if isinstance(v, datetime.date):
            return ColumnSpec(name, DataType.DATE)
        return ColumnSpec(name, DataType.STRING)
    return ColumnSpec(name, DataType.STRING)
