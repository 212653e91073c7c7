"""Columnar in-memory tables.

Storage is column-major (one Python list per column): scans and projections
touch only the columns they need, which keeps the UDF-heavy rewritten
queries from paying for untouched columns.

A table also owns its **secondary access structures** (see
:mod:`repro.engine.index`): per-column hash and ordered indexes, built
lazily the first time the planner asks for one and kept current by the
mutation hooks below, so a point or short-range predicate probes a bucket
instead of scanning.  Indexes address rows by *row id*, not position: a
row id equals the row's position until the first delete, and from then on
``_rids`` maps positions to (ascending) row ids, so compacting the rows
around a delete never renumbers an index.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Optional, Sequence

from repro.engine.index import HashIndex, OrderedIndex
from repro.engine.schema import ColumnSpec, DataType, Schema

#: a delete touching more than 1/N of the rows drops the indexes (the next
#: probe rebuilds them) instead of unhooking the rows one by one
_MASS_DELETE_FRACTION = 8


class Table:
    """An immutable-by-convention columnar table."""

    def __init__(
        self, schema: Schema, columns: Sequence[list], indexable: bool = True
    ):
        if len(columns) != len(schema.columns):
            raise ValueError(
                f"schema has {len(schema.columns)} columns, data has {len(columns)}"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged columns: lengths {sorted(lengths)}")
        self._adopt(schema, [list(c) for c in columns], indexable)

    def _adopt(self, schema: Schema, columns: list, indexable: bool = True):
        self.schema = schema
        self.columns = columns
        #: False for private working copies (a transaction's overlay): they
        #: are scanned, never indexed -- a build per transaction would cost
        #: more than the handful of statements that could use it
        self.indexable = indexable
        #: ``(column index, 'hash' | 'ordered') -> index``; None marks a
        #: column found unindexable, so it is not re-examined per query
        self._indexes: dict = {}
        #: position -> row id, ascending; None while row id == position
        self._rids: Optional[list] = None
        self._next_rid = 0
        #: how the engine produced this table, when it is a query result
        #: (:class:`~repro.engine.executor.ExecInfo`); travels with the
        #: result over the wire so reports never read shared engine state
        self.exec_info = None

    @classmethod
    def adopting(cls, schema: Schema, columns: list) -> "Table":
        """A table that takes ownership of ``columns`` without copying."""
        table = cls.__new__(cls)
        table._adopt(schema, columns)
        return table

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, schema: Schema) -> "Table":
        return cls(schema, [[] for _ in schema.columns])

    @classmethod
    def from_rows(cls, schema: Schema, rows: Iterable[Sequence]) -> "Table":
        columns: list[list] = [[] for _ in schema.columns]
        for row in rows:
            if len(row) != len(columns):
                raise ValueError(f"row width {len(row)} != schema width {len(columns)}")
            for col, value in zip(columns, row):
                col.append(value)
        return cls(schema, columns)

    def to_batch(self):
        """View this table as a :class:`~repro.engine.columnar.ColumnBatch`.

        Zero-copy: the batch shares this table's column lists, which is safe
        for query execution because scans never mutate tables.
        """
        from repro.engine.columnar import ColumnBatch

        return ColumnBatch.from_table(self)

    # -- shape ----------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    @property
    def num_columns(self) -> int:
        return len(self.columns)

    def __len__(self) -> int:
        return self.num_rows

    # -- access ---------------------------------------------------------------

    def column(self, name: str) -> list:
        return self.columns[self.schema.index_of(name)]

    def row(self, i: int) -> tuple:
        return tuple(col[i] for col in self.columns)

    def rows(self) -> Iterator[tuple]:
        return (self.row(i) for i in range(self.num_rows))

    def to_dicts(self) -> list[dict]:
        names = self.schema.names
        return [dict(zip(names, row)) for row in self.rows()]

    # -- transformations -------------------------------------------------------

    def take(self, indices: Sequence[int]) -> "Table":
        return Table(
            self.schema, [[col[i] for i in indices] for col in self.columns]
        )

    def head(self, k: int) -> "Table":
        return Table(self.schema, [col[:k] for col in self.columns])

    def slice(self, start: int, stop: Optional[int] = None) -> "Table":
        """Contiguous row window ``[start, stop)`` (a fetch chunk)."""
        return Table(self.schema, [col[start:stop] for col in self.columns])

    def select(self, names: Sequence[str]) -> "Table":
        specs = tuple(self.schema[name] for name in names)
        return Table(
            Schema(specs), [self.column(name) for name in names]
        )

    def with_column(self, spec: ColumnSpec, values: list) -> "Table":
        if len(values) != self.num_rows and self.num_columns:
            raise ValueError("new column length mismatch")
        return Table(self.schema.extended(spec), self.columns + [list(values)])

    def rename(self, mapping: dict) -> "Table":
        specs = tuple(
            ColumnSpec(mapping.get(c.name, c.name), c.dtype, c.scale)
            for c in self.schema.columns
        )
        return Table(Schema(specs), self.columns)

    # -- secondary indexes -----------------------------------------------------
    #
    # Lazy builds run under the *shared* side of the server lock (any
    # reader may be the first to plan a predicate), so a build works on a
    # private object and becomes visible through one dict assignment;
    # racing builders publish equivalent indexes and the last one wins.
    # Everything that changes an index in place lives in the mutation
    # hooks further down, which writers call under the exclusive side.

    def hash_index(self, name: str) -> Optional[HashIndex]:
        """The column's hash index, built on first use; None if unindexable."""
        return self._index(name, "hash", HashIndex)

    def ordered_index(self, name: str) -> Optional[OrderedIndex]:
        """The column's ordered index, built on first use; None if unindexable."""
        return self._index(name, "ordered", OrderedIndex)

    def _index(self, name: str, kind: str, factory):
        if not self.indexable:
            return None
        key = (self.schema.index_of(name), kind)
        try:
            return self._indexes[key]
        except KeyError:
            index = factory.build(self.columns[key[0]], self._rids)
            self._publish_index(key, index)
            return index

    def _publish_index(self, key: tuple, index) -> None:
        """Make a finished index (or the unindexable marker) visible."""
        self._indexes[key] = index

    def positions(self, rids: Sequence[int]) -> list:
        """Current row positions of ascending row ids (ascending too)."""
        table_rids = self._rids
        if table_rids is None:
            return list(rids)
        return [bisect_left(table_rids, rid) for rid in rids]

    def index_names(self) -> list:
        """``(column, kind)`` of every live index (introspection, tests)."""
        names = self.schema.names
        return sorted(
            (names[ci], kind)
            for (ci, kind), index in self._indexes.items()
            if index is not None
        )

    # -- mutation (DML) ----------------------------------------------------
    #
    # Query execution never mutates tables; only the engine's DML entry
    # points call these, so "immutable-by-convention" still holds for
    # everything reachable from a SELECT.  Every write funnels through
    # these hooks, which is what keeps the indexes current.

    def append_rows(self, rows: Iterable[Sequence]) -> int:
        """Append rows in schema order; returns the number appended."""
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        width = self.num_columns
        for row in rows:
            if len(row) != width:
                raise ValueError(
                    f"row width {len(row)} != schema width {width}"
                )
        before = first_rid = self.num_rows
        for col, values in zip(self.columns, zip(*rows)):
            col.extend(values)
        count = len(rows)
        if self._rids is not None:
            first_rid = self._next_rid
            self._next_rid += count
            self._rids.extend(range(first_rid, self._next_rid))
        if self._indexes:
            for key, index in self._indexes.items():
                if index is None:
                    continue
                column = self.columns[key[0]]
                for offset in range(count):
                    if not index.add(column[before + offset], first_rid + offset):
                        self._indexes[key] = None
                        break
        return count

    def keep_rows(self, mask: Sequence[bool]) -> int:
        """Keep rows where ``mask`` is true; returns the number removed."""
        if len(mask) != self.num_rows:
            raise ValueError("mask length mismatch")
        return self.delete_rows([i for i, m in enumerate(mask) if not m])

    def delete_rows(self, positions: Sequence[int]) -> int:
        """Remove the rows at ascending ``positions``; returns the count.

        Compacts the columns (and the row-id map) around the removed rows
        and unhooks exactly those rows from every index -- surviving rows
        keep their row ids, so no index is rebuilt or renumbered.
        """
        removed = len(positions)
        total = self.num_rows
        if not removed:
            return 0
        mass = removed * _MASS_DELETE_FRACTION > total
        if mass:
            # nothing references a row id once the indexes are gone
            self._indexes = {}
            self._rids = None
        elif any(index is not None for index in self._indexes.values()):
            if self._rids is None:
                self._rids = list(range(total))
                self._next_rid = total
            rids = self._rids
            for (ci, _), index in self._indexes.items():
                if index is not None:
                    column = self.columns[ci]
                    for position in positions:
                        index.remove(column[position], rids[position])
        vectors = self.columns if self._rids is None else [*self.columns, self._rids]
        if mass:
            dead = set(positions)
            for vector in vectors:
                vector[:] = [v for i, v in enumerate(vector) if i not in dead]
        else:
            for vector in vectors:
                for position in reversed(positions):
                    del vector[position]
        return removed

    def set_cell(self, name: str, row_index: int, value) -> None:
        """Overwrite one cell (UPDATE)."""
        ci = self.schema.index_of(name)
        column = self.columns[ci]
        if self._indexes:
            for kind in ("hash", "ordered"):
                index = self._indexes.get((ci, kind))
                if index is None:
                    continue
                old = column[row_index]
                if old is value or old == value:
                    break  # same bucket, same place in the order
                rid = row_index if self._rids is None else self._rids[row_index]
                index.remove(old, rid)
                if not index.add(value, rid):
                    self._indexes[(ci, kind)] = None
        column[row_index] = value

    def __repr__(self) -> str:
        return f"Table({', '.join(self.schema.names)}; {self.num_rows} rows)"

    def pretty(self, limit: int = 20) -> str:
        """Render a small ASCII table (used by examples and the demo)."""
        names = list(self.schema.names)
        rows = [
            ["" if v is None else str(v) for v in self.row(i)]
            for i in range(min(self.num_rows, limit))
        ]
        widths = [
            max(len(names[j]), *(len(r[j]) for r in rows)) if rows else len(names[j])
            for j in range(len(names))
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        sep = "-+-".join("-" * w for w in widths)
        body = [" | ".join(v.ljust(w) for v, w in zip(r, widths)) for r in rows]
        suffix = [] if self.num_rows <= limit else [f"... ({self.num_rows} rows total)"]
        return "\n".join([header, sep, *body, *suffix])
