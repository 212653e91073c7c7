"""Secondary access structures over one table column.

Two shapes, both keyed by *row ids* (see :class:`~repro.engine.table.Table`:
a row id is a row's position until the first delete, and stays put when
deletes compact the rows around it, so an index never has to be renumbered):

* :class:`HashIndex` -- value -> ascending row ids, for ``=`` and ``IN``;
* :class:`OrderedIndex` -- parallel ``(values, rids)`` arrays sorted by
  value then row id, for ``BETWEEN`` and the open ranges; two bisects give
  the exact match count before a single row is touched.

Both replicate the evaluator's comparison semantics (plain Python ``==``
and ``<``) and nothing else, so they only accept columns whose non-NULL
values belong to one comparison family (:func:`value_kind`); anything
mixed, unhashable or NaN-bearing is reported as unindexable and the
planner keeps scanning it.  NULLs are never stored: ``NULL <op> x`` is
never true.

Building returns a fresh object and never touches shared state -- the
table publishes it with one assignment -- while :meth:`add` and
:meth:`remove` mutate in place and therefore belong to the table's
mutation hooks (exclusive side of the server lock) only.
"""

from __future__ import annotations

import datetime
import decimal
from bisect import bisect_left, bisect_right
from typing import Optional, Sequence

#: comparison families: values of one family order and compare among
#: themselves exactly like the evaluator's ``==`` / ``<`` would
_KINDS = {
    int: "num",
    float: "num",
    bool: "num",
    decimal.Decimal: "num",
    str: "str",
    datetime.date: "date",
    datetime.datetime: "datetime",
}

#: families with a total order the evaluator's ``<`` agrees with
_ORDERED_KINDS = frozenset({"num", "str", "date", "datetime"})


def value_kind(value):
    """Comparison family of a non-NULL value.

    Types outside the SQL value domain (row-id ciphertexts, ...) form a
    family of their own: hash lookups on them are still exact, and they
    never meet a literal of the same family in a predicate.
    """
    cls = type(value)
    return _KINDS.get(cls, cls)


def _column_kind(column: Sequence):
    """``(kind, ok)`` for a column's non-NULL values; kind None when empty."""
    kind = None
    for value in column:
        if value is None:
            continue
        this = _KINDS.get(type(value), type(value))  # value_kind, inlined
        if this != kind:
            if kind is not None:
                return None, False
            kind = this
        if value != value:  # NaN: equal to nothing, ordered with nothing
            return None, False
    return kind, True


class HashIndex:
    """value -> ascending row ids."""

    __slots__ = ("kind", "buckets")

    def __init__(self, kind, buckets: dict):
        self.kind = kind
        self.buckets = buckets

    @classmethod
    def build(cls, column: Sequence, rids: Optional[Sequence[int]]):
        """Index ``column``; None when it is not indexable."""
        kind, ok = _column_kind(column)
        if not ok:
            return None
        buckets: dict = {}
        pairs = enumerate(column) if rids is None else zip(rids, column)
        try:
            for rid, value in pairs:
                if value is None:
                    continue
                bucket = buckets.get(value)
                if bucket is None:
                    buckets[value] = [rid]
                else:
                    bucket.append(rid)
        except TypeError:  # unhashable cells
            return None
        return cls(kind, buckets)

    def count(self, values: Sequence) -> int:
        """Exact number of rows equal to any of ``values`` (distinct)."""
        buckets = self.buckets
        return sum(len(buckets.get(value, ())) for value in values)

    def rids(self, values: Sequence) -> list:
        """Ascending row ids of the rows equal to any of ``values``."""
        buckets = self.buckets
        out: list = []
        for value in values:
            out.extend(buckets.get(value, ()))
        if len(values) > 1:
            out.sort()
        return out

    def add(self, value, rid: int) -> bool:
        """Record ``value`` at ``rid``; False when it breaks the family."""
        if value is None:
            return True
        kind = value_kind(value)
        if kind != self.kind:
            if self.kind is not None:
                return False
            self.kind = kind
        try:
            if value != value:
                return False
            bucket = self.buckets.get(value)
            if bucket is None:
                self.buckets[value] = [rid]
            elif rid > bucket[-1]:
                bucket.append(rid)
            else:
                bucket.insert(bisect_left(bucket, rid), rid)
        except TypeError:
            return False
        return True

    def remove(self, value, rid: int) -> None:
        if value is None:
            return
        bucket = self.buckets.get(value)
        if bucket is None:
            return
        at = bisect_left(bucket, rid)
        if at < len(bucket) and bucket[at] == rid:
            if len(bucket) == 1:
                del self.buckets[value]
            else:
                del bucket[at]


class OrderedIndex:
    """Non-NULL values in ascending order, each with its row id."""

    __slots__ = ("kind", "values", "rids")

    def __init__(self, kind, values: list, rids: list):
        self.kind = kind
        self.values = values
        self.rids = rids

    @classmethod
    def build(cls, column: Sequence, rids: Optional[Sequence[int]]):
        """Index ``column``; None when its values have no total order."""
        kind, ok = _column_kind(column)
        if not ok or (kind is not None and kind not in _ORDERED_KINDS):
            return None
        order = [i for i, value in enumerate(column) if value is not None]
        # stable: equal values keep ascending positions, hence ascending rids
        order.sort(key=column.__getitem__)
        values = [column[i] for i in order]
        return cls(kind, values, order if rids is None else [rids[i] for i in order])

    def span(self, low, low_inclusive: bool, high, high_inclusive: bool) -> tuple:
        """``(start, stop)`` of the slice holding ``low <op> value <op> high``;
        ``stop - start`` is the exact match count.  None = unbounded."""
        values = self.values
        if low is None:
            start = 0
        elif low_inclusive:
            start = bisect_left(values, low)
        else:
            start = bisect_right(values, low)
        if high is None:
            stop = len(values)
        elif high_inclusive:
            stop = bisect_right(values, high)
        else:
            stop = bisect_left(values, high)
        return start, max(start, stop)

    def rids_between(self, start: int, stop: int) -> list:
        """Ascending row ids of the rows in ``[start, stop)`` of the order."""
        return sorted(self.rids[start:stop])

    def _locate(self, value, rid: int) -> tuple:
        values = self.values
        start = bisect_left(values, value)
        stop = bisect_right(values, value, start)
        return bisect_left(self.rids, rid, start, stop), stop

    def add(self, value, rid: int) -> bool:
        """Record ``value`` at ``rid``; False when it breaks the family."""
        if value is None:
            return True
        kind = value_kind(value)
        if kind != self.kind:
            if self.kind is not None or kind not in _ORDERED_KINDS:
                return False
            self.kind = kind
        if value != value:
            return False
        at, _ = self._locate(value, rid)
        self.values.insert(at, value)
        self.rids.insert(at, rid)
        return True

    def remove(self, value, rid: int) -> None:
        if value is None or not self.values:
            return
        if value_kind(value) != self.kind:
            return
        at, stop = self._locate(value, rid)
        if at < stop and self.rids[at] == rid:
            del self.values[at]
            del self.rids[at]
