"""Fixture: index work under the read side (mutation-under-read-lock).

Readers may *build* a secondary index lazily -- on a private object,
published with one assignment -- but only writers (the exclusive side)
may change a published index or the table in place.
"""

from repro.core.sync import ReadWriteLock


class Shard:
    def __init__(self, table):
        self._lock = ReadWriteLock()
        self.table = table

    def _refresh_bucket(self, table, row):
        table.set_cell("k", row, 0)

    def bad_maintain_under_read(self, row):
        with self._lock.read_locked():
            self.table.set_cell("k", row, 0)

    def bad_maintain_one_call_away(self, row):
        # in-place mutation through a helper: exercises the may-mutate chains
        with self._lock.read_locked():
            self._refresh_bucket(self.table, row)

    def ok_build_then_publish_under_read(self, key):
        with self._lock.read_locked():
            index = {}
            for position, value in enumerate(self.table.column("k")):
                index.setdefault(value, []).append(position)
            self.table._publish_index(key, index)

    def ok_maintain_under_write(self, row):
        with self._lock.write_locked():
            self.table.set_cell("k", row, 0)
            self.table.delete_rows([row])
