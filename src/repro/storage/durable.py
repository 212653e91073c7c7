"""A crash-safe SP: SDBServer + disk catalog + write-ahead log.

Lifecycle:

* ``store_table`` persists the encrypted relation to disk, then installs
  it in memory (an upload is its own checkpoint);
* ``execute_dml`` appends to the WAL *before* applying (write-ahead);
* ``checkpoint()`` rewrites every dirty table file and truncates the WAL;
* ``DurableServer(directory)`` on a directory with existing state
  performs recovery: load checkpointed tables, replay the WAL.

This is the "fault-tolerance ... provided by the underlying engine" part
of the paper's new architecture (Section 2.2), built from first
principles instead of inherited from Spark.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.server import SDBServer
from repro.engine.table import Table
from repro.storage.disk import DiskCatalog
from repro.storage.wal import WriteAheadLog


class DurableServer(SDBServer):
    """An SDBServer whose state survives restarts."""

    def __init__(self, directory):
        super().__init__()
        self.directory = Path(directory)
        self.disk = DiskCatalog(self.directory / "tables")
        self.wal = WriteAheadLog(self.directory / "wal.log")
        self._dirty: set[str] = set()
        self._recover()
        self._load_placements()

    # -- recovery ------------------------------------------------------------

    def _recover(self) -> None:
        """Load checkpointed tables and replay *committed* DML on top.

        Statements between a BEGIN and its COMMIT apply atomically at the
        commit marker; a BEGIN without a COMMIT (crash mid-transaction) or
        with an explicit ROLLBACK marker is discarded wholesale.
        """
        from repro.sql import ast

        for name in self.disk.names():
            self.catalog.create(name, self.disk.load(name), replace=True)
        replayed = 0
        pending: list = []
        in_txn = False
        for statement in self.wal.entries():
            if isinstance(statement, ast.TxnControl):
                if statement.kind == "begin":
                    in_txn = True
                    pending = []
                elif statement.kind == "commit":
                    for buffered in pending:
                        self.engine.execute_dml(buffered)
                        replayed += 1
                    in_txn = False
                    pending = []
                else:  # rollback
                    in_txn = False
                    pending = []
                continue
            if in_txn:
                pending.append(statement)
            else:
                self.engine.execute_dml(statement)
                replayed += 1
        if replayed:
            self._dirty.update(self.catalog.names())
        self.recovered_statements = replayed

    # -- SDBServer surface, made durable ------------------------------------------

    def store_table(self, name: str, table: Table, replace: bool = False) -> None:
        with self._lock.write_locked():
            super().store_table(name, table, replace=replace)
            self.disk.save(name, table)
            self._dirty.discard(name.lower())
            self._save_placements()

    def append_table(self, name: str, table: Table) -> int:
        with self._lock.write_locked():
            appended = super().append_table(name, table)
            self.disk.save(name, self.catalog.get(name))
            self._dirty.discard(name.lower())
            return appended

    def drop_table(self, name: str) -> None:
        with self._lock.write_locked():
            super().drop_table(name)
            if name.lower() in self.disk:
                self.disk.delete(name)
            self._dirty.discard(name.lower())
            self._save_placements()

    # -- shard surface, made durable -----------------------------------------------
    #
    # A restarted shard daemon recovers its table slices from disk; the
    # placement metadata recorded by SHARD_STORE must survive with them,
    # or a reattaching coordinator would classify the table as
    # primary-resident and silently query one shard's slice.

    def shard_store(self, name, table, placement=None, replace=False) -> int:
        with self._lock.write_locked():
            count = super().shard_store(
                name, table, placement=placement, replace=replace
            )
            self._save_placements()
            return count

    def _placements_path(self) -> Path:
        return self.directory / "placements.json"

    def _save_placements(self) -> None:
        import json

        payload = {"shard_id": self.shard_id, "tables": self.shard_placements}
        self._placements_path().write_text(json.dumps(payload))

    def _load_placements(self) -> None:
        import json

        path = self._placements_path()
        if not path.exists():
            return
        payload = json.loads(path.read_text())
        if self.shard_id is None and payload.get("shard_id") is not None:
            self.shard_id = int(payload["shard_id"])
        self.shard_placements.update(
            {name.lower(): dict(p) for name, p in payload["tables"].items()}
        )

    def execute_dml(self, statement, session=None) -> int:
        if isinstance(statement, str):
            from repro.sql.parser import parse_statement

            statement = parse_statement(statement)
        if self.txns.get(session) is not None:
            # in-transaction: the statement lands in the session's
            # private write set only; it reaches the WAL at commit time
            # as part of one contiguous BEGIN/redo/COMMIT block (see
            # _log_commit), so an uncommitted or rolled-back transaction
            # never touches the log at all
            return super().execute_dml(statement, session=session)
        with self._lock.write_locked():
            if self.txns.get(session) is not None:  # BEGIN raced in
                return super().execute_dml(statement, session=session)
            self.wal.append(statement)  # write-ahead: log first, apply second
            affected = super().execute_dml(statement, session=session)
            self._dirty.add(statement.table.lower())
            return affected

    # -- transactions -------------------------------------------------------------------

    # Every WAL append happens under the server's exclusive write lock
    # (re-entrant, so the nested super() call is fine): with concurrent
    # sessions, an append outside the lock could record statements in a
    # different order than they applied, and replay would diverge.

    def _log_commit(self, txn) -> None:
        """Write a committed transaction's redo log as one WAL block.

        Called by the transaction manager with the write lock held, right
        after the write set's delta folded into the catalog: concurrent
        sessions' transactions land in the log whole, in commit order, so
        recovery replays each atomically at its COMMIT marker.  (Replay
        re-executes the statements; for the phantom cases snapshot
        isolation permits this matches commit-order serial execution,
        which is also how the pinned recovery tests define the oracle.)
        """
        from repro.sql import ast

        if not txn.redo:
            return
        self.wal.append(ast.TxnControl(kind="begin"))
        for statement in txn.redo:
            self.wal.append(statement)
            self._dirty.add(statement.table.lower())
        self.wal.append(ast.TxnControl(kind="commit"))

    # -- checkpointing -----------------------------------------------------------------

    def checkpoint(self) -> int:
        """Flush dirty tables to disk and truncate the WAL.

        Returns the number of table files rewritten.  After a checkpoint,
        recovery needs no replay.
        """
        if self.in_transaction:
            raise RuntimeError("cannot checkpoint inside a transaction")
        flushed = 0
        for name in sorted(self._dirty):
            if name in self.catalog:
                self.disk.save(name, self.catalog.get(name))
                flushed += 1
        self._dirty.clear()
        self.wal.truncate()
        return flushed

    def close(self) -> None:
        self.wal.close()
