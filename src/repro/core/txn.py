"""Per-session MVCC transactions over the snapshot-epoch scheme.

Replaces the server-global single-writer undo slot: every session can
hold its own uncommitted write set at the same time.  The design is
multi-version in the simplest shape that fits the existing engine:

* The committed catalog *is* the only committed version; readers take
  the shared side of the server lock and never block on an open
  transaction (uncommitted work lives entirely outside the catalog).
* A session's transaction keeps a **write set**: a private overlay copy
  of every table it has mutated (copy-on-first-touch), plus the row-id
  key sets the statements touched.  In-transaction statements execute
  against an overlay catalog that shadows the committed one, so a
  session reads its own writes while everyone else reads committed
  state.  Applying a statement only needs the *shared* lock side --
  writers do not block readers either.
* COMMIT validates **first-updater-wins** at row granularity: every
  committed mutation appends a ``(version, touched row keys)`` entry to
  a bounded per-table write log; a committing transaction whose base
  version is stale intersects its updated/deleted keys with everything
  committed since.  A non-empty intersection (or an unkeyable /
  wholesale-replaced table, or a truncated log) raises
  :class:`TransactionConflictError` and discards the transaction.
  Surviving write sets are applied as a *delta* -- overwrite by row-id,
  delete by row-id, append the inserts -- so concurrent inserts into
  the same table all survive.

Row identity is the row-id ciphertext ``(value, nonce)`` pair written by
the encryptor (fresh and unique per inserted row -- the same identity
``shard_migrate_promote`` dedups by).  Tables without a row-id column
fall back to *coarse* conflict detection: any concurrent commit to the
same table conflicts.

Isolation level: **snapshot isolation** (readers see the last committed
state; first-updater-wins write conflicts).  Write-skew anomalies are
possible, as in any SI system; statements inside a transaction evaluate
predicates against the transaction's snapshot plus its own writes.

The cluster tier (``repro.cluster.txn``) builds two-phase commit on the
``txn_prepare`` / ``txn_finalize`` / ``txn_discard`` surface below:
*prepare* validates and stages the delta in hidden catalog relations,
*finalize* applies it idempotently, *discard* drops it -- so a commit
record can re-drive either side after a crash.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Optional

from repro.engine import Engine, Table
from repro.engine.schema import Schema
from repro.obs.metrics import global_metrics
from repro.sql import ast

#: First-updater-wins validation failures, by conflict kind (the
#: retry-pressure signal the TPC-C style workload watches).
_TXN_CONFLICTS = global_metrics().counter(
    "sdb_txn_conflicts_total",
    "transaction validation conflicts, by kind",
)

#: Hidden catalog prefix for a prepared (staged) cluster transaction:
#: ``__txnstage__<token>__<kind>__<table>`` where ``kind`` is ``u``
#: (upsert rows), ``d`` (deleted row-id cells) or ``f`` (full replace).
TXN_STAGING_PREFIX = "__txnstage__"

#: Committed write-log entries retained per table.  A transaction whose
#: base version fell off the log conservatively conflicts.
WRITE_LOG_LIMIT = 256


class TransactionError(RuntimeError):
    """Base class for transaction failures (a RuntimeError for compat)."""


class TransactionStateError(TransactionError):
    """BEGIN inside a transaction, or COMMIT/ROLLBACK outside one."""


class TransactionConflictError(TransactionError):
    """First-updater-wins validation failed; the transaction was discarded.

    The losing session's write set is dropped entirely -- re-issue the
    transaction to retry.  The session layer maps this onto
    ``repro.api.TransactionConflict`` so clients can catch-and-retry.
    """


def _row_key(cell) -> Optional[tuple]:
    """Row identity of a row-id ciphertext; None when unkeyable."""
    try:
        return (cell.value, cell.nonce)
    except AttributeError:
        return None


class OverlayCatalog:
    """A read view where a transaction's write set shadows committed state."""

    def __init__(self, txn: "SessionTransaction", base):
        self._txn = txn
        self._base = base

    def get(self, name: str) -> Table:
        key = name.lower()
        write = self._txn.writes.get(key)
        if write is not None:
            return write.table
        return self._base.get(key)

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._txn.writes or name in self._base

    def names(self):
        seen = list(self._base.names())
        for key in self._txn.writes:
            if key not in seen:
                seen.append(key)
        return seen

    def create(self, *args, **kwargs):
        raise TransactionError("DDL inside a transaction is not supported")

    drop = create


class TableWrite:
    """One table's uncommitted state inside a session transaction."""

    __slots__ = ("name", "base_version", "table", "coarse",
                 "inserted", "updated", "deleted")

    def __init__(self, name: str, base_version: int, table: Table,
                 coarse: bool):
        self.name = name
        self.base_version = base_version
        self.table = table
        #: no usable row identity: conflict at table granularity and
        #: commit by wholesale replace instead of a row delta
        self.coarse = coarse
        self.inserted: set = set()
        self.updated: set = set()
        #: key -> row-id cell (the cell is needed to stage deletions)
        self.deleted: dict = {}

    def escalate(self) -> None:
        self.coarse = True
        self.inserted.clear()
        self.updated.clear()
        self.deleted.clear()


class SessionTransaction:
    """A session's open transaction: overlay engine + write set + redo log."""

    def __init__(self, key, server):
        #: the session id this transaction belongs to (None = anonymous)
        self.key = key
        self._server = server
        self.writes: dict[str, TableWrite] = {}
        #: rewritten DML statements in execution order (WAL commit logging)
        self.redo: list = []
        self.catalog = OverlayCatalog(self, server.catalog)
        self.engine = Engine(self.catalog, server.udfs)

    def apply(self, statement) -> int:
        """Execute one DML statement against the write set (shared lock)."""
        from repro.core.encryptor import ROWID_COLUMN
        from repro.engine import dml as dml_mod

        name = statement.table.lower()
        write = self.writes.get(name)
        if write is None:
            if name not in self._server.catalog:
                # unknown table: let the engine raise its usual DMLError
                return dml_mod.execute_dml(self.engine, statement)
            committed = self._server.catalog.get(name)
            # a private working copy: scanned, never indexed (one index
            # build per transaction would dwarf its handful of statements)
            copy = Table(committed.schema, committed.columns, indexable=False)
            coarse = ROWID_COLUMN not in committed.schema.names
            write = TableWrite(
                name,
                base_version=self._server.txns.table_commit_version(name),
                table=copy,
                coarse=coarse,
            )
            self.writes[name] = write

        indices: list[int] = []
        dead_cells: list = []
        affected = dml_mod.execute_dml(
            self.engine, statement, affected_indices=indices,
            deleted_cells=None if write.coarse else {ROWID_COLUMN: dead_cells},
        )
        self.redo.append(statement)
        if write.coarse:
            return affected

        if isinstance(statement, ast.Delete):
            # the rows are gone: their identity is the captured pre-image
            dead = {_row_key(cell): cell for cell in dead_cells}
            if None in dead:
                write.escalate()
            else:
                for key, cell in dead.items():
                    if key in write.inserted:
                        write.inserted.discard(key)
                        continue
                    write.updated.discard(key)
                    write.deleted[key] = cell
            return affected
        # INSERT appends and UPDATE never moves rows, so the touched
        # cells are still where ``indices`` says
        cells = write.table.column(ROWID_COLUMN)
        keys = {_row_key(cells[i]) for i in indices}
        if None in keys:
            write.escalate()
        elif isinstance(statement, ast.Insert):
            write.inserted |= keys
        else:
            write.updated |= keys - write.inserted
        return affected


class _Delta:
    """A validated write set reduced to its committed effect."""

    __slots__ = ("write", "upserts", "deleted")

    def __init__(self, write: TableWrite, upserts: Optional[Table],
                 deleted: dict):
        self.write = write
        self.upserts = upserts      # None for coarse (wholesale replace)
        self.deleted = deleted      # key -> row-id cell


def _rowid_positions(live: Table, cells) -> list:
    """Position of each row-id cell in ``live`` (None where absent).

    Answered from the table's own row-id hash index -- built once,
    maintained by every write -- so a commit costs O(rows touched), not
    a pass over the table.  Row-id ciphertexts hash by ``(value,
    nonce)``, the same identity :func:`_row_key` uses; a table whose
    row-id cells are not hashable falls back to a one-off map.
    """
    from repro.core.encryptor import ROWID_COLUMN

    index = live.hash_index(ROWID_COLUMN)
    if index is None:
        lookup = {
            _row_key(cell): i
            for i, cell in enumerate(live.column(ROWID_COLUMN))
        }
        return [lookup.get(_row_key(cell)) for cell in cells]
    out = []
    for cell in cells:
        found = live.positions(index.rids((cell,)))
        out.append(found[0] if found else None)
    return out


def apply_delta(live: Table, upserts: Table, deleted_cells) -> None:
    """Apply an upsert/delete delta to a live table, idempotently.

    Rows whose row-id already exists are overwritten in place, missing
    row-ids are appended, the rows of ``deleted_cells`` (row-id cells)
    are dropped.  Re-applying the same delta is a no-op, which is what
    lets a crashed cluster commit be re-driven (:mod:`repro.cluster.txn`).
    """
    from repro.core.encryptor import ROWID_COLUMN

    names = live.schema.names
    appends = []
    positions = _rowid_positions(live, upserts.column(ROWID_COLUMN))
    for j, i in enumerate(positions):
        row = upserts.row(j)
        if i is None:
            appends.append(row)
        else:
            for column, value in zip(names, row):
                live.set_cell(column, i, value)
    dead = {
        i for i in _rowid_positions(live, deleted_cells) if i is not None
    }
    if dead:
        live.delete_rows(sorted(dead))
    if appends:
        live.append_rows(appends)


class TransactionManager:
    """Per-session transactions, commit validation, and 2PC staging.

    All mutating entry points (begin / commit / rollback / prepare /
    finalize / discard, and the autocommit notes) run with the server's
    execution lock held on the *write* side; ``get`` and statement
    application run under either side.  The begin/commit/rollback
    exclusivity is what makes the bookkeeping dicts safe to read from
    concurrent reader threads.
    """

    def __init__(self, server):
        self._server = server
        self._active: dict = {}                 # session key -> txn
        self._versions: dict[str, int] = {}     # table -> commit version
        self._log: dict[str, deque] = {}        # table -> (version, keys)
        self._staged: dict[str, set] = {}       # token -> staged table names
        self._indoubt: dict[str, str] = {}      # table -> preparing token
        # guards session_stats-style micro-state reads from monitoring
        # threads that hold no execution lock (active_sessions below)
        self._mutex = threading.Lock()

    # -- introspection -----------------------------------------------------

    def get(self, session) -> Optional[SessionTransaction]:
        txn = self._active.get(session)
        if txn is None and session is not None:
            # an anonymous (legacy, server-global) transaction claims the
            # whole server: every session reads and writes through it --
            # exactly the pre-session semantics, where BEGIN from the
            # plain proxy surface governed all subsequent statements
            txn = self._active.get(None)
        return txn

    @property
    def any_active(self) -> bool:
        return bool(self._active)

    def active_sessions(self) -> list:
        with self._mutex:
            return list(self._active)

    def table_commit_version(self, name: str) -> int:
        return self._versions.get(name.lower(), 0)

    # -- lifecycle ---------------------------------------------------------

    def begin(self, session) -> SessionTransaction:
        if session is None and self._active:
            # anonymous (legacy, server-global) transactions still claim
            # the whole server: they have no session to scope a write set
            raise TransactionStateError("transaction already in progress")
        if None in self._active:
            # ... and while one is open, no session may start another
            raise TransactionStateError("transaction already in progress")
        if session in self._active:
            raise TransactionStateError("transaction already in progress")
        txn = SessionTransaction(session, self._server)
        with self._mutex:
            self._active[session] = txn
        return txn

    def rollback(self, session) -> SessionTransaction:
        txn = self._require(session)
        self._discard_txn(txn)
        return txn

    def commit(self, session) -> list:
        """Validate and apply; returns the committed table names."""
        txn = self._require(session)
        deltas = self._validate_all(txn)
        for delta in deltas:
            self._apply_committed(delta)
        with self._mutex:
            self._active.pop(txn.key, None)
        if deltas:
            self._server._bump_epoch()
        self._server._log_commit(txn)
        return [delta.write.name for delta in deltas]

    # -- two-phase commit surface (cluster tier) ---------------------------

    def prepare(self, session, token: str) -> dict:
        """Validate and stage this server's delta under ``token``.

        The write set moves from the session into hidden staging
        relations; ``finalize`` (idempotent) applies it, ``discard``
        drops it.  Returns the staged table names and their write-set
        cardinalities (declared transaction-metadata leakage).
        """
        txn = self._require(session)
        deltas = self._validate_all(txn)
        staged: set = set()
        cardinalities: dict[str, int] = {}
        for delta in deltas:
            write = delta.write
            if write.coarse:
                self._server.store_table(
                    _staging_name(token, "f", write.name),
                    write.table, replace=True,
                )
                cardinalities[write.name] = write.table.num_rows
            else:
                rows = 0
                if delta.upserts is not None and delta.upserts.num_rows:
                    self._server.store_table(
                        _staging_name(token, "u", write.name),
                        delta.upserts, replace=True,
                    )
                    rows += delta.upserts.num_rows
                if delta.deleted:
                    self._server.store_table(
                        _staging_name(token, "d", write.name),
                        _deleted_table(write.table, delta.deleted),
                        replace=True,
                    )
                    rows += len(delta.deleted)
                cardinalities[write.name] = rows
            staged.add(write.name)
            self._indoubt[write.name] = token
        with self._mutex:
            self._active.pop(txn.key, None)
        self._staged[token] = staged
        return {"tables": sorted(staged), "cardinalities": cardinalities}

    def finalize(self, token: str) -> int:
        """Apply a staged transaction (idempotent); returns tables applied."""
        from repro.core.encryptor import ROWID_COLUMN

        staged = self._collect_staging(token)
        applied = 0
        for name, parts in sorted(staged.items()):
            if "f" in parts:
                table = self._server.catalog.get(parts["f"])
                self._server.catalog.create(name, table, replace=True)
                self._server._invalidate_snapshots(name)
                self._note_commit(name, None)
            else:
                live = self._server.catalog.get(name)
                upserts = (
                    self._server.catalog.get(parts["u"])
                    if "u" in parts else Table.empty(live.schema)
                )
                deleted_cells = (
                    self._server.catalog.get(parts["d"]).column(ROWID_COLUMN)
                    if "d" in parts else []
                )
                touched = {
                    _row_key(cell)
                    for cell in upserts.column(ROWID_COLUMN)
                } | {_row_key(cell) for cell in deleted_cells}
                apply_delta(live, upserts, deleted_cells)
                self._note_commit(name, frozenset(touched))
            applied += 1
            for staging in parts.values():
                self._server.drop_table(staging)
        self._clear_token(token)
        if applied:
            self._server._bump_epoch()
        return applied

    def discard(self, token: Optional[str] = None) -> int:
        """Drop staged transaction state (idempotent).

        With a token, that transaction's staging; with None, *all* txn
        staging on this server (recovery sweep: anything still staged
        has no commit record, so nobody committed it).
        """
        dropped = 0
        tokens = (
            [token] if token is not None else sorted(self._staging_tokens())
        )
        for tok in tokens:
            staged = self._collect_staging(tok)
            for parts in staged.values():
                for staging in parts.values():
                    self._server.drop_table(staging)
                    dropped += 1
            self._clear_token(tok)
        return dropped

    # -- autocommit bookkeeping --------------------------------------------

    def check_indoubt(self, name: str) -> None:
        """Refuse mutations of a table with a prepared txn staged on it."""
        token = self._indoubt.get(name.lower())
        if token is not None:
            _TXN_CONFLICTS.labels(kind="indoubt").inc()
            raise TransactionConflictError(
                f"table {name!r} has an in-doubt prepared transaction "
                f"({token}); retry after it finalizes or is discarded"
            )

    def note_autocommit(self, name: str, keys: Optional[frozenset]) -> None:
        """Record an autocommit mutation in the table's write log."""
        self._note_commit(name, keys)

    def note_table_replaced(self, name: str) -> None:
        """A wholesale replace (store/drop/append): conflict everything."""
        key = name.lower()
        if key.startswith(TXN_STAGING_PREFIX):
            return
        # only track tables some transaction could be validating against;
        # an unconditional note would grow state for every temp relation
        if key not in self._versions and not self._active:
            return
        self._note_commit(key, None)

    # -- internals ---------------------------------------------------------

    def _require(self, session) -> SessionTransaction:
        txn = self.get(session)  # falls back to an anonymous global txn
        if txn is None:
            raise TransactionStateError("no transaction in progress")
        return txn

    def _discard_txn(self, txn: SessionTransaction) -> None:
        with self._mutex:
            self._active.pop(txn.key, None)
        for name in txn.writes:
            # a pipelined result opened mid-transaction would otherwise
            # serve rows from the discarded write set
            self._server._invalidate_snapshots(name)
        self._server._bump_epoch()

    def _validate_all(self, txn: SessionTransaction) -> list:
        try:
            return [
                self._validate(txn.writes[name])
                for name in sorted(txn.writes)
            ]
        except TransactionError:
            self._discard_txn(txn)
            raise

    def _validate(self, write: TableWrite) -> _Delta:
        from repro.core.encryptor import ROWID_COLUMN

        name = write.name
        self.check_indoubt(name)
        if name not in self._server.catalog:
            _TXN_CONFLICTS.labels(kind="dropped").inc()
            raise TransactionConflictError(
                f"table {name!r} was dropped by a concurrent session"
            )
        current = self._versions.get(name, 0)
        if write.coarse:
            if current != write.base_version:
                _TXN_CONFLICTS.labels(kind="coarse").inc()
                raise TransactionConflictError(
                    f"concurrent commit to {name!r} (no row identity; "
                    "table-granular conflict)"
                )
            return _Delta(write, None, {})
        if current != write.base_version:
            committed = self._committed_keys(
                name, write.base_version, current
            )
            touched = write.updated | set(write.deleted)
            if committed is None or (touched & committed):
                _TXN_CONFLICTS.labels(kind="row").inc()
                raise TransactionConflictError(
                    f"concurrent update to {name!r}: first updater wins; "
                    "re-issue the transaction"
                )
        upsert_keys = write.inserted | write.updated
        if upsert_keys:
            cells = write.table.column(ROWID_COLUMN)
            indices = [
                j for j, cell in enumerate(cells)
                if _row_key(cell) in upsert_keys
            ]
            upserts = write.table.take(indices)
        else:
            upserts = Table.empty(write.table.schema)
        return _Delta(write, upserts, dict(write.deleted))

    def _committed_keys(self, name, base, current) -> Optional[set]:
        entries = self._log.get(name)
        if entries is None:
            return None
        seen: set = set()
        versions = []
        for version, keys in entries:
            if base < version <= current:
                if keys is None:
                    return None  # wholesale replace: unknown touched set
                versions.append(version)
                seen |= keys
        # every commit logs exactly one entry, so coverage of (base,
        # current] must be contiguous; anything missing fell off the
        # bounded log -> conservative conflict
        if len(versions) != current - base:
            return None
        return seen

    def _apply_committed(self, delta: _Delta) -> None:
        write = delta.write
        if write.coarse:
            self._server.catalog.create(
                write.name, write.table, replace=True
            )
            self._server._invalidate_snapshots(write.name)
            self._note_commit(write.name, None)
            return
        live = self._server.catalog.get(write.name)
        apply_delta(live, delta.upserts, list(delta.deleted.values()))
        self._note_commit(
            write.name, frozenset(write.updated | set(delta.deleted))
        )

    def _note_commit(self, name: str, keys: Optional[frozenset]) -> None:
        key = name.lower()
        version = self._versions.get(key, 0) + 1
        self._versions[key] = version
        log = self._log.setdefault(key, deque(maxlen=WRITE_LOG_LIMIT))
        log.append((version, keys))

    def _staging_tokens(self) -> set:
        tokens = set(self._staged)
        for name in self._server.catalog.names():
            if name.startswith(TXN_STAGING_PREFIX):
                rest = name[len(TXN_STAGING_PREFIX):]
                token = rest.split("__", 1)[0]
                tokens.add(token)
        return tokens

    def _collect_staging(self, token: str) -> dict:
        """``{table: {kind: staging_name}}`` for one token, from the catalog.

        Read from the catalog (not in-memory bookkeeping) so a freshly
        restarted server can still finalize or discard what a previous
        incarnation staged.
        """
        prefix = f"{TXN_STAGING_PREFIX}{token}__"
        staged: dict[str, dict] = {}
        for name in list(self._server.catalog.names()):
            if not name.startswith(prefix):
                continue
            kind, base = name[len(prefix):].split("__", 1)
            staged.setdefault(base, {})[kind] = name
        return staged

    def _clear_token(self, token: str) -> None:
        self._staged.pop(token, None)
        for name in [
            n for n, t in self._indoubt.items() if t == token
        ]:
            self._indoubt.pop(name, None)


def _staging_name(token: str, kind: str, table: str) -> str:
    return f"{TXN_STAGING_PREFIX}{token}__{kind}__{table.lower()}"


def _deleted_table(source: Table, deleted: dict) -> Table:
    """A one-column table holding the deleted rows' row-id cells."""
    from repro.core.encryptor import ROWID_COLUMN

    spec = source.schema[ROWID_COLUMN]
    return Table(Schema((spec,)), [list(deleted.values())])
