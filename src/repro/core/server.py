"""The service-provider side: an unmodified engine plus SDB UDFs.

Matches paper Section 2.2: the SP stores plain values of insensitive data
and the secret shares of sensitive data, processes rewritten queries, and
returns encrypted results.  The server also supports *instrumentation*: a
transcript of everything an SP-resident attacker could observe (stored
relations, submitted queries, UDF inputs/outputs), which powers the demo's
memory-dump step and the security experiments.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.sync import ReadWriteLock
from repro.core.txn import TransactionManager, _row_key
from repro.core.udfs import AGGREGATE_UDFS, SCALAR_UDFS, register_sdb_udfs
from repro.engine import Catalog, Engine, Table
from repro.engine.executor import PreparedResult
from repro.engine.udf import UDFRegistry, rows_from_args
from repro.sql import ast


#: Shard-side staging relation for an in-flight topology migration: rows
#: re-keyed for the *new* topology accumulate here, invisible to queries,
#: until the rebalance commit record promotes them into the live slice.
MIGRATION_STAGING_PREFIX = "__reshard__"

#: Hidden column storing each row's routing residue on cluster shard
#: slices (written by the coordinator; see ``repro.cluster.router``).
BUCKET_COLUMN = "__bucket"


class ServerBusyError(RuntimeError):
    """Admission control rejected the request: the session pool is full.

    Raised instead of queueing unboundedly when a session already has its
    maximum number of statements in flight (net daemon dispatch queues,
    coordinator scatter admission).  The session layer maps it onto
    ``repro.api.OperationalError`` -- a client sees "server busy" and may
    retry; the server never grows an unbounded thread or queue backlog.
    """


class StaleSnapshotError(RuntimeError):
    """A pipelined result set outlived the snapshot it was opened against.

    Generator-backed (streaming) results snapshot their source columns at
    execute time, so ordinary DML landing between fetches cannot corrupt
    them (pinned by the streaming tests).  What a snapshot *cannot*
    survive is its provenance being rewritten wholesale: a transaction
    rollback restoring the table, or the table being dropped/re-created.
    Fetching from a streaming result after such an invalidation raises
    this error instead of silently serving rows from a state that no
    longer (officially) ever existed.  The session layer maps it onto
    ``repro.api.OperationalError``; materialized results are immune.
    """


@dataclass
class Transcript:
    """What an attacker sitting on the SP can see (QR knowledge)."""

    queries: list = field(default_factory=list)      # rewritten SQL strings
    results: list = field(default_factory=list)      # result tables
    udf_values: list = field(default_factory=list)   # sampled UDF in/outputs

    def clear(self) -> None:
        self.queries.clear()
        self.results.clear()
        self.udf_values.clear()


class _MaterializedResult:
    """An open result backed by a fully computed table (the general case)."""

    def __init__(self, table: Table):
        self.table = table
        self.offset = 0
        # a result normally belongs to one session, but nothing stops two
        # wire requests from fetching the same result id; the old global
        # server lock serialized that, so the per-result lock keeps it safe
        self._fetch_lock = threading.Lock()

    def fetch(self, count: Optional[int]) -> Table:
        with self._fetch_lock:
            stop = None if count is None else self.offset + count
            chunk = self.table.slice(self.offset, stop)
            self.offset += chunk.num_rows
            return chunk


class _StreamingResult:
    """An open result backed by a row generator (pipelined execution).

    Rows are produced by the engine only as the client fetches them: a
    ``fetch_rows(id, 10)`` on a million-row scan evaluates exactly the
    rows needed to emit ten outputs.  Chunk schemas are inferred per chunk
    with the same rules the materializing path applies to whole results.
    """

    def __init__(
        self, names: Sequence[str], rows, source: str = "", version: int = 0,
        info=None,
    ):
        self._names = list(names)
        self._rows = rows
        #: the pipeline's ExecInfo; its row generator updates it in flight
        self.info = info
        #: source table and its snapshot version at open (stale-read guard)
        self.source = source
        self.version = version
        # concurrent fetches of one result id must not race the generator
        # ("generator already executing"); the old global lock prevented it
        self._fetch_lock = threading.Lock()

    def fetch(self, count: Optional[int]) -> Table:
        with self._fetch_lock:
            return self._fetch_locked(count)

    def _fetch_locked(self, count: Optional[int]) -> Table:
        from repro.engine.columnar import infer_column_spec
        from repro.engine.schema import Schema

        out = []
        if count is None:
            out = list(self._rows)
        elif count > 0:  # count=0 is an empty chunk, like slice(o, o)
            for row in self._rows:
                out.append(row)
                if len(out) >= count:
                    break
        columns = [[row[i] for row in out] for i in range(len(self._names))]
        specs = tuple(
            infer_column_spec(name, column)
            for name, column in zip(self._names, columns)
        )
        chunk = Table.adopting(Schema(specs), columns)
        # a segment may have fallen back to the row interpreter while
        # producing this chunk: report the state as of now
        chunk.exec_info = self.info
        return chunk


class SDBServer:
    """A relational engine with the SDB UDF set installed.

    ``parallel_partitions`` switches the engine to the partition-parallel
    executor (:mod:`repro.engine.parallel`): eligible queries run as
    partial + merge over that many partitions with task retry; everything
    else silently takes the serial path.
    """

    def __init__(
        self,
        instrument: bool = False,
        udf_sample_limit: int = 10000,
        parallel_partitions: int = 0,
        shard_id: Optional[int] = None,
    ):
        #: identity within a sharded cluster (None for standalone servers);
        #: assigned at construction or by the coordinator's first shard_store
        self.shard_id = shard_id
        #: per-table placement metadata recorded by SHARD_STORE ops
        self.shard_placements: dict[str, dict] = {}
        self.catalog = Catalog()
        self.udfs = UDFRegistry()
        register_sdb_udfs(self.udfs)
        # Instrumented servers run the row path: the transcript's
        # per-UDF-call observable is defined by row-at-a-time execution,
        # and a batch attempt that errors and falls back would record its
        # partial UDF traffic on top of the row re-run's.
        batch_enabled = not instrument
        if parallel_partitions:
            from repro.engine.parallel import ParallelEngine

            self.engine = ParallelEngine(
                self.catalog, self.udfs, num_partitions=parallel_partitions,
                batch_enabled=batch_enabled,
            )
        else:
            self.engine = Engine(self.catalog, self.udfs, batch_enabled=batch_enabled)
        self.transcript = Transcript()
        self._instrument = instrument
        self._udf_sample_limit = udf_sample_limit
        # Readers-writer execution lock: read-only statements against the
        # current snapshot epoch run concurrently; DML/DDL/rollback take
        # the write side exclusively and bump the epoch.  Instrumented
        # servers still serialize everything -- their transcript ordering
        # is part of the observable.
        self._lock = ReadWriteLock()
        #: monotonically increasing data version; bumped by every mutation
        self._epoch = 0
        #: per-table snapshot versions, bumped only when a snapshot taken
        #: earlier can no longer be served honestly (rollback restore,
        #: drop, re-create) -- ordinary DML keeps snapshots valid
        self._table_versions: dict[str, int] = {}
        # fast mutex for handle tables and other micro-state (never held
        # across engine execution)
        self._state_lock = threading.Lock()
        #: per-session MVCC transactions (write sets, conflict validation,
        #: 2PC staging) -- see :mod:`repro.core.txn`
        self.txns = TransactionManager(self)
        # prepared statements and open (streamable) result sets
        self._prepared: dict[int, ast.Select] = {}
        #: open result sets: materialized tables or pipelined row generators
        self._results: dict[int, object] = {}
        self._handle_ids = itertools.count(1)
        #: per-session statement counters, keyed by the ExecutionContext /
        #: wire session id that submitted the work (None: anonymous).
        #: LRU-bounded: a long-lived daemon serving many short-lived
        #: connections must not grow one entry per historical session.
        self.session_stats: "OrderedDict" = OrderedDict()
        self.session_stats_limit = 512
        if instrument:
            self._wrap_udfs()

    # -- snapshot epochs / sessions ---------------------------------------------

    @property
    def epoch(self) -> int:
        """The current snapshot epoch (bumped by every data mutation)."""
        return self._epoch

    def _bump_epoch(self) -> None:
        # only ever called with the write side held
        self._epoch += 1

    def _invalidate_snapshots(self, name: str) -> None:
        """Mark open streaming snapshots of ``name`` as unservable."""
        key = name.lower()
        self._table_versions[key] = self._table_versions.get(key, 0) + 1

    def _table_version(self, name: str) -> int:
        return self._table_versions.get(name.lower(), 0)

    def _note_session(self, session, kind: str) -> None:
        if session is None:
            return
        with self._state_lock:
            stats = self.session_stats.setdefault(
                session, {"reads": 0, "writes": 0}
            )
            stats[kind] += 1
            self.session_stats.move_to_end(session)
            while len(self.session_stats) > self.session_stats_limit:
                self.session_stats.popitem(last=False)

    def session_stats_snapshot(self) -> dict:
        """A consistent copy of the per-session counters (wire-safe)."""
        with self._state_lock:
            return {
                key: dict(stats) for key, stats in self.session_stats.items()
            }

    def _read_side(self):
        """The lock guard for read-only statements.

        Instrumented servers run exclusively even for reads: the
        transcript is an ordered record of what an SP-resident attacker
        observes, and interleaved appends would scramble it.
        """
        if self._instrument:
            return self._lock.write_locked()
        return self._lock.read_locked()

    # -- storage -----------------------------------------------------------

    def store_table(self, name: str, table: Table, replace: bool = False) -> None:
        with self._lock.write_locked():
            self.catalog.create(name, table, replace=replace)
            # a plain store is placement-less: re-creating a once-sharded
            # table must not leave stale slice metadata behind (SHARD_STORE
            # re-adds it)
            self.shard_placements.pop(name.lower(), None)
            self._bump_epoch()
            self._invalidate_snapshots(name)
            self.txns.note_table_replaced(name)

    def drop_table(self, name: str) -> None:
        with self._lock.write_locked():
            self.catalog.drop(name)
            self.shard_placements.pop(name.lower(), None)
            self._bump_epoch()
            self._invalidate_snapshots(name)
            self.txns.note_table_replaced(name)

    # -- shard surface (SHARD_* wire ops; coordinator-facing) ------------------
    #
    # A shard is just an SDBServer that also remembers *why* it holds each
    # relation (its slice index and shard column within a cluster
    # placement -- metadata a reattaching coordinator rebuilds routing
    # from).  The shard never sees the routing PRF key or any shard-key
    # plaintext: the coordinator ships pre-partitioned encrypted slices,
    # so a shard learns which rows landed on it and which column routed
    # them -- exactly the declared PRF-bucket leakage.

    def shard_store(
        self,
        name: str,
        table: Table,
        placement: Optional[dict] = None,
        replace: bool = False,
    ) -> int:
        """Store one placement slice; returns its row count."""
        with self._lock.write_locked():
            self.store_table(name, table, replace=replace)
            if placement:
                self.shard_placements[name.lower()] = dict(placement)
                if self.shard_id is None and "index" in placement:
                    self.shard_id = int(placement["index"])
            return table.num_rows

    def shard_dump(
        self,
        name: str,
        offset: Optional[int] = None,
        count: Optional[int] = None,
    ) -> Table:
        """The stored relation, schema-exact (gather for fallback queries).

        With ``offset``/``count`` this returns one contiguous row window
        ``[offset, offset + count)``, letting the coordinator stream a
        gather in bounded chunks instead of materializing the whole slice
        in one frame.  ``offset=None`` keeps the legacy whole-table form
        (a zero-copy handle when called in-process).
        """
        with self._lock.read_locked():
            table = self.catalog.get(name)
            if offset is None:
                return table
            stop = table.num_rows if count is None else offset + count
            return table.slice(offset, stop)

    def append_table(self, name: str, table: Table) -> int:
        """Append rows to a stored relation, creating it when absent.

        The receive side of a chunked gather: the first chunk arrives via
        ``store_table(replace=True)``, subsequent chunks via this append.
        Placement metadata is left untouched -- appending to a gather
        target never changes why a shard holds the base relation.
        """
        with self._lock.write_locked():
            if name not in self.catalog:
                self.catalog.create(name, table)
                appended = table.num_rows
            else:
                appended = self.catalog.get(name).append_rows(table.rows())
            self._bump_epoch()
            self._invalidate_snapshots(name)
            self.txns.note_table_replaced(name)
            return appended

    def shard_status(self) -> dict:
        """Identity and holdings, as reported over the SHARD_STATUS op."""
        with self._lock.read_locked():
            return {
                "shard_id": self.shard_id,
                "tables": {
                    name: self.catalog.get(name).num_rows
                    for name in self.catalog.names()
                },
                "placements": {
                    name: dict(p) for name, p in self.shard_placements.items()
                },
            }

    def ping(self) -> bool:
        """Liveness probe -- same surface as the remote client's PING op,
        so failure detectors treat in-process and wire backends alike."""
        return True

    def catalog_names(self) -> list:
        """Stored relation names (the CATALOG wire op, in-process)."""
        with self._lock.read_locked():
            return list(self.catalog.names())

    def health(self) -> dict:
        """Cheap liveness + progress summary for replica health checks."""
        with self._lock.read_locked():
            return {
                "shard_id": self.shard_id,
                "epoch": self._epoch,
                "tables": len(self.catalog.names()),
            }

    def execute_partial(self, query, session=None) -> Table:
        """Run one scatter partial query (same trust surface as execute)."""
        return self.execute(query, session=session)

    # -- shard migration (SHARD_MIGRATE_* wire ops; elastic resharding) --------
    #
    # During an elastic rebalance the coordinator streams bucket chunks
    # shard -> shard: the source shard *extracts* movers (selected purely
    # by their stored routing residues -- the shard still never sees the
    # PRF key or any shard-key value), the DO re-keys them in flight, and
    # the destination shard *stages* them in an invisible relation.  The
    # commit record then *promotes* staged rows into the live slice and
    # *purges* movers from the sources.  Promote is idempotent (staged
    # rows carry fresh, unique row-id ciphertexts and are deduplicated
    # against the live slice), and purge is a pure function of stored
    # residues, so a crashed commit can be re-driven safely.

    def _staging_name(self, name: str) -> str:
        return MIGRATION_STAGING_PREFIX + name.lower()

    def _routing_residues(self, name: str, table: Table) -> list:
        if BUCKET_COLUMN not in table.schema.names:
            raise ValueError(
                f"table {name!r} stores no routing residues "
                f"({BUCKET_COLUMN}); it cannot be migrated"
            )
        residues = table.column(BUCKET_COLUMN)
        if any(not isinstance(residue, int) for residue in residues):
            raise ValueError(
                f"table {name!r} has rows without a routing residue"
            )
        return residues

    def shard_migrate_extract(
        self,
        name: str,
        num_chunks: int,
        chunk: int,
        old_modulus: int,
        new_modulus: int,
        old_weights=None,
        new_weights=None,
    ) -> Table:
        """The chunk's movers: rows this slice loses under the new topology.

        Selected entirely from stored residues: ``residue % num_chunks ==
        chunk`` and the old/new shard assignments differ.  Weighted
        topologies ship their small weight tuples instead of full maps --
        both sides rebuild the identical deterministic map from them
        (:func:`repro.cluster.router.shard_map_for`).  Read-only -- the
        rows stay live here until the commit purge.
        """
        from repro.cluster.router import shard_map_for

        old_map = shard_map_for(old_modulus, old_weights)
        new_map = shard_map_for(new_modulus, new_weights)
        with self._lock.read_locked():
            table = self.catalog.get(name)
            residues = self._routing_residues(name, table)
            indices = [
                i
                for i, residue in enumerate(residues)
                if residue % num_chunks == chunk
                and new_map.shard_of(residue) != old_map.shard_of(residue)
            ]
            return table.take(indices)

    def shard_migrate_stage(
        self, name: str, table: Table, placement: Optional[dict] = None
    ) -> int:
        """Append re-keyed mover rows to the staging relation; returns its size."""
        staging = self._staging_name(name)
        with self._lock.write_locked():
            if staging in self.catalog:
                existing = self.catalog.get(staging)
                columns = [
                    list(old) + list(new)
                    for old, new in zip(existing.columns, table.columns)
                ]
                table = Table(existing.schema, columns)
                if placement is None:
                    placement = self.shard_placements.get(staging)
            self.shard_store(
                name=staging, table=table, placement=placement, replace=True
            )
            return table.num_rows

    def shard_migrate_unstage(self, name: str, num_chunks: int, chunk: int) -> int:
        """Drop one chunk's staged rows (the chunk went dirty; it re-copies)."""
        staging = self._staging_name(name)
        with self._lock.write_locked():
            if staging not in self.catalog:
                return 0
            table = self.catalog.get(staging)
            residues = self._routing_residues(staging, table)
            keep = [
                i
                for i, residue in enumerate(residues)
                if residue % num_chunks != chunk
            ]
            removed = table.num_rows - len(keep)
            if removed:
                placement = self.shard_placements.get(staging)
                self.shard_store(
                    staging, table.take(keep), placement=placement, replace=True
                )
            return removed

    def shard_migrate_promote(
        self, name: str, placement: Optional[dict] = None
    ) -> int:
        """Merge staged rows into the live slice (idempotent); returns count.

        Staged rows are deduplicated against the live slice by their
        row-id ciphertexts (fresh and unique per re-keyed row), so a
        commit that crashed between promote and the staging drop can be
        promoted again without duplicating rows.
        """
        from repro.core.encryptor import ROWID_COLUMN

        staging = self._staging_name(name)
        with self._lock.write_locked():
            if staging not in self.catalog:
                if placement and name.lower() in self.catalog:
                    # re-driven commit: staging already promoted; still
                    # refresh the slice's placement for the new topology
                    self.shard_placements[name.lower()] = dict(placement)
                return 0
            staged = self.catalog.get(staging)
            if name.lower() in self.catalog:
                live = self.catalog.get(name)
                seen = {
                    (c.value, c.nonce) for c in live.column(ROWID_COLUMN)
                }
                fresh = [
                    i
                    for i, c in enumerate(staged.column(ROWID_COLUMN))
                    if (c.value, c.nonce) not in seen
                ]
                additions = staged.take(fresh)
                columns = [
                    list(old) + list(new)
                    for old, new in zip(live.columns, additions.columns)
                ]
                merged = Table(live.schema, columns)
                promoted = additions.num_rows
            else:
                merged = staged
                promoted = staged.num_rows
            if placement is None:
                placement = self.shard_placements.get(name.lower())
            self.shard_store(name, merged, placement=placement, replace=True)
            self.drop_table(staging)
            return promoted

    def shard_migrate_purge(
        self,
        name: str,
        modulus: int,
        keep_index: int,
        placement: Optional[dict] = None,
        weights=None,
    ) -> int:
        """Delete rows the new topology places elsewhere; returns the count.

        A pure function of stored residues (idempotent): keep exactly the
        rows the (possibly weighted) new topology assigns to
        ``keep_index``.
        """
        from repro.cluster.router import shard_map_for

        keep_map = shard_map_for(modulus, weights)
        with self._lock.write_locked():
            if name.lower() not in self.catalog:
                return 0
            table = self.catalog.get(name)
            residues = self._routing_residues(name, table)
            keep = [
                i
                for i, residue in enumerate(residues)
                if keep_map.shard_of(residue) == keep_index
            ]
            removed = table.num_rows - len(keep)
            if placement is None:
                placement = self.shard_placements.get(name.lower())
            if removed or placement is not None:
                self.shard_store(
                    name, table.take(keep), placement=placement, replace=True
                )
            return removed

    def shard_migrate_abort(self, name: str) -> bool:
        """Drop the staging relation, if any (rebalance rolled back)."""
        staging = self._staging_name(name)
        with self._lock.write_locked():
            if staging not in self.catalog:
                return False
            self.drop_table(staging)
            return True

    # -- query processing --------------------------------------------------------

    def execute(self, query, session=None) -> Table:
        """Run a (rewritten) query.  The SP never sees keys or plaintext.

        Read-only: takes the shared side of the execution lock, so
        statements from different sessions run concurrently against the
        current snapshot epoch.  A session with an open transaction
        reads through its write-set overlay (read-your-writes); every
        other session sees only committed state.
        """
        self._note_session(session, "reads")
        with self._read_side():
            if self._instrument:
                sql = query if isinstance(query, str) else query.to_sql()
                self.transcript.queries.append(sql)
            txn = self.txns.get(session)
            engine = self.engine if txn is None else txn.engine
            result = engine.execute(query)
            if self._instrument:
                self.transcript.results.append(result)
            return result

    def execute_dml(self, statement, session=None) -> int:
        """Run a (rewritten) INSERT/UPDATE/DELETE; returns affected rows.

        Autocommit statements take the exclusive side of the execution
        lock, apply, and bump the snapshot epoch -- the bump happens
        only after a *successful* apply, so a failing statement leaves
        open pipelined result sets valid.  Inside a transaction the
        statement lands in the session's private write set under the
        *shared* lock side: an in-flight writer never blocks readers
        (or other writers) on other sessions.
        """
        self._note_session(session, "writes")
        sql = None
        if self._instrument:
            sql = statement if isinstance(statement, str) else statement.to_sql()
        if isinstance(statement, str):
            from repro.sql.parser import parse_statement

            statement = parse_statement(statement)
        with self._read_side():
            txn = self.txns.get(session)
            if txn is not None:
                if self._instrument:
                    self.transcript.queries.append(sql)
                return txn.apply(statement)
        with self._lock.write_locked():
            txn = self.txns.get(session)  # re-check: BEGIN may have raced
            if txn is not None:
                if self._instrument:
                    self.transcript.queries.append(sql)
                return txn.apply(statement)
            if self._instrument:
                self.transcript.queries.append(sql)
            self.txns.check_indoubt(statement.table)
            affected = self._autocommit_dml(statement)
            self._bump_epoch()
            return affected

    def _autocommit_dml(self, statement) -> int:
        """Apply one autocommit statement and record its write-log entry.

        The write log is what lets an open transaction detect that a
        plain (non-transactional) writer touched its rows: autocommit
        UPDATE/DELETE log the affected row-id keys, INSERT logs an empty
        entry (fresh rows conflict with nobody), and tables without row
        identity log a wholesale entry that conflicts with everything.
        """
        from repro.core.encryptor import ROWID_COLUMN
        from repro.engine.dml import execute_dml as run_dml

        if not self.txns.any_active:
            # common non-transactional path: nobody is validating, so
            # skip the bookkeeping entirely
            return self.engine.execute_dml(statement)
        name = statement.table.lower()
        table = self.catalog.get(name) if name in self.catalog else None
        keyed = (
            table is not None and ROWID_COLUMN in table.schema.names
        )
        indices: list[int] = []
        cells: list = []  # a DELETE's pre-image: its rows are gone afterwards
        affected = run_dml(
            self.engine, statement, affected_indices=indices,
            deleted_cells={ROWID_COLUMN: cells} if keyed else None,
        )
        keys: Optional[frozenset] = None
        if keyed:
            if isinstance(statement, ast.Insert):
                keys = frozenset()
            else:
                if isinstance(statement, ast.Update):
                    # UPDATE never moves rows: the touched cells are in place
                    column = table.column(ROWID_COLUMN)
                    cells = [column[i] for i in indices]
                touched = {_row_key(cell) for cell in cells}
                keys = None if None in touched else frozenset(touched)
        self.txns.note_autocommit(name, keys)
        return affected

    # -- prepared statements / streaming results ------------------------------
    #
    # The session layer (repro.api) prepares a rewritten query once and
    # executes it many times with bound parameters; results stay at the SP
    # and stream back in fetch-sized chunks so the proxy only decrypts what
    # the application actually reads.  The same four entry points back the
    # networked deployment's PREPARE / EXECUTE_PREPARED / FETCH / CLOSE ops.

    def prepare_query(self, query, session=None) -> int:
        """Register a (rewritten) SELECT; returns a statement handle."""
        if isinstance(query, str):
            from repro.sql.parser import parse

            query = parse(query)
        if not isinstance(query, ast.Select):
            raise ValueError("prepare_query expects a SELECT")
        with self._state_lock:
            stmt_id = next(self._handle_ids)
            self._prepared[stmt_id] = query
            return stmt_id

    def execute_prepared(
        self, stmt_id: int, params: Sequence = (), session=None
    ) -> PreparedResult:
        """Bind ``params`` and run; returns ``(result_id, num_rows)``.

        The result stays server-side until fetched or closed;
        ``fetch_rows`` streams it out in chunks.  Streamable queries
        (single-table scan/filter/project shapes, see
        :meth:`~repro.engine.executor.Engine.execute_iter`) are *pipelined*:
        rows are produced only as they are fetched, so ``num_rows`` comes
        back as ``-1`` (unknown until the scan is drained).  Everything
        else -- and every instrumented server, whose transcript is defined
        over whole results -- materializes as before.
        """
        from repro.sql.params import bind_parameters

        with self._state_lock:
            try:
                query = self._prepared[stmt_id]
            except KeyError:
                raise KeyError(f"unknown prepared statement {stmt_id}") from None
        bound = bind_parameters(query, params)
        if not self._instrument:
            txn = self.txns.get(session)
            engine = self.engine if txn is None else txn.engine
            execute_iter = getattr(engine, "execute_iter", None)
            if execute_iter is not None:
                # open the pipeline under the read side: the snapshot of
                # the column lists must not interleave with a writer, and
                # the epoch it is tagged with must match that snapshot
                with self._read_side():
                    pipeline = execute_iter(bound)
                    if pipeline is not None:
                        self._note_session(session, "reads")
                        source = bound.from_clause.name.lower()
                        entry = _StreamingResult(
                            pipeline.names, pipeline.rows, source=source,
                            version=self._table_version(source),
                            info=pipeline.info,
                        )
                        with self._state_lock:
                            result_id = next(self._handle_ids)
                            self._results[result_id] = entry
                        return PreparedResult(result_id, -1, pipeline.info)
        # the session must survive to ``execute``: it selects the
        # transaction overlay engine, not just the stats bucket
        result = self.execute(bound, session=session)
        with self._state_lock:
            result_id = next(self._handle_ids)
            self._results[result_id] = _MaterializedResult(result)
        return PreparedResult(result_id, result.num_rows, result.exec_info)

    def fetch_rows(self, result_id: int, count: Optional[int] = None) -> Table:
        """Next chunk of an open result (all remaining when ``count`` is None).

        Pipelined results evaluate rows *here*, under the read side of the
        execution lock, against the snapshot taken at execute time.
        Ordinary DML keeps that snapshot valid (the column lists were
        copied); a rollback restore or a drop/re-create of the source
        table does not, and such a fetch raises
        :class:`StaleSnapshotError` instead of mixing epochs.
        Materialized results were computed atomically and fetch lock-free.
        """
        with self._state_lock:
            try:
                entry = self._results[result_id]
            except KeyError:
                raise KeyError(f"unknown result set {result_id}") from None
        if isinstance(entry, _StreamingResult):
            with self._read_side():
                if entry.version != self._table_version(entry.source):
                    raise StaleSnapshotError(
                        f"pipelined result {result_id} over {entry.source!r} "
                        "was invalidated by a rollback or table re-creation; "
                        "re-execute the statement"
                    )
                return entry.fetch(count)
        return entry.fetch(count)

    def close_result(self, result_id: int) -> None:
        with self._state_lock:
            self._results.pop(result_id, None)

    def close_prepared(self, stmt_id: int) -> None:
        with self._state_lock:
            self._prepared.pop(stmt_id, None)

    # -- transactions ---------------------------------------------------------
    #
    # Per-session MVCC transactions (see repro.core.txn): BEGIN opens a
    # private write set for the session, statements apply to it under the
    # shared lock side, readers on other sessions keep seeing committed
    # state, and COMMIT validates first-updater-wins before folding the
    # delta into the catalog.  ``session=None`` is the legacy anonymous
    # transaction, which still claims the whole server.

    def begin(self, session=None) -> None:
        with self._lock.write_locked():
            self.txns.begin(session)

    def commit(self, session=None) -> None:
        with self._lock.write_locked():
            self.txns.commit(session)

    def rollback(self, session=None) -> None:
        with self._lock.write_locked():
            self.txns.rollback(session)

    @property
    def in_transaction(self) -> bool:
        return self.txns.any_active

    def _log_commit(self, txn) -> None:
        """Durability hook: called with the write lock held, after a
        transaction's delta was folded into the catalog.  The durable
        subclass writes the transaction's redo log to the WAL here."""

    # -- cluster atomic commit (TXN_* wire ops; see repro.cluster.txn) --------
    #
    # Two-phase commit building blocks.  Prepare validates the session's
    # write set and stages its delta in hidden catalog relations under a
    # coordinator-chosen token; finalize applies a staged delta
    # idempotently; discard drops it.  Either side can be re-driven
    # after a crash, which is what makes the coordinator's commit-record
    # recovery (roll forward or discard) safe.

    def txn_prepare(self, token: str, session=None) -> dict:
        with self._lock.write_locked():
            return self.txns.prepare(session, token)

    def txn_finalize(self, token: str) -> int:
        with self._lock.write_locked():
            return self.txns.finalize(token)

    def txn_discard(self, token=None) -> int:
        with self._lock.write_locked():
            return self.txns.discard(token)

    # -- attacker surface ------------------------------------------------------------

    def memory_dump(self) -> dict:
        """Everything currently observable at the SP.

        ``disk``: stored relations (DB knowledge).  ``memory``: transient
        values observed during computation (QR knowledge) -- queries,
        results and sampled UDF traffic when instrumented.
        """
        return {
            "disk": {
                name: self.catalog.get(name) for name in self.catalog.names()
            },
            "memory": {
                "queries": list(self.transcript.queries),
                "results": list(self.transcript.results),
                "udf_values": list(self.transcript.udf_values),
            },
        }

    def _wrap_udfs(self) -> None:
        for name in list(SCALAR_UDFS):
            original = self.udfs.scalar(name)

            def wrapped(*args, _original=original, _name=name):
                result = _original(*args)
                if len(self.transcript.udf_values) < self._udf_sample_limit:
                    self.transcript.udf_values.append(
                        (_name, args, result)
                    )
                return result

            self.udfs.register_scalar(name, wrapped, replace=True)

            # Instrumented servers disable the batch path above, but the
            # registry is shared -- any engine built on it later must not
            # bypass the wrapper through a batch registration, so route
            # batches through the wrapped scalar row by row.
            if self.udfs.has_batch(name):

                def batch_wrapped(num_rows, *args, _scalar=wrapped):
                    return [
                        _scalar(*row) for row in rows_from_args(num_rows, args)
                    ]

                self.udfs.register_batch(name, batch_wrapped, replace=True)
