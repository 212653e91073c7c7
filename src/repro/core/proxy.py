"""The SDB proxy at the data owner (paper Figure 2).

Responsibilities, verbatim from Section 2.2:

* storing column keys for sensitive data in its key store;
* accepting SQL queries from the application;
* rewriting operators on sensitive columns to UDFs and submitting the
  rewritten queries to the SP;
* receiving encrypted results and decrypting them with the column keys;
* sending decrypted results back to the application.

The proxy also measures the client/server cost breakdown the demo shows in
step 2 (parse + rewrite + decrypt vs. server execution).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from repro.core.decryptor import Decryptor
from repro.core.encryptor import AUX_COLUMN, ROWID_COLUMN, encrypt_rows, encrypt_table
from repro.core.keystore import KeyStore
from repro.core.meta import ValueType
from repro.core.protocols import ProtocolPolicy
from repro.core.rewriter import RewriteError, Rewriter
from repro.core.server import SDBServer
from repro.crypto.keys import generate_system_keys
from repro.crypto.sies import SIESKey
from repro.engine.expressions import Evaluator, RowScope
from repro.engine.table import Table
from repro.sql import ast
from repro.sql.parser import parse


@dataclass(frozen=True)
class CostBreakdown:
    """Per-query wall-clock split (demo step 2)."""

    parse_s: float
    rewrite_s: float
    server_s: float
    decrypt_s: float

    @property
    def client_s(self) -> float:
        return self.parse_s + self.rewrite_s + self.decrypt_s

    @property
    def total_s(self) -> float:
        return self.client_s + self.server_s

    @property
    def client_fraction(self) -> float:
        total = self.total_s
        return self.client_s / total if total else 0.0


@dataclass(frozen=True)
class QueryResult:
    """A decrypted result plus everything the demo UI displays."""

    table: Table
    rewritten_sql: str
    cost: CostBreakdown
    leakage: tuple[str, ...]
    notes: tuple[str, ...]


@dataclass(frozen=True)
class DMLResult:
    """Outcome of an INSERT/UPDATE/DELETE issued through the proxy."""

    affected: int
    rewritten_sql: str
    cost: CostBreakdown
    leakage: tuple[str, ...]
    notes: tuple[str, ...]


class SDBProxy:
    """The data owner's gateway to the (untrusted) service provider."""

    def __init__(
        self,
        server: SDBServer,
        modulus_bits: int = 256,
        value_bits: int = 64,
        policy: Optional[ProtocolPolicy] = None,
        rng=None,
    ):
        keys = generate_system_keys(
            modulus_bits=modulus_bits, value_bits=value_bits, rng=rng
        )
        sies_key = SIESKey.generate(keys.n, rng=rng)
        self.store = KeyStore(
            keys,
            sies_key,
            routing_key=rng.randbytes(32) if rng is not None else None,
        )
        self.policy = policy or ProtocolPolicy()
        self.rewriter = Rewriter(self.store, policy=self.policy, rng=rng)
        self.server = server
        self._decryptor = Decryptor(self.store)
        self._rng = rng
        self._session = None  # lazily-created default repro.api Connection
        # concurrent sessions share this proxy: serialize the mutable
        # bookkeeping (key-store row counts, transaction deltas) that
        # DML statements update outside the server's own locking
        self._meta_lock = threading.RLock()
        #: per-session num_rows deltas of open transactions: session key ->
        #: {table: net inserted-minus-deleted rows}; reverted on rollback
        #: or commit conflict, dropped on commit
        self._txn_deltas: dict = {}
        # key-epoch lock: a SELECT's cached plan embeds the column keys it
        # was rewritten under, so plan validation + server execution must
        # not interleave with a key rotation re-keying the stored shares.
        # Readers-writer keeps PR 4's read concurrency: SELECT executions
        # share, rotations (rare, administrative or rebalance-driven) are
        # exclusive.  Lock order where both are held: _key_lock, then
        # _meta_lock.
        from repro.core.sync import ReadWriteLock

        self._key_lock = ReadWriteLock()

    def reseed(self, rng) -> None:
        """Swap the randomness used for *future* encryptions.

        Reattaching clients derive identical keys from identical seeds,
        which also leaves their encryption streams in lock-step: two such
        clients would mint the same hidden ``__rowid`` for their i-th
        inserted rows, and row identity must be unique cluster-wide
        (colliding ids make a commit upsert overwrite a foreign row).
        After attaching, every client that intends to *write* must
        diverge its stream with a client-unique rng.  Keys are untouched:
        everything already uploaded still decrypts.
        """
        self._rng = rng
        self.rewriter.rng = rng

    # -- uploads (demo step 1) ----------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence[tuple[str, ValueType]],
        rows: Iterable[Sequence],
        sensitive: Iterable[str] = (),
        rng=None,
        replace: bool = False,
        shard_by: Optional[str] = None,
        colocate: Optional[str] = None,
    ) -> None:
        """Encrypt and upload a table.

        ``shard_by`` hash-partitions the table across a cluster
        (:class:`~repro.cluster.Coordinator` server): each row's shard is
        a keyed PRF of its ``shard_by`` plaintext, computed *here* with
        the key store's routing key, so no service provider ever sees the
        key value -- only which bucket the row landed in.

        ``colocate`` names a colocation group: tables sharded into the
        same group route equal shard-key values to the same shard, which
        lets a join on those keys run entirely shard-local (declared
        leakage: cross-table co-residency within the group).
        """
        if colocate is not None and shard_by is None:
            raise RewriteError("colocate requires shard_by")
        if shard_by is not None:
            # function-local: core must stay importable without the
            # cluster package (which itself builds on repro.core.server)
            from repro.cluster.router import shard_bucket

            if not hasattr(self.server, "store_sharded"):
                raise RewriteError(
                    "shard_by requires a cluster coordinator server "
                    "(see repro.cluster)"
                )
            names = [c for c, _ in columns]
            if shard_by not in names:
                raise RewriteError(
                    f"shard column {shard_by!r} is not in the schema"
                )
            rows = [tuple(row) for row in rows]
            shard_index = names.index(shard_by)
            buckets = [
                shard_bucket(self.store.routing_key, name, shard_by,
                             row[shard_index], group=colocate)
                for row in rows
            ]
        meta, encrypted = encrypt_table(
            self.store.keys,
            self.store.sies_key,
            name,
            columns,
            rows,
            sensitive,
            rng=rng,
        )
        self.store.register_table(meta, replace=replace)
        if shard_by is not None:
            self.server.store_sharded(
                name, encrypted, shard_column=shard_by, buckets=buckets,
                replace=replace, colocate=colocate,
            )
        else:
            self.server.store_table(name, encrypted, replace=replace)

    def drop_table(self, name: str) -> None:
        self.store.drop_table(name)
        self.server.drop_table(name)

    # -- views (proxy-side; the SP only ever sees expanded SQL) --------------

    def create_view(self, name: str, sql: str, replace: bool = False) -> None:
        """Register a named SELECT; queries may use it like a table.

        The definition is validated by rewriting it once (errors surface
        at creation, not first use) and stored in the key store -- the SP
        never learns the view exists.
        """
        from repro.core.rewriter import _reject_unbound_parameters

        parsed = parse(sql)
        # a view definition with ? markers would capture whatever parameters
        # the *outer* query binds -- reject at creation, like any other
        # definition error
        _reject_unbound_parameters(parsed)
        self.store.register_view(name, sql, replace=replace)
        try:
            self.rewriter.rewrite(parsed)
        except Exception:
            self.store.drop_view(name)
            raise

    def drop_view(self, name: str) -> None:
        self.store.drop_view(name)

    # -- queries (demo step 2) ------------------------------------------------

    @property
    def session(self):
        """The proxy's default :class:`repro.api.Connection`.

        ``query``/``execute`` route through it, so even string re-execution
        benefits from the session layer's LRU statement cache; applications
        wanting cursors, prepared statements or streaming fetch should open
        their own connection with :func:`repro.api.connect`.
        """
        if self._session is None:
            from repro.api.connection import Connection

            self._session = Connection(self)
        return self._session

    def query(self, sql: str) -> QueryResult:
        """Parse, rewrite, submit, decrypt -- with a cost breakdown.

        Thin shim over the session layer: the statement cache makes
        repeated strings skip parse + rewrite, and the cost breakdown
        reports only the work this call actually performed.
        """
        return self.session.query(sql)

    # -- DML -----------------------------------------------------------------

    def execute(self, sql: str) -> Union[QueryResult, DMLResult]:
        """Run any supported statement (SELECT, DML, BEGIN/COMMIT/ROLLBACK)."""
        statement = self.session.statement(sql)  # parse once, LRU-cached
        if statement.kind == "select":
            return self.query(sql)
        return self.execute_statement(statement.parsed)

    def execute_statement(
        self, statement: ast.Statement, context=None
    ) -> DMLResult:
        """Run an already-parsed DML or transaction-control statement.

        The session layer's prepared statements bind parameters into their
        parsed AST and enter the pipeline here, skipping re-parse.
        ``context`` is the calling session's
        :class:`~repro.api.backend.ExecutionContext`; its session id tags
        the server submission so a concurrent backend attributes the work
        (and its per-session statistics) correctly.
        """
        session = context.session_id if context is not None else None
        if isinstance(statement, ast.TxnControl):
            return self._execute_txn(statement, session=session)
        if isinstance(statement, ast.CreateTable):
            return self._execute_create(statement)
        if isinstance(statement, ast.AlterCluster):
            return self._execute_alter(statement)
        if isinstance(statement, ast.Insert):
            return self._execute_insert(statement, session=session)
        if isinstance(statement, ast.Update):
            return self._execute_dml(
                statement, self.rewriter.rewrite_update, session=session
            )
        if isinstance(statement, ast.Delete):
            return self._execute_dml(
                statement, self.rewriter.rewrite_delete, session=session
            )
        raise TypeError(
            f"execute_statement cannot run {type(statement).__name__}; "
            "SELECTs go through query() or a session cursor"
        )

    def _execute_txn(
        self, statement: ast.TxnControl, session=None
    ) -> DMLResult:
        """Transaction control, mirrored in the key store's row counts.

        The SP owns the data-side write sets (per session -- see
        :mod:`repro.core.txn`); the proxy only has to keep its
        ``num_rows`` bookkeeping consistent when a transaction's inserts
        and deletes are rolled back or discarded by a commit conflict.
        """
        from repro.core.txn import TransactionError

        t0 = time.perf_counter()
        with self._meta_lock:
            if statement.kind == "begin":
                self.server.begin(session=session)
                self._txn_deltas[session] = {}
            elif statement.kind == "commit":
                try:
                    self.server.commit(session=session)
                except TransactionError:
                    # conflict (or no transaction): the write set is gone
                    # either way -- undo this session's row-count deltas
                    self._revert_txn_deltas(session)
                    raise
                self._txn_deltas.pop(session, None)
            else:
                self.server.rollback(session=session)
                self._revert_txn_deltas(session)
        t1 = time.perf_counter()
        return DMLResult(
            affected=0,
            rewritten_sql=statement.to_sql(),
            cost=CostBreakdown(
                parse_s=0.0, rewrite_s=0.0, server_s=t1 - t0, decrypt_s=0.0
            ),
            leakage=(),
            notes=(f"transaction {statement.kind}",),
        )

    def _note_txn_delta(self, session, table: str, delta: int) -> None:
        # caller holds _meta_lock
        entry = self._txn_deltas.get(session)
        if entry is not None and delta:
            key = table.lower()
            entry[key] = entry.get(key, 0) + delta

    def _revert_txn_deltas(self, session) -> None:
        # caller holds _meta_lock
        deltas = self._txn_deltas.pop(session, None)
        if not deltas:
            return
        for name, delta in deltas.items():
            if name in self.store:
                self.store.table(name).num_rows -= delta

    def _execute_create(self, statement: ast.CreateTable) -> DMLResult:
        """DDL: ``CREATE TABLE ... [SHARD BY (col)]`` as an empty upload.

        The statement never reaches the SP as text; the proxy registers
        the schema, draws column keys for ENCRYPTED columns, and uploads
        an empty (sharded, if asked) relation.  INSERTs then encrypt --
        and, for sharded tables, PRF-route -- through the usual pipeline.
        """
        t0 = time.perf_counter()
        builders = {
            "int": lambda arg: ValueType.int_(),
            "decimal": lambda arg: ValueType.decimal(2 if arg is None else arg),
            "date": lambda arg: ValueType.date(),
            "string": lambda arg: ValueType.string(32 if arg is None else arg),
            "bool": lambda arg: ValueType.bool_(),
        }
        columns = [
            (col.name, builders[col.type_name](col.arg))
            for col in statement.columns
        ]
        sensitive = [col.name for col in statement.columns if col.encrypted]
        t1 = time.perf_counter()
        self.create_table(
            statement.table,
            columns,
            rows=[],
            sensitive=sensitive,
            rng=self._rng,
            shard_by=statement.shard_by,
        )
        t2 = time.perf_counter()
        leakage = tuple(
            f"create: schema of insensitive column {col.name!r}"
            for col in statement.columns
            if not col.encrypted
        )
        notes = [
            f"created table {statement.table} "
            f"({len(sensitive)} encrypted column(s))"
        ]
        if statement.shard_by:
            notes.append(
                f"sharded by PRF({statement.shard_by}) across "
                f"{getattr(self.server, 'num_shards', 1)} shard(s)"
            )
        return DMLResult(
            affected=0,
            rewritten_sql="-- CREATE TABLE runs at the proxy (encrypted upload)",
            cost=CostBreakdown(
                parse_s=t1 - t0, rewrite_s=0.0, server_s=t2 - t1, decrypt_s=0.0
            ),
            leakage=leakage,
            notes=tuple(notes),
        )

    # -- elastic resharding ----------------------------------------------------

    def rebalance(self, target_count: int, *, endpoints=None, **options):
        """Grow or shrink the cluster to ``target_count`` shards, online.

        Drives :func:`repro.cluster.rebalance.rebalance_cluster`: migrated
        rows are re-keyed in flight (fresh row ids via the key-update
        protocol), the commit record makes the change crash-safe, and by
        default every sensitive column of each migrated table is rotated
        to fresh keys afterwards so old-topology ciphertexts are rejected.
        Returns the :class:`~repro.cluster.rebalance.RebalanceReport`.
        """
        # function-local: core must stay importable without the cluster
        # package (which itself builds on repro.core.server)
        from repro.cluster.rebalance import rebalance_cluster

        return rebalance_cluster(
            self, target_count, endpoints=endpoints, **options
        )

    def _execute_alter(self, statement: ast.AlterCluster) -> DMLResult:
        """``ALTER CLUSTER ADD SHARD ['host:port']`` / ``REMOVE SHARD``.

        Like CREATE TABLE, cluster DDL never reaches a service provider as
        text: the proxy resolves it into a topology change one shard up or
        down and drives the online migration.
        """
        current = getattr(self.server, "num_shards", None)
        if current is None:
            raise RewriteError(
                "ALTER CLUSTER requires a cluster coordinator server "
                "(see repro.cluster)"
            )
        if statement.action == "add":
            target = current + 1
            endpoints = [statement.endpoint] if statement.endpoint else None
        else:
            if current <= 1:
                raise RewriteError(
                    "cannot remove the last shard (it is the primary)"
                )
            target = current - 1
            endpoints = None
        t0 = time.perf_counter()
        report = self.rebalance(target, endpoints=endpoints)
        t1 = time.perf_counter()
        return DMLResult(
            affected=report.rows_moved,
            rewritten_sql=(
                "-- ALTER CLUSTER runs at the proxy "
                "(online re-keyed bucket migration)"
            ),
            cost=CostBreakdown(
                parse_s=0.0, rewrite_s=0.0, server_s=t1 - t0, decrypt_s=0.0
            ),
            leakage=report.leakage,
            notes=report.notes,
        )

    def _execute_insert(self, statement: ast.Insert, session=None) -> DMLResult:
        """Encrypt the VALUES rows locally and submit an encrypted INSERT.

        Each inserted row gets a fresh random row id, so two inserts of the
        same plaintext produce unrelated shares -- the property that defeats
        the paper's chosen-plaintext (bank-account) attacker.
        """
        t0 = time.perf_counter()
        from repro.core.rewriter import _reject_unbound_parameters

        _reject_unbound_parameters(statement)
        if statement.table not in self.store:
            raise RewriteError(f"table {statement.table!r} is not uploaded")
        meta = self.store.table(statement.table)
        names = list(meta.columns)
        if statement.columns is not None:
            unknown = [c for c in statement.columns if c not in meta.columns]
            if unknown:
                raise RewriteError(
                    f"table {statement.table!r} has no columns {unknown}"
                )
            positions = {c: i for i, c in enumerate(statement.columns)}
        else:
            positions = {c: i for i, c in enumerate(names)}

        evaluator = Evaluator(None, RowScope({}))
        plain_rows = []
        for value_row in statement.rows:
            if len(value_row) != len(positions):
                raise RewriteError("INSERT row width mismatch")
            try:
                values = [evaluator.evaluate(v) for v in value_row]
            except Exception as exc:
                raise RewriteError(
                    f"INSERT values must be constant expressions: {exc}"
                ) from exc
            plain_rows.append(
                tuple(
                    values[positions[name]] if name in positions else None
                    for name in names
                )
            )
        t1 = time.perf_counter()
        # encryption through submission holds the proxy meta lock: a
        # concurrent key rotation (administrative or rebalance-driven)
        # must never land between drawing shares under the current column
        # keys and the server applying them -- rows encrypted under a key
        # that was already rotated away would be undecryptable
        with self._meta_lock:
            encrypted = encrypt_rows(
                self.store.keys, self.store.sies_key, meta, plain_rows,
                rng=self._rng,
            )
            rewritten = ast.Insert(
                table=statement.table,
                columns=tuple(names) + (ROWID_COLUMN, AUX_COLUMN),
                rows=tuple(
                    tuple(ast.Literal(cell) for cell in row) for row in encrypted
                ),
            )
            t2 = time.perf_counter()
            shard_leakage = ()
            shard_column = getattr(self.server, "shard_column", None)
            shard_col = (
                shard_column(statement.table) if callable(shard_column) else None
            )
            if shard_col is not None:
                # cluster deployment, sharded table: route each encrypted
                # row by the PRF bucket of its (plaintext) shard-key value
                from repro.cluster.router import shard_bucket

                colocation = getattr(self.server, "shard_colocation", None)
                group = (
                    colocation(statement.table) if callable(colocation)
                    else None
                )
                shard_index = names.index(shard_col)
                buckets = [
                    shard_bucket(self.store.routing_key, statement.table,
                                 shard_col, row[shard_index], group=group)
                    for row in plain_rows
                ]
                affected = self.server.insert_routed(
                    rewritten, buckets, session=session
                )
                shard_leakage = (
                    f"shard: PRF bucket of {shard_col!r} routes each row "
                    "(SP learns the shard, not the value)",
                )
            else:
                affected = self.server.execute_dml(rewritten, session=session)
            t3 = time.perf_counter()
            meta.num_rows += affected
            self._note_txn_delta(session, statement.table, affected)
        insensitive = [
            c.name for c in meta.columns.values() if not c.sensitive
        ]
        leakage = tuple(
            f"insert: plaintext of insensitive column {name!r}"
            for name in insensitive
        ) + (f"insert: row count {affected}",) + shard_leakage
        return DMLResult(
            affected=affected,
            rewritten_sql=rewritten.to_sql(),
            cost=CostBreakdown(
                parse_s=t1 - t0, rewrite_s=t2 - t1, server_s=t3 - t2, decrypt_s=0.0
            ),
            leakage=leakage,
            notes=("values encrypted at the proxy with fresh row ids",),
        )

    def _execute_dml(self, statement, rewrite, session=None) -> DMLResult:
        t0 = time.perf_counter()
        # rewrite + submit under the meta lock: the rewritten statement
        # embeds masks and key-update parameters derived from the current
        # column keys, so a concurrent rotation must not land in between
        with self._meta_lock:
            plan = rewrite(statement)
            t1 = time.perf_counter()
            affected = self.server.execute_dml(plan.statement, session=session)
        t2 = time.perf_counter()
        meta = self.store.table(statement.table)
        if isinstance(statement, ast.Delete):
            with self._meta_lock:
                meta.num_rows -= affected
                self._note_txn_delta(session, statement.table, -affected)
        return DMLResult(
            affected=affected,
            rewritten_sql=plan.sql,
            cost=CostBreakdown(
                parse_s=0.0, rewrite_s=t1 - t0, server_s=t2 - t1, decrypt_s=0.0
            ),
            leakage=plan.leakage,
            notes=plan.notes,
        )

    # -- key management -----------------------------------------------------------

    def rotate_column_key(self, table: str, column: str) -> DMLResult:
        """Re-encrypt one sensitive column under a fresh key, SP-side only.

        This is the key-update protocol used as an administrative
        operation: the proxy draws a fresh column key, derives the public
        parameters ``(p, q)`` and submits one UPDATE whose assignment is a
        single ``sdb_keyupdate`` call over the column and its auxiliary
        ``S`` column.  The ciphertexts never leave the SP, no plaintext is
        touched, and a copy of the *old* key (say, from a compromised
        backup of the key store) can no longer decrypt the column.
        """
        from repro.crypto import keyops
        from repro.crypto.keyops import KeyExpr

        meta = self.store.table(table)
        column_meta = meta.column(column)
        if not column_meta.sensitive:
            raise RewriteError(f"column {column!r} is not sensitive")
        new_key = self.store.keys.random_column_key(self._rng)
        params = keyops.key_update_params(
            self.store.keys,
            KeyExpr.from_column_key(column_meta.key, table),
            KeyExpr.from_column_key(new_key, table),
            {table: meta.aux_key},
        )
        return self._apply_rotation(meta, column, column_meta, new_key, params)

    def rotate_aux_key(self, table: str) -> DMLResult:
        """Re-key the auxiliary ``S`` column itself.

        ``S`` (an encryption of 1) is its own key-update helper: the update
        expression references the pre-rotation ``__s`` cells, and SQL UPDATE
        semantics evaluate assignments against the original row.
        """
        from repro.crypto import keyops
        from repro.crypto.keyops import KeyExpr

        meta = self.store.table(table)
        new_key = keyops.aux_column_key(self.store.keys, self._rng)
        params = keyops.key_update_params(
            self.store.keys,
            KeyExpr.from_column_key(meta.aux_key, table),
            KeyExpr.from_column_key(new_key, table),
            {table: meta.aux_key},
        )
        # lock order: key-epoch write, then meta (both re-entrant) -- the
        # SP update and both key swaps form one atomic step
        with self._key_lock.write_locked(), self._meta_lock:
            result = self._apply_rotation(meta, "__s", None, new_key, params)
            meta.aux_key = new_key
        return result

    def _apply_rotation(self, meta, column, column_meta, new_key, params) -> DMLResult:
        import dataclasses

        n = self.store.keys.n
        args = [ast.Column(column), ast.Literal(params.p), ast.Literal(n)]
        for _, q in params.q_by_source:
            args.append(ast.Column("__s"))
            args.append(ast.Literal(q))
        statement = ast.Update(
            table=meta.name,
            assignments=(
                ast.Assignment(
                    column=column,
                    value=ast.FuncCall("sdb_keyupdate", tuple(args)),
                ),
            ),
            where=None,
        )
        t0 = time.perf_counter()
        # the SP-side update and the key-store swap are one atomic step
        # w.r.t. any statement that uses the current keys: the exclusive
        # key-epoch side fences off in-flight SELECT executions (whose
        # plans embed the retiring keys), the meta lock fences DML
        # encryption/rewriting -- without this, a concurrent INSERT could
        # ship shares drawn under the key being retired, and a concurrent
        # SELECT could decrypt re-keyed shares with its stale plan
        with self._key_lock.write_locked(), self._meta_lock:
            affected = self.server.execute_dml(statement)
            if column_meta is not None:
                meta.columns[column] = dataclasses.replace(
                    column_meta, key=new_key
                )
            # cached rewrite plans embed key-update parameters derived
            # from the old key; force prepared statements to re-rewrite
            self.store.bump_version()
        t1 = time.perf_counter()
        return DMLResult(
            affected=affected,
            rewritten_sql=statement.to_sql(),
            cost=CostBreakdown(
                parse_s=0.0, rewrite_s=0.0, server_s=t1 - t0, decrypt_s=0.0
            ),
            leakage=(),
            notes=(
                f"column {meta.name}.{column} re-keyed at the SP; "
                "old key can no longer decrypt",
            ),
        )

    # -- inspection ---------------------------------------------------------------

    def explain(self, sql: str):
        """Dry-run: the rewritten statement and decryption plan for ``sql``."""
        from repro.core.explain import explain

        return explain(self, sql)

    def plan(self, sql: str):
        """The structured plan tree for ``sql`` (rewrite + routing), unexecuted."""
        from repro.core.explain import plan

        return plan(self, sql)

    # -- key store inspection (demo step 1) --------------------------------------

    def key_store_bytes(self) -> int:
        return self.store.size_bytes()
