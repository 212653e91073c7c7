"""The DO-side connection to a remote SP.

:class:`RemoteServer` speaks :mod:`repro.net.protocol` and exposes the
same surface as the in-process :class:`repro.core.server.SDBServer`
(``store_table`` / ``drop_table`` / ``execute`` / ``execute_dml``), so

    proxy = SDBProxy(RemoteServer.connect(host, port))

gives the paper's two-machine deployment with no proxy changes.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time

from repro.api.exceptions import ShardUnavailableError
from repro.engine.executor import ExecInfo, PreparedResult
from repro.engine.table import Table
from repro.net import protocol
from repro.obs.trace import SPANS_KEY, TRACE_KEY, current_span
from repro.sql import ast


def _server_exception_types() -> dict:
    """Exception classes the SP may raise, keyed by type name.

    The daemon tags every error response with the original type name
    (``error_type``); re-raising the same class here makes remote error
    paths indistinguishable from in-process ones -- the differential tests
    pin this.
    """
    import builtins

    from repro.core.server import ServerBusyError, StaleSnapshotError
    from repro.core.txn import (
        TransactionConflictError,
        TransactionError,
        TransactionStateError,
    )
    from repro.engine.catalog import CatalogError
    from repro.engine.dml import DMLError
    from repro.engine.executor import ExecutionError
    from repro.engine.expressions import EvaluationError
    from repro.engine.udf import UDFError
    from repro.sql.lexer import LexError
    from repro.sql.params import BindError
    from repro.sql.parser import ParseError

    named = (
        ParseError, LexError, BindError, ExecutionError, DMLError,
        EvaluationError, CatalogError, UDFError, StaleSnapshotError,
        ServerBusyError, TransactionConflictError, TransactionStateError,
        TransactionError,
    )
    registry = {cls.__name__: cls for cls in named}
    for name in ("ValueError", "KeyError", "TypeError", "RuntimeError"):
        registry[name] = getattr(builtins, name)
    return registry


def prepared_result(body: dict) -> PreparedResult:
    """An ``execute_prepared`` response body as the in-process return value
    (``exec`` is absent from daemons that predate execution reports)."""
    info = body.get("exec")
    return PreparedResult(
        int(body["result"]), int(body["num_rows"]),
        ExecInfo.from_wire(info) if info is not None else None,
    )


class RemoteServer:
    """A proxy-side handle on a networked SP.

    Every request carries a request ``id`` and this client's ``session``
    tag, so the daemon dispatches it on its session-keyed pool: two
    RemoteServers against the same daemon execute concurrently (subject
    to the server's readers-writer lock), where the legacy protocol
    serialized them behind one global statement lock.  This client keeps
    one request in flight at a time; the asyncio tier's wire client
    pipelines.
    """

    def __init__(self, sock: socket.socket, session_id=None):
        from repro.api.backend import next_session_id

        self._sock = sock
        self._lock = threading.Lock()
        self._request_ids = itertools.count(1)
        #: wire session identity (defaults to a fresh ExecutionContext id)
        self.session_id = session_id if session_id is not None else next_session_id()
        self.bytes_sent = 0
        self.bytes_received = 0
        self._dead = False
        try:
            self.endpoint = "%s:%d" % sock.getpeername()[:2]
        except OSError:
            self.endpoint = "<unknown>"

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        timeout: float = 10.0,
        retries: int = 0,
        backoff: float = 0.2,
    ) -> "RemoteServer":
        """Connect, optionally retrying with exponential backoff.

        ``retries`` extra attempts are made after the first failure,
        sleeping ``backoff * 2**attempt`` seconds between them; the final
        failure surfaces as :class:`ShardUnavailableError`.
        """
        last: Exception | None = None
        for attempt in range(max(0, retries) + 1):
            try:
                sock = socket.create_connection((host, port), timeout=timeout)
                return cls(sock)
            except OSError as exc:
                last = exc
                if attempt < retries:
                    time.sleep(backoff * (2**attempt))
        raise ShardUnavailableError(
            f"cannot connect to {host}:{port}: {last}"
        ) from last

    def close(self) -> None:
        self._dead = True
        self._sock.close()

    def __enter__(self) -> "RemoteServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request plumbing -----------------------------------------------------

    def _call(self, op: str, session=None, **args):
        request = {"op": op, **args}
        # trace propagation: the ambient span's identity rides the request
        # so the daemon's spans stitch under it; absent when tracing is off
        # (and legacy daemons ignore the extra key)
        span = current_span()
        if span is not None:
            request[TRACE_KEY] = span.context()
        with self._lock:
            if self._dead:
                raise ShardUnavailableError(
                    f"connection to {self.endpoint} is closed"
                )
            request_id = next(self._request_ids)
            request["id"] = request_id
            request["session"] = self.session_id if session is None else session
            try:
                self.bytes_sent += protocol.send_message(self._sock, request)
                response = protocol.recv_message(self._sock)
            except (OSError, protocol.NetError) as exc:
                # Transport loss mid-call: the frame stream is unusable
                # (a reply may be half-read), so poison the handle -- every
                # later call fast-fails with the same typed error instead
                # of a raw OSError.
                self._dead = True
                try:
                    self._sock.close()
                except OSError:
                    pass
                raise ShardUnavailableError(
                    f"lost connection to {self.endpoint} during {op!r}: {exc}"
                ) from exc
        if response.get("id") not in (None, request_id):
            raise protocol.NetError(
                f"out-of-order response: expected {request_id}, "
                f"got {response.get('id')}"
            )
        self.bytes_received += len(repr(response))
        if span is not None:
            # daemon-side spans piggyback on the response (error or ok:
            # the daemon's work happened either way)
            span.tracer.absorb(response.get(SPANS_KEY))
        if "error" in response:
            exc_type = _server_exception_types().get(response.get("error_type"))
            if exc_type is not None:
                raise exc_type(response.get("error_message", response["error"]))
            raise protocol.NetError(response["error"])
        return response["ok"]

    # -- SDBServer surface -----------------------------------------------------

    def ping(self) -> bool:
        return self._call("ping") == "pong"

    def health(self) -> dict:
        """One-round-trip liveness + catch-up probe (failure detector food)."""
        return self._call("health")

    def store_table(self, name: str, table: Table, replace: bool = False) -> None:
        self._call(
            "store_table",
            name=name,
            table=protocol.encode_value(table),
            replace=replace,
        )

    def drop_table(self, name: str) -> None:
        self._call("drop_table", name=name)

    def execute(self, query, session=None) -> Table:
        sql = query if isinstance(query, str) else query.to_sql()
        return protocol.decode_value(
            self._call("execute", sql=sql, session=session)
        )

    def execute_dml(self, statement, session=None) -> int:
        """Submit DML.

        INSERTs go as structured rows (their literals include SIES
        ciphertexts, which have no SQL text form); UPDATE/DELETE go as the
        rewritten SQL text.
        """
        if isinstance(statement, ast.Insert):
            rows = []
            for value_row in statement.rows:
                cells = []
                for expr in value_row:
                    if not isinstance(expr, ast.Literal):
                        raise protocol.NetError(
                            "remote INSERT requires literal values"
                        )
                    cells.append(protocol.encode_value(expr.value))
                rows.append(cells)
            return self._call(
                "insert_rows",
                name=statement.table,
                columns=list(statement.columns or ()),
                rows=rows,
                session=session,
            )
        sql = statement if isinstance(statement, str) else statement.to_sql()
        return self._call("execute_dml", sql=sql, session=session)

    def begin(self, session=None) -> None:
        self._call("txn", action="begin", session=session)

    def commit(self, session=None) -> None:
        self._call("txn", action="commit", session=session)

    def rollback(self, session=None) -> None:
        self._call("txn", action="rollback", session=session)

    def txn_prepare(self, token: str, session=None) -> dict:
        """Stage the session's write set under ``token`` (2PC phase one)."""
        return self._call("txn_prepare", token=token, session=session)

    def txn_finalize(self, token: str) -> int:
        return self._call("txn_finalize", token=token)

    def txn_discard(self, token=None) -> int:
        return self._call("txn_discard", token=token)

    def catalog_names(self) -> list[str]:
        return self._call("catalog")

    def session_stats(self) -> dict:
        """Per-session statement counters, as recorded by the daemon."""
        return self._call("session_stats")

    def metrics(self) -> dict:
        """The daemon's metrics-registry snapshot (JSON form)."""
        return self._call("metrics")

    def metrics_text(self) -> str:
        """The daemon's metrics in Prometheus text exposition format."""
        return str(self._call("metrics_text"))

    def slow_queries(self) -> list:
        """The daemon's slow-query log entries (empty when disabled)."""
        return list(self._call("slow_queries"))

    def epoch(self) -> int:
        """The daemon's current snapshot epoch (one round trip).

        Deliberately a method, not a property: the session layer snapshots
        ``server.epoch`` opportunistically after executions when it is a
        plain attribute, and a property here would turn that into a wire
        round trip per statement.
        """
        return int(self._call("epoch"))

    # -- SHARD_* operations (used by the cluster coordinator) -------------------

    def shard_status(self) -> dict:
        return self._call("shard_status")

    def shard_store(
        self, name: str, table: Table, placement=None, replace: bool = False
    ) -> int:
        return int(
            self._call(
                "shard_store",
                name=name,
                table=protocol.encode_value(table),
                placement=placement,
                replace=replace,
            )
        )

    def shard_dump(
        self, name: str, offset=None, count=None
    ) -> Table:
        return protocol.decode_value(
            self._call("shard_dump", name=name, offset=offset, count=count)
        )

    def append_table(self, name: str, table: Table) -> int:
        return int(
            self._call(
                "append_table",
                name=name,
                table=protocol.encode_value(table),
            )
        )

    def execute_partial(self, query, session=None) -> Table:
        sql = query if isinstance(query, str) else query.to_sql()
        return protocol.decode_value(
            self._call("shard_partial", sql=sql, session=session)
        )

    # -- SHARD_MIGRATE_* operations (elastic resharding) -------------------------

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
        return protocol.decode_value(
            self._call(
                "shard_migrate_extract",
                name=name,
                num_chunks=num_chunks,
                chunk=chunk,
                old_modulus=old_modulus,
                new_modulus=new_modulus,
                old_weights=list(old_weights) if old_weights else None,
                new_weights=list(new_weights) if new_weights else None,
            )
        )

    def shard_migrate_stage(
        self, name: str, table: Table, placement=None
    ) -> int:
        return int(
            self._call(
                "shard_migrate_stage",
                name=name,
                table=protocol.encode_value(table),
                placement=placement,
            )
        )

    def shard_migrate_unstage(self, name: str, num_chunks: int, chunk: int) -> int:
        return int(
            self._call(
                "shard_migrate_unstage",
                name=name, num_chunks=num_chunks, chunk=chunk,
            )
        )

    def shard_migrate_promote(self, name: str, placement=None) -> int:
        return int(
            self._call(
                "shard_migrate_promote", name=name, placement=placement
            )
        )

    def shard_migrate_purge(
        self, name: str, modulus: int, keep_index: int, placement=None, weights=None
    ) -> int:
        return int(
            self._call(
                "shard_migrate_purge",
                name=name, modulus=modulus, keep_index=keep_index,
                placement=placement,
                weights=list(weights) if weights else None,
            )
        )

    def shard_migrate_abort(self, name: str) -> bool:
        return bool(self._call("shard_migrate_abort", name=name))

    # -- prepared statements / streaming fetch ---------------------------------
    #
    # PREPARE ships the (rewritten) SQL text once; EXECUTE_PREPARED then
    # carries only the parameter bindings, and FETCH streams the encrypted
    # result back chunk by chunk -- the wire never re-transmits the query.

    def prepare_query(self, query, session=None) -> int:
        sql = query if isinstance(query, str) else query.to_sql()
        return int(self._call("prepare", sql=sql, session=session))

    def execute_prepared(
        self, stmt_id: int, params=(), session=None
    ) -> PreparedResult:
        body = self._call(
            "execute_prepared",
            stmt=stmt_id,
            params=[protocol.encode_value(p) for p in params],
            session=session,
        )
        return prepared_result(body)

    def fetch_rows(self, result_id: int, count=None) -> Table:
        return protocol.decode_value(
            self._call("fetch", result=result_id, count=count)
        )

    def close_result(self, result_id: int) -> None:
        self._call("close_result", result=result_id)

    def close_prepared(self, stmt_id: int) -> None:
        self._call("close_prepared", stmt=stmt_id)
