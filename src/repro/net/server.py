"""The SP as a network daemon (the demo's machine ``MSP``).

Wraps an :class:`repro.core.server.SDBServer` behind a TCP listener
speaking the :mod:`repro.net.protocol` frame format.  The daemon is
exactly as trusted as the in-process server -- i.e. not at all: it only
ever sees encrypted uploads and rewritten queries.  Every op is served by
one generic decode -> call -> encode over its row of the op table
(:data:`repro.net.protocol.OPS`); nothing here is per-op.

Concurrency model: every connected client gets a reader thread, but the
*work* runs on one shared thread pool keyed by **session**.  A request
carrying a request ``id`` (and optionally a ``session`` tag -- the wire
form of the client's :class:`~repro.api.backend.ExecutionContext` id) is
dispatched to the pool; requests of the same session execute in submission
order, while different sessions run concurrently -- the underlying
:class:`SDBServer` readers-writer lock then lets read-only statements
overlap and serializes mutations.  Responses echo the request ``id`` and
may return out of order, which is what lets a pipelining client (the
asyncio tier) keep several requests in flight on one socket.  Requests
without an ``id`` are handled inline on the reader thread, exactly like
the pre-session protocol (legacy clients keep working unchanged).
"""

from __future__ import annotations

import socketserver
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from typing import Optional

from repro.core.server import SDBServer, ServerBusyError
from repro.net import protocol
from repro.obs.metrics import DEFAULT_BUCKETS, global_metrics, render_prometheus
from repro.obs.slowlog import SlowQueryLog
from repro.obs.trace import NOOP_SPAN, SPANS_KEY, TRACE_KEY, Tracer
from repro.sql import ast

#: Wall time per dispatched wire operation, by op name (shape-only).
_OP_SECONDS = global_metrics().histogram(
    "sdb_server_op_seconds",
    "daemon-side wall time per wire operation",
    buckets=DEFAULT_BUCKETS,
)

#: Requests refused because a session's dispatch queue was full.
_ADMIT_REJECTS = global_metrics().counter(
    "sdb_admission_rejections_total",
    "statements refused by admission control, by layer",
)


class _RequestHandler(socketserver.BaseRequestHandler):
    """One connected client; work is dispatched to the session pool."""

    def setup(self) -> None:
        # handles created over this connection, released on disconnect
        self._stmt_ids: set[int] = set()
        self._result_ids: set[int] = set()
        # pool tasks still in flight for this connection
        self._pending: set[Future] = set()
        self._pending_lock = threading.Lock()
        # one frame on the wire at a time, even with out-of-order responses
        self._send_lock = threading.Lock()

    def finish(self) -> None:
        # drain in-flight work before releasing its handles: a task may
        # still be fetching from a result set this loop would close
        with self._pending_lock:
            pending = list(self._pending)
        if pending:
            wait(pending)
        for result_id in self._result_ids:
            self._sdb.close_result(result_id)
        for stmt_id in self._stmt_ids:
            self._sdb.close_prepared(stmt_id)

    def handle(self) -> None:
        while True:
            try:
                request = protocol.recv_message(self.request)
            except protocol.NetError:
                return  # peer closed the connection
            request_id = request.get("id")
            if request_id is None:
                # legacy one-at-a-time path: dispatch inline, respond now
                response = self._dispatch(request)
                if not self._send(response):
                    return
                continue
            self._submit(request, request_id)

    def _submit(self, request: dict, request_id) -> None:
        session_key = request.get("session")
        if session_key is None:
            session_key = f"conn-{id(self)}"
        else:
            session_key = f"session-{session_key}"

        # admission control: a session's dispatch queue is bounded; the
        # overflow request is answered immediately with a typed busy
        # error instead of growing the backlog without limit
        if not self.server.admit_session_request(session_key):
            busy = ServerBusyError(
                "server busy: session queue full "
                f"(limit {self.server.max_session_queue})"
            )
            self._send({"id": request_id, **protocol.error_response(busy)})
            return

        def task():
            response = self._dispatch(request)
            response["id"] = request_id
            self._send(response)

        future = self.server.submit_session_task(session_key, task)
        with self._pending_lock:
            self._pending.add(future)
        future.add_done_callback(self._forget)
        future.add_done_callback(
            lambda _f, key=session_key: self.server.release_session_request(key)
        )

    def _forget(self, future: Future) -> None:
        with self._pending_lock:
            self._pending.discard(future)

    def _send(self, response: dict) -> bool:
        try:
            with self._send_lock:
                protocol.send_message(self.request, response)
            return True
        except OSError:
            return False

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        ctx = request.get(TRACE_KEY)
        # trace stitching: a request carrying a trace context gets its own
        # throwaway tracer -- the daemon span opens under the *client's*
        # span id, and every span finished during this request rides back
        # on the response (the daemon retains nothing).  Legacy requests
        # (no context) skip all of it.
        tracer = Tracer(enabled=True, capacity=256) if isinstance(ctx, dict) else None
        span_cm = (
            tracer.span(f"sp:{op}", parent_ctx=ctx, origin="daemon")
            if tracer is not None
            else NOOP_SPAN
        )
        t0 = time.perf_counter()
        with span_cm:
            response = self._dispatch_inner(request, op)
        elapsed = time.perf_counter() - t0
        _OP_SECONDS.labels(op=str(op)).observe(elapsed)
        self.server.slowlog.maybe_record(
            elapsed,
            f"op-{op}",
            trace_id=ctx.get("t") if isinstance(ctx, dict) else None,
        )
        if tracer is not None:
            response[SPANS_KEY] = [span.to_dict() for span in tracer.spans()]
        return response

    def _dispatch_inner(self, request: dict, op) -> dict:
        """Decode -> call -> encode, all three from the op's table row."""
        try:
            row = protocol.BY_OP.get(op)
            if op == "txn":  # one wire op fans out to three methods
                row = protocol.TXN_ACTIONS.get(request["action"])
                if row is None:
                    raise protocol.NetError(
                        f"unknown transaction op {request['action']!r}"
                    )
            if row is None:
                raise protocol.NetError(f"unknown operation {op!r}")
            args = row.arguments(request)
            if row is protocol.INSERT_ROWS:
                args = [_insert_statement(*args)]
            target = self.server if row.kind == "control" else self._sdb
            method = getattr(target, row.method)
            if row.session:
                result = method(*args, session=request.get("session"))
            else:
                result = method(*args)
            self._track_handles(op, args, result)
            return {"ok": row.encode_reply(result)}
        except Exception as exc:  # surface the failure to the caller
            return protocol.error_response(exc)

    @property
    def _sdb(self) -> SDBServer:
        return self.server.sdb_server

    def _track_handles(self, op, args, result) -> None:
        """Keep the sets :meth:`finish` releases on disconnect current."""
        if op == "prepare":
            self._stmt_ids.add(result)
        elif op == "execute_prepared":
            self._result_ids.add(result[0])
        elif op == "close_result":
            self._result_ids.discard(args[0])
        elif op == "close_prepared":
            self._stmt_ids.discard(args[0])


def _insert_statement(name, columns, rows) -> ast.Insert:
    """The ``insert_rows`` fields as the INSERT they stand for (its cells
    -- SIES ciphertexts in the hidden row-id column -- cannot render as
    SQL text)."""
    return ast.Insert(
        table=name,
        columns=tuple(columns) or None,
        rows=tuple(tuple(ast.Literal(cell) for cell in row) for row in rows),
    )


class SDBNetServer(socketserver.ThreadingTCPServer):
    """TCP daemon owning one :class:`SDBServer` instance.

    Request execution runs on :attr:`executor`, a shared pool keyed by
    session: one session's requests execute in order, different sessions
    in parallel (bounded by ``max_workers``).
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        address=("127.0.0.1", 0),
        sdb_server: Optional[SDBServer] = None,
        max_workers: int = 8,
        max_session_queue: int = 64,
        slow_query_s: Optional[float] = None,
    ):
        super().__init__(address, _RequestHandler)
        self.sdb_server = sdb_server or SDBServer()
        #: daemon-side slow-operation log (inert until a threshold is set)
        self.slowlog = SlowQueryLog(slow_query_s)
        self.executor = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="sdb-session"
        )
        #: admission control: max requests a session may have queued or
        #: running at once (<= 0 disables the bound)
        self.max_session_queue = max_session_queue
        self._session_pending: dict[str, int] = {}
        self._tails: dict[str, Future] = {}
        self._tails_lock = threading.Lock()

    # -- control ops: answered by the daemon process, not the SDBServer -------

    def session_stats(self) -> dict:
        """Per-session statement counters (ExecutionContext observability)."""
        return self.sdb_server.session_stats_snapshot()

    def epoch(self) -> int:
        return self.sdb_server.epoch

    def metrics(self) -> dict:
        """The process metrics registry as a JSON-able snapshot."""
        return global_metrics().snapshot()

    def metrics_text(self) -> str:
        """The same registry in Prometheus text exposition format."""
        return render_prometheus(global_metrics().snapshot())

    def slow_queries(self) -> list:
        """Entries from the daemon's slow-query log ([] when disabled)."""
        return self.slowlog.entries()

    def admit_session_request(self, session_key: str) -> bool:
        """Reserve one slot on the session's bounded dispatch queue."""
        if self.max_session_queue <= 0:
            return True
        with self._tails_lock:
            count = self._session_pending.get(session_key, 0)
            if count >= self.max_session_queue:
                _ADMIT_REJECTS.labels(layer="server").inc()
                return False
            self._session_pending[session_key] = count + 1
            return True

    def release_session_request(self, session_key: str) -> None:
        with self._tails_lock:
            count = self._session_pending.get(session_key, 1) - 1
            if count <= 0:
                self._session_pending.pop(session_key, None)
            else:
                self._session_pending[session_key] = count

    def submit_session_task(self, session_key: str, fn) -> Future:
        """Queue ``fn`` behind the session's previous request.

        Per-session FIFO ordering comes from chaining on the session's
        current tail future: the new task enters the pool only once its
        predecessor has *completed* (via ``add_done_callback``), so a
        deeply pipelining session queues behind itself without ever
        parking a worker thread -- the pool's workers stay available to
        every other session.
        """
        future: Future = Future()

        def run() -> None:
            if not future.set_running_or_notify_cancel():
                return
            try:
                future.set_result(fn())
            except BaseException as exc:
                future.set_exception(exc)

        def enqueue(_previous=None) -> None:
            try:
                self.executor.submit(run)
            except RuntimeError as exc:  # pool shut down mid-flight
                if not future.done():
                    future.set_exception(exc)

        with self._tails_lock:
            previous = self._tails.get(session_key)
            self._tails[session_key] = future
            if len(self._tails) > 128:
                for key in [k for k, f in self._tails.items() if f.done()]:
                    if self._tails[key].done():
                        del self._tails[key]
        if previous is None:
            enqueue()
        else:
            # fires immediately when the predecessor is already done
            previous.add_done_callback(enqueue)
        return future

    def server_close(self) -> None:
        super().server_close()
        self.executor.shutdown(wait=False)

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_server(
    host: str = "127.0.0.1",
    port: int = 0,
    sdb_server: Optional[SDBServer] = None,
    max_workers: int = 8,
    max_session_queue: int = 64,
    slow_query_s: Optional[float] = None,
) -> tuple[SDBNetServer, threading.Thread]:
    """Start a daemon thread serving on ``(host, port)``.

    ``port=0`` picks a free port (read it back from ``server.port``).
    The caller owns shutdown: ``server.shutdown(); server.server_close()``.
    """
    server = SDBNetServer(
        (host, port), sdb_server=sdb_server, max_workers=max_workers,
        max_session_queue=max_session_queue, slow_query_s=slow_query_s,
    )
    thread = threading.Thread(
        target=server.serve_forever, name="sdb-sp", daemon=True
    )
    thread.start()
    return server, thread
