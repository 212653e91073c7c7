"""Non-blocking wire client: the SP protocol over asyncio streams.

:class:`AsyncRemoteServer` speaks exactly the :mod:`repro.net.protocol`
frame format the daemon serves, but **pipelined**: every request carries a
request ``id`` and the session tag, a background reader task matches
responses back to their futures, and any number of requests may be in
flight on one socket.  The daemon's session-keyed thread pool
(:mod:`repro.net.server`) executes same-session requests in order and
different sessions concurrently, so a pipelining client composes with the
readers-writer server into true cross-session parallelism.

Two surfaces are offered:

* the ``async`` methods (``await remote.execute(...)``) -- the native tier;
* :meth:`AsyncRemoteServer.sync_backend` -- an adapter presenting the
  synchronous :class:`~repro.api.backend.Backend` protocol by scheduling
  each call onto the client's event loop.  The asyncio session layer runs
  the (CPU-bound) proxy pipeline on a worker thread; the adapter is how
  that thread's backend calls travel the non-blocking wire without ever
  blocking the loop.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import struct
from typing import Optional

from repro.engine.table import Table
from repro.net import protocol
from repro.net.client import _server_exception_types, prepared_result
from repro.obs.trace import SPANS_KEY, TRACE_KEY, current_span
from repro.sql import ast

_LENGTH = struct.Struct(">I")


async def _send_frame(writer: asyncio.StreamWriter, message: dict) -> int:
    body = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(body) > protocol.MAX_FRAME_BYTES:
        raise protocol.NetError(f"frame too large: {len(body)} bytes")
    writer.write(_LENGTH.pack(len(body)) + body)
    await writer.drain()
    return _LENGTH.size + len(body)


async def _recv_frame(reader: asyncio.StreamReader) -> dict:
    try:
        header = await reader.readexactly(_LENGTH.size)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise protocol.NetError("connection closed mid-frame") from exc
    (length,) = _LENGTH.unpack(header)
    if length > protocol.MAX_FRAME_BYTES:
        raise protocol.NetError(f"frame too large: {length} bytes")
    try:
        body = await reader.readexactly(length)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise protocol.NetError("connection closed mid-frame") from exc
    return json.loads(body.decode("utf-8"))


class AsyncRemoteServer:
    """A pipelining asyncio client for one SP daemon connection."""

    def __init__(self, reader, writer, session_id=None):
        from repro.api.backend import next_session_id

        self._reader = reader
        self._writer = writer
        self._request_ids = itertools.count(1)
        self._pending: dict[int, asyncio.Future] = {}
        self._send_lock = asyncio.Lock()
        self._closed = False
        #: wire session identity (one per connection by default)
        self.session_id = (
            session_id if session_id is not None else next_session_id()
        )
        self.bytes_sent = 0
        self.bytes_received = 0
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_responses()
        )

    @classmethod
    async def connect(
        cls, host: str, port: int, session_id=None
    ) -> "AsyncRemoteServer":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, session_id=session_id)

    async def aclose(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    async def __aenter__(self) -> "AsyncRemoteServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- request plumbing -----------------------------------------------------

    async def _read_responses(self) -> None:
        """Match incoming frames to in-flight futures by request id.

        Any reader failure -- clean EOF, a corrupt frame (bad JSON, bad
        length), an unexpected OSError -- must fail every in-flight and
        future call instead of leaving them awaiting forever.
        """
        try:
            while True:
                response = await _recv_frame(self._reader)
                self.bytes_received += len(repr(response))
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.CancelledError, Exception) as exc:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        protocol.NetError(f"connection lost: {exc!r}")
                    )
            self._pending.clear()

    async def _call(self, op: str, session=None, **args):
        if self._closed:
            raise protocol.NetError("client is closed")
        request_id = next(self._request_ids)
        request = {
            "op": op,
            "id": request_id,
            "session": self.session_id if session is None else session,
            **args,
        }
        # trace propagation: run_coroutine_threadsafe copies the calling
        # thread's contextvars onto this task, so the ambient span set on
        # the proxy worker thread is visible here
        span = current_span()
        if span is not None:
            request[TRACE_KEY] = span.context()
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            async with self._send_lock:
                self.bytes_sent += await _send_frame(self._writer, request)
        except Exception:
            self._pending.pop(request_id, None)
            raise
        response = await future
        if span is not None:
            span.tracer.absorb(response.get(SPANS_KEY))
        if "error" in response:
            exc_type = _server_exception_types().get(response.get("error_type"))
            if exc_type is not None:
                raise exc_type(response.get("error_message", response["error"]))
            raise protocol.NetError(response["error"])
        return response["ok"]

    # -- SDBServer surface (async) ----------------------------------------------

    async def ping(self) -> bool:
        return await self._call("ping") == "pong"

    async def store_table(
        self, name: str, table: Table, replace: bool = False
    ) -> None:
        await self._call(
            "store_table",
            name=name,
            table=protocol.encode_value(table),
            replace=replace,
        )

    async def drop_table(self, name: str) -> None:
        await self._call("drop_table", name=name)

    async def execute(self, query, session=None) -> Table:
        sql = query if isinstance(query, str) else query.to_sql()
        return protocol.decode_value(
            await self._call("execute", sql=sql, session=session)
        )

    async def execute_dml(self, statement, session=None) -> int:
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
            return await self._call(
                "insert_rows",
                name=statement.table,
                columns=list(statement.columns or ()),
                rows=rows,
                session=session,
            )
        sql = statement if isinstance(statement, str) else statement.to_sql()
        return await self._call("execute_dml", sql=sql, session=session)

    async def begin(self, session=None) -> None:
        await self._call("txn", action="begin", session=session)

    async def commit(self, session=None) -> None:
        await self._call("txn", action="commit", session=session)

    async def rollback(self, session=None) -> None:
        await self._call("txn", action="rollback", session=session)

    async def catalog_names(self) -> list[str]:
        return await self._call("catalog")

    async def session_stats(self) -> dict:
        return await self._call("session_stats")

    async def epoch(self) -> int:
        return int(await self._call("epoch"))

    # -- prepared statements / streaming fetch ---------------------------------

    async def prepare_query(self, query, session=None) -> int:
        sql = query if isinstance(query, str) else query.to_sql()
        return int(await self._call("prepare", sql=sql, session=session))

    async def execute_prepared(self, stmt_id: int, params=(), session=None):
        body = await self._call(
            "execute_prepared",
            stmt=stmt_id,
            params=[protocol.encode_value(p) for p in params],
            session=session,
        )
        return prepared_result(body)

    async def fetch_rows(self, result_id: int, count=None) -> Table:
        return protocol.decode_value(
            await self._call("fetch", result=result_id, count=count)
        )

    async def close_result(self, result_id: int) -> None:
        await self._call("close_result", result=result_id)

    async def close_prepared(self, stmt_id: int) -> None:
        await self._call("close_prepared", stmt=stmt_id)

    # -- sync Backend bridge ----------------------------------------------------

    def sync_backend(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        """A synchronous :class:`~repro.api.backend.Backend` over this wire.

        Each call schedules the matching coroutine onto ``loop`` (the
        client's running loop) and blocks the *calling* thread -- never
        the loop -- until the response lands.  Must not be called from
        the loop thread itself; the asyncio session layer guarantees that
        by running the proxy pipeline on a worker thread.
        """
        return _SyncBridge(self, loop or asyncio.get_running_loop())


class _SyncBridge:
    """Blocking Backend facade over an :class:`AsyncRemoteServer`."""

    def __init__(self, remote: AsyncRemoteServer, loop):
        self._remote = remote
        self._loop = loop
        self.session_id = remote.session_id

    def _run(self, coro):
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        if running is self._loop:
            coro.close()
            raise RuntimeError(
                "sync bridge called from the event loop thread; "
                "run proxy work on a worker thread"
            )
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def close(self) -> None:
        self._run(self._remote.aclose())

    # the Backend surface, forwarded call for call

    def ping(self) -> bool:
        return self._run(self._remote.ping())

    def store_table(self, name, table, replace: bool = False) -> None:
        self._run(self._remote.store_table(name, table, replace=replace))

    def drop_table(self, name) -> None:
        self._run(self._remote.drop_table(name))

    def execute(self, query, session=None):
        return self._run(self._remote.execute(query, session=session))

    def execute_dml(self, statement, session=None) -> int:
        return self._run(self._remote.execute_dml(statement, session=session))

    def begin(self, session=None) -> None:
        self._run(self._remote.begin(session=session))

    def commit(self, session=None) -> None:
        self._run(self._remote.commit(session=session))

    def rollback(self, session=None) -> None:
        self._run(self._remote.rollback(session=session))

    def catalog_names(self) -> list[str]:
        return self._run(self._remote.catalog_names())

    def session_stats(self) -> dict:
        return self._run(self._remote.session_stats())

    def epoch(self) -> int:
        return self._run(self._remote.epoch())

    def prepare_query(self, query, session=None) -> int:
        return self._run(self._remote.prepare_query(query, session=session))

    def execute_prepared(self, stmt_id, params=(), session=None):
        return self._run(
            self._remote.execute_prepared(stmt_id, params, session=session)
        )

    def fetch_rows(self, result_id, count=None):
        return self._run(self._remote.fetch_rows(result_id, count))

    def close_result(self, result_id) -> None:
        self._run(self._remote.close_result(result_id))

    def close_prepared(self, stmt_id) -> None:
        self._run(self._remote.close_prepared(stmt_id))
