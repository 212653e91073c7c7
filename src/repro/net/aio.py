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

* the ``async`` methods (``await remote.execute(...)``) -- the native
  tier, one per row of the op table (:data:`repro.net.protocol.OPS`);
* :meth:`AsyncRemoteServer.sync_backend` -- an adapter presenting the
  blocking client's generated stub set (a full
  :class:`~repro.api.backend.ShardBackend`) by scheduling each call onto
  the client's event loop.  The asyncio session layer runs
  the (CPU-bound) proxy pipeline on a worker thread; the adapter is how
  that thread's backend calls travel the non-blocking wire without ever
  blocking the loop.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Optional

from repro.api.exceptions import ShardUnavailableError
from repro.net import protocol


class AsyncRemoteServer(protocol.AsyncStubs):
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
        #: whole frames, length headers included, in either direction
        self.bytes_sent = 0
        self.bytes_received = 0
        peer = writer.get_extra_info("peername")
        self.endpoint = "%s:%d" % peer[:2] if peer else "<unknown>"
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
        length), an unexpected OSError -- poisons the handle like the
        blocking client's transport loss does: every in-flight and later
        call fails with :class:`ShardUnavailableError` instead of
        awaiting forever.
        """
        try:
            while True:
                header = await self._reader.readexactly(protocol.HEADER_BYTES)
                length = protocol.frame_length(header)
                response = protocol.unpack_body(
                    await self._reader.readexactly(length)
                )
                self.bytes_received += protocol.HEADER_BYTES + length
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (asyncio.CancelledError, Exception) as exc:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ShardUnavailableError(
                            f"lost connection to {self.endpoint}: {exc!r}"
                        )
                    )
            self._pending.clear()

    async def _call(self, op: str, session=None, **fields):
        if self._closed:
            raise ShardUnavailableError(
                f"connection to {self.endpoint} is closed"
            )
        request_id = next(self._request_ids)
        # trace propagation: run_coroutine_threadsafe copies the calling
        # thread's contextvars onto this task, so the ambient span set on
        # the proxy worker thread is visible to build_request here
        request, span = protocol.build_request(
            op, fields, request_id,
            self.session_id if session is None else session,
        )
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            frame = protocol.pack_frame(request)
            async with self._send_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (OSError, protocol.NetError) as exc:
            self._pending.pop(request_id, None)
            self._closed = True
            raise ShardUnavailableError(
                f"lost connection to {self.endpoint} during {op!r}: {exc}"
            ) from exc
        self.bytes_sent += len(frame)
        return protocol.unwrap_response(await future, span)

    # -- sync Backend bridge ----------------------------------------------------

    def sync_backend(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        """A synchronous :class:`~repro.api.backend.ShardBackend` over this wire.

        Each call schedules the matching request onto ``loop`` (the
        client's running loop) and blocks the *calling* thread -- never
        the loop -- until the response lands.  Must not be called from
        the loop thread itself; the asyncio session layer guarantees that
        by running the proxy pipeline on a worker thread.
        """
        return _SyncBridge(self, loop or asyncio.get_running_loop())


class _SyncBridge(protocol.SyncStubs):
    """The blocking client's stub set over an :class:`AsyncRemoteServer`."""

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

    def _call(self, op: str, session=None, **fields):
        return self._run(self._remote._call(op, session=session, **fields))

    def close(self) -> None:
        self._run(self._remote.aclose())
