"""The DO-side connection to a remote SP.

:class:`RemoteServer` speaks :mod:`repro.net.protocol` and exposes the
same surface as the in-process :class:`repro.core.server.SDBServer`, so

    proxy = SDBProxy(RemoteServer.connect(host, port))

gives the paper's two-machine deployment with no proxy changes.  Its
per-op methods are generated from the op table
(:data:`repro.net.protocol.OPS`); this module is only the blocking
transport under them.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time

from repro.api.exceptions import ShardUnavailableError
from repro.net import protocol


class RemoteServer(protocol.SyncStubs):
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
        #: whole frames, length headers included, in either direction
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

    def _call(self, op: str, session=None, **fields):
        with self._lock:
            if self._dead:
                raise ShardUnavailableError(
                    f"connection to {self.endpoint} is closed"
                )
            request_id = next(self._request_ids)
            request, span = protocol.build_request(
                op, fields, request_id,
                self.session_id if session is None else session,
            )
            try:
                self.bytes_sent += protocol.send_message(self._sock, request)
                response, size = protocol.recv_frame(self._sock)
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
            self.bytes_received += size
        if response.get("id") not in (None, request_id):
            raise protocol.NetError(
                f"out-of-order response: expected {request_id}, "
                f"got {response.get('id')}"
            )
        return protocol.unwrap_response(response, span)
