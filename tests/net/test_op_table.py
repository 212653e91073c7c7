"""The op table, end to end: one table-driven suite instead of per-op tests.

For every client stub, on all three client surfaces (blocking
``RemoteServer``, ``AsyncRemoteServer``, and the async wire's sync
bridge):

(a) the request frame is byte-identical to the golden frame captured from
    the hand-written ``RemoteServer`` of the commit before the table;
(b) a real daemon calls the named ``SDBServer`` method with the arguments
    an in-process call would have bound;
(c) the reply round-trips to the value the method returned.

Plus the guards that keep the table honest against the ``Backend``
protocols and ``SDBServer``, and the frame-length byte accounting.
"""

import asyncio
import inspect
import json
import socket
import struct
import threading
from pathlib import Path

import pytest

from repro.api.backend import Backend, ShardBackend
from repro.core.server import SDBServer
from repro.net import RemoteServer, SDBNetServer, protocol, start_server
from repro.net.aio import AsyncRemoteServer, _SyncBridge
from tests.net.wire_cases import CASES, SESSION_ID, comparable

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_frames.json").read_text(encoding="utf-8")
)
SURFACES = ("sync", "async", "bridge")
ROWS_BY_STUB = {row.method: row for row in protocol.STUBS}


def call_on(surface, port, method, args, kwargs, after=None):
    """Make one stub call over a fresh connection of the given surface;
    ``after`` sees the wire client once the call has returned or raised."""
    if surface == "sync":
        sock = socket.create_connection(("127.0.0.1", port))
        with RemoteServer(sock, session_id=SESSION_ID) as remote:
            try:
                return getattr(remote, method)(*args, **kwargs)
            finally:
                if after is not None:
                    after(remote)

    async def main():
        remote = await AsyncRemoteServer.connect(
            "127.0.0.1", port, session_id=SESSION_ID
        )
        try:
            if surface == "async":
                return await getattr(remote, method)(*args, **kwargs)
            bridge = remote.sync_backend()
            return await asyncio.to_thread(
                lambda: getattr(bridge, method)(*args, **kwargs)
            )
        finally:
            if after is not None:
                after(remote)
            await remote.aclose()

    return asyncio.run(main())


# -- (a) golden request frames -------------------------------------------------


class FrameTap:
    """A listener that records raw request bodies and answers each with
    the same canned error frame."""

    REPLY = json.dumps(
        {"id": 1, "error": "x", "error_type": "ValueError", "error_message": "x"}
    ).encode("utf-8")

    def __init__(self):
        self.frames = []
        self._listener = socket.socket()
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        conn, _ = self._listener.accept()
        with conn:
            while True:
                header = conn.recv(4, socket.MSG_WAITALL)
                if len(header) < 4:
                    return
                (length,) = struct.unpack(">I", header)
                self.frames.append(conn.recv(length, socket.MSG_WAITALL))
                conn.sendall(struct.pack(">I", len(self.REPLY)) + self.REPLY)

    def close(self):
        self._thread.join(timeout=5)
        self._listener.close()


def test_every_case_has_a_golden_frame_and_every_stub_a_case():
    assert set(GOLDEN) == set(CASES)
    assert {case[0] for case in CASES.values()} == set(ROWS_BY_STUB)
    # both forms of execute_dml are exercised, so every wire op is
    assert {json.loads(frame)["op"] for frame in GOLDEN.values()} == {
        row.op for row in protocol.OPS
    }


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_request_frame_matches_parent_commit(case, surface):
    method, args, kwargs, _ = CASES[case]
    tap = FrameTap()
    try:
        with pytest.raises(ValueError):
            call_on(surface, tap.port, method, args, kwargs)
    finally:
        tap.close()
    assert [frame.decode("utf-8") for frame in tap.frames] == [GOLDEN[case]]


# -- (b) + (c) a real daemon over a recording fake ------------------------------


class RecordingServer:
    """Stands in for ``SDBServer``: records each call, returns the case's
    result."""

    epoch = 5

    def __init__(self):
        self.calls = []
        self.result = None

    def session_stats_snapshot(self):
        return {9: {"reads": 1, "writes": 0}}

    def __getattr__(self, name):
        def method(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return self.result

        return method


@pytest.fixture(scope="module")
def daemon():
    fake = RecordingServer()
    net_server, _ = start_server(sdb_server=fake)
    yield net_server, fake
    net_server.shutdown()
    net_server.server_close()


def bound_arguments(method, args, kwargs):
    """What ``SDBServer.<method>`` binds a call to, in comparable form."""
    signature = inspect.signature(getattr(SDBServer, method))
    bound = signature.bind(None, *args, **kwargs)
    bound.apply_defaults()
    return comparable(dict(bound.arguments))


@pytest.mark.parametrize("surface", SURFACES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_daemon_call_and_reply_round_trip(daemon, case, surface):
    net_server, fake = daemon
    method, args, kwargs, result = CASES[case]
    row = ROWS_BY_STUB[method]
    fake.calls.clear()
    fake.result = result

    reply = call_on(surface, net_server.port, method, args, kwargs)

    if row.kind == "control":
        # answered by the daemon itself: compare with asking it directly
        direct = getattr(net_server, method)()
        if method in ("session_stats", "epoch"):
            assert reply == json.loads(json.dumps(direct))
        else:
            assert type(reply) is type(direct)
        return

    # (b) same method, same bound arguments as an in-process call -- except
    # that an omitted session arrives as the connection's own identity
    # (an earlier connection's disconnect may still be releasing handles)
    recorded = [
        call for call in fake.calls
        if call[0] == method or not call[0].startswith("close_")
    ]
    assert [name for name, _, _ in recorded] == [method]
    expected = bound_arguments(method, args, kwargs)
    if row.session and expected["session"] is None:
        expected["session"] = SESSION_ID
    assert bound_arguments(method, *recorded[0][1:]) == expected

    # (c) the reply is what the method returned
    if row.reply == "none":
        assert reply is None
    elif row.reply == "pong":
        assert reply is True
    else:
        assert comparable(reply) == comparable(result)
        assert getattr(reply, "info", None) == getattr(result, "info", None)


# -- guards --------------------------------------------------------------------


def _protocol_methods(protocol_class):
    return {
        name for name, member in vars(protocol_class).items()
        if inspect.isfunction(member) and not name.startswith("_")
    }


def test_every_backend_protocol_method_has_a_row():
    wanted = _protocol_methods(Backend) | _protocol_methods(ShardBackend)
    assert wanted <= set(ROWS_BY_STUB)


def test_every_row_names_a_method_that_exists_with_matching_parameters():
    for row in protocol.OPS:
        owner = SDBNetServer if row.kind == "control" else SDBServer
        target = getattr(owner, row.method, None)
        assert inspect.isfunction(target), row
        if row is protocol.INSERT_ROWS:
            continue  # its fields become one ast.Insert argument
        # the daemon calls positionally, in field order
        parameters = list(inspect.signature(target).parameters)[1:]
        assert len(parameters) == len(row.params), row
        assert (parameters[-1:] == ["session"]) == row.session, row


def test_table_spells_33_wire_ops_and_all_surfaces_expose_every_stub():
    assert len({row.op for row in protocol.OPS}) == 33
    for name in ROWS_BY_STUB:
        assert inspect.isfunction(vars(protocol.SyncStubs)[name])
        assert inspect.iscoroutinefunction(vars(protocol.AsyncStubs)[name])
        for surface in (RemoteServer, _SyncBridge):
            assert getattr(surface, name) is vars(protocol.SyncStubs)[name]
        assert getattr(AsyncRemoteServer, name) is vars(protocol.AsyncStubs)[name]


def test_stub_rejects_bad_arguments_before_touching_the_wire():
    row = protocol.BY_OP["shard_dump"]
    for args, kwargs in [
        ((), {}),                                  # missing ``name``
        (("t", 0, 1, 2), {}),                      # too many
        (("t",), {"name": "u"}),                   # duplicate
        (("t",), {"limit": 3}),                    # unknown keyword
    ]:
        with pytest.raises(TypeError):
            row.request(*args, **kwargs)


# -- byte accounting -------------------------------------------------------------


@pytest.mark.parametrize("surface", SURFACES)
def test_byte_counters_are_frame_lengths(surface):
    """Both directions count whole frames (header + body) -- the numbers
    the framing layer already knows -- not a re-serialisation."""
    tap = FrameTap()
    counters = {}

    def record(remote):
        counters["sent"] = remote.bytes_sent
        counters["received"] = remote.bytes_received

    try:
        with pytest.raises(ValueError):
            call_on(surface, tap.port, "execute", ("SELECT 1",), {}, after=record)
    finally:
        tap.close()
    assert counters["sent"] == 4 + len(tap.frames[0])
    assert counters["received"] == 4 + len(FrameTap.REPLY)
