"""Backend protocol conformance and ExecutionContext behavior.

The typed :class:`repro.api.backend.Backend` protocol is the formal
contract every deployment shape satisfies; these tests pin the
conformance of each concrete backend and the session-context plumbing
(session ids on the wire, per-session server statistics, epoch
observation, leakage accumulation).
"""

import pytest

import repro.api as api
from repro.api.backend import (
    Backend,
    ClusterBackend,
    ExecutionContext,
    ShardBackend,
    next_session_id,
)
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


def test_sdb_server_conforms():
    server = SDBServer()
    assert isinstance(server, Backend)
    assert isinstance(server, ShardBackend)


def test_durable_server_conforms(tmp_path):
    from repro.storage.durable import DurableServer

    server = DurableServer(tmp_path / "state")
    assert isinstance(server, Backend)
    assert isinstance(server, ShardBackend)


def test_remote_server_conforms():
    from repro.net import RemoteServer, start_server

    net_server, _ = start_server(sdb_server=SDBServer())
    try:
        remote = RemoteServer.connect("127.0.0.1", net_server.port)
        assert isinstance(remote, Backend)
        assert isinstance(remote, ShardBackend)
        remote.close()
    finally:
        net_server.shutdown()
        net_server.server_close()


def test_coordinator_conforms():
    from repro.cluster import Coordinator

    coordinator = Coordinator([SDBServer(shard_id=i) for i in range(2)])
    try:
        assert isinstance(coordinator, Backend)
        assert isinstance(coordinator, ClusterBackend)
    finally:
        coordinator.close()


def test_async_bridge_conforms():
    import asyncio

    from repro.net import start_server
    from repro.net.aio import AsyncRemoteServer

    net_server, _ = start_server(sdb_server=SDBServer())

    async def main():
        remote = await AsyncRemoteServer.connect("127.0.0.1", net_server.port)
        try:
            bridge = remote.sync_backend()
            assert isinstance(bridge, Backend)
            assert isinstance(bridge, ShardBackend)
        finally:
            await remote.aclose()

    try:
        asyncio.run(main())
    finally:
        net_server.shutdown()
        net_server.server_close()


def test_session_ids_are_unique():
    first, second = next_session_id(), next_session_id()
    assert first != second
    assert ExecutionContext().session_id != ExecutionContext().session_id


# -- context plumbing ----------------------------------------------------------


@pytest.fixture()
def conn():
    connection = api.connect(
        server=SDBServer(), modulus_bits=256, value_bits=64, rng=seeded_rng(71)
    )
    connection.proxy.create_table(
        "t",
        [("k", ValueType.int_()), ("v", ValueType.int_())],
        [(i, i * 10) for i in range(1, 11)],
        sensitive=["v"],
        rng=seeded_rng(72),
    )
    yield connection
    connection.close()


def test_connection_owns_a_context(conn):
    context = conn.context
    assert context.session_id > 0
    assert context.statements is conn._cache


def test_context_observes_snapshot_epoch(conn):
    server = conn.proxy.server
    conn.cursor().execute("SELECT SUM(v) AS s FROM t").fetchall()
    first = conn.context.epoch
    assert first == server.epoch
    conn.cursor().execute("INSERT INTO t (k, v) VALUES (99, 990)")
    assert conn.context.epoch > first
    assert conn.context.epoch == server.epoch


def test_context_accumulates_leakage(conn):
    conn.cursor().execute("SELECT SUM(v) AS s FROM t").fetchall()
    conn.cursor().execute("DELETE FROM t WHERE k = 1")
    report = conn.context.leakage_report()
    assert any("sum" in entry.lower() for entry in report)
    assert any("row" in entry.lower() for entry in report)
    assert conn.context.executions >= 2


def test_per_session_server_stats(conn):
    """The server attributes work to the session that submitted it."""
    server = conn.proxy.server
    conn.cursor().execute("SELECT COUNT(*) AS n FROM t").fetchall()
    conn.cursor().execute("INSERT INTO t (k, v) VALUES (50, 500)")
    stats = server.session_stats[conn.context.session_id]
    assert stats["reads"] >= 1
    assert stats["writes"] >= 1

    other = api.Connection(conn.proxy)
    other.cursor().execute("SELECT COUNT(*) AS n FROM t").fetchall()
    assert other.context.session_id != conn.context.session_id
    assert server.session_stats[other.context.session_id]["reads"] >= 1


def test_wire_sessions_reach_the_daemon():
    from repro.net import RemoteServer, start_server

    sdb_server = SDBServer()
    net_server, _ = start_server(sdb_server=sdb_server)
    try:
        remote = RemoteServer.connect("127.0.0.1", net_server.port)
        conn = api.connect(
            server=remote, modulus_bits=256, value_bits=64, rng=seeded_rng(73)
        )
        conn.proxy.create_table(
            "t", [("k", ValueType.int_())], [(1,), (2,)], rng=seeded_rng(74)
        )
        conn.cursor().execute("SELECT COUNT(*) AS n FROM t").fetchall()
        # the connection adopted the wire client's session identity, and
        # the daemon recorded the work under it
        assert conn.context.session_id == remote.session_id
        stats = remote.session_stats()
        assert stats[str(remote.session_id)]["reads"] >= 1
        assert remote.epoch() >= 1  # the upload bumped the epoch
        conn.close()
    finally:
        net_server.shutdown()
        net_server.server_close()
