"""Two-process-shaped deployment: SDBProxy over a TCP RemoteServer.

The proxy must behave identically whether the SP is in-process or across
the wire (the demo's MDO/MSP split).  Queries, DML and error propagation
are exercised end to end against a live localhost daemon.
"""

import datetime

import pytest

from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.net import NetError, RemoteServer, start_server

COLUMNS = [
    ("id", ValueType.int_()),
    ("city", ValueType.string(10)),
    ("salary", ValueType.decimal(2)),
    ("hired", ValueType.date()),
]

ROWS = [
    (1, "hongkong", 1200.00, datetime.date(2019, 4, 1)),
    (2, "kowloon", 950.25, datetime.date(2020, 8, 15)),
    (3, "hongkong", 2100.75, datetime.date(2018, 1, 2)),
    (4, "shatin", 700.00, datetime.date(2022, 12, 25)),
]


@pytest.fixture()
def deployment():
    sdb_server = SDBServer()
    net_server, thread = start_server(sdb_server=sdb_server)
    remote = RemoteServer.connect("127.0.0.1", net_server.port)
    proxy = SDBProxy(remote, modulus_bits=256, value_bits=64, rng=seeded_rng(314))
    proxy.create_table("staff", COLUMNS, ROWS, sensitive=["salary"],
                       rng=seeded_rng(15))
    yield proxy, remote, sdb_server
    remote.close()
    net_server.shutdown()
    net_server.server_close()


def test_ping(deployment):
    _, remote, _ = deployment
    assert remote.ping()


def test_upload_lands_encrypted_at_sp(deployment):
    _, remote, sdb_server = deployment
    assert "staff" in remote.catalog_names()
    stored = sdb_server.catalog.get("staff")
    # sensitive salaries are shares, insensitive ids are plain
    assert stored.column("id") == [1, 2, 3, 4]
    plain = {120000, 95025, 210075, 70000}
    assert not plain & set(stored.column("salary"))


def test_select_over_the_wire(deployment):
    proxy, _, _ = deployment
    result = proxy.query(
        "SELECT city, SUM(salary) AS total FROM staff GROUP BY city ORDER BY city"
    )
    rows = {row[0]: row[1] for row in result.table.rows()}
    assert rows["hongkong"] == pytest.approx(3300.75)
    assert rows["kowloon"] == pytest.approx(950.25)
    assert rows["shatin"] == pytest.approx(700.00)


def test_filter_on_sensitive_column(deployment):
    proxy, _, _ = deployment
    result = proxy.query("SELECT id FROM staff WHERE salary > 1000 ORDER BY id")
    assert result.table.column("id") == [1, 3]


def test_arithmetic_on_shares(deployment):
    proxy, _, _ = deployment
    result = proxy.query("SELECT id, salary * 12 AS annual FROM staff WHERE id = 2")
    assert result.table.column("annual") == [pytest.approx(11403.0)]


def test_insert_over_the_wire(deployment):
    proxy, _, sdb_server = deployment
    outcome = proxy.execute(
        "INSERT INTO staff (id, city, salary, hired) "
        "VALUES (5, 'central', 1500.00, DATE '2024-03-03')"
    )
    assert outcome.affected == 1
    assert sdb_server.catalog.get("staff").num_rows == 5
    result = proxy.query("SELECT SUM(salary) AS total FROM staff")
    assert result.table.column("total") == [pytest.approx(6451.0)]


def test_update_over_the_wire(deployment):
    proxy, _, _ = deployment
    outcome = proxy.execute("UPDATE staff SET salary = salary * 2 WHERE id = 4")
    assert outcome.affected == 1
    result = proxy.query("SELECT salary FROM staff WHERE id = 4")
    assert result.table.column("salary") == [pytest.approx(1400.0)]


def test_delete_over_the_wire(deployment):
    proxy, _, _ = deployment
    outcome = proxy.execute("DELETE FROM staff WHERE salary < 1000")
    assert outcome.affected == 2
    result = proxy.query("SELECT COUNT(*) AS c FROM staff")
    assert result.table.column("c") == [2]


def test_drop_table_over_the_wire(deployment):
    proxy, remote, _ = deployment
    proxy.drop_table("staff")
    assert "staff" not in remote.catalog_names()


def test_remote_error_propagates(deployment):
    """SP-side failures re-raise as their original exception type.

    The daemon tags error responses with the exception class name and the
    client reconstructs it, so remote error paths match in-process ones;
    ``NetError`` is reserved for protocol-level failures.
    """
    from repro.engine.catalog import CatalogError

    _, remote, _ = deployment
    with pytest.raises(CatalogError) as excinfo:
        remote.execute("SELECT x FROM missing_table")
    assert "missing_table" in str(excinfo.value)


def test_unknown_operation_is_a_protocol_error(deployment):
    """The daemon reports an op it does not serve as ``NetError`` (a peer
    speaking another protocol), and the client rebuilds exactly that."""
    _, remote, _ = deployment
    with pytest.raises(NetError):
        remote._call("no_such_operation")


def test_wire_carries_no_sensitive_plaintext(deployment):
    proxy, remote, _ = deployment
    sent_before = remote.bytes_sent
    proxy.query("SELECT salary FROM staff WHERE salary > 800")
    assert remote.bytes_sent > sent_before


def test_two_proxies_share_one_sp():
    sdb_server = SDBServer()
    net_server, _ = start_server(sdb_server=sdb_server)
    try:
        with RemoteServer.connect("127.0.0.1", net_server.port) as r1, \
                RemoteServer.connect("127.0.0.1", net_server.port) as r2:
            p1 = SDBProxy(r1, modulus_bits=256, value_bits=64, rng=seeded_rng(1))
            p2 = SDBProxy(r2, modulus_bits=256, value_bits=64, rng=seeded_rng(2))
            p1.create_table(
                "a", [("x", ValueType.int_())], [(1,)], sensitive=["x"],
                rng=seeded_rng(3),
            )
            p2.create_table(
                "b", [("y", ValueType.int_())], [(2,)], sensitive=["y"],
                rng=seeded_rng(4),
            )
            # each tenant decrypts only its own data
            assert p1.query("SELECT x FROM a").table.column("x") == [1]
            assert p2.query("SELECT y FROM b").table.column("y") == [2]
            assert sorted(r1.catalog_names()) == ["a", "b"]
    finally:
        net_server.shutdown()
        net_server.server_close()


@pytest.mark.parametrize("surface", ["sync", "async", "bridge"])
def test_transport_loss_and_use_after_close_are_typed_and_poison(surface):
    """Every client surface reports a dead wire the same way: the call in
    flight, every later call, and any call after close raise
    ``ShardUnavailableError`` -- never a raw OSError or an endless wait."""
    import asyncio
    import socket
    import threading

    from repro.api.exceptions import ShardUnavailableError
    from repro.net.aio import AsyncRemoteServer

    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(2)
    port = listener.getsockname()[1]

    def hang_up_after_one_request():
        for _ in range(2):
            conn, _ = listener.accept()
            conn.recv(4096)
            conn.close()

    peer = threading.Thread(target=hang_up_after_one_request, daemon=True)
    peer.start()
    loop = asyncio.new_event_loop()
    loop_thread = threading.Thread(target=loop.run_forever, daemon=True)
    loop_thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    def wire():
        return run(AsyncRemoteServer.connect("127.0.0.1", port))

    connect, ping, close = {
        "sync": (
            lambda: RemoteServer.connect("127.0.0.1", port),
            lambda remote: remote.ping(),
            lambda remote: remote.close(),
        ),
        "async": (
            wire,
            lambda remote: run(remote.ping()),
            lambda remote: run(remote.aclose()),
        ),
        "bridge": (
            lambda: wire().sync_backend(loop),
            lambda bridge: bridge.ping(),
            lambda bridge: bridge.close(),
        ),
    }[surface]
    try:
        lost = connect()
        for _ in range(2):  # the loss itself, then the poisoned handle
            with pytest.raises(ShardUnavailableError):
                ping(lost)
        close(lost)
        closed = connect()
        close(closed)
        with pytest.raises(ShardUnavailableError):
            ping(closed)
    finally:
        loop.call_soon_threadsafe(loop.stop)
        loop_thread.join(timeout=5)
        loop.close()
        peer.join(timeout=5)
        listener.close()
