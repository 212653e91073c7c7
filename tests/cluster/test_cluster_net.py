"""The cluster over real wire shards (SHARD_* protocol ops)."""

import datetime

import pytest

import repro.api as api
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.net import start_server

COLUMNS = [
    ("k", ValueType.int_()),
    ("grp", ValueType.string(4)),
    ("v", ValueType.decimal(2)),
]

ROWS = [(i, f"g{i % 3}", float(i) + 0.5) for i in range(1, 31)]


@pytest.fixture()
def net_cluster():
    """(connection, coordinator) over two daemon-backed shards."""
    backends = [SDBServer() for _ in range(2)]
    daemons = [start_server(sdb_server=backend)[0] for backend in backends]
    endpoints = [f"127.0.0.1:{daemon.port}" for daemon in daemons]
    conn = api.connect(
        shards=endpoints, modulus_bits=256, value_bits=64, rng=seeded_rng(21)
    )
    conn.proxy.create_table(
        "t", COLUMNS, ROWS, sensitive=["v"], rng=seeded_rng(22), shard_by="k"
    )
    yield conn, conn.proxy.server
    conn.close()
    conn.proxy.server.close()
    for daemon in daemons:
        daemon.shutdown()
        daemon.server_close()


def test_shard_store_and_status_over_wire(net_cluster):
    _, coord = net_cluster
    statuses = coord.shard_status()
    assert [s["shard_id"] for s in statuses] == [0, 1]
    assert sum(s["tables"]["t"] for s in statuses) == len(ROWS)
    assert all(s["placements"]["t"]["shard_by"] == "k" for s in statuses)
    assert statuses[0]["backend"] == "RemoteServer"


def test_scatter_aggregate_over_wire(net_cluster):
    conn, coord = net_cluster
    cur = conn.cursor()
    cur.execute("SELECT grp, SUM(v) AS s, COUNT(*) AS n FROM t GROUP BY grp "
                "ORDER BY grp")
    got = cur.fetchall()
    expected = {}
    for k, grp, v in ROWS:
        expected.setdefault(grp, [0.0, 0])
        expected[grp][0] += v
        expected[grp][1] += 1
    assert [(g, round(s, 6), n) for g, s, n in got] == [
        (g, round(sv[0], 6), sv[1]) for g, sv in sorted(expected.items())
    ]
    assert coord.last_scatter.mode == "scatter"


def test_coshard_self_join_over_wire(net_cluster):
    conn, coord = net_cluster
    cur = conn.cursor()
    cur.execute("SELECT COUNT(*) AS n FROM t a, t b WHERE a.k = b.k")
    assert cur.fetchall() == [(len(ROWS),)]
    # a self-join on the shard key runs shard-local, no gather needed
    assert coord.last_scatter.mode == "coshard"


def test_fallback_gather_over_wire(net_cluster):
    conn, coord = net_cluster
    cur = conn.cursor()
    # joining off the shard key cannot be co-sharded: rows gather to the
    # primary shard over the SHARD_DUMP op and the join runs there
    cur.execute("SELECT COUNT(*) AS n FROM t a, t b WHERE a.grp = b.grp")
    assert cur.fetchall() == [(300,)]
    assert coord.last_scatter.mode == "fallback"


def test_routed_insert_over_wire(net_cluster):
    conn, coord = net_cluster
    before = sum(s["tables"]["t"] for s in coord.shard_status())
    conn.execute("INSERT INTO t VALUES (99, 'g9', 9.5)")
    assert sum(s["tables"]["t"] for s in coord.shard_status()) == before + 1
    cur = conn.cursor()
    cur.execute("SELECT SUM(v) AS s FROM t WHERE k = 99")
    assert cur.fetchall() == [(9.5,)]


def test_prepared_forwarding_over_wire(net_cluster):
    conn, coord = net_cluster
    statement = conn.prepare("SELECT SUM(v) AS s FROM t WHERE k < ?")
    first = conn.cursor().execute(statement, [11]).fetchall()
    assert first == [(sum(v for k, _, v in ROWS if k < 11),)]
    # the forwardable path prepared the partial on both wire shards
    cluster_statement = next(iter(coord._prepared.values()))
    assert cluster_statement.forwardable
    assert len(cluster_statement.shard_handles) == 2
    again = conn.cursor().execute(statement, [11]).fetchall()
    assert again == first


def test_wire_error_parity(net_cluster):
    conn, _ = net_cluster
    with pytest.raises(api.exceptions.ProgrammingError):
        conn.execute("SELECT nope FROM t")


def test_date_parameters_over_wire(net_cluster):
    conn, _ = net_cluster
    conn.proxy.create_table(
        "d",
        [("k", ValueType.int_()), ("dt", ValueType.date())],
        [(i, datetime.date(2024, 1, i)) for i in range(1, 11)],
        rng=seeded_rng(23),
        shard_by="k",
    )
    cur = conn.cursor()
    cur.execute("SELECT COUNT(*) AS n FROM d WHERE dt >= ?",
                [datetime.date(2024, 1, 6)])
    assert cur.fetchall() == [(5,)]


def test_direct_execute_uses_shard_partial_op(net_cluster):
    _, coord = net_cluster
    table = coord.execute("SELECT SUM(v) AS s FROM t")
    assert table.num_rows == 1
    assert coord.last_scatter.mode == "scatter"


def test_coordinator_over_bridged_async_wires():
    """Two asyncio wires, each behind its sync bridge, are full shards:
    the same coordinator scatters over them and commits across them with
    2PC (every op the blocking wire has, the asyncio wire has too)."""
    import asyncio
    import threading

    from repro.net.aio import AsyncRemoteServer

    daemons = [start_server(sdb_server=SDBServer())[0] for _ in range(2)]
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def on_loop(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result()

    wires = [
        on_loop(AsyncRemoteServer.connect("127.0.0.1", daemon.port))
        for daemon in daemons
    ]
    conn = api.connect(
        shards=[wire.sync_backend(loop) for wire in wires],
        modulus_bits=256, value_bits=64, rng=seeded_rng(23),
    )
    try:
        coord = conn.proxy.server
        conn.proxy.create_table(
            "t", COLUMNS, ROWS, sensitive=["v"], rng=seeded_rng(24),
            shard_by="k",
        )
        cur = conn.cursor()
        cur.execute("SELECT COUNT(*) AS n, SUM(v) AS s FROM t")
        assert cur.fetchall() == [
            (len(ROWS), pytest.approx(sum(v for _, _, v in ROWS)))
        ]
        assert coord.last_scatter.mode == "scatter"

        conn.begin()
        for k in (1, 2, 3, 4):  # spans both shards under shard_by="k"
            conn.execute("UPDATE t SET v = v + ? WHERE k = ?", [100.0, k])
        conn.commit()
        written = [
            shard for shard in coord.last_txn_commit["cardinalities"]
            if any(shard.values())
        ]
        assert len(written) == 2
        cur.execute("SELECT SUM(v) AS s FROM t")
        assert cur.fetchall() == [
            (pytest.approx(sum(v for _, _, v in ROWS) + 400.0),)
        ]
    finally:
        conn.close()
        conn.proxy.server.close()
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5)
        loop.close()
        for daemon in daemons:
            daemon.shutdown()
            daemon.server_close()
