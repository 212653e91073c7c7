"""Index-probe access paths end to end: every way a table changes.

The SP engine builds secondary indexes lazily and keeps them current
through ``Table``'s mutation hooks.  These tests drive the full stack --
session API, proxy, server (in-process, over the wire, clustered,
durable) -- through each path that rewrites table contents and check
that point and range reads served from an index still return exactly
what a scan returns, and that each execution reports its *own* path.
Tables are sized above the planner's small-table floor so the default
thresholds (no test hook) choose the probe.
"""

import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.api as api
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.engine.executor import INDEX_MIN_ROWS, access_path
from repro.net import RemoteServer, start_server

COLUMNS = [
    ("id", ValueType.int_()),
    ("grp", ValueType.int_()),
    ("balance", ValueType.decimal(2)),
]
N = INDEX_MIN_ROWS + 64
ROWS = [(i, i % 16, float(i)) for i in range(1, N + 1)]

POINT = "SELECT id, grp, balance FROM acct WHERE id = ?"
RANGE = "SELECT id FROM acct WHERE id BETWEEN ? AND ?"
BY_GROUP = "SELECT id FROM acct WHERE grp = ?"


def _connect(server, seed=5):
    return api.connect(
        server=server, modulus_bits=256, value_bits=64, rng=seeded_rng(seed)
    )


def _load(conn, rows=ROWS, **options):
    conn.proxy.create_table(
        "acct", COLUMNS, rows, sensitive=["balance"], rng=seeded_rng(6),
        **options,
    )


@pytest.fixture()
def deployment():
    server = SDBServer()
    conn = _connect(server)
    _load(conn)
    yield conn, server
    conn.close()


def _fetch(conn, sql, params=()):
    cur = conn.cursor()
    rows = cur.execute(sql, params).fetchall()
    return [tuple(round(v, 2) if isinstance(v, float) else v for v in row)
            for row in rows], cur.report


def _probed(report) -> bool:
    return bool(report.access) and report.access[0].startswith("index(acct.")


def _scan_twin(conn, sql, params=()):
    """The same statement with the probe forced off (test-only hook)."""
    saved = access_path.min_rows
    access_path.min_rows = float("inf")
    try:
        rows, report = _fetch(conn, sql, params)
    finally:
        access_path.min_rows = saved
    assert report.access == ("scan(acct)",)
    return rows


def _check_against_scan(conn, ids):
    """Point, range and group reads through the index == through a scan."""
    for key in ids:
        rows, report = _fetch(conn, POINT, [key])
        assert _probed(report), report.access
        assert rows == _scan_twin(conn, POINT, [key])
    low = min(ids)
    rows, report = _fetch(conn, RANGE, [low, low + 25])
    assert _probed(report)
    assert rows == _scan_twin(conn, RANGE, [low, low + 25])
    for group in (3, 99):
        rows, report = _fetch(conn, BY_GROUP, [group])
        assert _probed(report)
        assert rows == _scan_twin(conn, BY_GROUP, [group])


# -- per-statement path reporting ---------------------------------------------


def test_pipelined_statement_reports_its_path_in_process(deployment):
    conn, _ = deployment
    rows, report = _fetch(conn, POINT, [7])
    assert rows == [(7, 7, 7.0)]
    assert report.exec_path == "batch" and report.batch_fallback == ""
    assert report.access == (f"index(acct.id) = -> 1/{N} rows",)
    assert "access: index(acct.id) =" in report.pretty()
    rows, report = _fetch(conn, "SELECT id FROM acct WHERE id >= ?", [2])
    assert len(rows) == N - 1 and report.access == ("scan(acct)",)


def test_pipelined_statement_reports_its_path_over_the_wire():
    net_server, _thread = start_server(sdb_server=SDBServer())
    try:
        remote = RemoteServer.connect("127.0.0.1", net_server.port)
        proxy = SDBProxy(
            remote, modulus_bits=256, value_bits=64, rng=seeded_rng(5)
        )
        conn = api.connect(proxy=proxy)
        _load(conn)
        rows, report = _fetch(conn, POINT, [9])
        assert rows == [(9, 9, 9.0)]
        assert report.exec_path == "batch"
        assert report.access == (f"index(acct.id) = -> 1/{N} rows",)
        # a materialized (aggregate) statement carries its path too
        rows, report = _fetch(
            conn, "SELECT COUNT(*) AS n FROM acct WHERE grp = ?", [3]
        )
        assert rows == [(N // 16,)] and report.exec_path == "batch"
        assert report.access[0].startswith("index(acct.grp) = ->")
        conn.close()
    finally:
        net_server.shutdown()
        net_server.server_close()


def test_interleaved_sessions_each_see_their_own_path(deployment):
    conn, _ = deployment
    other = api.connect(proxy=conn.proxy)
    batch_cur, row_cur = conn.cursor(), other.cursor()
    row_sql = "SELECT id FROM acct WHERE id = (SELECT MIN(id) FROM acct)"
    batch_cur.execute(POINT, [5])
    row_cur.execute(row_sql)
    # the shared engine last ran the row statement; each report keeps its own
    assert batch_cur.report.exec_path == "batch"
    assert row_cur.report.exec_path == "row"
    assert row_cur.report.batch_fallback
    batch_cur.execute(POINT, [6])
    assert row_cur.report.exec_path == "row"
    assert batch_cur.fetchall()[0][0] == 6 and row_cur.fetchall() == [(1,)]
    other.close()


def test_derived_table_reports_the_outer_row_path(deployment):
    """The outer SELECT over a derived table runs on the row path; the
    nested batch execution of the inner query must not overwrite that."""
    conn, server = deployment
    sql = "SELECT x.id FROM (SELECT id FROM acct WHERE grp = 3) AS x"
    reason = "unsupported: FROM shape: SubqueryRef"
    info = server.engine.execute(sql).exec_info
    assert (info.path, info.fallback) == ("row", reason)
    cur = conn.cursor()
    assert len(cur.execute(sql).fetchall()) == N // 16
    assert (cur.report.exec_path, cur.report.batch_fallback) == ("row", reason)


def test_explain_names_the_access_candidates(deployment):
    conn, _ = deployment
    cur = conn.cursor()
    tree = cur.explain("SELECT id FROM acct WHERE id = 4 AND balance > 1")
    (access,) = tree.find("access")
    assert "index(acct.id) =" in access.detail
    assert "balance" not in access.detail  # sensitive: a UDF, never sargable
    assert "4" not in access.detail.replace("1/4", "")  # shape, no literal
    (access,) = cur.explain("DELETE FROM acct WHERE balance > 3").find("access")
    assert access.detail.startswith("acct: scan")


# -- transactions ---------------------------------------------------------------


def test_read_your_writes_commit_and_rollback(deployment):
    conn, server = deployment
    other = api.connect(proxy=conn.proxy)
    _check_against_scan(conn, [1, 40, N])          # builds the indexes
    live = server.catalog.get("acct")
    built = live.index_names()
    assert ("id", "hash") in built and ("grp", "hash") in built
    by_id, by_group = live.hash_index("id"), live.hash_index("grp")

    conn.begin()
    conn.execute("UPDATE acct SET grp = 99 WHERE id = 40")
    conn.execute("DELETE FROM acct WHERE id = 41")
    conn.execute("INSERT INTO acct VALUES (5000, 99, 12.5)")
    # the session reads its own writes (overlay copy: scanned, not indexed)
    rows, report = _fetch(conn, BY_GROUP, [99])
    assert rows == [(40,), (5000,)] and report.access == ("scan(acct)",)
    assert _fetch(conn, POINT, [41])[0] == []
    # everyone else still reads committed state, through the index
    rows, report = _fetch(other, BY_GROUP, [99])
    assert rows == [] and _probed(report)
    assert _fetch(other, POINT, [41])[0] == [(41, 9, 41.0)]
    conn.rollback()
    assert _fetch(conn, BY_GROUP, [99])[0] == []
    assert live.index_names() == built             # untouched by the overlay

    conn.begin()
    conn.execute("UPDATE acct SET grp = 99 WHERE id = 40")
    conn.execute("DELETE FROM acct WHERE id = 41")
    conn.execute("INSERT INTO acct VALUES (5000, 99, 12.5)")
    conn.commit()
    # the commit folded into the live table through the mutation hooks
    # (located by the table's own row-id index): same index objects, now
    # answering with the new contents
    assert live.index_names() == sorted(built + [("__rowid", "hash")])
    assert live.hash_index("id") is by_id
    assert live.hash_index("grp") is by_group
    assert _fetch(other, BY_GROUP, [99])[0] == [(40,), (5000,)]
    assert _fetch(other, POINT, [5000])[0] == [(5000, 99, 12.5)]
    _check_against_scan(other, [40, 41, 42, 5000])
    other.close()


def test_conflict_loser_retries_against_maintained_indexes(deployment):
    conn, _ = deployment
    other = api.connect(proxy=conn.proxy)
    _check_against_scan(conn, [10])
    conn.begin()
    other.begin()
    conn.execute("UPDATE acct SET grp = 50 WHERE id = 10")
    other.execute("UPDATE acct SET grp = 60 WHERE id = 10")
    conn.commit()
    with pytest.raises(api.TransactionConflict):
        other.commit()
    other.begin()
    other.execute("UPDATE acct SET grp = 60 WHERE id = 10")
    other.commit()
    assert _fetch(conn, BY_GROUP, [50])[0] == []
    assert _fetch(conn, BY_GROUP, [60])[0] == [(10,)]
    _check_against_scan(conn, [10, 11])
    other.close()


# -- cluster: 2PC, rebalance ------------------------------------------------------


def _cluster(shards=2, rows=None):
    rows = rows or [(i, i % 16, float(i)) for i in range(1, 3 * N + 1)]
    conn = api.connect(
        shards=shards, modulus_bits=256, value_bits=64, rng=seeded_rng(5)
    )
    _load(conn, rows=rows, shard_by="id")
    return conn, rows


def _shard_tables(conn):
    return [
        shard.catalog.get("acct") for shard in conn.proxy.server.shards
    ]


def _cluster_point(conn, key):
    return _fetch(conn, POINT, [key])[0]


def test_two_phase_commit_maintains_every_shards_indexes():
    conn, rows = _cluster()
    keys = [1, 2, 3, 4, 700]
    for key in keys:
        assert _cluster_point(conn, key) == [(key, key % 16, float(key))]
    tables = _shard_tables(conn)
    assert all(("id", "hash") in t.index_names() for t in tables)
    built = [t.hash_index("id") for t in tables]
    conn.begin()
    for key in keys[:4]:  # consecutive ids land on both shards
        conn.execute(f"UPDATE acct SET grp = 77 WHERE id = {key}")
    conn.execute("DELETE FROM acct WHERE id = 700")
    conn.execute("INSERT INTO acct VALUES (9001, 77, 1.5)")
    conn.commit()
    assert conn.proxy.server.last_txn_commit is not None  # it was a 2PC
    # finalize applied the staged delta through the hooks: same indexes
    assert [t.hash_index("id") for t in _shard_tables(conn)] == built
    for key in keys[:4]:
        assert _cluster_point(conn, key) == [(key, 77, float(key))]
    assert _cluster_point(conn, 700) == []
    assert _cluster_point(conn, 9001) == [(9001, 77, 1.5)]
    got = sorted(_fetch(conn, BY_GROUP, [77])[0])
    assert got == [(1,), (2,), (3,), (4,), (9001,)]
    conn.close()


def test_rebalance_rebuilds_indexes_on_the_new_slices():
    conn, rows = _cluster()
    sample = [1, 17, 300, 555, 3 * N]
    for key in sample:
        _cluster_point(conn, key)
    conn.cursor().execute("ALTER CLUSTER ADD SHARD")
    assert conn.proxy.server.num_shards == 3
    # promote/prune replaced every slice wholesale: indexes start over ...
    assert all(t.index_names() == [] for t in _shard_tables(conn))
    for key in sample:
        assert _cluster_point(conn, key) == [(key, key % 16, float(key))]
    # ... and are rebuilt lazily by the first probe on each slice
    assert any(
        ("id", "hash") in t.index_names() for t in _shard_tables(conn)
    )
    total = conn.cursor().execute("SELECT COUNT(*) FROM acct").fetchall()
    assert total == [(len(rows),)]
    conn.close()


# -- key rotation -------------------------------------------------------------------


def test_key_rotation_keeps_probes_and_decryption_consistent(deployment):
    conn, server = deployment
    _check_against_scan(conn, [3])
    built = server.catalog.get("acct").index_names()
    conn.proxy.rotate_column_key("acct", "balance")
    conn.proxy.rotate_aux_key("acct")
    assert server.catalog.get("acct").index_names() == built
    rows, report = _fetch(conn, POINT, [3])
    assert rows == [(3, 3, 3.0)] and _probed(report)
    _check_against_scan(conn, [3, 200])


# -- durability: SIGKILL and recover -------------------------------------------------


def _launch_durable(directory):
    env = dict(os.environ)
    source_root = str(Path(api.__file__).resolve().parents[2])
    env["PYTHONPATH"] = source_root + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli.server", "--host", "127.0.0.1",
         "--port", "0", "--durable", str(directory)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env,
    )
    for line in process.stdout:  # a recovering daemon reports its replay first
        match = re.search(r"listening on ([^\s:]+):(\d+)", line)
        if match is not None:
            return process, match.group(1), int(match.group(2))
    process.kill()
    raise RuntimeError("durable daemon failed to start")


def test_durable_daemon_recovers_and_reindexes_after_sigkill(tmp_path):
    process, host, port = _launch_durable(tmp_path / "sp")
    try:
        proxy = SDBProxy(
            RemoteServer.connect(host, port),
            modulus_bits=256, value_bits=64, rng=seeded_rng(5),
        )
        conn = api.connect(proxy=proxy)
        _load(conn)
        assert _probed(_fetch(conn, POINT, [8])[1])
        conn.execute("UPDATE acct SET grp = 88 WHERE id = 8")
        conn.execute("DELETE FROM acct WHERE id BETWEEN 20 AND 29")
        conn.execute("INSERT INTO acct VALUES (7000, 88, 2.5)")
        want = {
            8: [(8, 88, 8.0)], 25: [], 30: [(30, 14, 30.0)],
            7000: [(7000, 88, 2.5)],
        }
        for key, rows in want.items():
            assert _fetch(conn, POINT, [key])[0] == rows
        process.send_signal(signal.SIGKILL)
        process.wait(timeout=30)
        proxy.server.close()
        process, host, port = _launch_durable(tmp_path / "sp")
        proxy.server = RemoteServer.connect(host, port)
        # WAL replay ran through the same hooks; the first probe after
        # recovery builds fresh indexes over the recovered table
        for key, rows in want.items():
            got, report = _fetch(conn, POINT, [key])
            assert got == rows and _probed(report)
        assert sorted(_fetch(conn, BY_GROUP, [88])[0]) == [(8,), (7000,)]
        count = conn.cursor().execute("SELECT COUNT(*) FROM acct").fetchall()
        assert count == [(N - 10 + 1,)]
        conn.close()
    finally:
        process.kill()
        process.wait(timeout=30)


# -- concurrency: readers race the first build while a writer commits ----------------


def test_readers_racing_the_lazy_build_while_a_writer_commits():
    server = SDBServer()
    loader = _connect(server)
    _load(loader)
    errors: list = []
    stop = threading.Event()
    start = threading.Barrier(3)

    def reader(seed):
        conn = api.connect(proxy=loader.proxy)
        try:
            start.wait(timeout=30)
            key = seed
            while not stop.is_set():
                key = key % 200 + 1              # ids the writer never touches
                rows, report = _fetch(conn, POINT, [key])
                if rows != [(key, key % 16, float(key))]:
                    errors.append(("point", key, rows))
                rows, _ = _fetch(conn, RANGE, [key, key + 9])
                if rows != [(k,) for k in range(key, key + 10)]:
                    errors.append(("range", key, rows))
        except Exception as error:  # noqa: BLE001 -- reported by the main thread
            errors.append(repr(error))
        finally:
            conn.close()

    def writer():
        conn = api.connect(proxy=loader.proxy)
        try:
            start.wait(timeout=30)
            for step in range(40):
                conn.begin()
                conn.execute(f"INSERT INTO acct VALUES ({6000 + step}, 5, 1.0)")
                conn.execute(f"UPDATE acct SET grp = 31 WHERE id = {210 + step}")
                conn.execute(f"DELETE FROM acct WHERE id = {N - step}")
                conn.commit()
        except Exception as error:  # noqa: BLE001
            errors.append(repr(error))
        finally:
            conn.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [threading.Thread(target=reader, args=(s,)) for s in (0, 97)]
        writing = threading.Thread(target=writer)
        for thread in readers + [writing]:
            thread.start()
        writing.join(timeout=120)
        stop.set()
        for thread in readers:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not writing.is_alive() and not any(t.is_alive() for t in readers)
    assert errors == []
    # the indexes the readers raced to build absorbed all 40 commits
    assert sorted(_fetch(loader, BY_GROUP, [31])[0]) == [
        (i,) for i in range(210, 250)
    ]
    _check_against_scan(loader, [1, 150, 215, 240, 6000, 6039])
    assert _fetch(loader, POINT, [N - 5])[0] == []
    loader.close()
