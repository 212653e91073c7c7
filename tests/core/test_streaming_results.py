"""Pipelined server-side result sets: rows are produced as they are fetched.

The observable is a probe UDF with a call counter: if the server had
materialized the result at EXECUTE time, every row would be evaluated
before the first FETCH; with generator-backed results, exactly the fetched
rows are evaluated.
"""

import pytest

import repro.api as api
from repro.core.meta import ValueType
from repro.core.security import tap
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng


@pytest.fixture()
def deployment():
    server = SDBServer()
    conn = api.connect(
        server=server, modulus_bits=256, value_bits=64, rng=seeded_rng(31)
    )
    conn.proxy.create_table(
        "t",
        [("k", ValueType.int_()), ("v", ValueType.int_())],
        [(i, i * 10) for i in range(1, 21)],
        rng=seeded_rng(32),
    )
    yield conn, server
    conn.close()


def test_rows_are_produced_incrementally(deployment):
    """Pipelined results evaluate one segment per pull, not the whole scan."""
    _, server = deployment
    server.engine.stream_segment_rows = 4
    calls = {"n": 0}

    def probe(value):
        calls["n"] += 1
        return value

    server.udfs.register_scalar("probe", probe)
    stmt_id = server.prepare_query("SELECT probe(v) AS pv FROM t")
    result_id, num_rows = server.execute_prepared(stmt_id)
    assert num_rows == -1  # pipelined: cardinality unknown up front
    assert calls["n"] == 0  # nothing evaluated before the first fetch
    chunk = server.fetch_rows(result_id, 3)
    assert chunk.num_rows == 3
    assert calls["n"] == 4  # exactly one segment was produced
    chunk = server.fetch_rows(result_id, 5)
    assert chunk.num_rows == 5
    assert calls["n"] == 8  # the second segment, not the whole table
    assert server.fetch_rows(result_id, 0).num_rows == 0
    assert calls["n"] == 8  # an empty chunk produces nothing
    rest = server.fetch_rows(result_id, None)
    assert rest.num_rows == 12
    assert calls["n"] == 20
    server.close_result(result_id)
    server.close_prepared(stmt_id)


def test_pipelined_scan_honors_filter_and_limit(deployment):
    _, server = deployment
    stmt_id = server.prepare_query(
        "SELECT k FROM t WHERE k > 5 LIMIT 4"
    )
    result_id, num_rows = server.execute_prepared(stmt_id)
    assert num_rows == -1
    table = server.fetch_rows(result_id, None)
    assert [row[0] for row in table.rows()] == [6, 7, 8, 9]
    server.close_result(result_id)


def test_aggregates_still_materialize(deployment):
    _, server = deployment
    stmt_id = server.prepare_query("SELECT SUM(v) AS s FROM t")
    _, num_rows = server.execute_prepared(stmt_id)
    assert num_rows == 1  # materialized: exact cardinality known


def test_tapped_servers_still_stream():
    """A tap records the pipelined path; it does not force materializing."""
    server = SDBServer()
    transcript = tap(server)
    conn = api.connect(
        server=server, modulus_bits=256, value_bits=64, rng=seeded_rng(33)
    )
    conn.proxy.create_table(
        "t", [("k", ValueType.int_())], [(1,), (2,), (3,)], rng=seeded_rng(34)
    )
    stmt_id = server.prepare_query("SELECT k FROM t WHERE k > ?")
    result_id, num_rows = server.execute_prepared(stmt_id, [1])
    assert num_rows == -1
    assert transcript.queries == ["SELECT k FROM t WHERE (k > 1)"]
    first = server.fetch_rows(result_id, 1)
    rest = server.fetch_rows(result_id, None)
    assert [list(first.rows()), list(rest.rows())] == [[(2,)], [(3,)]]
    assert transcript.results == [first, rest]  # each fetched chunk
    conn.close()


def test_cursor_streams_pipelined_results(deployment):
    conn, _ = deployment
    cur = conn.cursor()
    cur.arraysize = 4
    cur.execute("SELECT k, v FROM t WHERE k <= 10")
    assert cur.rowcount == -1
    assert [row[0] for row in cur] == list(range(1, 11))


def test_pipelined_results_snapshot_at_execute_time(deployment):
    """DML between EXECUTE and FETCH must not corrupt in-flight results."""
    conn, _ = deployment
    cur = conn.cursor()
    cur.execute("SELECT k FROM t")
    conn.execute("INSERT INTO t VALUES (777, 7770)")
    rows = [row[0] for row in cur.fetchall()]
    assert 777 not in rows  # the phantom row postdates the execution
    assert rows == list(range(1, 21))
    cur.execute("SELECT k FROM t")  # a fresh execution does see it
    assert 777 in [row[0] for row in cur.fetchall()]


def test_pipelined_results_survive_key_rotation():
    conn = api.connect(modulus_bits=256, value_bits=64, rng=seeded_rng(35))
    conn.proxy.create_table(
        "pay",
        [("id", ValueType.int_()), ("sal", ValueType.decimal(2))],
        [(i, 100.0 + i) for i in range(1, 9)],
        sensitive=["sal"],
        rng=seeded_rng(36),
    )
    cur = conn.cursor()
    cur.execute("SELECT sal FROM pay")
    conn.proxy.rotate_column_key("pay", "sal")
    # the in-flight result decrypts the pre-rotation snapshot correctly
    assert sorted(row[0] for row in cur.fetchall()) == [
        100.0 + i for i in range(1, 9)
    ]
    cur.execute("SELECT sal FROM pay")  # and so does a fresh execution
    assert sorted(row[0] for row in cur.fetchall()) == [
        100.0 + i for i in range(1, 9)
    ]
    conn.close()


def test_pipelined_runtime_errors_map_to_dbapi_hierarchy(deployment):
    """Errors surfacing at FETCH time land in the same PEP-249 classes."""
    conn, _ = deployment
    conn.execute("INSERT INTO t VALUES (0, 0)")
    cur = conn.cursor()
    cur.execute("SELECT 10 / k FROM t")  # pipelined: evaluates at fetch
    with pytest.raises(api.exceptions.Error):
        cur.fetchall()
    cur.execute("SELECT 10 / k FROM t")
    with pytest.raises(api.exceptions.Error):
        cur.fetchone()


def test_connection_close_releases_owned_cluster():
    conn = api.connect(shards=2, modulus_bits=256, value_bits=64,
                       rng=seeded_rng(37))
    coordinator = conn.proxy.server
    conn.close()
    with pytest.raises(RuntimeError):  # scatter pool is shut down
        coordinator._pool.submit(lambda: None)
