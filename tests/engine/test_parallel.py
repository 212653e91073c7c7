"""Shard-parallel execution: correctness, fallback, fault tolerance.

Every query shape the partial + merge split covers runs on an in-process
4-shard cluster and must match the serial :class:`Engine` over the same
rows; ineligible shapes take the fallback route and must match too.
Replica groups whose members die mid-query must still answer correctly.
"""

import pytest

from repro.api.exceptions import ShardUnavailableError
from repro.cluster import Coordinator, FaultInjector, ShardGroup
from repro.core.server import SDBServer
from repro.engine import Catalog, ColumnSpec, DataType, Engine, Schema, Table


def _sales_table(rows=60) -> Table:
    schema = Schema(
        (
            ColumnSpec("id", DataType.INT),
            ColumnSpec("region", DataType.STRING),
            ColumnSpec("qty", DataType.INT),
            ColumnSpec("price", DataType.DECIMAL, scale=2),
        )
    )
    regions = ["east", "west", "north", "south"]
    data = [
        (i, regions[i % 4], (i * 7) % 13 + 1, float((i * 31) % 97) + 0.5)
        for i in range(rows)
    ]
    return Table.from_rows(schema, data)


def _store(cluster: Coordinator, name: str, table: Table) -> None:
    cluster.store_sharded(name, table, "id", buckets=range(table.num_rows))


def _serial(table: Table) -> Engine:
    catalog = Catalog()
    catalog.create("sales", table)
    return Engine(catalog)


@pytest.fixture()
def engines():
    table = _sales_table()
    cluster = Coordinator([SDBServer() for _ in range(4)])
    _store(cluster, "sales", table)
    yield cluster, _serial(table)
    cluster.close()


def assert_equivalent(engines, sql, ordered=False):
    cluster, serial = engines
    expected = serial.execute(sql)
    actual = cluster.execute(sql)
    assert actual.schema.names == expected.schema.names
    expected_rows = list(expected.rows())
    actual_rows = list(actual.rows())
    if not ordered:
        expected_rows = sorted(expected_rows, key=repr)
        actual_rows = sorted(actual_rows, key=repr)
    assert len(actual_rows) == len(expected_rows)
    for e, a in zip(expected_rows, actual_rows):
        for ev, av in zip(e, a):
            if isinstance(ev, float):
                assert av == pytest.approx(ev, rel=1e-9)
            else:
                assert av == ev
    return cluster.last_scatter


# -- cluster == serial ----------------------------------------------------------


def test_scan_filter_project(engines):
    route = assert_equivalent(
        engines, "SELECT id, qty * 2 AS dqty FROM sales WHERE qty > 5"
    )
    assert route.mode == "scatter"
    assert route.shards == 4


def test_global_sum(engines):
    route = assert_equivalent(engines, "SELECT SUM(qty) AS total FROM sales")
    assert route.mode == "scatter"


def test_global_count_star(engines):
    assert_equivalent(engines, "SELECT COUNT(*) AS c FROM sales")


def test_global_min_max(engines):
    assert_equivalent(
        engines, "SELECT MIN(price) AS lo, MAX(price) AS hi FROM sales"
    )


def test_global_avg(engines):
    assert_equivalent(engines, "SELECT AVG(qty) AS mean FROM sales")


def test_grouped_aggregates(engines):
    route = assert_equivalent(
        engines,
        "SELECT region, COUNT(*) AS c, SUM(qty) AS q, AVG(price) AS p "
        "FROM sales GROUP BY region",
    )
    assert route.mode == "scatter"


def test_grouped_with_having(engines):
    assert_equivalent(
        engines,
        "SELECT region, SUM(qty) AS q FROM sales GROUP BY region "
        "HAVING SUM(qty) > 50",
    )


def test_grouped_with_order_and_limit(engines):
    assert_equivalent(
        engines,
        "SELECT region, SUM(qty) AS q FROM sales GROUP BY region "
        "ORDER BY q DESC LIMIT 2",
        ordered=True,
    )


def test_aggregate_expression_of_aggregates(engines):
    assert_equivalent(
        engines,
        "SELECT SUM(price) / COUNT(*) AS unit FROM sales WHERE qty >= 3",
    )


def test_scan_order_by_selected_column(engines):
    route = assert_equivalent(
        engines,
        "SELECT id, price FROM sales WHERE region = 'east' ORDER BY price DESC",
        ordered=True,
    )
    assert route.mode == "scatter"


def test_distinct_scan(engines):
    assert_equivalent(engines, "SELECT DISTINCT region FROM sales")


def test_empty_result(engines):
    assert_equivalent(engines, "SELECT SUM(qty) AS t FROM sales WHERE qty > 999")


def test_aggregate_over_empty_group_count_is_zero(engines):
    cluster, _ = engines
    result = cluster.execute("SELECT COUNT(*) AS c FROM sales WHERE id < 0")
    assert result.column("c") == [0]


# -- fallback --------------------------------------------------------------------


def test_join_falls_back(engines):
    cluster, _ = engines
    _store(cluster, "sales2", _sales_table(5))
    cluster.execute("SELECT s.id FROM sales s, sales2 t WHERE s.id = t.id")
    assert cluster.last_scatter.mode == "fallback"


def test_subquery_falls_back(engines):
    cluster, _ = engines
    cluster.execute(
        "SELECT id FROM sales WHERE qty > (SELECT AVG(qty) FROM sales)"
    )
    assert cluster.last_scatter.mode == "fallback"


def test_distinct_aggregate_falls_back(engines):
    cluster, _ = engines
    cluster.execute("SELECT COUNT(DISTINCT region) AS c FROM sales")
    assert cluster.last_scatter.mode == "fallback"


def test_unresolvable_order_by_falls_back(engines):
    cluster, _ = engines
    cluster.execute("SELECT id FROM sales ORDER BY qty * price")
    assert cluster.last_scatter.mode == "fallback"


def test_fallback_matches_serial(engines):
    # fallback results must still be correct
    route = assert_equivalent(
        engines, "SELECT COUNT(DISTINCT region) AS c FROM sales"
    )
    assert route.mode == "fallback"


# -- fault tolerance ----------------------------------------------------------------


def _replicated(table: Table):
    """4 shards x 2 fault-injectable members, ``sales`` loaded."""
    injector = FaultInjector()
    groups = [
        ShardGroup(
            [injector.wrap(SDBServer(shard_id=g), f"s{g}r{o}") for o in range(2)]
        )
        for g in range(4)
    ]
    cluster = Coordinator(groups)
    _store(cluster, "sales", table)
    return cluster, injector


def test_injected_failures_are_retried():
    table = _sales_table(40)
    cluster, injector = _replicated(table)
    doomed = {"s0", "s2"}  # each loses whichever member serves its leg

    def kill_mid_query(label):
        member, op = label.split(".")
        if member[:2] in doomed and op == "execute_partial":
            doomed.discard(member[:2])
            injector.kill(member)

    injector.on_op.append(kill_mid_query)
    sql = "SELECT SUM(qty) AS total FROM sales"
    result = cluster.execute(sql)
    assert result.column("total") == _serial(table).execute(sql).column("total")
    assert not doomed, "the scatter never touched a doomed group"
    assert cluster.last_scatter.mode == "scatter"
    evicted = [e.group for e in cluster.failover.events if e.kind == "evict"]
    assert sorted(evicted) == [0, 2]
    cluster.close()


def test_exhausted_retries_raise():
    cluster, injector = _replicated(_sales_table(8))
    injector.kill("s1r0")
    injector.kill("s1r1")
    with pytest.raises(ShardUnavailableError, match="no member"):
        cluster.execute("SELECT SUM(qty) AS total FROM sales")
    cluster.close()


# -- encrypted shard-parallel execution --------------------------------------------


def test_sdb_share_sums_parallelize():
    """Encrypted SUM must produce identical plaintext on 1 SP and 4 shards."""
    import repro.api as api
    from repro.core.meta import ValueType
    from repro.crypto.prf import seeded_rng

    rows = [(i, float(i)) for i in range(1, 41)]
    results = {}
    for shards in (None, 4):
        conn = api.connect(shards=shards, modulus_bits=256, value_bits=64,
                           rng=seeded_rng(77))
        conn.proxy.create_table(
            "pay",
            [("id", ValueType.int_()), ("amount", ValueType.decimal(2))],
            rows,
            sensitive=["amount"],
            rng=seeded_rng(78),
            shard_by="id" if shards else None,
        )
        cursor = conn.cursor()
        results[shards] = cursor.execute(
            "SELECT SUM(amount) AS total FROM pay"
        ).fetchall()[0][0]
        if shards:
            assert cursor.report.scatter.mode == "scatter"
        conn.close()
    assert results[4] == pytest.approx(results[None])
    assert results[None] == pytest.approx(sum(v for _, v in rows))
