"""The attacker's view recorded on the production path (paper Section 2.3).

``security.tap`` records what an SP-resident attacker observes while the
server runs exactly the code an untapped server runs: the batch kernels,
shared read locks, pipelined fetches, shards and the wire.  These tests
check that the QR findings on that path equal the ones the reference row
interpreter gives, that they hold on a wire cluster, and that the bounded
transcript stays consistent when sessions read concurrently.
"""

import threading
from collections import Counter

import pytest

import repro.api as api
from repro.core import security
from repro.core.meta import ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.engine import Engine
from repro.net import start_server
from repro.workloads.tpch.loader import tpch_deployment
from repro.workloads.tpch.queries import QUERIES
from repro.workloads.tpch.schema import TABLES
from repro.workloads.tpch.sensitivity import FINANCIAL_PROFILE

COLUMNS = [("id", ValueType.int_()), ("balance", ValueType.decimal(2))]
ROWS = [(i, float(100 * i)) for i in range(1, 101)]
BALANCE = ValueType.decimal(2)


def _accounts(row_path: bool):
    """A tapped deployment; ``row_path`` swaps in the reference engine."""
    server = SDBServer()
    transcript = security.tap(server)
    if row_path:
        server.engine = Engine(server.catalog, server.udfs, batch_enabled=False)
    conn = api.connect(
        server=server, modulus_bits=256, value_bits=64, rng=seeded_rng(31)
    )
    conn.proxy.create_table(
        "accounts", COLUMNS, ROWS, sensitive=["balance"], rng=seeded_rng(32)
    )
    return conn, server, transcript


def _ring(n, balances):
    return [BALANCE.encode(b) % n for b in balances]


def test_row_path_and_production_record_the_same_udf_traffic():
    views = []
    for row_path in (False, True):
        conn, server, transcript = _accounts(row_path)
        conn.proxy.query("SELECT SUM(balance) AS total FROM accounts")
        conn.proxy.query("SELECT id FROM accounts WHERE balance > 5000")
        attacker = security.QRAttacker(server)
        n = conn.proxy.store.keys.n
        views.append((
            Counter(transcript.udf_values),
            attacker.observations()[-1].comparison_signs.count(1),
            attacker.recovered_plaintexts(_ring(n, [b for _, b in ROWS])),
        ))
        assert len(transcript.udf_values) < security.UDF_SAMPLE_LIMIT
        conn.close()
    production, reference = views
    assert sum(production[0].values()) == 600
    assert production == reference
    assert production[1:] == (50, 0)


def test_streamed_cursor_records_the_same_udf_traffic():
    views = []
    for row_path in (False, True):
        conn, server, transcript = _accounts(row_path)
        cur = conn.cursor()
        cur.execute("SELECT id FROM accounts WHERE balance > ?", [5000])
        if not row_path:
            assert cur.rowcount == -1  # the production path streams
        assert len(cur.fetchall()) == 50
        assert len(transcript.udf_values) < security.UDF_SAMPLE_LIMIT
        views.append(Counter(transcript.udf_values))
        conn.close()
    assert sum(views[0].values()) > 0
    assert views[0] == views[1]


def _tpch_sensitive_values(proxy, data):
    values = set()
    for table, rows in data.items():
        for index, (name, vtype) in enumerate(TABLES[table]):
            if FINANCIAL_PROFILE.is_sensitive(table, name):
                values.update(
                    vtype.encode(row[index]) % proxy.store.keys.n for row in rows
                )
    values.discard(0)
    return values


def _raw_hits(transcript, known):
    """Sensitive values in UDF traffic, before the query-constant exclusion."""
    hits = 0
    for name, args, result in transcript.udf_values:
        values = list(args)
        if name not in security.QRAttacker.DECLARED_LEAKAGE_UDFS:
            values.append(result)
        hits += sum(1 for v in values if isinstance(v, int) and v in known)
    return hits


def test_tpch_qr_findings_match_the_row_path(monkeypatch):
    """Per query, both paths leak the same: equal recovered and raw hits.

    Raw multisets differ here (the batch path evaluates eagerly where the
    row interpreter short-circuits, e.g. Q19), so the findings are compared.
    Q1 alone makes ~22 600 UDF calls at this scale, so the bound is lifted
    for this test and asserted unreached per query.
    """
    monkeypatch.setattr(security, "UDF_SAMPLE_LIMIT", 100_000)
    proxy, _, data = tpch_deployment(
        scale_factor=0.0002, proxy_rng=seeded_rng(7)
    )
    server = proxy.server
    transcript = security.tap(server)
    known = _tpch_sensitive_values(proxy, data)
    engines = (server.engine, Engine(server.catalog, server.udfs, batch_enabled=False))
    findings = {}
    for number, sql in QUERIES.items():
        per_path = []
        for engine in engines:
            server.engine = engine
            transcript.clear()
            proxy.query(sql)
            assert len(transcript.udf_values) < security.UDF_SAMPLE_LIMIT
            recovered = security.QRAttacker(server).recovered_plaintexts(known)
            per_path.append((recovered, _raw_hits(transcript, known)))
        assert per_path[0] == per_path[1], f"Q{number}: {per_path}"
        findings[number] = per_path[0]
    assert findings[1][1] > 0  # the check saw sensitive-sized values
    # Q22 hands the SP's own COUNT result (10) to sdb_mul_plain, which
    # collides with a stored ring value; a checker false positive that
    # both paths report alike.  Every other query recovers nothing.
    assert {q: f[0] for q, f in findings.items() if f[0]} == {22: 10}


# -- production shape: a 2-shard wire cluster ---------------------------------


@pytest.fixture()
def wire_cluster():
    backends = [SDBServer() for _ in range(2)]
    transcripts = [security.tap(backend) for backend in backends]
    daemons = [start_server(sdb_server=backend)[0] for backend in backends]
    conn = api.connect(
        shards=[f"127.0.0.1:{daemon.port}" for daemon in daemons],
        modulus_bits=256, value_bits=64, rng=seeded_rng(61),
    )
    conn.proxy.create_table(
        "accounts", COLUMNS, ROWS, sensitive=["balance"], rng=seeded_rng(62),
        shard_by="id",
    )
    yield conn, backends, transcripts
    conn.close()
    conn.proxy.server.close()
    for daemon in daemons:
        daemon.shutdown()
        daemon.server_close()


def test_wire_cluster_shards_see_only_declared_leakage(wire_cluster):
    conn, backends, transcripts = wire_cluster
    cur = conn.cursor()
    cur.execute("SELECT SUM(balance) AS total FROM accounts")
    assert cur.fetchall() == [(sum(b for _, b in ROWS),)]
    cur.execute("SELECT id FROM accounts WHERE balance > 5000")
    assert len(cur.fetchall()) == 50
    cur.execute("SELECT id, balance FROM accounts WHERE balance > ?", [9000])
    assert len(cur.fetchall()) == 10
    conn.execute("UPDATE accounts SET balance = balance + 1 WHERE id <= 10")
    conn.begin()
    conn.execute("UPDATE accounts SET balance = balance + 2 WHERE id > 90")
    conn.commit()
    balances = [b for _, b in ROWS]
    balances += [b + 1 for b in balances[:10]] + [b + 2 for b in balances[90:]]
    known = _ring(conn.proxy.store.keys.n, balances)
    for backend, transcript in zip(backends, transcripts):
        assert security.scan_for_plaintext(backend, known) == []
        attacker = security.QRAttacker(backend)
        assert attacker.recovered_plaintexts(known) == 0
        assert len(transcript.udf_values) < security.UDF_SAMPLE_LIMIT
        if backend.catalog.get("accounts").num_rows:
            assert attacker.observations()
            assert transcript.udf_values


def test_concurrent_readers_keep_the_transcript_whole():
    """Reads share the lock on a tapped server; no record is lost."""
    server = SDBServer()
    transcript = security.tap(server)
    proxy = SDBProxy(server, modulus_bits=256, value_bits=64, rng=seeded_rng(71))
    proxy.create_table(
        "accounts", COLUMNS, ROWS, sensitive=["balance"], rng=seeded_rng(72)
    )
    proxy.query("SELECT SUM(balance) AS total FROM accounts")
    proxy.query("SELECT id FROM accounts WHERE balance > 5000")
    texts = list(transcript.queries)  # the rewritten SQL the SP executed
    transcript.clear()
    rounds = 20  # 2 x 20 x 300 UDF calls: more than the bound holds
    errors = []

    def reader(session, sql):
        try:
            for _ in range(rounds):
                server.execute(sql, session=session)
        except Exception as exc:  # surfaced below, not swallowed
            errors.append(exc)

    threads = [
        threading.Thread(target=reader, args=(session, sql))
        for session, sql in enumerate(texts, start=1)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    assert Counter(transcript.queries) == {sql: rounds for sql in texts}
    assert len(transcript.results) == 2 * rounds
    assert len(transcript.udf_values) == security.UDF_SAMPLE_LIMIT
