"""The four sdbbench workloads: deployment, op stream, oracle.

Every workload is a closed loop (a DB-API session waits for each reply)
over a seed-determined op stream.  The stream is cut into *units* of
identical composition -- a pass over the 22 TPC-H queries, a block of 100
OLTP statements -- and the measured phase runs whole units until the
requested time has passed, so two runs of different speed execute a
different number of units but never a different mix.

Oracles run after the measured phase and never abort it: a wrong result
marks its op (``op.wrong``), a wrong final state fails the workload.
"""

from __future__ import annotations

import bisect
import datetime
import os
import random
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Optional

import repro.api as api
from repro.core.meta import ValueType
from repro.core.server import SDBServer
from repro.crypto.prf import seeded_rng
from repro.net.client import RemoteServer
from repro.workloads import tpcc
from repro.workloads.tpch import dbgen as tpch_dbgen
from repro.workloads.tpch import loader as tpch_loader
from repro.workloads.tpch.queries import QUERIES

from harness import (
    MODULUS_BITS,
    VALUE_BITS,
    Daemon,
    Sizes,
    directory_bytes,
    peak_rss_kb,
)


@dataclass(slots=True)
class Op:
    """One operation: what to run, what it should return, what it did."""

    cls: str
    payload: object
    expect: object = None
    session: int = 0
    start: float = 0.0
    end: float = 0.0
    result: object = None
    error: Optional[str] = None
    wrong: bool = False
    #: traced run only: route / execution-path facts from ``cursor.report``
    info: Optional[dict] = None

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _close_enough(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        return abs(got - want) <= 1e-4 + 1e-6 * abs(want)
    return got == want


def _rows_equal(got, want) -> bool:
    return all(
        len(g) == len(w) and all(_close_enough(a, b) for a, b in zip(g, w))
        for g, w in zip(got, want)
    )


def _sort_key(row) -> tuple:
    # exact fields first, so fixed-point noise in a float cannot reorder rows
    exact = tuple(repr(v) for v in row if not isinstance(v, float))
    loose = tuple(round(v, 2) for v in row if isinstance(v, float))
    return exact, loose


def rows_match(got, want) -> bool:
    """Decimal-tolerant relation equality; falls back to comparing as
    multisets because ORDER BY ties (and unordered scans) may legally
    come back in another order from a sharded deployment."""
    got, want = [tuple(r) for r in got], [tuple(r) for r in want]
    if len(got) != len(want):
        return False
    if _rows_equal(got, want):
        return True
    return _rows_equal(sorted(got, key=_sort_key), sorted(want, key=_sort_key))


class Workload:
    """Deployment lifecycle + measured loop shared by all four workloads."""

    name = ""
    #: ``latency_tail_ms`` is this percentile; every workload fixes its own
    tail_pct = 95.0

    def __init__(self, seed: int, sizes: Sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.daemons: list[Daemon] = []
        self.conn = None
        self.cur = None
        self._units = iter(())
        self._launched = 0
        #: traced run: ``Recorder.meter_udfs``, applied to an in-process SP
        self.udf_meter = None

    # -- deployment -----------------------------------------------------------

    def launch(self, *args) -> Daemon:
        self._launched += 1
        daemon = Daemon(self.workdir, f"sp{self._launched}", list(args))
        self.daemons.append(daemon)
        return daemon

    def connect(self, **where):
        return api.connect(
            modulus_bits=MODULUS_BITS, value_bits=VALUE_BITS,
            rng=seeded_rng(self.seed * 10 + 1), **where,
        )

    def connect_cluster(self, shards: int = 2):
        daemons = [self.launch("--shard-id", str(i)) for i in range(shards)]
        return self.connect(shards=[d.endpoint for d in daemons])

    def setup(self) -> None:
        """Build the deployment and run the warm pass (timed as setup_s)."""
        raise NotImplementedError

    def teardown(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            except Exception:  # noqa: BLE001 -- a dead daemon must not block cleanup
                pass
            self.conn = self.cur = None
        for daemon in self.daemons:
            daemon.stop()
        self.daemons = []

    def peak_rss_mb(self) -> float:
        total = peak_rss_kb(os.getpid()) + sum(
            d.peak_rss_kb() for d in self.daemons
        )
        return total / 1024.0

    def dead_daemons(self) -> list[str]:
        return [
            f"{d.label} exited with {d.process.returncode}: {d.last_words()}"
            for d in self.daemons if d.died()
        ]

    # -- measured loop --------------------------------------------------------

    def units(self):
        """Yield lists of :class:`Op`, each of identical composition."""
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def observe(self, op: Op) -> None:
        """Traced run: copy route/path facts off the public report."""
        report = self.cur.report
        if report is None:
            return
        scatter = report.scatter
        op.info = {
            "kind": report.kind,
            "route": scatter.mode if scatter is not None else "single",
            "shards": scatter.shards if scatter is not None else 1,
            "exec_path": report.exec_path,
            "timing": report.timing or {},
        }

    def run_op(self, op: Op, probe) -> None:
        if probe is not None:
            probe.begin(op)
        op.start = time.perf_counter()
        try:
            op.result = self.execute(op)
        except Exception as error:  # noqa: BLE001 -- counted, never fatal
            op.error = f"{type(error).__name__}: {error}"
        op.end = time.perf_counter()
        if probe is not None:
            probe.end(op)
            if op.error is None:
                self.observe(op)

    def measure(self, seconds: float, probe=None) -> list[Op]:
        """Run whole units until ``seconds`` have passed."""
        done: list[Op] = []
        deadline = time.perf_counter() + seconds
        for unit in self._units:
            for op in unit:
                self.run_op(op, probe)
            done.extend(unit)
            if time.perf_counter() >= deadline:
                break
        return done

    def verify(self, ops: list[Op]) -> list[str]:
        """Mark wrong ops; return final-state failures (empty: state ok)."""
        raise NotImplementedError

    def extras(self) -> dict:
        """Per-layer metrics (by name) gathered outside the spans."""
        return {}


# -- tpch_local / tpch_cluster --------------------------------------------------

class Tpch(Workload):
    """All 22 TPC-H queries, in-process or on two shard daemons."""

    tail_pct = 90.0

    def __init__(self, seed, sizes, workdir, cluster: bool):
        super().__init__(seed, sizes, workdir)
        self.cluster = cluster
        self.name = "tpch_cluster" if cluster else "tpch_local"
        self.data = None
        self.server = None
        self.passes = 0

    def setup(self) -> None:
        # one fixed dataset: at this scale factor dbgen's own variance
        # (lineitem +-4 %, join selectivities) is larger than any bound, so
        # --seed drives key material, masks and query order, not the rows
        self.data = tpch_dbgen.generate(scale_factor=self.sizes.tpch_scale)
        if self.cluster:
            self.conn = self.connect_cluster()
            shard_by = tpch_loader.DEFAULT_SHARD_COLUMNS
        else:
            self.server = SDBServer()
            if self.udf_meter is not None:
                self.udf_meter(self.server.udfs)
            self.conn = self.connect(server=self.server)
            shard_by = None
        tpch_loader.load_encrypted(
            self.conn.proxy, self.data,
            rng=seeded_rng(self.seed * 10 + 2), shard_by=shard_by,
        )
        self.cur = self.conn.cursor()
        self.passes = 0
        self._units = self.units()
        for op in next(self._units):  # warm: statement cache, SP plans, routes
            self.execute(op)

    def units(self):
        numbers = sorted(QUERIES)
        while self.passes <= self.sizes.tpch_max_passes:
            order = list(numbers)
            random.Random(f"{self.seed}-pass-{self.passes}").shuffle(order)
            self.passes += 1
            yield [Op(f"q{n:02d}", QUERIES[n]) for n in order]

    def execute(self, op: Op):
        self.cur.execute(op.payload)
        return self.cur.fetchall()

    def verify(self, ops) -> list[str]:
        plain = tpch_loader.load_plain(self.data)
        expected: dict = {}
        for op in ops:
            if op.error is not None:
                continue
            if op.cls not in expected:
                expected[op.cls] = list(plain.execute(op.payload).rows())
            op.wrong = not rows_match(op.result, expected[op.cls])
        return []

    def extras(self) -> dict:
        if not self.cluster:
            return {}
        counts = [
            sum(status["tables"].values())
            for status in self.conn.proxy.server.shard_status()
        ]
        mean = sum(counts) / len(counts)
        return {"cluster.shard_skew": max(counts) / mean if mean else 0.0}


# -- oltp_mix -------------------------------------------------------------------

ACCOUNT_COLUMNS = [
    ("a_id", ValueType.int_()),
    ("a_owner", ValueType.string(12)),
    ("a_region", ValueType.int_()),
    ("a_balance", ValueType.decimal(2)),
    ("a_opened", ValueType.date()),
    ("a_note", ValueType.string(24)),
]
REGIONS = 50
RANGE_WIDTH = 20

#: statements per 100-op block, by class (the permanent mix)
OLTP_MIX = {
    "point": 40, "owner": 12, "range": 8, "agg": 5, "adhoc": 10,
    "update": 12, "insert": 10, "delete": 3,
}
OLTP_READS = ("point", "owner", "range", "agg", "adhoc")
OLTP_WRITES = ("update", "insert", "delete")

OLTP_SQL = {
    "point": "SELECT a_id, a_owner, a_region, a_balance FROM accounts "
             "WHERE a_id = ?",
    "owner": "SELECT a_id, a_balance FROM accounts WHERE a_owner = ?",
    "range": "SELECT a_id, a_balance FROM accounts WHERE a_id BETWEEN ? AND ?",
    "agg": "SELECT SUM(a_balance) AS total, COUNT(*) AS n FROM accounts "
           "WHERE a_region = ?",
    # literal-inlined and textually unique: a statement-cache miss, and
    # past 64 statements an eviction, with a full parse + rewrite + prepare
    "adhoc": "SELECT a_id, a_balance FROM accounts "
             "WHERE a_id = {key} AND a_region < {bound}",
    "update": "UPDATE accounts SET a_balance = a_balance + ? WHERE a_id = ?",
    "insert": "INSERT INTO accounts (a_id, a_owner, a_region, a_balance, "
              "a_opened, a_note) VALUES (?, ?, ?, ?, ?, ?)",
    "delete": "DELETE FROM accounts WHERE a_id = ?",
}
FINAL_STATE_SQL = "SELECT COUNT(*) AS n, SUM(a_balance) AS total FROM accounts"


class _Accounts:
    """The plaintext oracle: a dict model advanced while ops are generated,
    so every read carries its expected rows before it ever runs."""

    def __init__(self, rows):
        self.rows: dict = {}
        self.by_owner: dict = {}
        for row in rows:
            self.insert(row)

    def insert(self, row) -> None:
        a_id, owner, region, balance = row[0], row[1], row[2], row[3]
        self.rows[a_id] = [owner, region, round(balance * 100)]
        self.by_owner.setdefault(owner, set()).add(a_id)

    def delete(self, a_id) -> None:
        owner = self.rows.pop(a_id)[0]
        self.by_owner[owner].discard(a_id)

    def select(self, ids, with_owner: bool = False) -> list:
        out = []
        for a_id in ids:
            row = self.rows.get(a_id)
            if row is None:
                continue
            owner, region, cents = row
            if with_owner:
                out.append((a_id, owner, region, cents / 100.0))
            else:
                out.append((a_id, cents / 100.0))
        return out

    def region_total(self, region) -> tuple:
        cents = [r[2] for r in self.rows.values() if r[1] == region]
        return (sum(cents) / 100.0 if cents else None, len(cents))

    def state(self) -> tuple:
        return len(self.rows), sum(r[2] for r in self.rows.values()) / 100.0


class _Zipf:
    """Zipf(s) over a seeded permutation of the keys 1..n."""

    def __init__(self, n: int, s: float, rng):
        self.keys = list(range(1, n + 1))
        rng.shuffle(self.keys)
        self.cumulative = []
        total = 0.0
        for rank in range(1, n + 1):
            total += 1.0 / rank ** s
            self.cumulative.append(total)

    def draw(self, rng) -> int:
        point = rng.random() * self.cumulative[-1]
        return self.keys[bisect.bisect_left(self.cumulative, point)]


class OltpMix(Workload):
    """Short autocommit statements against one durable daemon."""

    name = "oltp_mix"
    #: p95 lies inside the write classes' mode (15 of 100 statements); p99
    #: sits on the stall tail above it and moved 35 % between equal runs
    tail_pct = 95.0

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        rng = random.Random(f"oltp-{seed}")
        n = sizes.accounts
        base = datetime.date(2010, 1, 1)
        self.owners = [f"o{i:05d}" for i in range(max(1, n // 10))]
        self.rows = [
            (
                a_id, rng.choice(self.owners), rng.randrange(REGIONS),
                rng.randrange(100, 1_000_000) / 100.0,
                base + datetime.timedelta(days=rng.randrange(4000)),
                f"note-{rng.randrange(10 ** 6):06d}",
            )
            for a_id in range(1, n + 1)
        ]
        # block 0 is the warm block; states[i] is the model after block i
        self.blocks, self.states = self._generate(rng)
        self.position = 0
        self.durable_dir = None
        self.recover_s = 0.0
        self.disk_bytes = 0
        self.user_bytes = 0

    def _generate(self, rng):
        model = _Accounts(self.rows)
        zipf = _Zipf(self.sizes.accounts, 0.99, rng)
        next_id = self.sizes.accounts + 1
        adhoc_seq = 0
        template = [cls for cls, share in OLTP_MIX.items() for _ in range(share)]
        blocks, states = [], []
        for _ in range(self.sizes.oltp_max_blocks + 1):
            classes = list(template)
            rng.shuffle(classes)
            block = []
            for cls in classes:
                sql = OLTP_SQL[cls]
                if cls == "point":
                    key = zipf.draw(rng)
                    op = Op(cls, (sql, [key]), model.select([key], True))
                elif cls == "owner":
                    owner = rng.choice(self.owners)
                    ids = sorted(model.by_owner.get(owner, ()))
                    op = Op(cls, (sql, [owner]), model.select(ids))
                elif cls == "range":
                    low = rng.randrange(1, max(2, next_id - RANGE_WIDTH))
                    ids = range(low, low + RANGE_WIDTH)
                    op = Op(cls, (sql, [low, low + RANGE_WIDTH - 1]),
                            model.select(ids))
                elif cls == "agg":
                    region = rng.randrange(REGIONS)
                    op = Op(cls, (sql, [region]), [model.region_total(region)])
                elif cls == "adhoc":
                    key = rng.randrange(1, next_id)
                    adhoc_seq += 1
                    text = sql.format(key=key, bound=REGIONS + adhoc_seq)
                    op = Op(cls, (text, []), model.select([key]))
                elif cls == "update":
                    key = zipf.draw(rng)
                    while key not in model.rows:
                        key = zipf.draw(rng)
                    cents = rng.randrange(1, 5000)
                    model.rows[key][2] += cents
                    op = Op(cls, (sql, [cents / 100.0, key]), 1)
                elif cls == "insert":
                    row = (
                        next_id, rng.choice(self.owners),
                        rng.randrange(REGIONS),
                        rng.randrange(100, 1_000_000) / 100.0,
                        datetime.date(2020, 1, 1), f"new-{next_id}",
                    )
                    next_id += 1
                    model.insert(row)
                    op = Op(cls, (sql, list(row)), 1)
                else:  # delete: any live key, hot or cold
                    key = rng.choice(list(model.rows))
                    model.delete(key)
                    op = Op(cls, (sql, [key]), 1)
                block.append(op)
            blocks.append(block)
            states.append(model.state())
        return blocks, states

    def setup(self) -> None:
        self.durable_dir = self.workdir / f"durable-{self._launched}"
        daemon = self.launch("--durable", str(self.durable_dir))
        self.conn = self.connect(host=daemon.host, port=daemon.port)
        self.conn.proxy.create_table(
            "accounts", ACCOUNT_COLUMNS, self.rows, sensitive=["a_balance"],
            rng=seeded_rng(self.seed * 10 + 2),
        )
        self.cur = self.conn.cursor()
        self.position = 0
        self._units = self.units()
        for op in next(self._units):  # warm block: changes state, untimed
            self.execute(op)

    def units(self):
        while self.position < len(self.blocks):
            self.position += 1
            yield self.blocks[self.position - 1]

    def execute(self, op: Op):
        sql, params = op.payload
        self.cur.execute(sql, params)
        if op.cls in OLTP_READS:
            return self.cur.fetchall()
        return self.cur.rowcount

    def wal_bytes(self) -> int:
        return (self.durable_dir / "wal.log").stat().st_size

    def _state_error(self, when: str) -> Optional[str]:
        want_count, want_total = self.states[self.position - 1]
        self.cur.execute(FINAL_STATE_SQL)
        count, total = self.cur.fetchone()
        if count == want_count and _close_enough(float(total), want_total):
            return None
        return (f"{when}: COUNT/SUM = {count}/{total}, "
                f"model says {want_count}/{want_total}")

    def verify(self, ops) -> list[str]:
        for op in ops:
            if op.error is not None:
                continue
            if op.cls in OLTP_READS:
                op.wrong = not rows_match(op.result, op.expect)
            else:
                op.wrong = op.result != op.expect
        failures = [self._state_error("after the run")]
        self.disk_bytes = directory_bytes(self.durable_dir)
        executed = (op for block in self.blocks[:self.position] for op in block)
        self.user_bytes = sum(_csv_bytes(row) for row in self.rows) + sum(
            _csv_bytes(op.payload[1]) for op in executed if op.cls == "insert"
        )
        # crash the SP (no shutdown hook runs) and bring it back from the
        # same directory: every acknowledged write must still be there
        old = self.daemons.pop()
        old.stop(kill=True)
        self.conn.proxy.server.close()
        daemon = self.launch("--durable", str(self.durable_dir))
        self.recover_s = daemon.startup_s
        self.conn.proxy.server = RemoteServer.connect(daemon.host, daemon.port)
        failures.append(self._state_error("after kill + restart"))
        return [f for f in failures if f]

    def extras(self) -> dict:
        return {
            "storage.recover_s": self.recover_s,
            "storage.disk_bytes_per_user_byte": self.disk_bytes / self.user_bytes,
        }


def _csv_bytes(row) -> int:
    return len(",".join(str(v) for v in row)) + 1


# -- tpcc_txn -------------------------------------------------------------------

class TpccTxn(Workload):
    """NewOrder/Payment transactions from two threads over two shards."""

    name = "tpcc_txn"
    tail_pct = 95.0
    SESSIONS = 2

    def __init__(self, seed, sizes, workdir):
        super().__init__(seed, sizes, workdir)
        self.data = tpcc.generate(**sizes.tpcc, seed=seed)
        self.sessions: list = []
        self.queues: list = []
        self.before = None

    def _schedule(self, transactions: int, seed: int, o_id_base: int):
        return tpcc.build_schedule(
            self.data, sessions=self.SESSIONS, transactions=transactions,
            seed=seed, partition="district", o_id_base=o_id_base,
        )

    def setup(self) -> None:
        self.conn = self.connect_cluster()
        tpcc.load_encrypted(
            self.conn.proxy, self.data,
            rng=seeded_rng(self.seed * 10 + 2), shard=True,
        )
        self.sessions = [
            api.connect(proxy=self.conn.proxy) for _ in range(self.SESSIONS)
        ]
        # warm plans and routes with real transactions on order ids far
        # from the measured ones; the checksum baseline is taken after
        warm = self._schedule(self.sizes.tpcc_warm, self.seed + 1, 10 ** 6)
        for session, txns in zip(self.sessions, warm):
            tpcc.run_session(session, txns)
        self.before = tpcc.checksum(self.conn)
        measured = self._schedule(self.sizes.tpcc_transactions, self.seed, 0)
        self.queues = [
            deque(Op(txn["kind"], txn, session=s) for txn in txns)
            for s, txns in enumerate(measured)
        ]

    def teardown(self) -> None:
        for session in self.sessions:
            try:
                session.close()
            except Exception:  # noqa: BLE001 -- cleanup must reach the daemons
                pass
        self.sessions = []
        super().teardown()

    def execute(self, op: Op):
        return tpcc.run_txn(self.sessions[op.session], op.payload)

    def observe(self, op: Op) -> None:
        pass  # statements run inside run_txn; the spans carry the detail

    def measure(self, seconds: float, probe=None) -> list[Op]:
        """Each session thread runs its own queue until the deadline."""
        start = time.perf_counter()
        deadline = start + seconds
        done: list = [[] for _ in self.queues]

        def drive(index: int) -> None:
            queue = self.queues[index]
            while queue and time.perf_counter() < deadline:
                op = queue.popleft()
                self.run_op(op, probe)
                done[index].append(op)

        threads = [
            threading.Thread(target=drive, args=(i,), name=f"session-{i}")
            for i in range(len(self.queues))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        ops = [op for session_ops in done for op in session_ops]
        for thread in threads:
            if thread.is_alive():
                ops.append(Op("stuck", None, error=f"{thread.name} never finished"))
        return sorted(ops, key=lambda op: op.end)

    def verify(self, ops) -> list[str]:
        committed = [[] for _ in range(self.SESSIONS)]
        for op in ops:
            if op.error is None:
                committed[op.session].append(op.payload)
        got = tpcc.delta(tpcc.checksum(self.conn), self.before)
        want = tpcc.expected_delta(self.data, committed)
        if got == want:
            return []
        diff = {k: (got[k], want[k]) for k in want if got[k] != want[k]}
        return [f"checksum delta differs from expected_delta: {diff}"]


WORKLOADS = {
    "tpch_local": lambda seed, sizes, workdir: Tpch(seed, sizes, workdir, False),
    "tpch_cluster": lambda seed, sizes, workdir: Tpch(seed, sizes, workdir, True),
    "oltp_mix": OltpMix,
    "tpcc_txn": TpccTxn,
}
