"""Per-layer metrics of the traced run.

Names are ``<module under src/repro>.<what>``; every run emits every name
(0 where a layer is not on the workload's path -- no wire on
``tpch_local``, no cluster tier on ``oltp_mix``), because the driver wants
one fixed set.  BENCHMARK.json adds which direction is better; README.md
holds the layer -> end-to-end prediction table.
"""

from __future__ import annotations

import time

from repro.crypto import ntheory, secret_sharing
from repro.crypto.keys import generate_system_keys
from repro.crypto.prf import seeded_rng
from repro.crypto.sies import SIESCipher, SIESKey
from repro.net.client import RemoteServer
from repro.obs.metrics import global_metrics

from harness import median, percentile, samples_beyond
from tracing import SERVER_LAYERS, outermost, self_times
from workloads import OLTP_WRITES

TPCH_CLASSES = [f"q{n:02d}" for n in range(1, 23)]
OP_CLASSES = ["point", "owner", "range", "agg", "adhoc", "update", "insert",
              "delete", "new_order", "payment"]
ROUTES = ["scatter", "coshard", "primary", "fallback", "single"]
CRYPTO_BITS = (256, 2048)

PER_LAYER: dict = {
    "sql.parse_ms_per_op": "ms",
    "sql.parse_calls_per_op": "count",
    "api.stmt_cache_hit_ratio": "ratio",
    "api.stmt_cache_evictions": "count",
    "api.bind_ms_per_op": "ms",
    **{f"api.{cls}_ms": "ms" for cls in TPCH_CLASSES},
    **{f"cluster.{cls}_ms": "ms" for cls in TPCH_CLASSES},
    **{f"api.{cls}_ms": "ms" for cls in OP_CLASSES},
    "core.rewrite_ms_per_op": "ms",
    "core.decrypt_ms_per_op": "ms",
    "core.decrypt_rows_per_op": "count",
    "core.server_ms_per_op": "ms",
    "core.client_fraction": "ratio",
    "core.encrypt_rows_per_s": "1/s",
    "core.udf_calls_per_op": "count",
    "core.udf_ms_per_op": "ms",
    "core.txn_retries_per_txn": "count",
    "core.txn_failed_ratio": "ratio",
    "core.commit_ms_per_txn": "ms",
    **{
        f"crypto.{what}_us_{bits}": "us"
        for what in ("share_encrypt", "share_decrypt", "sies_encrypt",
                     "batch_modinv")
        for bits in CRYPTO_BITS
    },
    "engine.execute_ms_per_op": "ms",
    "engine.batch_path_ratio": "ratio",
    "engine.scan_us_per_row": "us",
    **{f"cluster.route_{route}_ratio": "ratio" for route in ROUTES},
    "cluster.fanout_shards_per_op": "count",
    "cluster.route_ms_per_op": "ms",
    "cluster.scatter_ms_per_op": "ms",
    "cluster.merge_ms_per_op": "ms",
    "cluster.gather_ms_per_op": "ms",
    "cluster.shard_skew": "ratio",
    "cluster.speedup_vs_local": "ratio",
    "cluster.multi_shard_txn_ratio": "ratio",
    "net.rtt_ping_ms": "ms",
    "net.requests_per_op": "count",
    "net.bytes_sent_per_op": "B",
    "net.bytes_received_per_op": "B",
    "net.server_op_ms_per_op": "ms",
    "net.admission_rejections": "count",
    "storage.wal_bytes_per_write": "B",
    "storage.disk_bytes_per_user_byte": "ratio",
    "storage.recover_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "obs.trace_coverage_ratio": "ratio",
    # end-to-end by nature, but not fit to carry a bound: always 0 /
    # spread wider than any bound on this box (README, "Demoted")
    "error_ratio": "ratio",
    "latency_p99_ms": "ms",
}

#: daemon wire ops that run the engine (the rest is control traffic)
ENGINE_WIRE_OPS = {
    "execute", "execute_dml", "insert_rows", "prepare", "execute_prepared",
    "fetch", "shard_partial", "txn", "txn_prepare", "txn_finalize",
}


# -- counters read from public surfaces ----------------------------------------

def _wire_handles(workload) -> list:
    """The RemoteServer objects this workload's sessions talk through."""
    if not workload.daemons:
        return []
    server = workload.conn.proxy.server
    return list(getattr(server, "shards", [server]))


def _sessions(workload) -> list:
    return getattr(workload, "sessions", None) or [workload.conn]


def snapshot(workload) -> dict:
    """Cumulative counters; subtract two snapshots for a phase."""
    out = {"hits": 0, "misses": 0, "evictions": 0, "sent": 0, "received": 0,
           "server_op_s": 0.0, "engine_op_s": 0.0, "rejections": 0.0,
           "wal_bytes": 0}
    for session in _sessions(workload):
        info = session.cache_info()
        out["hits"] += info.hits
        out["misses"] += info.misses
        out["evictions"] += info.evictions
    for handle in _wire_handles(workload):
        out["sent"] += handle.bytes_sent
        out["received"] += handle.bytes_received
    registries = [global_metrics().snapshot()]
    for daemon in workload.daemons:
        with RemoteServer.connect(daemon.host, daemon.port) as monitor:
            registries.append(monitor.metrics())
    for registry in registries:
        for row in registry.get("sdb_server_op_seconds", {}).get("values", ()):
            op = row["labels"].get("op")
            if op == "metrics":
                continue  # our own monitoring call
            out["server_op_s"] += row["sum"]
            if op in ENGINE_WIRE_OPS:
                out["engine_op_s"] += row["sum"]
        rejections = registry.get("sdb_admission_rejections_total", {})
        out["rejections"] += sum(r["value"] for r in rejections.get("values", ()))
    if hasattr(workload, "wal_bytes"):
        out["wal_bytes"] = workload.wal_bytes()
    return out


def ping_rtt_ms(workload, samples: int) -> float:
    if not workload.daemons:
        return 0.0
    daemon = workload.daemons[0]
    times = []
    with RemoteServer.connect(daemon.host, daemon.port) as handle:
        for _ in range(samples):
            start = time.perf_counter()
            handle.ping()
            times.append(time.perf_counter() - start)
    return median(times) * 1000.0


# -- crypto micro-benchmark ----------------------------------------------------------

def crypto_micro(values_by_bits: dict) -> dict:
    """Microseconds per value, calling the crypto package directly over a
    fixed seeded column -- the one place the paper-scale 2048-bit modulus
    is affordable."""
    out = {}
    for bits, count in values_by_bits.items():
        rng = seeded_rng(f"sdbbench-crypto-{bits}")
        keys = generate_system_keys(modulus_bits=bits, value_bits=64, rng=rng)
        column_key = keys.random_column_key(rng)
        row_ids = [keys.random_row_id(rng) for _ in range(count)]
        values = [rng.randrange(1 << 40) for _ in range(count)]
        units = [ntheory.random_unit(keys.n, rng) for _ in range(count)]
        cipher = SIESCipher(SIESKey.generate(keys.n, rng=rng))
        nonces = list(range(1, count + 1))

        def per_value(fn, *args):
            start = time.perf_counter()
            result = fn(*args)
            return (time.perf_counter() - start) / count * 1e6, result

        encrypt_us, shares = per_value(
            secret_sharing.encrypt_column, keys, values, row_ids, column_key
        )
        decrypt_us, back = per_value(
            secret_sharing.decrypt_column, keys, shares, row_ids, column_key
        )
        if back != values:
            raise RuntimeError(f"secret sharing round trip broke at {bits} bits")
        out[f"crypto.share_encrypt_us_{bits}"] = encrypt_us
        out[f"crypto.share_decrypt_us_{bits}"] = decrypt_us
        out[f"crypto.sies_encrypt_us_{bits}"], _ = per_value(
            cipher.encrypt_many, row_ids, nonces
        )
        out[f"crypto.batch_modinv_us_{bits}"], _ = per_value(
            ntheory.batch_modinv, units, keys.n
        )
    return out


# -- spans + ops -> metrics -------------------------------------------------------------

def _ms(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans) * 1000.0


def _named(spans, name: str) -> list:
    return [s for s in spans if s["name"] == name]


def encrypt_rows_per_s(setup_spans) -> float:
    uploads = _named(setup_spans, "core.create_table")
    seconds = _ms(uploads) / 1000.0
    return sum(s.get("n", 0) for s in uploads) / seconds if seconds else 0.0


def per_layer(workload, ops, spans, recorder, delta: dict) -> dict:
    """Metrics of the traced phase: ``ops`` ran under ``spans``; ``delta``
    is the counter difference (:func:`snapshot`) across the phase."""
    out = dict.fromkeys(PER_LAYER, 0.0)
    count = len(ops)
    if not count:
        return out
    clustered = hasattr(workload.conn.proxy.server, "store_sharded")

    def per_op(milliseconds: float) -> float:
        return milliseconds / count

    # sql / api
    parses = _named(spans, "sql.parse")
    out["sql.parse_ms_per_op"] = per_op(_ms(parses))
    out["sql.parse_calls_per_op"] = len(parses) / count
    lookups = delta["hits"] + delta["misses"]
    out["api.stmt_cache_hit_ratio"] = delta["hits"] / lookups if lookups else 0.0
    out["api.stmt_cache_evictions"] = delta["evictions"]
    out["api.bind_ms_per_op"] = per_op(_ms(_named(spans, "api.bind")))
    by_class: dict = {}
    for op in ops:
        by_class.setdefault(op.cls, []).append(op.latency_ms)
    for cls, latencies in by_class.items():
        prefix = "cluster" if clustered and cls in TPCH_CLASSES else "api"
        out[f"{prefix}.{cls}_ms"] = median(latencies)

    # core: the CostBreakdown split, taken at the same boundaries from outside
    rewrite_ms = _ms(_named(spans, "core.rewrite"))
    decrypts = _named(spans, "core.decrypt")
    server_ms = _ms(outermost(spans, SERVER_LAYERS))
    client_ms = (
        _ms(parses) + rewrite_ms + _ms(_named(spans, "api.bind")) + _ms(decrypts)
    )
    out["core.rewrite_ms_per_op"] = per_op(rewrite_ms)
    out["core.decrypt_ms_per_op"] = per_op(_ms(decrypts))
    out["core.decrypt_rows_per_op"] = sum(s.get("n", 0) for s in decrypts) / count
    out["core.server_ms_per_op"] = per_op(server_ms)
    if client_ms + server_ms:
        out["core.client_fraction"] = client_ms / (client_ms + server_ms)
    out["core.udf_calls_per_op"] = recorder.udf_calls / count
    out["core.udf_ms_per_op"] = per_op(recorder.udf_seconds * 1000.0)
    txns = [op for op in ops if op.cls in ("new_order", "payment")]
    if txns:
        out["core.txn_retries_per_txn"] = sum(
            op.result for op in txns if op.error is None
        ) / len(txns)
        out["core.txn_failed_ratio"] = sum(
            1 for op in txns if op.error is not None
        ) / len(txns)
        out["core.commit_ms_per_txn"] = (
            _ms(_named(spans, "api.commit")) / len(txns)
        )

    # engine
    in_process = outermost(spans, ("engine",))
    out["engine.execute_ms_per_op"] = per_op(
        _ms(in_process) if in_process else delta["engine_op_s"] * 1000.0
    )
    selects = [op for op in ops if op.info and op.info["kind"] == "select"]
    if selects:
        out["engine.batch_path_ratio"] = sum(
            1 for op in selects if op.info["exec_path"] == "batch"
        ) / len(selects)
    if "point" in by_class:
        out["engine.scan_us_per_row"] = (
            median(by_class["point"]) * 1000.0 / workload.sizes.accounts
        )

    # cluster
    if clustered and selects:
        for route in ROUTES:
            out[f"cluster.route_{route}_ratio"] = sum(
                1 for op in selects if op.info["route"] == route
            ) / len(selects)
        out["cluster.fanout_shards_per_op"] = sum(
            op.info["shards"] for op in selects
        ) / len(selects)
        for phase in ("route", "scatter", "merge", "gather"):
            out[f"cluster.{phase}_ms_per_op"] = sum(
                op.info["timing"].get(phase) or 0.0 for op in selects
            ) * 1000.0 / len(selects)
    commits = _named(spans, "cluster.2pc")
    if commits:
        out["cluster.multi_shard_txn_ratio"] = sum(
            1 for s in commits if s.get("n", 0) > 1
        ) / len(commits)

    # net / storage
    out["net.requests_per_op"] = len(_named(spans, "net.request")) / count
    out["net.bytes_sent_per_op"] = delta["sent"] / count
    out["net.bytes_received_per_op"] = delta["received"] / count
    out["net.server_op_ms_per_op"] = per_op(delta["server_op_s"] * 1000.0)
    out["net.admission_rejections"] = delta["rejections"]
    writes = sum(1 for op in ops if op.cls in OLTP_WRITES)
    if writes:
        out["storage.wal_bytes_per_write"] = delta["wal_bytes"] / writes

    # obs: how much of each op's wall time the wrapped layers account for
    own = self_times(spans)
    roots = [s for s in spans if s["layer"] == "bench"]
    wall = sum(s["end"] - s["start"] for s in roots)
    if wall:
        out["obs.trace_coverage_ratio"] = 1.0 - sum(
            own[s["id"]] for s in roots
        ) / wall
    out["error_ratio"] = sum(1 for op in ops if op.failed) / count
    latencies = [op.latency_ms for op in ops if op.error is None]
    if samples_beyond(len(latencies), 99) >= 10:
        out["latency_p99_ms"] = percentile(latencies, 99)
    return out


def layer_self_ms(spans) -> dict:
    """Total self time per layer, for the human-readable trace summary."""
    own = self_times(spans)
    totals: dict = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own[span["id"]]
    return {layer: seconds * 1000.0 for layer, seconds in sorted(totals.items())}
