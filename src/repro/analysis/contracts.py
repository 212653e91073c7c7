"""Taint contracts: which functions produce, launder, or swallow plaintext.

Two declaration channels feed the analyzer, both read *syntactically* (the
analyzer never imports the code it checks):

* **Decorators** -- ``@analysis.plaintext_source`` on a function whose
  return value is sensitive plaintext, ``@analysis.sanitizer`` on a crypto
  boundary whose output is safe for the SP, ``@analysis.plaintext_sink`` on
  a function whose arguments reach the SP/wire/logs, ``@analysis.blocking``
  on a function that may block the calling thread.  At runtime they only
  stamp an attribute (no wrapper, no overhead), so annotating the crypto
  hot paths costs nothing.
* **Registries below** -- qualified names for functions that cannot carry a
  decorator (stdlib, or where importing :mod:`repro.analysis` would be a
  layering smell), plus *method name* fallbacks for receiver-typed calls
  the analyzer cannot resolve statically (``table.append_rows(...)`` on a
  duck-typed receiver).

Keep the registries short and reviewed: every entry widens or narrows what
the taint pass can prove.
"""

from __future__ import annotations

#: Attribute stamped on decorated functions (one source of truth for the
#: decorators below and the decorator-syntax scan in the analyzer).
TAINT_ATTR = "__sdb_taint__"


def plaintext_source(fn):
    """Mark ``fn``: its return value is sensitive plaintext (DO-side)."""
    setattr(fn, TAINT_ATTR, "source")
    return fn


def sanitizer(fn):
    """Mark ``fn``: a crypto boundary -- its output is safe to ship."""
    setattr(fn, TAINT_ATTR, "sanitizer")
    return fn


def plaintext_sink(fn):
    """Mark ``fn``: its arguments leave the DO trust domain."""
    setattr(fn, TAINT_ATTR, "sink")
    return fn


def blocking(fn):
    """Mark ``fn``: it may block the calling thread (network, sleep)."""
    setattr(fn, "__sdb_blocking__", True)
    return fn


# -- qualified-name registries -------------------------------------------------
#
# Qualified names are ``package.module.func`` or ``package.module.Class.func``
# as the analyzer resolves them from imports; entries here complement the
# decorators (decorated functions need no registry entry).

#: Functions whose output is safe for the SP even on tainted input.
SANITIZER_FUNCTIONS = frozenset(
    {
        # HMAC output reveals nothing about the message under the PRF
        # assumption (backs both SIES pads and shard routing)
        "repro.crypto.prf.prf_int",
        "repro.crypto.prf.derive_key",
        # hashes of plaintext used as cache keys
        "hashlib.sha256",
        "hashlib.blake2b",
    }
)

#: Functions whose arguments cross the DO->SP boundary.  kind: "wire" for
#: serialization onto a socket, "storage" for SP-side persistent writes,
#: "telemetry" for observability emissions (span attributes, metric
#: labels/samples, slow-query-log entries -- all operator-readable).
SINK_FUNCTIONS = {
    "repro.net.protocol.send_message": "wire",
    "repro.net.protocol.encode_value": "wire",
    # observability emission surface (repro.obs): anything attached to a
    # span, metric, or slow-log entry is operator-visible by design
    "repro.obs.trace.Span.set_attr": "telemetry",
    "repro.obs.trace.Tracer.record_timed": "telemetry",
    "repro.obs.metrics.Counter.labels": "telemetry",
    "repro.obs.metrics.Gauge.labels": "telemetry",
    "repro.obs.metrics.Histogram.labels": "telemetry",
    "repro.obs.metrics.Histogram.observe": "telemetry",
    "repro.obs.slowlog.SlowQueryLog.record_slow_query": "telemetry",
}

#: Method-name fallbacks for calls whose receiver type is unknown.  These
#: fire on ``obj.<name>(...)`` regardless of the receiver, so keep the
#: names specific to this codebase's boundary surfaces.
SOURCE_METHODS = frozenset(
    {
        # decrypt family (SIES, secret sharing, result decryptor)
        "decrypt",
        "decrypt_many",
        "decrypt_value",
        "decrypt_column",
        "decrypt_result",
    }
)

SANITIZER_METHODS = frozenset(
    {
        "encrypt",
        "encrypt_many",
        "encrypt_value",
        "encrypt_column",
        "item_key",
        "item_keys",
        "shard_bucket",
        "prf_int",
    }
)

#: method name -> sink kind.
SINK_METHODS = {
    # wire serialization
    "send_message": "wire",
    "encode_value": "wire",
    # telemetry emission (repro.obs surface): span attributes, metric
    # label selection, histogram samples, slow-log entries
    "set_attr": "telemetry",
    "labels": "telemetry",
    "observe": "telemetry",
    "record_timed": "telemetry",
    "record_slow_query": "telemetry",
    # SP-side storage mutation (Table / Catalog narrow mutation surface)
    "append_rows": "storage",
    "keep_rows": "storage",
    "set_cell": "storage",
    "store_table": "storage",
    "shard_store": "storage",
    "append_table": "storage",
}

#: Parameters that carry plaintext into a function (function, param name).
#: Seeds taint at the *definition* side: inside the listed function the
#: parameter is treated as a source, wherever the call came from.
SOURCE_PARAMS = frozenset(
    {
        # shard-key plaintext enters routing here; the PRF sanitizes it
        ("repro.cluster.router.shard_bucket", "value"),
        ("repro.cluster.router.canonical_bytes", "value"),
        # DML parameter plaintexts enter the AST here (the SP and the
        # coordinator bind too, but what they bind arrived masked)
        ("repro.api.statement.Statement.execute_dml", "params"),
    }
)

#: In-place mutation of state that concurrent readers share under the
#: *read* side of a ReadWriteLock: the table's narrow mutation hooks and
#: the index maintenance they drive.  These belong to the exclusive side;
#: reaching one with only the read side held races every other reader.
SHARED_MUTATION_FUNCTIONS = frozenset(
    {
        "repro.engine.table.Table.append_rows",
        "repro.engine.table.Table.keep_rows",
        "repro.engine.table.Table.delete_rows",
        "repro.engine.table.Table.set_cell",
        "repro.engine.index.HashIndex.add",
        "repro.engine.index.HashIndex.remove",
        "repro.engine.index.OrderedIndex.add",
        "repro.engine.index.OrderedIndex.remove",
    }
)

#: Method-name fallbacks for the table hooks on unresolved receivers (the
#: index methods' names are too generic to match by name alone).
SHARED_MUTATION_METHODS = frozenset(
    {"append_rows", "keep_rows", "delete_rows", "set_cell"}
)

#: Publish entry points: they hand a *privately built* structure to
#: readers with one assignment, which is what a lazy build under the read
#: side is allowed to do.  The mutation closure is cut at these calls.
ATOMIC_PUBLISH_FUNCTIONS = frozenset(
    {
        "repro.engine.table.Table._publish_index",
    }
)

#: Method-name fallback for publish calls on unresolved receivers.
ATOMIC_PUBLISH_METHODS = frozenset({"_publish_index"})

#: Calls that may block the calling thread (qualified names).
BLOCKING_FUNCTIONS = frozenset(
    {
        "time.sleep",
        "select.select",
        "socket.create_connection",
        "repro.net.protocol.send_message",
        "repro.net.protocol.recv_message",
        "repro.net.protocol.recv_frame",
    }
)

#: Method-name fallbacks for blocking calls on unresolved receivers.
BLOCKING_METHODS = frozenset(
    {
        "recv",
        "recv_into",
        "sendall",
        "accept",
        "connect_ex",
    }
)
