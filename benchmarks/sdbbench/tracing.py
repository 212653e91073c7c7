"""Outside-in tracing: timing wrappers around the program's public entry points.

The benchmark installs these from its own files (the program has no
spans of its own on these paths yet -- adding them inside is a later
issue).  One span per wrapped call: name, start, end, parent span, op
id.  Spans stay in memory and are written as JSON lines when the traced
run ends.  A layer's self time is its span minus the part of that
interval its child spans cover.

Daemon-side time cannot be reached from the generator process; it is
read from the existing public surfaces instead (``QueryReport.timing``,
the daemon ``metrics`` wire op) in :mod:`layers`.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


def _rows_times_sensitive(args, kwargs, _result) -> int:
    rows = args[3] if len(args) > 3 else kwargs.get("rows", ())
    sensitive = kwargs.get("sensitive", args[4] if len(args) > 4 else ())
    if not hasattr(rows, "__len__") or not hasattr(sensitive, "__len__"):
        return 0
    return len(rows) * len(sensitive)


def _decrypted_rows(args, _kwargs, _result) -> int:
    return args[1].num_rows


def _shards_written(_args, _kwargs, result) -> int:
    return sum(1 for shard in result["cardinalities"] if any(shard.values()))


def _targets():
    """(owner, attribute, span name, count hook) for every wrapped entry
    point; the span name's prefix is the layer (module under src/repro)."""
    from repro.api.connection import Connection
    from repro.api.cursor import Cursor
    from repro.api.statement import Statement
    from repro.cluster import coordinator as coordinator_module
    from repro.cluster.coordinator import Coordinator
    from repro.core import encryptor
    from repro.core.decryptor import Decryptor
    from repro.core.plan import RewrittenQuery
    from repro.core.proxy import SDBProxy
    from repro.core.rewriter import Rewriter
    from repro.core.server import SDBServer
    from repro.net.client import RemoteServer
    from repro.sql import params, parser

    targets = [
        (parser, "parse", "sql.parse", None),
        (parser, "parse_statement", "sql.parse", None),
        (params, "bind_parameters", "api.bind", None),
        (RewrittenQuery, "bind_slots", "api.bind", None),
        (encryptor, "encrypt_table", "core.encrypt", None),
        (encryptor, "encrypt_rows", "core.encrypt", None),
        (SDBProxy, "create_table", "core.create_table", _rows_times_sensitive),
        (SDBProxy, "execute_statement", "core.execute_statement", None),
        (Decryptor, "decrypt", "core.decrypt", _decrypted_rows),
        (coordinator_module, "commit_cluster", "cluster.2pc", _shards_written),
        (RemoteServer, "_call", "net.request", None),
    ]
    for attr in ("prepare", "statement", "begin", "commit", "rollback"):
        targets.append((Connection, attr, f"api.{attr}", None))
    for attr in ("execute", "fetchall", "fetchone"):
        targets.append((Cursor, attr, f"api.{attr}", None))
    for attr in ("execute_select", "execute_dml"):
        targets.append((Statement, attr, f"api.{attr}", None))
    for attr in ("rewrite", "rewrite_update", "rewrite_delete"):
        targets.append((Rewriter, attr, "core.rewrite", None))
    for attr in ("execute", "execute_dml", "prepare_query", "execute_prepared",
                 "fetch_rows", "store_table", "begin", "commit", "rollback"):
        targets.append((SDBServer, attr, f"engine.{attr}", None))
        targets.append((Coordinator, attr, f"cluster.{attr}", None))
    for attr in ("store_sharded", "insert_routed"):
        targets.append((Coordinator, attr, f"cluster.{attr}", None))
    return targets


#: a call into any of these is "the DO waiting on the SP"; only the
#: outermost one counts (a coordinator call contains its wire requests)
SERVER_LAYERS = ("engine", "cluster", "net")


class Recorder:
    """Collects spans from the installed wrappers.

    ``enabled`` gates recording, so the same process can run an untraced
    reference phase (wrappers installed but passive: one attribute read
    per call) and a traced phase back to back.
    """

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self.udf_calls = 0
        self.udf_seconds = 0.0
        self._udf_depth = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def drain(self) -> list[dict]:
        """Hand over everything recorded so far and start from zero (the
        set-up's spans must not be charged to the traced phase)."""
        spans, self.spans = self.spans, []
        self.udf_calls, self.udf_seconds = 0, 0.0
        return spans

    # -- span stack -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, is_op: bool = False) -> dict:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        span = {
            "id": span_id,
            "parent": parent["id"] if parent else None,
            # an op's root span names the op; everything below inherits it
            "op": span_id if is_op else (parent["op"] if parent else None),
            "name": name,
            "layer": name.split(".", 1)[0],
            "thread": threading.current_thread().name,
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    # -- the benchmark's own root span: one per op ------------------------------

    def begin(self, op) -> None:
        self._open(f"bench.{op.cls}", is_op=True)

    def end(self, op) -> None:
        root = self._stack()[-1]
        root["failed"] = op.error is not None
        self._close(root)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["raised"] = True
                raise
            else:
                if count is not None:
                    span["n"] = count(args, kwargs, result)
                return result
            finally:
                self._close(span)

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for owner, attr, name, count in _targets():
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, count)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            # a module-level function: rebind it in every repro module
            # that imported it by name, or those callers would bypass us
            for module in list(sys.modules.values()):
                if (
                    getattr(module, "__name__", "").startswith("repro")
                    and getattr(module, attr, None) is original
                ):
                    self._patch(module, attr, wrapped)
        self._patch(ThreadPoolExecutor, "submit", self._inheriting_submit())

    def _inheriting_submit(self):
        """Pool threads do not see the submitter's span stack; carry the
        current span across so scatter legs link to their coordinator call."""
        recorder = self
        original = ThreadPoolExecutor.submit

        def submit(executor, fn, /, *args, **kwargs):
            stack = recorder._stack()
            if not recorder.enabled or not stack:
                return original(executor, fn, *args, **kwargs)
            parent = stack[-1]

            def task(*a, **k):
                worker = recorder._stack()
                worker.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    worker.pop()

            return original(executor, task, *args, **kwargs)

        return submit

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- UDF meter ------------------------------------------------------------------

    def meter_udfs(self, registry) -> None:
        """Count and time every secure-UDF call in an in-process server.

        Re-registers each UDF through the registry's public API, keeping
        the engine's batch path (``SDBServer(instrument=True)`` would
        force the row interpreter and change what is being measured).
        A batch call over ``k`` rows counts as ``k`` calls.  Calls are
        far too many for spans; they fold into two totals.
        """
        from repro.core.udfs import AGGREGATE_UDFS, BATCH_UDFS, SCALAR_UDFS

        recorder = self

        def metered(fn, rows_of):
            def call(*args):
                # a batch UDF may map its scalar twin over the rows: only
                # the outermost metered call counts (one thread: the
                # in-process SP is driven by a single session here)
                if not recorder.enabled or recorder._udf_depth:
                    return fn(*args)
                recorder._udf_depth = 1
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    recorder.udf_seconds += time.perf_counter() - start
                    recorder.udf_calls += rows_of(args)
                    recorder._udf_depth = 0
            return call

        for name in SCALAR_UDFS:
            registry.register_scalar(
                name, metered(registry.scalar(name), lambda args: 1), replace=True
            )
        for name in BATCH_UDFS:
            registry.register_batch(
                name, metered(registry.batch(name), lambda args: args[0]),
                replace=True,
            )
        for name in AGGREGATE_UDFS:
            udf = registry.aggregate(name)
            udf.step = metered(udf.step, lambda args: 1)
            udf.fold = metered(udf.fold, lambda args: len(args[1]))

    # -- output -----------------------------------------------------------------------

    def write(self, path, workload: str, append: bool) -> int:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a" if append else "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({"workload": workload, **span}) + "\n")
        return len(self.spans)


def _covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: list[dict]) -> dict:
    """span id -> duration minus the part its children cover (parallel
    children, e.g. scatter legs, count once where they overlap)."""
    children: dict = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"])
        )
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(
            children.get(span["id"], ()), span["start"], span["end"]
        )
        for span in spans
    }


def outermost(spans: list[dict], layers) -> list[dict]:
    """Spans of ``layers`` with no ancestor in ``layers``."""
    by_id = {span["id"]: span for span in spans}
    out = []
    for span in spans:
        if span["layer"] not in layers:
            continue
        parent = by_id.get(span["parent"])
        while parent is not None and parent["layer"] not in layers:
            parent = by_id.get(parent["parent"])
        if parent is None:
            out.append(span)
    return out
