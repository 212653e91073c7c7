"""Per-shard replication: one logical shard made of N interchangeable members.

A :class:`ShardGroup` wraps a *replica set* -- one primary plus any
number of replicas, each an ``SDBServer``-compatible backend -- behind
the same backend surface the :class:`~repro.cluster.coordinator.Coordinator`
already programs against.  A coordinator whose ``shards`` list holds
groups is therefore a replicated cluster with no coordinator surgery:

* **Writes fan out synchronously.**  Every mutation (DML, storage ops,
  transaction control, migration staging) applies to every healthy
  member before the call returns.  A member that fails its write is
  *evicted on the spot* -- so the invariant "every healthy member holds
  every committed write" is maintained by construction, and promotion
  never has to ask which replica is caught up: they all are.
* **Reads fan out for scale.**  Each read routes to one healthy member
  by smooth weighted round-robin (heterogeneous members take load
  proportional to their weight).  A transport failure marks the member
  SUSPECT, the failure detector probes it, a confirmed death evicts it
  (promoting the next member when the primary died), and the read
  retries on the survivors -- callers see
  :class:`~repro.api.exceptions.ShardUnavailableError` only when *no*
  member can serve.
* **Replica catch-up streams through the migration machinery.**
  :meth:`ShardGroup.add_replica` bootstraps a new member from the
  primary with the same chunked ``shard_dump``/``shard_store`` streaming
  copy elastic resharding uses, optionally rate-capped
  (:class:`~repro.cluster.rebalance.RateLimiter`); writes that land
  mid-copy dirty the pass, and the final settle runs under the group's
  write lock -- the ``__cluster_commit__`` idiom at replica granularity
  (copy passes shared, last pass exclusive, then the member flips
  healthy atomically).

Prepared statements and streaming results are *virtualized*: the group
hands out its own handle ids, lazily prepares per member, and pins every
result id to the member that executed it (a streaming fetch cannot hop
replicas mid-result; if that member dies, the caller's retry re-executes
on a survivor).
"""

from __future__ import annotations

import functools
import itertools
import threading
from typing import Optional, Sequence

from repro.api.exceptions import ShardUnavailableError
from repro.cluster.failover import (
    DOWN,
    HEALTHY,
    SUSPECT,
    SYNCING,
    FailoverManager,
)
from repro.cluster.rebalance import RateLimiter
from repro.net.protocol import STUBS
from repro.obs.metrics import global_metrics
from repro.obs.trace import child_span

#: Row budget per catch-up wire frame (mirrors the coordinator's gather).
SYNC_CHUNK_ROWS = 4096

#: Reads re-routed to another member after a transport failure.
_READ_RETRIES = global_metrics().counter(
    "sdb_replica_read_retries_total",
    "replica reads retried on another member after a transport failure",
)

#: Members evicted from their group (write miss, divergence, dead probe).
_EVICTIONS = global_metrics().counter(
    "sdb_replica_evictions_total",
    "replica members evicted from their group",
)


def _private_copy(value):
    """A member-private copy of a mutable table payload.

    In-process backends store the :class:`~repro.engine.table.Table`
    object they are handed *by reference*.  If the write fan-out passed
    the same instance to every member, their catalogs would alias one
    table -- and a later per-member append (INSERT fan-out) would land
    once per member in the shared object, duplicating rows.  Cheap list
    copies per member keep the replicas genuinely independent.
    """
    from repro.engine.table import Table

    if isinstance(value, Table):
        return Table(value.schema, [list(column) for column in value.columns])
    return value


def is_transport_error(exc: BaseException) -> bool:
    """Whether ``exc`` means "the member is unreachable", not "the
    request is wrong" -- the only failures replication may absorb."""
    return isinstance(exc, (ShardUnavailableError, ConnectionError, OSError))


def close_quietly(backend) -> None:
    """Close ``backend`` when it can be closed; a dead one is ignored."""
    closer = getattr(backend, "close", None)
    if callable(closer):
        try:
            closer()
        except Exception:
            pass


def _alive(member) -> bool:
    """Whether ``member`` answers a ping (a backend without one counts)."""
    probe = getattr(member.backend, "ping", None)
    try:
        return bool(probe()) if callable(probe) else True
    except Exception:
        return False


class _Member:
    """One backend inside a group, with its health and read weight."""

    __slots__ = ("backend", "ordinal", "weight", "state")

    def __init__(self, backend, ordinal: int, weight: int = 1):
        self.backend = backend
        self.ordinal = ordinal
        self.weight = max(1, int(weight))
        self.state = HEALTHY

    def __repr__(self) -> str:
        return (
            f"<member #{self.ordinal} {type(self.backend).__name__} "
            f"{self.state} w={self.weight}>"
        )


class ShardGroup:
    """A replica set presenting the single-shard backend surface."""

    def __init__(
        self,
        members: Sequence,
        weights: Optional[Sequence] = None,
        failover: Optional[FailoverManager] = None,
        group_index: int = -1,
    ):
        if not members:
            raise ShardUnavailableError("a replica group needs a member")
        weights = list(weights or ())
        if weights and len(weights) != len(members):
            raise ValueError(
                f"got {len(weights)} weight(s) for {len(members)} member(s)"
            )
        self.members = [
            _Member(backend, ordinal, weights[ordinal] if weights else 1)
            for ordinal, backend in enumerate(members)
        ]
        self.failover = failover if failover is not None else FailoverManager()
        self.group_index = group_index
        # serializes write fan-out against catch-up settles (reentrant:
        # a promotion persisting its record mid-write writes again)
        self._write_lock = threading.RLock()
        self._state_lock = threading.Lock()
        self._writes = 0  # fan-outs applied (catch-up dirty detection)
        self._wrr: dict[int, float] = {}  # smooth WRR state, by ordinal
        self._handle_ids = itertools.count(1)
        #: group statement id -> (query, {member ordinal: member handle})
        self._prepared: dict[int, tuple] = {}
        #: group result id -> (member, member result id)
        self._results: dict[int, tuple] = {}

    def attach(self, failover: FailoverManager, group_index: int) -> None:
        """Adopt a cluster-wide failover manager (coordinator wiring)."""
        self.failover = failover
        self.group_index = group_index

    # -- membership ------------------------------------------------------------

    @property
    def primary_member(self) -> "_Member":
        for member in self.members:
            if member.state in (HEALTHY, SUSPECT):
                return member
        raise ShardUnavailableError(
            f"replica group {self.group_index} has no live member"
        )

    def live_members(self) -> list:
        return [m for m in self.members if m.state in (HEALTHY, SUSPECT)]

    def replica_status(self) -> dict:
        """Member-level health for ``\\replicas`` and the leakage audit."""
        return {
            "group": self.group_index,
            "primary_ordinal": next((m.ordinal for m in self.live_members()), -1),
            "members": [
                {
                    "ordinal": m.ordinal,
                    "state": m.state,
                    "weight": m.weight,
                    "backend": type(m.backend).__name__,
                }
                for m in self.members
            ],
        }

    def check_health(self) -> dict:
        """Actively probe every member (used by ``\\replicas``)."""
        for member in self.members:
            if member.state == DOWN:
                continue
            if not _alive(member) and member.state != SYNCING:
                self._evict(member, "health probe failed")
        return self.replica_status()

    def adopt_primary(self, ordinal: int) -> None:
        """Reorder preference so a recovered record's primary leads.

        Used when a fresh coordinator attaches to a cluster whose durable
        replica record says some later ordinal was promoted: the members
        *before* it are the ones that died (promotion only ever skips
        dead members), so they are re-probed and evicted if still dead,
        keeping restart behavior deterministic without trusting the
        record over live reality.
        """
        for member in self.members:
            if member.ordinal >= ordinal or member.state == DOWN:
                continue
            if not _alive(member):
                member.state = DOWN
                self.failover.record(
                    "evict",
                    self.group_index,
                    member.ordinal,
                    "dead at adopt (durable replica record)",
                )

    # -- failure handling ------------------------------------------------------

    def _evict(self, member: "_Member", detail: str) -> None:
        with self._state_lock:
            if member.state == DOWN:
                return
            was_primary = member is self.members[0] or all(
                m.state == DOWN
                for m in self.members[: self.members.index(member)]
            )
            member.state = DOWN
        _EVICTIONS.inc()
        self.failover.record("evict", self.group_index, member.ordinal, detail)
        if was_primary:
            survivor = next(iter(self.live_members()), None)
            if survivor is not None:
                self.failover.promote(
                    self.group_index,
                    survivor.ordinal,
                    f"primary replica{member.ordinal} died",
                )

    def _member_failed(self, member: "_Member", exc: BaseException) -> None:
        """A call on ``member`` transport-failed: suspect, probe, evict."""
        key = (self.group_index, member.ordinal)
        if member.state == HEALTHY:
            member.state = SUSPECT
            self.failover.record(
                "suspect", self.group_index, member.ordinal, str(exc)
            )
        if self.failover.detector.confirm_down(key, member.backend):
            self._evict(member, str(exc))

    def _member_ok(self, member: "_Member") -> None:
        if member.state == SUSPECT:
            member.state = HEALTHY
        self.failover.detector.clear((self.group_index, member.ordinal))

    # -- read routing ----------------------------------------------------------

    def _pick_reader(self) -> Optional["_Member"]:
        """Smooth weighted round-robin over live members."""
        with self._state_lock:
            live = self.live_members()
            if not live:
                return None
            total = sum(m.weight for m in live)
            best = None
            for member in live:
                current = self._wrr.get(member.ordinal, 0.0) + member.weight
                self._wrr[member.ordinal] = current
                if best is None or current > self._wrr[best.ordinal]:
                    best = member
            self._wrr[best.ordinal] -= total
            return best

    def _read(self, op: str, *args, **kwargs):
        return self._on_reader(
            op, lambda member: getattr(member.backend, op)(*args, **kwargs)
        )

    def _on_reader(self, op: str, call, on_transport_error=None):
        """``call(member)`` on one live reader, retried on the survivors.

        A transport error suspects the member (``on_transport_error``
        first drops whatever state the caller pinned to it) and the read
        moves on; any other error is the request's and propagates.
        """
        last: Optional[BaseException] = None
        with child_span("replica-read") as span:
            span.set_attr("op", op)
            span.set_attr("group", self.group_index)
            for attempt in range(max(4, 2 * len(self.members))):
                member = self._pick_reader()
                if member is None:
                    break
                try:
                    out = call(member)
                except Exception as exc:
                    if not is_transport_error(exc):
                        raise
                    last = exc
                    _READ_RETRIES.labels(op=op).inc()
                    if on_transport_error is not None:
                        on_transport_error(member)
                    self._member_failed(member, exc)
                    continue
                self._member_ok(member)
                span.set_attr("member", member.ordinal)
                if attempt:
                    span.set_attr("retries", attempt)
                return out
        raise ShardUnavailableError(
            f"replica group {self.group_index} has no member able to "
            f"serve {op!r}"
        ) from last

    # -- write fan-out ---------------------------------------------------------

    def _write(self, op: str, *args, **kwargs):
        """Apply a mutation to every live member, synchronously.

        The first member to fail with a *non*-transport error aborts the
        fan-out when nothing has been applied yet (a deterministic engine
        error: every member would refuse identically); after a successful
        apply it evicts the diverging member instead -- a replica that
        cannot apply a committed write is no longer a replica.
        """
        with self._write_lock:
            self._writes += 1
            result = None
            applied = 0
            last_transport: Optional[BaseException] = None
            for member in list(self.members):
                if member.state not in (HEALTHY, SUSPECT):
                    continue
                try:
                    out = getattr(member.backend, op)(
                        *[_private_copy(a) for a in args],
                        **{k: _private_copy(v) for k, v in kwargs.items()},
                    )
                except Exception as exc:
                    if is_transport_error(exc):
                        last_transport = exc
                        self._member_failed(member, exc)
                        if member.state != DOWN:
                            # transient (probe succeeded): the member may
                            # have missed this write -- that alone makes
                            # it unsafe to keep serving
                            self._evict(member, f"missed write {op!r}")
                        continue
                    if applied == 0:
                        raise
                    self._evict(member, f"diverged on {op!r}: {exc}")
                    continue
                self._member_ok(member)
                if applied == 0:
                    result = out
                applied += 1
            if applied == 0:
                raise ShardUnavailableError(
                    f"replica group {self.group_index} has no member able "
                    f"to apply {op!r}"
                ) from last_transport
            return result

    # -- the backend surface ---------------------------------------------------
    #
    # Plain forwarders are generated below the class from each op's
    # ``kind``; only the two probes that decorate their reply with the
    # group's membership, and the handle-virtualising prepared-statement
    # methods further down, are written out.

    def health(self) -> dict:
        out = dict(self._read("health"))
        out["replicas"] = self.replica_status()
        return out

    def shard_status(self) -> dict:
        status = dict(self._read("shard_status"))
        status["replicas"] = self.replica_status()
        return status

    def close(self) -> None:
        for member in self.members:
            close_quietly(member.backend)

    # -- prepared statements (group-virtualized handles) ------------------------

    def prepare_query(self, query, session=None) -> int:
        with self._state_lock:
            stmt_id = next(self._handle_ids)
            self._prepared[stmt_id] = (query, {})
            return stmt_id

    def execute_prepared(self, stmt_id: int, params=(), session=None):
        with self._state_lock:
            try:
                query, handles = self._prepared[stmt_id]
            except KeyError:
                raise KeyError(
                    f"unknown prepared statement {stmt_id}"
                ) from None

        def run(member):
            handle = handles.get(member.ordinal)
            if handle is None:
                handle = handles[member.ordinal] = (
                    member.backend.prepare_query(query)
                )
            return member, member.backend.execute_prepared(
                handle, list(params), session=session
            )

        member, (member_result, num_rows) = self._on_reader(
            "execute_prepared",
            run,
            lambda member: handles.pop(member.ordinal, None),
        )
        with self._state_lock:
            result_id = next(self._handle_ids)
            self._results[result_id] = (member, member_result)
        return result_id, num_rows

    def fetch_rows(self, result_id: int, count=None):
        with self._state_lock:
            try:
                member, member_result = self._results[result_id]
            except KeyError:
                raise KeyError(f"unknown result set {result_id}") from None
        try:
            return member.backend.fetch_rows(member_result, count)
        except Exception as exc:
            if not is_transport_error(exc):
                raise
            # a streaming result is pinned to its member: it cannot be
            # resumed elsewhere -- evict the member and let the caller's
            # retry re-execute against a survivor
            self._member_failed(member, exc)
            with self._state_lock:
                self._results.pop(result_id, None)
            raise ShardUnavailableError(
                f"replica{member.ordinal} of group {self.group_index} died "
                "mid-fetch; re-execute against the promoted topology"
            ) from exc

    def close_result(self, result_id: int) -> None:
        with self._state_lock:
            entry = self._results.pop(result_id, None)
        if entry is None:
            return
        member, member_result = entry
        try:
            member.backend.close_result(member_result)
        except Exception:
            pass  # the member is gone; its results died with it

    def close_prepared(self, stmt_id: int) -> None:
        with self._state_lock:
            _, handles = self._prepared.pop(stmt_id, (None, {}))
        for ordinal, handle in handles.items():
            try:
                self.members[ordinal].backend.close_prepared(handle)
            except Exception:
                pass

    # -- replica bootstrap / catch-up -------------------------------------------

    def add_replica(
        self,
        backend,
        weight: int = 1,
        limiter: Optional[RateLimiter] = None,
        chunk_rows: int = SYNC_CHUNK_ROWS,
        max_passes: int = 3,
    ) -> "_Member":
        """Attach ``backend`` as a new member and stream it to parity.

        Copy passes run without blocking writers (a write that lands
        mid-pass dirties it and another pass re-copies); the final settle
        holds the group write lock, so the member flips HEALTHY having
        seen every committed write -- the migration commit idiom at
        replica granularity.  A ``limiter`` rate-caps the copy stream so
        catch-up does not starve foreground queries.
        """
        member = _Member(backend, len(self.members), weight)
        member.state = SYNCING
        self.members.append(member)
        self.failover.record(
            "join", self.group_index, member.ordinal, "catch-up started"
        )
        try:
            passes = 0
            while True:
                start_writes = self._writes
                with child_span("replica-sync-pass") as span:
                    span.set_attr("group", self.group_index)
                    span.set_attr("member", member.ordinal)
                    span.set_attr("pass", passes)
                    self._copy_all(member, limiter, chunk_rows)
                if self._writes == start_writes or passes >= max_passes:
                    with self._write_lock:
                        if self._writes == start_writes:
                            member.state = HEALTHY
                        else:
                            # settle: one exclusive pass closes the race
                            self._copy_all(member, limiter, chunk_rows)
                            member.state = HEALTHY
                    break
                passes += 1
        except Exception as exc:
            self.members.remove(member)
            self.failover.record(
                "sync-abort", self.group_index, member.ordinal, str(exc)
            )
            raise
        self.failover.record(
            "join", self.group_index, member.ordinal, "caught up"
        )
        return member

    def _copy_all(
        self,
        member: "_Member",
        limiter: Optional[RateLimiter],
        chunk_rows: int,
    ) -> None:
        """One full streaming copy primary -> ``member`` (replace)."""
        source = self.primary_member.backend
        status = source.shard_status()
        placements = status.get("placements", {}) or {}
        for name in sorted(status.get("tables", {})):
            placed = placements.get(name)
            placement = dict(placed) if placed is not None else None
            offset = 0
            first = True
            while True:
                chunk = source.shard_dump(name, offset=offset, count=chunk_rows)
                if first:
                    member.backend.shard_store(
                        name, chunk, placement=placement, replace=True
                    )
                elif chunk.num_rows:
                    member.backend.append_table(name, chunk)
                if limiter is not None:
                    limiter.charge(chunk.num_rows)
                if chunk.num_rows < chunk_rows:
                    break
                offset += chunk.num_rows
                first = False


# Generated forwarders: reads route to one member, writes (2PC steps
# included: a promoted replica must already hold the decided state) fan
# out to all; control ops are a single daemon's own and have no group form.
for _row in STUBS:
    if _row.kind != "control" and _row.method not in vars(ShardGroup):
        _route = ShardGroup._read if _row.kind == "read" else ShardGroup._write
        setattr(
            ShardGroup, _row.method, functools.partialmethod(_route, _row.method)
        )
