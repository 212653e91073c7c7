"""The scatter-gather coordinator: one logical SP made of N shard backends.

The coordinator lives on the data owner's side of the trust boundary (it
is constructed by the application next to the proxy) but holds **no key
material**: everything it touches is already encrypted, and everything it
ships to a shard is exactly what a single-node deployment would have
shipped to its one SP.  It presents the :class:`~repro.core.server.SDBServer`
surface, so ``SDBProxy(Coordinator([...]))`` -- and therefore the whole
session layer -- works unchanged on a cluster.

Execution routes one of four ways, recorded in :attr:`last_scatter`:

* **primary** -- the query touches no sharded table; it runs verbatim on
  the designated primary shard (``shards[0]``), which holds every
  unsharded relation.
* **scatter** -- the query is partial/merge-splittable (same eligibility
  as the thread-parallel engine, :mod:`repro.engine.partial`) over one
  sharded table: each shard runs the partial over its bucket slice, and
  the coordinator merges the union of partials with a local engine.
  Secret shares merge by ring addition, so the gather step needs no keys.
* **coshard** -- a splittable *join* whose sharded tables are provably
  co-located (equi-joined on their shard keys through one colocation
  group): each shard joins its slices locally against broadcast copies of
  the unsharded tables, and partials ring-merge exactly like scatter.
* **fallback** -- anything else (non-co-located joins, subqueries,
  DISTINCT aggregates):
  the sharded tables are gathered shard-by-shard and materialized on the
  primary under reserved names, the query's table references are rebound,
  and the primary executes it serially.  Correctness therefore never
  depends on the cluster path; sharding is purely an optimization.

Ad-hoc and prepared SELECTs run one path: classify the route, run the
shard *legs* on the scatter pool, merge, report.  The leg rule: a
prepared scatter/coshard statement's partial runs on per-shard prepared
handles (an execute ships only the values whose markers occur in the
partial; merge-side markers bind at the coordinator), and every other
leg is one-shot -- an ad-hoc partial ships as ``execute_partial``, a
primary or fallback query as one ``execute`` on the primary.  A prepared
statement classifies and splits once, again only after a topology change.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace as dc_replace
from typing import Optional, Sequence

from repro.api.exceptions import ShardUnavailableError
from repro.cluster.failover import (
    REPLICAS_TABLE,
    FailoverManager,
    parse_replicas_record,
    replicas_record,
)
from repro.cluster.rebalance import (
    ClusterMigration,
    RebalancePlan,
    ShardTopology,
)
from repro.cluster.planner import build_route_plan, choose_coshard_or_fallback
from repro.cluster.replica import ShardGroup, close_quietly
from repro.cluster.router import routing_residue
from repro.core.server import (
    BUCKET_COLUMN,
    MIGRATION_STAGING_PREFIX,
    ServerBusyError,
    _MaterializedResult,
)
from repro.cluster.txn import (
    TXN_COMMIT_PREFIX,
    TXN_STAGING_PREFIX,
    commit_cluster,
    recover_cluster_txns,
)
from repro.core.sync import ReadWriteLock
from repro.core.txn import TransactionStateError
from repro.core.udfs import register_sdb_udfs
from repro.engine.catalog import Catalog
from repro.engine.executor import Engine
from repro.engine.partial import (
    PARTIALS_TABLE,
    SplitPlan,
    base_table_refs,
    concat_tables,
    ineligibility,
    join_conditions,
    merge_order_resolvable,
    plan_group_pushdown,
    plan_split,
    strip_table,
)
from repro.engine.table import Table
from repro.engine.udf import UDFRegistry
from repro.obs import trace as obs_trace
from repro.obs.metrics import COUNT_BUCKETS, global_metrics
from repro.obs.slowlog import SlowQueryLog
from repro.sql import ast
from repro.sql.params import (
    BindError,
    bind_parameters,
    num_parameters,
    transform_nodes,
    walk_nodes,
)
from repro.sql.parser import parse

#: Primary-shard name under which a sharded table is materialized for
#: fallback queries (dropped whenever DML invalidates the copy).
MATERIALIZED_PREFIX = "__cluster_full__"

#: Per-statement temporary name for full-table copies broadcast to every
#: shard so a scattered DML's subqueries see whole tables, not slices.
BROADCAST_PREFIX = "__cluster_bcast__"

#: Per-shard broadcast cache for co-sharded joins: full (encrypted) copies
#: of every unsharded table a co-shard route reads, stored on *every*
#: shard under this prefix and invalidated whenever DML touches the
#: source relation.
COSHARD_PREFIX = "__cluster_dim__"

#: Row budget per gather/broadcast wire frame: ``shard_dump`` windows of
#: this many rows stream a materialization chunk by chunk, so neither the
#: coordinator nor a single protocol frame ever holds a whole large slice.
GATHER_CHUNK_ROWS = 4096

#: Primary-shard relation recording the committed topology (epoch, count).
TOPOLOGY_TABLE = "__cluster_topology__"

#: Primary-shard relation recording an in-flight rebalance commit: once it
#: exists, the new topology wins and recovery rolls the commit *forward*;
#: until it exists, the old topology wins and staging is discarded.
COMMIT_TABLE = "__cluster_commit__"

#: Table-name prefixes that are coordinator/migration machinery, never
#: operator-placed relations.
INTERNAL_PREFIXES = (
    MATERIALIZED_PREFIX,
    BROADCAST_PREFIX,
    COSHARD_PREFIX,
    MIGRATION_STAGING_PREFIX,
    TOPOLOGY_TABLE,
    COMMIT_TABLE,
    REPLICAS_TABLE,
    TXN_STAGING_PREFIX,
    TXN_COMMIT_PREFIX,
)


class ShardError(RuntimeError):
    """Cluster misconfiguration or an unroutable request."""


#: Scatter fan-out per executed query (shards contacted); the shape of the
#: cluster's read amplification.
_SCATTER_FANOUT = global_metrics().histogram(
    "sdb_scatter_fanout_shards",
    "shards contacted per scattered query",
    buckets=COUNT_BUCKETS,
)

#: Statements refused by admission control, labelled by the refusing layer
#: (the coordinator here; the net daemon counts its own).
_ADMIT_REJECTS = global_metrics().counter(
    "sdb_admission_rejections_total",
    "statements refused by admission control, by layer",
)


def _gather_chunks(source, name: str, offset: int = 0):
    """Yield ``GATHER_CHUNK_ROWS``-row windows of ``name`` from ``source``.

    Ends after the first short window (which may be empty when the table
    length is an exact multiple of the chunk size -- callers treat a
    zero-row non-first chunk as the end marker).
    """
    while True:
        chunk = source.shard_dump(name, offset=offset, count=GATHER_CHUNK_ROWS)
        yield chunk
        if chunk.num_rows < GATHER_CHUNK_ROWS:
            return
        offset += chunk.num_rows


@dataclass
class Placement:
    """Where one table lives."""

    table: str
    shard_column: Optional[str]  # None: resident on the primary shard only
    #: colocation group: tables sharing a group route shard-key values
    #: through one PRF subkey, so equal values co-locate across tables
    #: (the property co-sharded joins rely on)
    colocate: Optional[str] = None

    @property
    def sharded(self) -> bool:
        return self.shard_column is not None


@dataclass(frozen=True)
class ScatterReport:
    """How the last query was routed (and what that route leaked)."""

    mode: str  # 'scatter' | 'coshard' | 'primary' | 'fallback'
    shards: int
    reason: str
    leakage: tuple = ()
    #: replica failover events (suspect/evict/promote) observed while this
    #: query executed -- the events the query's transparent retry absorbed
    failover: tuple = ()
    #: per-phase durations in seconds (``route_s``/``scatter_s``/
    #: ``merge_s``), folded into the session layer's QueryReport timing
    #: section; None on a report that was not executed (EXPLAIN)
    timings: Optional[dict] = None


@dataclass(frozen=True)
class CoshardInfo:
    """The co-shardability proof behind a ``('coshard', info)`` route.

    ``sharded`` joined shard-locally over co-located slices; ``dims``
    (unsharded tables) broadcast in full to every shard; ``group`` the
    colocation group backing the proof (None when a single sharded table
    -- possibly self-joined -- needs no cross-table colocation).
    """

    sharded: tuple
    dims: tuple
    group: Optional[str] = None


def _parse_weights(raw) -> tuple:
    """Decode a persisted ``"w0,w1,..."`` weight string ('' = uniform)."""
    text = str(raw or "").strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(",") if part)


def _weights_str(weights) -> str:
    return ",".join(str(int(w)) for w in (weights or ()))


def _slice_placement(index: int, of: int, shard_by, colocate) -> dict:
    """The placement record a shard stores with its slice of a table."""
    return {
        "index": index, "of": of, "shard_by": (shard_by or "").lower(),
        "colocate": (colocate or "").lower(),
    }


def referenced_tables(statement) -> list[str]:
    """Every table name a statement references, subqueries included."""
    names: list[str] = []
    for node in walk_nodes(statement):
        if isinstance(node, ast.TableRef) and node.name.lower() not in names:
            names.append(node.name.lower())
    return names


def rename_tables(statement, mapping: dict):
    """Rebind table references to new names, preserving column bindings.

    The original binding (alias or bare name) is pinned as an explicit
    alias, so ``lineitem.l_price`` keeps resolving after ``lineitem``
    becomes ``__cluster_full__lineitem``.
    """

    def leaf(node):
        if isinstance(node, ast.TableRef) and node.name.lower() in mapping:
            return ast.TableRef(
                name=mapping[node.name.lower()], alias=node.binding
            )
        return None

    return transform_nodes(statement, leaf)


class _ClusterStatement:
    """A cluster SELECT with its cached route, split and shard handles.

    :meth:`Coordinator.execute` runs a throwaway one; a prepared one lives
    until closed, so its route is classified and its split planned once
    per topology epoch.
    """

    def __init__(self, query: ast.Select):
        self.query = query
        self.arity = num_parameters(query)
        self.route: Optional[tuple] = None
        self.split: Optional[SplitPlan] = None
        #: per-shard prepared handles of the partial as (shard, handle)
        #: pairs -- pinned to the backends that issued them, so a topology
        #: change can never alias a stale handle onto a different shard
        self.shard_handles: Optional[list[tuple]] = None
        #: topology epoch the route/split/handles were planned against
        self.topology_epoch: Optional[int] = None
        # planning and handle preparation are once per statement;
        # concurrent sessions executing the same handle must not race them
        self._plan_lock = threading.Lock()

    def plan(self, coordinator: "Coordinator") -> None:
        """Classify and split, again only after a topology change."""
        with self._plan_lock:
            epoch = coordinator.topology.epoch
            if self.route is not None and self.topology_epoch == epoch:
                return
            # (re)sharded under this statement: the cached route scatters
            # over a shard set that no longer exists
            self._release_handles()
            self.topology_epoch = epoch
            self.route = coordinator._classify(self.query)
            self.split = None
            if self.route[0] in ("scatter", "coshard"):
                self.split = coordinator._plan_scatter(self.query, self.route)
                used = {
                    node.index
                    for node in walk_nodes(self.split.partial)
                    if isinstance(node, ast.Placeholder)
                }
                #: per marker position: does the partial bind it
                self.partial_slots = [
                    index in used for index in range(max(used, default=-1) + 1)
                ]
                self.merge_arity = num_parameters(self.split.merge)

    def handles(self, coordinator: "Coordinator") -> list[tuple]:
        """The partial's per-shard handles, prepared in one parallel round."""
        with self._plan_lock:
            if self.shard_handles is None:
                partial, shards = self.split.partial, list(coordinator.shards)
                prepared = coordinator._pool.map(
                    lambda shard: shard.prepare_query(partial), shards
                )
                self.shard_handles = list(zip(shards, prepared))
            # a snapshot: a concurrent close nulls shard_handles, and an
            # in-flight execute must fail with the shard's typed
            # unknown-statement error, never a TypeError
            return self.shard_handles

    def _release_handles(self) -> None:
        handles, self.shard_handles = self.shard_handles, None
        for shard, handle in handles or ():
            try:
                shard.close_prepared(handle)
            except Exception:
                pass  # shard already gone

    def close(self) -> None:
        with self._plan_lock:  # serialize against in-flight planning
            self._release_handles()


class Coordinator:
    """Scatter-gather executor over ``shards`` (SDBServer-compatible)."""

    def __init__(
        self,
        shards: Sequence,
        max_session_inflight: int = 32,
        weights: Optional[Sequence[int]] = None,
        slow_query_s: Optional[float] = None,
    ):
        if not shards:
            raise ShardError("a cluster needs at least one shard backend")
        self.shards = list(shards)
        weights = tuple(int(w) for w in (weights or ()))
        if weights and len(weights) != len(self.shards):
            raise ShardError(
                f"{len(weights)} weight(s) for {len(self.shards)} shard(s)"
            )
        #: the *committed* cluster shape; rows route by the topology's
        #: (possibly weighted) residue map and every committed rebalance
        #: bumps the epoch (persisted on the primary shard)
        self.topology = ShardTopology(
            epoch=0, shard_count=len(self.shards), weights=weights
        )
        #: replica failover bookkeeping, shared by every ShardGroup shard;
        #: promotions persist through ``_persist_replicas`` so a restarted
        #: coordinator adopts the promoted member, not the dead original
        self.failover = FailoverManager(persist=self._persist_replicas)
        for index, shard in enumerate(self.shards):
            if isinstance(shard, ShardGroup):
                shard.attach(self.failover, index)
        #: in-flight rebalance (None outside a migration)
        self._migration: Optional[ClusterMigration] = None
        #: admission control: per-session statements currently in flight;
        #: overflow raises ServerBusyError instead of queueing unboundedly
        self.max_session_inflight = max_session_inflight
        self._inflight: dict = {}
        #: open cluster transactions: session -> tables its DML wrote
        #: (the post-commit invalidation set); mutated under the write lock
        self._txn_sessions: dict = {}
        #: the last 2PC commit's report (token / tables / per-shard
        #: write-set cardinalities -- the declared transaction leakage)
        self.last_txn_commit: Optional[dict] = None
        self.udfs = UDFRegistry()
        register_sdb_udfs(self.udfs)
        self._placements: dict[str, Placement] = {}
        self._materialized: set[str] = set()
        #: unsharded tables currently broadcast to every shard (co-shard
        #: dim cache, see COSHARD_PREFIX)
        self._broadcast: set[str] = set()
        #: (epoch, {table: rows}) cost-model cardinality cache
        self._card_cache: Optional[tuple] = None
        self._prepared: dict[int, _ClusterStatement] = {}
        #: result id -> (materialized result, routing report): the session
        #: layer attributes scatter leakage to the execution that caused
        #: it, not to whichever query a concurrent session ran last
        #: (last_scatter is a global)
        self._results: dict[int, tuple] = {}
        self._handle_ids = itertools.count(1)
        # Readers-writer execution lock: read-only statements (scatter,
        # primary, fallback SELECTs) from *different sessions* run
        # concurrently against the shards; DML/DDL/transaction control
        # takes the write side exclusively and bumps the cluster epoch.
        self._lock = ReadWriteLock()
        #: cluster-level snapshot epoch (bumped by every routed mutation)
        self._epoch = 0
        # fast mutex for handle tables (never held across shard calls)
        self._state_lock = threading.Lock()
        # serializes fallback materialization (a read-path operation that
        # writes a cache table on the primary shard); concurrent readers
        # needing the same gather must not duplicate it
        self._mat_lock = threading.Lock()
        # persistent scatter pool (threads start lazily on first use): the
        # prepared hot path must not pay thread creation per execution,
        # and concurrent sessions need enough workers to keep every shard
        # busy while another session's scatter is in flight.  Sized by
        # *members*, not groups: a replicated shard spreads reads over
        # all its replicas, and a pool sized to the group count would
        # cap in-flight requests below the cluster's service capacity
        member_count = sum(
            len(shard.members) if isinstance(shard, ShardGroup) else 1
            for shard in self.shards
        )
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, 2 * member_count),
            thread_name_prefix="sdb-scatter",
        )
        self.last_scatter: Optional[ScatterReport] = None
        #: coordinator-side slow-query log (inert until a threshold is set)
        self.slowlog = SlowQueryLog(slow_query_s)
        self._bootstrap_placements()
        self._bootstrap_topology()
        self._bootstrap_replicas()
        # finish or undo cluster transactions a crashed coordinator left
        # mid-2PC: a surviving commit record rolls forward, orphan staging
        # without one is discarded (presumed abort)
        recover_cluster_txns(self)

    @property
    def epoch(self) -> int:
        """Cluster snapshot epoch (advanced by every routed mutation)."""
        return self._epoch

    def _bootstrap_placements(self) -> None:
        """Rebuild the placement map from what the shards already hold.

        A coordinator attached to already-loaded shard daemons (a second
        shell session, a restarted application) must route exactly like
        the one that did the loading: sharded tables are recovered from
        the placement metadata every SHARD_STORE recorded, and whatever
        else the primary holds is primary-resident.
        """
        statuses = [shard.shard_status() for shard in self.shards]
        for status in statuses:
            for name, placed in status.get("placements", {}).items():
                if name.lower().startswith(INTERNAL_PREFIXES):
                    continue
                self._placements[name.lower()] = Placement(
                    name.lower(),
                    (placed.get("shard_by") or "").lower() or None,
                    (placed.get("colocate") or "").lower() or None,
                )
        for name in statuses[0].get("tables", {}):
            key = name.lower()
            if key.startswith(MATERIALIZED_PREFIX):
                self._materialized.add(key[len(MATERIALIZED_PREFIX):])
                continue
            if key.startswith(INTERNAL_PREFIXES):
                continue
            self._placements.setdefault(key, Placement(key, None))

    def _bootstrap_topology(self) -> None:
        """Adopt the committed topology and finish or undo a crashed rebalance.

        The primary's :data:`TOPOLOGY_TABLE` names the committed shape.  A
        surviving :data:`COMMIT_TABLE` means a rebalance crashed *after*
        its commit record: the new topology already won, so the commit is
        rolled forward (idempotent promote + purge).  Any orphan staging
        relations without a commit record belong to a rebalance that never
        committed: the old topology wins and they are dropped.
        """
        names = self._shard_table_names(self.primary)
        # adopt the persisted shape *before* any roll-forward: the commit
        # completion bumps from the adopted epoch, so a recovered epoch
        # stays monotone across coordinator generations
        if TOPOLOGY_TABLE in names:
            record = self.primary.shard_dump(TOPOLOGY_TABLE)
            if record.num_rows:
                epoch = int(record.column("epoch")[-1])
                count = int(record.column("shard_count")[-1])
                if count > len(self.shards):
                    raise ShardError(
                        f"committed topology has {count} shard(s) but only "
                        f"{len(self.shards)} backend(s) were supplied"
                    )
                weights: tuple = ()
                if "weights" in record.schema.names:
                    weights = _parse_weights(record.column("weights")[-1])
                self.topology = ShardTopology(
                    epoch=epoch, shard_count=count, weights=weights
                )
        if COMMIT_TABLE in names:
            self._roll_forward_commit()
        # drop orphan staging left by an uncommitted, crashed rebalance
        for index, shard in enumerate(self.shards):
            status = shard.shard_status()
            for name in list(status.get("tables", {})):
                if name.lower().startswith(MIGRATION_STAGING_PREFIX):
                    base = name[len(MIGRATION_STAGING_PREFIX):]
                    try:
                        shard.shard_migrate_abort(base)
                    except Exception:
                        pass  # unreachable shard; staging is inert anyway

    def _roll_forward_commit(self) -> None:
        """Complete a rebalance whose commit record exists (idempotent)."""
        record = self.primary.shard_dump(COMMIT_TABLE)
        if record.num_rows == 0:
            self.primary.drop_table(COMMIT_TABLE)
            return
        old_n = int(record.column("old_n")[0])
        new_n = int(record.column("new_n")[0])
        if new_n > len(self.shards):
            raise ShardError(
                f"crashed rebalance committed to {new_n} shard(s) but only "
                f"{len(self.shards)} backend(s) were supplied"
            )
        tables = {
            str(name).lower(): (str(shard_by).lower() or None)
            for name, shard_by in zip(
                record.column("name"), record.column("shard_by")
            )
            if str(name)  # skip the no-sharded-tables sentinel row
        }
        new_weights: tuple = ()
        if "new_weights" in record.schema.names:
            new_weights = _parse_weights(record.column("new_weights")[0])
        self._complete_commit(tables, old_n, new_n, new_weights=new_weights)

    def _complete_commit(
        self, tables: dict, old_n: int, new_n: int, on_step=None,
        new_weights: tuple = (),
    ) -> None:
        """Promote staging, purge movers, persist the new topology.

        Every step is idempotent, so this may be re-driven any number of
        times after a crash: promotion deduplicates staged rows by their
        row-id ciphertexts, and the purge keeps exactly the rows the new
        modulus places here.
        """
        def step(label: str) -> None:
            if on_step is not None:
                on_step(label)

        for table, shard_by in tables.items():
            colocate = self._colocate_of(table)
            for index in range(new_n):
                step(f"commit:promote:{table}:{index}")
                self.shards[index].shard_migrate_promote(
                    table,
                    placement=_slice_placement(index, new_n, shard_by, colocate),
                )
            for index in range(max(old_n, new_n)):
                step(f"commit:purge:{table}:{index}")
                placement = None
                if index < new_n:
                    placement = _slice_placement(index, new_n, shard_by, colocate)
                self.shards[index].shard_migrate_purge(
                    table, new_n, index, placement=placement,
                    weights=new_weights or None,
                )
            self._placements[table] = Placement(
                table, shard_by, colocate or None
            )
        step("commit:finish")
        epoch = self.topology.epoch + 1
        new_weights = tuple(new_weights or ())
        self._store_topology(epoch, new_n, new_weights)
        try:
            self.primary.drop_table(COMMIT_TABLE)
        except Exception:
            pass  # already dropped by a previous recovery pass
        removed = self.shards[new_n:] if new_n < len(self.shards) else []
        self.shards = self.shards[:new_n] if new_n < len(self.shards) else self.shards
        self.topology = ShardTopology(
            epoch=epoch, shard_count=new_n, weights=new_weights
        )
        for backend in removed:
            close_quietly(backend)

    def _store_topology(
        self, epoch: int, shard_count: int, weights: tuple = ()
    ) -> None:
        from repro.engine.schema import ColumnSpec, DataType, Schema

        schema = Schema(
            (
                ColumnSpec("epoch", DataType.INT),
                ColumnSpec("shard_count", DataType.INT),
                ColumnSpec("weights", DataType.STRING),
            )
        )
        self.primary.store_table(
            TOPOLOGY_TABLE,
            Table(schema, [[epoch], [shard_count], [_weights_str(weights)]]),
            replace=True,
        )

    # -- replica sets --------------------------------------------------------

    def _replica_groups(self) -> list[tuple]:
        return [
            (index, shard)
            for index, shard in enumerate(self.shards)
            if isinstance(shard, ShardGroup)
        ]

    def _persist_replicas(self) -> None:
        """Durably record which member leads each replica group.

        Called by the failover manager after every promotion: a restarted
        coordinator must adopt the *promoted* primaries (the dead original
        may hold a stale, pre-failover slice if it ever comes back).
        """
        groups = self._replica_groups()
        if not groups:
            return
        primaries = {
            index: group.replica_status()["primary_ordinal"]
            for index, group in groups
        }
        self.primary.store_table(
            REPLICAS_TABLE,
            replicas_record(primaries, self.failover.generation),
            replace=True,
        )

    def _bootstrap_replicas(self) -> None:
        """Adopt persisted replica promotions (the durable failover record)."""
        groups = self._replica_groups()
        if not groups:
            return
        if REPLICAS_TABLE not in self._shard_table_names(self.primary):
            return
        record = self.primary.shard_dump(REPLICAS_TABLE)
        primaries, generation = parse_replicas_record(record)
        self.failover.adopt_generation(generation)
        for index, group in groups:
            ordinal = primaries.get(index, 0)
            if ordinal:
                group.adopt_primary(ordinal)

    def replica_status(self) -> list:
        """Per-shard replica health (probes every member's liveness)."""
        status = []
        for index, shard in enumerate(self.shards):
            if isinstance(shard, ShardGroup):
                status.append(shard.check_health())
            else:
                status.append(
                    {
                        "group": index,
                        "primary_ordinal": 0,
                        "members": [
                            {
                                "ordinal": 0,
                                "state": "healthy",
                                "weight": 1,
                                "backend": type(shard).__name__,
                            }
                        ],
                    }
                )
        return status

    @property
    def primary(self):
        """The designated primary shard (unsharded tables, fallback host)."""
        return self.shards[0]

    @property
    def num_shards(self) -> int:
        """The *committed* shard count (mid-migration: the old topology)."""
        return self.topology.shard_count

    def close(self) -> None:
        """Release the scatter pool and any remote shard connections."""
        self._pool.shutdown(wait=False)
        for shard in self.shards:
            closer = getattr(shard, "close", None)
            if callable(closer):
                closer()

    # -- placement / storage -------------------------------------------------

    def shard_column(self, name: str) -> Optional[str]:
        """The shard-key column of ``name`` (None when primary-resident)."""
        placement = self._placements.get(name.lower())
        return placement.shard_column if placement is not None else None

    def shard_colocation(self, name: str) -> Optional[str]:
        """The colocation group of ``name`` (None when ungrouped)."""
        placement = self._placements.get(name.lower())
        return placement.colocate if placement is not None else None

    def _colocate_of(self, table: str) -> str:
        placement = self._placements.get(table.lower())
        return (placement.colocate or "") if placement is not None else ""

    def placements(self) -> dict[str, Placement]:
        return dict(self._placements)

    def store_table(self, name: str, table: Table, replace: bool = False) -> None:
        """Store an unsharded table, resident on the primary shard."""
        with self._lock.write_locked():
            self._epoch += 1
            previous = self._placements.get(name.lower())
            self.primary.store_table(name, table, replace=replace)
            if previous is not None and previous.sharded:
                # re-created as primary-resident: remove the old slices so
                # they cannot shadow a later sharded re-creation
                for shard in self.shards[1:]:
                    try:
                        shard.drop_table(name)
                    except Exception:
                        pass
            self._placements[name.lower()] = Placement(name.lower(), None)
            self._invalidate_materialized(name)

    def store_sharded(
        self,
        name: str,
        table: Table,
        shard_column: str,
        buckets: Sequence[int],
        replace: bool = False,
        colocate: Optional[str] = None,
    ) -> None:
        """Hash-partition encrypted rows across every shard.

        ``buckets`` holds one PRF bucket per row, computed by the proxy
        from shard-key *plaintext* before encryption; this side only ever
        sees ``bucket mod num_shards``.  ``colocate`` names the table's
        colocation group (tables in one group share a routing subkey, so
        equal shard-key values land on the same shard across tables).
        """
        buckets = list(buckets)
        if len(buckets) != table.num_rows:
            raise ShardError(
                f"bucket count {len(buckets)} != row count {table.num_rows}"
            )
        with self._lock.write_locked():
            if self._migration is not None:
                raise ShardError(
                    "cannot upload a sharded table while a rebalance is in "
                    "progress"
                )
            self._epoch += 1
            # the stored slice carries each row's routing residue in the
            # hidden __bucket column: elastic resharding selects movers
            # shard-side from it, without the routing PRF key
            residues = [routing_residue(bucket) for bucket in buckets]
            stored = self._with_bucket_column(table, residues)
            count = self.num_shards
            placement_map = self.topology.placement_map
            groups: list[list[int]] = [[] for _ in range(count)]
            for row_index, residue in enumerate(residues):
                groups[placement_map.shard_of(residue)].append(row_index)
            for index, (shard, indices) in enumerate(
                zip(self.shards[:count], groups)
            ):
                shard.shard_store(
                    name,
                    stored.take(indices),
                    placement=_slice_placement(
                        index, count, shard_column, colocate
                    ),
                    replace=replace,
                )
            self._placements[name.lower()] = Placement(
                name.lower(), shard_column.lower(),
                (colocate or "").lower() or None,
            )
            self._invalidate_materialized(name)

    @staticmethod
    def _with_bucket_column(table: Table, residues: Sequence[int]) -> Table:
        from repro.engine.schema import ColumnSpec, DataType

        if BUCKET_COLUMN in table.schema.names:
            return table
        return table.with_column(
            ColumnSpec(BUCKET_COLUMN, DataType.INT), list(residues)
        )

    def drop_table(self, name: str) -> None:
        with self._lock.write_locked():
            self._epoch += 1
            placement = self._placements.pop(name.lower(), None)
            if self._migration is not None:
                # a dropped table has nothing left to migrate
                # (_state_lock: migration_pending iterates these dicts)
                with self._state_lock:
                    self._migration.tables.pop(name.lower(), None)
                    self._migration.pending.pop(name.lower(), None)
                for shard in self.shards:
                    try:
                        shard.shard_migrate_abort(name)
                    except Exception:
                        pass
            self._invalidate_materialized(name)
            if placement is not None and placement.sharded:
                for shard in self.shards:
                    shard.drop_table(name)
            else:
                # unknown tables raise the primary's CatalogError, exactly
                # like a single-node deployment
                self.primary.drop_table(name)

    # -- queries -------------------------------------------------------------

    @contextmanager
    def _admit(self, session):
        """Admission-control guard: bounded per-session in-flight work.

        A session may have at most :attr:`max_session_inflight` statements
        in flight on this coordinator; the overflow statement fails fast
        with :class:`ServerBusyError` (mapped to
        ``api.OperationalError("server busy ...")``) instead of growing
        the scatter pool's queue without bound.
        """
        if session is None or self.max_session_inflight <= 0:
            yield
            return
        with self._state_lock:
            count = self._inflight.get(session, 0)
            if count >= self.max_session_inflight:
                _ADMIT_REJECTS.labels(layer="coordinator").inc()
                raise ServerBusyError(
                    f"server busy: session {session} already has "
                    f"{count} statement(s) in flight "
                    f"(limit {self.max_session_inflight})"
                )
            self._inflight[session] = count + 1
        try:
            yield
        finally:
            with self._state_lock:
                remaining = self._inflight.get(session, 1) - 1
                if remaining <= 0:
                    self._inflight.pop(session, None)
                else:
                    self._inflight[session] = remaining

    def session_inflight(self) -> dict:
        """Current per-session in-flight counts (observability/tests)."""
        with self._state_lock:
            return dict(self._inflight)

    def execute(self, query, session=None) -> Table:
        """Run a (rewritten) query, routed per :attr:`last_scatter`.

        Read-only: takes the shared side of the execution lock, so
        different sessions scatter over the shards concurrently.
        """
        if isinstance(query, str):
            query = parse(query)
        return self._select(_ClusterStatement(query), None, session)[0]

    def _select(
        self, statement: _ClusterStatement, params: Optional[tuple], session
    ) -> tuple[Table, ScatterReport]:
        """The one cluster SELECT path: route, shard legs, merge, report.

        ``params`` is None for an ad-hoc (fully bound) query, else the
        prepared execution's values.  ``session`` rides to the shards so
        a reader inside its own transaction sees that transaction's write
        set (each shard keys the overlay engine by session); every other
        session's reads hit only committed state.
        """
        t_start = time.perf_counter()
        with self._admit(session), self._lock.read_locked():
            mark = self.failover.mark()
            t0 = time.perf_counter()
            statement.plan(self)
            (kind, extra), split = statement.route, statement.split
            t1 = time.perf_counter()
            parent = obs_trace.current_span()
            if parent is not None:
                parent.tracer.record_timed("route", parent, t0, t1, kind=kind)
            if split is None:
                # one-shot leg: the whole query on the primary shard
                query = statement.query
                if params is not None:
                    query = bind_parameters(query, params)
                if kind == "fallback":
                    # NB: the materialized copies gather *committed* slices,
                    # so a fallback query inside a transaction reads
                    # committed state for sharded tables (primary-resident
                    # tables still see the overlay)
                    query = rename_tables(
                        query, {name: self._materialize(name) for name in extra}
                    )
                table = self.primary.execute(query, session=session)
                t2 = t3 = time.perf_counter()
            else:
                with obs_trace.child_span("scatter") as span:
                    partials = self._scatter(statement, params, session)
                    span.set_attr("shards", len(partials))
                t2 = time.perf_counter()
                merge = split.merge
                if params is not None:
                    merge = bind_parameters(merge, params[: statement.merge_arity])
                with obs_trace.child_span("merge") as span:
                    table = self._merge(merge, partials)
                    span.set_attr("rows", table.num_rows)
                t3 = time.perf_counter()
            report = dc_replace(
                self._with_failover(
                    self._report(statement.query, statement.route, split), mark
                ),
                timings={
                    "route_s": t1 - t0,
                    "scatter_s": t2 - t1,
                    "merge_s": t3 - t2,
                },
            )
            self.last_scatter = report
        self.slowlog.maybe_record(
            time.perf_counter() - t_start,
            f"cluster-{report.mode}",
            f"route={report.mode} shards={report.shards} ({report.reason})",
        )
        return table, report

    def _scatter(
        self, statement: _ClusterStatement, params: Optional[tuple], session
    ) -> list[Table]:
        """Every shard's partial, one leg per shard on the scatter pool.

        Ad hoc, a leg ships the partial (``execute_partial``); prepared,
        it runs the shard's handle.  A leg failing with
        :class:`ShardUnavailableError` runs once more: a replica died
        mid-leg and its group promoted a survivor, which the retry reaches
        (a bare backend that is truly gone fails again and the typed
        error surfaces).
        """
        kind, extra = statement.route
        if kind == "coshard":
            # handles bind at execute time, so a refreshed broadcast copy
            # (same name, new rows) is picked up transparently
            self._ensure_broadcasts(extra.dims)
        if params is None:
            partial = statement.split.partial
            # mid-migration the leg set is the union of old and incoming
            # shards (incoming live slices are empty until the commit), so
            # every row is seen exactly once regardless of migration progress
            legs = [(shard, None) for shard in self.shards]

            def run(shard, _):
                return shard.execute_partial(partial, session=session)
        else:
            legs = statement.handles(self)
            # a value reaches the shards only if its marker occurs in the
            # partial; merge-side positions travel as NULL
            values = [
                value if used else None
                for value, used in zip(params, statement.partial_slots)
            ]

            def run(shard, handle):
                result_id, _ = shard.execute_prepared(
                    handle, values, session=session
                )
                try:
                    return shard.fetch_rows(result_id, None)
                finally:
                    try:
                        shard.close_result(result_id)
                    except Exception:
                        pass

        _SCATTER_FANOUT.observe(len(legs))
        # pool threads do not inherit the ambient context: capture the
        # parent span here and re-open a child inside each task (whose
        # context manager makes it ambient for the shard's wire call)
        parent = obs_trace.current_span()

        def task(indexed):
            index, (shard, handle) = indexed
            cm = (
                parent.tracer.span("shard", parent=parent)
                if parent is not None
                else obs_trace.NOOP_SPAN
            )
            with cm as span:
                span.set_attr("shard", index)
                try:
                    table = run(shard, handle)
                except ShardUnavailableError:
                    span.set_attr("retried", 1)
                    table = run(shard, handle)
                span.set_attr("rows", table.num_rows)
                return table

        indexed = list(enumerate(legs))
        if len(indexed) == 1:
            return [task(indexed[0])]
        return list(self._pool.map(task, indexed))

    def _with_failover(
        self, report: ScatterReport, mark: int
    ) -> ScatterReport:
        """Attach failover events that fired while this query executed.

        Promotions and evictions are *declared leakage*: the SPs (and any
        network observer) learn which replica died and who took over, so
        the events ride the report into ``cursor.leakage``.
        """
        events = self.failover.events_since(mark)
        if not events:
            return report
        lines = tuple(str(event) for event in events)
        return dc_replace(
            report,
            failover=report.failover + lines,
            leakage=report.leakage
            + tuple(f"cluster: failover: {line}" for line in lines),
        )

    def _classify(self, query: ast.Select) -> tuple:
        referenced = referenced_tables(query)
        sharded = tuple(
            name
            for name in referenced
            if (p := self._placements.get(name)) is not None and p.sharded
        )
        if not sharded:
            return ("primary", None)
        if len(sharded) == 1:
            if self._group_pushdown_ok(query, sharded[0]):
                # the group key IS the shard key: every group lives wholly
                # on one shard, so shard-local GROUP BY results are final
                # and the coordinator skips the re-group
                return ("scatter", "pushdown")
            reason = ineligibility(
                query, self.udfs, lambda n: n.lower() in self._placements
            )
            if reason is None:
                return ("scatter", None)
        coshard = self._coshard_info(query)
        if coshard is not None:
            # provably co-shardable; let the cost model decide whether the
            # shard-local join actually beats gathering (a tiny fact table
            # against a huge broadcast dim is cheaper to gather)
            choice = choose_coshard_or_fallback(
                coshard, self._cardinalities(), len(self.shards)
            )
            if choice.route == "coshard":
                return ("coshard", coshard)
        return ("fallback", sharded)

    def _cardinalities(self) -> dict:
        """Total row count per table, summed over the shards.

        Cached per cluster snapshot epoch: any routed mutation bumps
        :attr:`epoch`, so the cache can never serve counts from before the
        last write this coordinator saw.  Remote clusters pay one
        ``shard_status`` round per shard per epoch, not per query.
        """
        with self._state_lock:
            cached = self._card_cache
            if cached is not None and cached[0] == self._epoch:
                return cached[1]
        statuses = [shard.shard_status() for shard in self.shards]
        cards: dict = {}
        for status in statuses:
            for name, rows in status.get("tables", {}).items():
                key = name.lower()
                if key.startswith(INTERNAL_PREFIXES):
                    continue
                cards[key] = cards.get(key, 0) + int(rows)
        with self._state_lock:
            self._card_cache = (self._epoch, cards)
        return cards

    def explain_route(self, query) -> "PlanNode":
        """The plan tree for ``query``'s route, without executing it."""
        if isinstance(query, str):
            query = parse(query)
        return build_route_plan(self, query, self._classify(query))

    def _plan_scatter(self, query: ast.Select, route: tuple) -> SplitPlan:
        if route[1] == "pushdown":
            return plan_group_pushdown(query)
        split = plan_split(query, self.udfs)
        if route[0] == "coshard" and route[1].dims:
            # the partial joins each shard's co-located slices against
            # broadcast full copies of the unsharded tables
            mapping = {name: COSHARD_PREFIX + name for name in route[1].dims}
            split = SplitPlan(
                partial=rename_tables(split.partial, mapping),
                merge=split.merge,
                kind=split.kind,
            )
        return split

    def _merge(self, merge_query: ast.Select, partials: list[Table]) -> Table:
        union = concat_tables(partials)
        catalog = Catalog()
        catalog.create(PARTIALS_TABLE, union)
        return Engine(catalog, self.udfs).execute(merge_query)

    def _group_pushdown_ok(self, query: ast.Select, sharded_name: str) -> bool:
        """Whether shard-local GROUP BY results are final for ``query``.

        True when the single GROUP BY key is a bare column that *is* the
        shard key of the one sharded table the query scans: the PRF routes
        equal key values to the same shard, so no group spans shards and
        per-shard grouped results concatenate into the global answer
        (ORDER BY / LIMIT still merge coordinator-side, so the ordering
        must be resolvable against the select outputs).  This route skips
        the coordinator re-group entirely -- and it also covers shapes the
        generic partial/merge planner must refuse, e.g. DISTINCT
        aggregates, because nothing is re-aggregated.
        """
        if not isinstance(query.from_clause, ast.TableRef):
            return False
        if query.from_clause.name.lower() != sharded_name:
            return False
        placement = self._placements.get(sharded_name)
        if placement is None or not placement.sharded:
            return False
        if query.distinct:
            # SELECT DISTINCT dedups across *groups*; shard-local results
            # cannot see a duplicate row produced by another shard's group
            return False
        if len(query.group_by) != 1:
            return False
        key = strip_table(query.group_by[0])
        if not isinstance(key, ast.Column):
            return False
        if key.name.lower() != placement.shard_column:
            return False
        # no subqueries anywhere (they could read other, unsliced tables)
        subquery = (ast.ScalarSubquery, ast.InSubquery, ast.Exists)
        if any(isinstance(node, subquery) for node in walk_nodes(query)):
            return False
        return merge_order_resolvable(query)

    # -- co-sharded joins ------------------------------------------------------

    def _coshard_info(self, query: ast.Select) -> Optional[CoshardInfo]:
        """Prove ``query``'s join runs shard-local; None when it cannot.

        The proof: the FROM clause is an inner/cross join tree of base
        tables, the query partial/merge-splits, and every *sharded* table
        reference is connected to every other by equi-join edges on the
        respective shard-key columns -- with all of them routed through
        one colocation group, so equal shard-key values provably share a
        shard.  Unsharded tables are broadcast in full, so each shard's
        join over (its co-located slices x broadcast dims) partitions the
        global join exactly.

        LEFT joins are refused outright: a preserved row on the broadcast
        side would NULL-extend once per shard, and proving which side is
        preserved buys little over the fallback.
        """
        refs = base_table_refs(query.from_clause)
        if refs is None or len(refs) < 2:
            return None
        stack = [query.from_clause]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Join):
                if node.kind not in ("inner", "cross"):
                    return None
                stack.extend((node.left, node.right))
        reason = ineligibility(
            query,
            self.udfs,
            lambda n: n.lower() in self._placements,
            multi_table=True,
        )
        if reason is not None:
            return None
        bindings: dict[str, str] = {}
        sharded_bindings: dict[str, Placement] = {}
        dims: list[str] = []
        for ref in refs:
            binding = ref.binding.lower()
            table = ref.name.lower()
            bindings[binding] = table
            placement = self._placements.get(table)
            if placement is not None and placement.sharded:
                sharded_bindings[binding] = placement
            elif table not in dims:
                dims.append(table)
        if not sharded_bindings:
            return None  # unreachable from _classify (a sharded ref exists)
        tables = {p.table for p in sharded_bindings.values()}
        group = None
        if len(tables) > 1:
            groups = {p.colocate for p in sharded_bindings.values()}
            group = groups.pop() if len(groups) == 1 else None
            if group is None:
                # different (or no) colocation groups: equal shard-key
                # values route through independent PRF subkeys and may
                # land on different shards
                return None
        if len(sharded_bindings) > 1 and not self._coshard_connected(
            query, sharded_bindings
        ):
            return None
        return CoshardInfo(
            sharded=tuple(sorted(tables)), dims=tuple(dims), group=group
        )

    def _coshard_connected(
        self, query: ast.Select, sharded_bindings: dict
    ) -> bool:
        """Union-find: shard-key equi-edges connect every sharded binding."""
        parent = {binding: binding for binding in sharded_bindings}

        def find(x: str) -> str:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        # flatten the AND-trees of every join condition and the WHERE
        pending = [*join_conditions(query.from_clause), query.where]
        while pending:
            node = pending.pop()
            if not isinstance(node, ast.BinaryOp):
                continue
            if node.op == "and":
                pending.extend((node.left, node.right))
            elif node.op == "=":
                left = self._shard_key_binding(node.left, sharded_bindings)
                right = self._shard_key_binding(node.right, sharded_bindings)
                if left is not None and right is not None and left != right:
                    parent[find(left)] = find(right)
        return len({find(binding) for binding in sharded_bindings}) == 1

    @staticmethod
    def _shard_key_binding(
        expr: ast.Expr, sharded_bindings: dict
    ) -> Optional[str]:
        """The sharded binding whose shard-key column ``expr`` is, else None.

        Rewritten equalities compare *tokens*: both sides of one ``=``
        share a single mask, so token equality is plaintext equality, and
        the token expression keeps its subject as the first argument of
        ``sdb_keyupdate`` / ``sdb_mul_plain`` / ``sdb_enc`` (the last is
        the deterministic ring encoding an insensitive join key gets) --
        peel those down to the base column.
        """
        while (
            isinstance(expr, ast.FuncCall)
            and expr.name.lower() in ("sdb_keyupdate", "sdb_mul_plain", "sdb_enc")
            and expr.args
        ):
            expr = expr.args[0]
        if not isinstance(expr, ast.Column):
            return None
        name = expr.name.lower()
        if expr.table is not None:
            binding = expr.table.lower()
            placement = sharded_bindings.get(binding)
            if placement is not None and placement.shard_column == name:
                return binding
            return None
        # bare column: a valid query binds it to the unique table holding
        # that name, so a name matching exactly one sharded binding's
        # shard key is that binding (two matches = ambiguous, and the
        # shards would reject the query anyway)
        matches = [
            binding
            for binding, placement in sharded_bindings.items()
            if placement.shard_column == name
        ]
        return matches[0] if len(matches) == 1 else None

    def _ensure_broadcasts(self, dims: tuple) -> None:
        """Broadcast full copies of unsharded ``dims`` to every shard.

        Cached until DML touches a source table.  Like fallback
        materialization, the cache is validated against the shards' live
        catalogs, so another coordinator's invalidation is honored.
        """
        if not dims:
            return
        with self._mat_lock:
            for name in dims:
                target = COSHARD_PREFIX + name.lower()
                if name.lower() in self._broadcast and all(
                    target in self._shard_table_names(shard)
                    for shard in self.shards
                ):
                    continue
                # stream the dim table chunk by chunk: each window ships to
                # every shard (in parallel) before the next is fetched, so
                # the coordinator holds one bounded chunk at a time
                for index, chunk in enumerate(_gather_chunks(self.primary, name)):
                    if index and not chunk.num_rows:
                        break

                    def ship(shard, c=chunk, replace=not index):
                        # per-shard copy: in-process shards would otherwise
                        # alias one Table object and appends would double up
                        copy = c.slice(0)
                        if replace:
                            shard.store_table(target, copy, replace=True)
                        else:
                            shard.append_table(target, copy)

                    list(self._pool.map(ship, self.shards))
                self._broadcast.add(name.lower())

    @staticmethod
    def _shard_table_names(shard) -> set:
        names_fn = getattr(shard, "catalog_names", None)
        if callable(names_fn):  # remote shard: the CATALOG wire op
            return set(names_fn())
        return set(shard.catalog.names())

    def _report(
        self, query: ast.Select, route: tuple, split: Optional[SplitPlan]
    ) -> ScatterReport:
        """How ``query`` runs under ``route`` (and what that route leaks)."""
        kind, extra = route
        scattered = len(self.shards)
        if kind == "primary":
            return ScatterReport(
                mode="primary", shards=1, reason="no sharded table referenced"
            )
        if kind == "scatter":
            if extra == "pushdown":
                reason = (
                    "shard-local GROUP BY pushdown (group key is the shard "
                    f"key) over {scattered} shard(s)"
                )
            else:
                reason = f"partial {split.kind} over {scattered} shard(s)"
            return ScatterReport(
                mode="scatter",
                shards=scattered,
                reason=reason,
                leakage=(
                    "cluster: each shard sees the partial query over its PRF "
                    f"bucket slice of {query.from_clause.name.lower()!r} "
                    "(per-shard cardinalities)",
                ),
            )
        if kind == "fallback":
            return ScatterReport(
                mode="fallback",
                shards=self.num_shards,
                reason=(
                    "non-shardable query; gathered "
                    f"{', '.join(sorted(extra))} to the primary shard"
                ),
                leakage=tuple(
                    f"cluster: full (encrypted) copy of {name!r} broadcast "
                    "to the primary shard for this query"
                    for name in sorted(extra)
                ),
            )
        joined = ", ".join(extra.sharded)
        leakage = [
            f"cluster: each shard sees the partial join over its "
            f"co-located slices of {joined} (per-shard cardinalities)",
        ]
        if extra.group:
            leakage.append(
                f"cluster: colocation group {extra.group!r} reveals "
                "cross-table co-residency of equal shard-key values"
            )
        for name in extra.dims:
            leakage.append(
                f"cluster: full (encrypted) copy of {name!r} broadcast to "
                "every shard for this join"
            )
        return ScatterReport(
            mode="coshard",
            shards=scattered,
            reason=(
                f"co-sharded join: partial {split.kind} over {scattered} "
                f"shard(s), {joined} joined shard-locally"
            ),
            leakage=tuple(leakage),
        )

    def _materialize(self, name: str) -> str:
        """Gather every slice of ``name`` onto the primary; cached until DML.

        The cache is validated against the primary's live catalog, not just
        this coordinator's memory: another coordinator's DML invalidation
        drops the shared copy, and trusting a local flag would point the
        fallback query at a table that no longer exists.
        """
        full_name = MATERIALIZED_PREFIX + name.lower()
        # materialization is a read-path operation (fallback queries run
        # under the shared lock side) that writes a cache relation on the
        # primary; its own mutex keeps concurrent readers from gathering
        # the same table twice, and the write lock's exclusion against all
        # readers keeps DML invalidation race-free against it
        with self._mat_lock:
            if name.lower() in self._materialized:
                if full_name in self._shard_table_names(self.primary):
                    return full_name
                self._materialized.discard(name.lower())
            # streamed gather: fetch every shard's first window in parallel
            # (small tables -- the common case -- finish in that one round
            # trip per shard, exactly like the old whole-slice gather), then
            # drain any longer slice chunk by chunk so the coordinator and
            # each wire frame hold at most GATHER_CHUNK_ROWS rows
            heads = list(
                self._pool.map(
                    lambda shard: shard.shard_dump(
                        name, offset=0, count=GATHER_CHUNK_ROWS
                    ),
                    self.shards,
                )
            )
            for index, (shard, head) in enumerate(zip(self.shards, heads)):
                if not index:
                    # first chunk carries the schema even when empty
                    self.primary.store_table(full_name, head, replace=True)
                elif head.num_rows:
                    self.primary.append_table(full_name, head)
                if head.num_rows == GATHER_CHUNK_ROWS:
                    for chunk in _gather_chunks(
                        shard, name, offset=head.num_rows
                    ):
                        if not chunk.num_rows:
                            break
                        self.primary.append_table(full_name, chunk)
            self._materialized.add(name.lower())
            return full_name

    def _invalidate_materialized(self, name: str) -> None:
        # drop unconditionally, not gated on this coordinator's own cache
        # set: another coordinator attached to the same shards may have
        # materialized the copy, and a stale one silently serves pre-DML
        # results to its fallback queries
        self._materialized.discard(name.lower())
        try:
            self.primary.drop_table(MATERIALIZED_PREFIX + name.lower())
        except Exception:
            pass  # no cached copy anywhere (or already dropped)
        self._broadcast.discard(name.lower())
        for shard in self.shards:
            try:
                shard.drop_table(COSHARD_PREFIX + name.lower())
            except Exception:
                pass  # no broadcast copy here (or already dropped)

    # -- DML -----------------------------------------------------------------

    def execute_dml(self, statement, session=None) -> int:
        """Route DML: primary tables go to the primary, sharded ones scatter.

        Subqueries inside a WHERE must see *whole* tables, never a shard's
        slice: sharded tables read by a primary-routed statement are
        materialized like the SELECT fallback, and a scattered UPDATE/
        DELETE that reads any table broadcasts full copies to every shard
        for the duration of the statement.  Sharded INSERTs need PRF
        buckets (the proxy computes them from plaintext), so they arrive
        through :meth:`insert_routed` instead.
        """
        if isinstance(statement, str):
            from repro.sql.parser import parse_statement

            statement = parse_statement(statement)
        with self._admit(session), self._lock.write_locked():
            target = statement.table.lower()
            placement = self._placements.get(target)
            txn_key = self._txn_key(session)
            in_txn = txn_key in self._txn_sessions
            if (
                not in_txn
                and self._migration is not None
                and target in self._migration.tables
            ):
                # an UPDATE/DELETE may change or remove mover rows that a
                # copy pass already staged: every chunk re-copies
                # (_state_lock: migration_pending iterates these sets).
                # In-transaction DML defers this to commit -- the slices
                # only change when the write set folds in.
                with self._state_lock:
                    self._migration.mark_all_dirty(target)
            # tables the statement *reads* (subquery TableRefs; the DML
            # target itself is a plain name field, not a TableRef)
            read_refs = referenced_tables(statement)
            if placement is None or not placement.sharded:
                sharded_refs = tuple(
                    name for name in read_refs
                    if (p := self._placements.get(name)) is not None
                    and p.sharded
                )
                if sharded_refs:
                    statement = rename_tables(
                        statement,
                        {name: self._materialize(name) for name in sharded_refs},
                    )
                affected = self.primary.execute_dml(statement, session=session)
                if in_txn:
                    self._txn_sessions[txn_key].add(target)
                else:
                    # epoch bumps only after the apply succeeded: a failed
                    # statement changes nothing, so open snapshots stay valid
                    self._epoch += 1
                    self._invalidate_materialized(target)
                return affected
            if isinstance(statement, ast.Insert):
                raise ShardError(
                    f"INSERT into sharded table {statement.table!r} must be "
                    "routed by the proxy (insert_routed)"
                )
            # UPDATE / DELETE scatter to every slice; counts sum
            try:
                if read_refs:
                    affected = self._scatter_dml_with_reads(
                        statement, read_refs, session=session
                    )
                else:
                    affected = sum(
                        self._pool.map(
                            lambda shard: shard.execute_dml(
                                statement, session=session
                            ),
                            self.shards,
                        )
                    )
            except Exception:
                if not in_txn:
                    # some slices may have applied before the failure:
                    # cached copies can no longer be trusted
                    self._epoch += 1
                    self._invalidate_materialized(target)
                raise
            if in_txn:
                self._txn_sessions[txn_key].add(target)
            else:
                self._epoch += 1
                self._invalidate_materialized(target)
            return affected

    def _scatter_dml_with_reads(
        self, statement, read_refs: list[str], session=None
    ) -> int:
        """Scatter DML whose WHERE reads other tables (or the target itself).

        Every shard evaluates subqueries against broadcast *full* copies
        (gathered for sharded tables, the primary's relation otherwise),
        so shard-local slices never change the statement's semantics.
        The copies are per-statement temporaries, dropped afterwards.
        """
        mapping = {}
        try:
            for name in read_refs:
                placement = self._placements.get(name)
                if placement is not None and placement.sharded:
                    slices = list(
                        self._pool.map(
                            lambda shard, n=name: shard.shard_dump(n),
                            self.shards,
                        )
                    )
                    full = concat_tables(slices)
                else:
                    full = self.primary.shard_dump(name)
                temp = BROADCAST_PREFIX + name
                for shard in self.shards:
                    shard.store_table(temp, full, replace=True)
                mapping[name] = temp
            renamed = rename_tables(statement, mapping)
            return sum(
                self._pool.map(
                    lambda shard: shard.execute_dml(renamed, session=session),
                    self.shards,
                )
            )
        finally:
            for temp in mapping.values():
                for shard in self.shards:
                    try:
                        shard.drop_table(temp)
                    except Exception:
                        pass

    def insert_routed(
        self, statement: ast.Insert, buckets: Sequence[int], session=None
    ) -> int:
        """Scatter encrypted INSERT rows by their precomputed PRF buckets."""
        buckets = list(buckets)
        if len(buckets) != len(statement.rows):
            raise ShardError(
                f"bucket count {len(buckets)} != row count {len(statement.rows)}"
            )
        with self._lock.write_locked():
            target = statement.table.lower()
            placement = self._placements.get(target)
            if placement is None or not placement.sharded:
                raise ShardError(
                    f"table {statement.table!r} is not sharded; "
                    "use execute_dml"
                )
            txn_key = self._txn_key(session)
            in_txn = txn_key in self._txn_sessions
            residues = [routing_residue(bucket) for bucket in buckets]
            # rows land on the *committed* topology (the old one, mid-
            # migration); chunks an insert touches go back on the pending
            # list so the migration re-copies them before it commits.
            # In-transaction inserts defer this to commit time.
            if (
                not in_txn
                and self._migration is not None
                and target in self._migration.tables
            ):
                # _state_lock: the driver's migration_pending() iterates
                # these sets without holding the execution lock
                with self._state_lock:
                    self._migration.mark_dirty(
                        target,
                        {self._migration.plan.chunk_of(r) for r in residues},
                    )
            count = self.num_shards
            placement_map = self.topology.placement_map
            columns = tuple(statement.columns or ()) + (BUCKET_COLUMN,)
            groups: list[list] = [[] for _ in range(count)]
            for row, residue in zip(statement.rows, residues):
                groups[placement_map.shard_of(residue)].append(
                    tuple(row) + (ast.Literal(residue),)
                )
            affected = 0
            try:
                for shard, rows in zip(self.shards[:count], groups):
                    if not rows:
                        continue
                    affected += shard.execute_dml(
                        ast.Insert(
                            table=statement.table,
                            columns=columns,
                            rows=tuple(rows),
                        ),
                        session=session,
                    )
            except Exception:
                if not in_txn and affected:
                    # earlier shards already appended: cached copies and
                    # open snapshots must not survive a half-routed insert
                    self._epoch += 1
                    self._invalidate_materialized(statement.table)
                raise
            if in_txn:
                self._txn_sessions[txn_key].add(target)
            else:
                # epoch bumps only after every routed slice applied
                self._epoch += 1
                self._invalidate_materialized(statement.table)
            return affected

    # -- transactions ---------------------------------------------------------
    #
    # A cluster transaction is the union of per-shard write sets for one
    # session: BEGIN broadcasts so every shard opens the session's
    # overlay, in-flight DML routes normally (carrying the session), and
    # COMMIT runs two-phase commit (repro.cluster.txn) so the fold-in is
    # all-or-none across shards even if the coordinator dies mid-commit.

    def _txn_key(self, session):
        """The tracking key ``session`` addresses (anonymous claims all).

        Mirrors the per-shard manager: a legacy anonymous transaction
        (begun with no session) governs every session's statements, so a
        session without its own transaction resolves to it.
        """
        if session not in self._txn_sessions and None in self._txn_sessions:
            return None
        return session

    def begin(self, session=None) -> None:
        with self._lock.write_locked():
            if (
                session in self._txn_sessions
                or None in self._txn_sessions
                or (session is None and self._txn_sessions)
            ):
                raise TransactionStateError("transaction already in progress")
            started = []
            try:
                for shard in self.shards:
                    shard.begin(session=session)
                    started.append(shard)
            except Exception:
                for shard in started:
                    try:
                        shard.rollback(session=session)
                    except Exception:
                        pass
                raise
            self._txn_sessions[session] = set()

    def commit(self, session=None, on_step=None) -> None:
        with self._lock.write_locked():
            key = self._txn_key(session)
            if key not in self._txn_sessions:
                raise TransactionStateError("no transaction in progress")
            try:
                report = commit_cluster(self, session, on_step=on_step)
            except Exception:
                # a failure after prepare may have left the commit record
                # (and partially finalized shards) behind for recovery to
                # roll forward, so no cache over the written tables can
                # be trusted any more
                written = self._txn_sessions.pop(key, set())
                self._epoch += 1
                for name in written:
                    self._invalidate_materialized(name)
                raise
            written = self._txn_sessions.pop(key, set())
            self.last_txn_commit = report
            if not report["tables"]:
                return
            self._epoch += 1
            for name in set(report["tables"]) | written:
                self._invalidate_materialized(name)
                if (
                    self._migration is not None
                    and name in self._migration.tables
                ):
                    # committed rows changed the slices under the copy
                    # passes: every chunk of the table re-copies
                    with self._state_lock:
                        self._migration.mark_all_dirty(name)

    def rollback(self, session=None) -> None:
        with self._lock.write_locked():
            self._txn_sessions.pop(self._txn_key(session), None)
            self._epoch += 1
            self._broadcast_txn("rollback", session=session)
            # committed state never changed (the write sets were private
            # overlays), so materialized/broadcast caches stay valid

    def _broadcast_txn(self, action: str, session=None) -> None:
        first_error = None
        for shard in self.shards:
            try:
                getattr(shard, action)(session=session)
            except Exception as exc:
                first_error = first_error or exc
        if first_error is not None:
            raise first_error

    # -- prepared statements / streaming fetch ---------------------------------

    def prepare_query(self, query, session=None) -> int:
        if isinstance(query, str):
            query = parse(query)
        if not isinstance(query, ast.Select):
            raise ValueError("prepare_query expects a SELECT")
        with self._state_lock:
            stmt_id = next(self._handle_ids)
            self._prepared[stmt_id] = _ClusterStatement(query)
            return stmt_id

    def execute_prepared(
        self, stmt_id: int, params: Sequence = (), session=None
    ) -> tuple[int, int]:
        """Execute a prepared SELECT; read-only against the cluster.

        Runs the same path as :meth:`execute`; the routing report is also
        recorded per result id (never only via the racy ``last_scatter``
        global), so a session reads the report of its own execution.
        """
        with self._state_lock:
            try:
                statement = self._prepared[stmt_id]
            except KeyError:
                raise KeyError(f"unknown prepared statement {stmt_id}") from None
        params = tuple(params)
        if len(params) != statement.arity:
            raise BindError(
                f"statement expects {statement.arity} parameter(s), "
                f"got {len(params)}"
            )
        table, report = self._select(statement, params, session)
        with self._state_lock:
            result_id = next(self._handle_ids)
            self._results[result_id] = (_MaterializedResult(table), report)
        return result_id, table.num_rows

    def scatter_report(self, result_id: int) -> Optional[ScatterReport]:
        """The routing report of the execution that produced ``result_id``."""
        with self._state_lock:
            return self._results.get(result_id, (None, None))[1]

    def fetch_rows(self, result_id: int, count: Optional[int] = None) -> Table:
        with self._state_lock:
            try:
                entry, _ = self._results[result_id]
            except KeyError:
                raise KeyError(f"unknown result set {result_id}") from None
        # materialized results fetch lock-free: the table was computed
        # atomically at execute time and belongs to one session
        return entry.fetch(count)

    def close_result(self, result_id: int) -> None:
        with self._state_lock:
            self._results.pop(result_id, None)

    def close_prepared(self, stmt_id: int) -> None:
        with self._state_lock:
            statement = self._prepared.pop(stmt_id, None)
        if statement is not None:
            statement.close()

    # -- elastic resharding (driven by repro.cluster.rebalance) -----------------
    #
    # The coordinator owns the mechanics -- topology state, staging,
    # commit record, recovery -- while the driver
    # (:func:`repro.cluster.rebalance.rebalance_cluster`) owns policy and
    # the DO-side re-keying callback (the coordinator itself holds no key
    # material, so it cannot re-key rows; it is handed re-keyed slices).

    def begin_rebalance(self, plan: RebalancePlan, incoming: Sequence = ()):
        """Open a migration: attach incoming backends, init pending chunks."""
        with self._lock.write_locked():
            if self._migration is not None:
                raise ShardError("a rebalance is already in progress")
            if plan.old_count != self.num_shards:
                raise ShardError(
                    f"plan starts from {plan.old_count} shard(s) but the "
                    f"cluster has {self.num_shards}"
                )
            if tuple(plan.old_weights) != tuple(self.topology.weights):
                raise ShardError(
                    f"plan starts from weights {tuple(plan.old_weights)} but "
                    f"the committed topology has {tuple(self.topology.weights)}"
                )
            incoming_count = 0
            if plan.new_count > self.num_shards:
                needed = plan.new_count - len(self.shards)
                if len(incoming) < needed:
                    raise ShardError(
                        f"growing to {plan.new_count} shard(s) needs "
                        f"{needed} new backend(s), got {len(incoming)}"
                    )
                joining = list(incoming)[:needed]
                # incoming shards need (empty) live slices of every
                # sharded table so scatter partials run everywhere from
                # the first moment they are part of the cluster; dump the
                # primary's slice once per table (schema only -- the rows
                # are dropped) rather than once per incoming backend
                empties = {
                    name: self.shards[0].shard_dump(name).take([])
                    for name, placement in self._placements.items()
                    if placement.sharded
                }
                for offset, backend in enumerate(joining):
                    index = len(self.shards) + offset
                    for name, empty in empties.items():
                        backend.shard_store(
                            name,
                            empty,
                            placement=_slice_placement(
                                index,
                                plan.new_count,
                                self._placements[name].shard_column,
                                self._colocate_of(name),
                            ),
                            replace=True,
                        )
                for offset, backend in enumerate(joining):
                    if isinstance(backend, ShardGroup):
                        backend.attach(
                            self.failover, len(self.shards) + offset
                        )
                self.shards.extend(joining)
                incoming_count = needed
            migration = ClusterMigration(plan=plan, incoming=incoming_count)
            moved = set(plan.moved_chunks())
            for name, placement in self._placements.items():
                if placement.sharded:
                    migration.tables[name] = placement.shard_column
                    migration.pending[name] = set(moved)
            self._migration = migration
            return migration

    def migration_pending(self) -> tuple:
        """(table, chunk) pairs still needing a copy pass (dirty included)."""
        with self._state_lock:
            if self._migration is None:
                return ()
            return tuple(
                sorted(
                    (table, chunk)
                    for table, chunks in self._migration.pending.items()
                    for chunk in chunks
                )
            )

    def copy_chunk(self, table: str, chunk: int, rekey) -> int:
        """Copy one chunk's movers into destination staging, re-keyed.

        Runs under the *shared* side of the execution lock: concurrent
        reads proceed, while writers (which would dirty the chunk under
        our feet) are excluded for the duration of the copy.  ``rekey``
        is the DO-side callback ``(table_name, slice) -> re-keyed slice``.
        """
        table = table.lower()
        with self._lock.read_locked():
            migration = self._migration
            if migration is None or table not in migration.tables:
                return 0
            plan = migration.plan
            # a re-copied (dirty) chunk replaces whatever it staged before
            for shard in self.shards[: plan.new_count]:
                shard.shard_migrate_unstage(table, plan.num_chunks, chunk)
            migration.clear_chunk_moves(table, chunk)
            shard_by = migration.tables[table]
            moved = 0
            for src in range(plan.old_count):
                movers = self.shards[src].shard_migrate_extract(
                    table, plan.num_chunks, chunk,
                    plan.old_count, plan.new_count,
                    old_weights=plan.old_weights or None,
                    new_weights=plan.new_weights or None,
                )
                if movers.num_rows == 0:
                    continue
                rekeyed = rekey(table, movers)
                residues = rekeyed.column(BUCKET_COLUMN)
                new_map = plan.new_map
                groups: dict[int, list] = {}
                for i, residue in enumerate(residues):
                    dst = new_map.shard_of(residue)
                    groups.setdefault(dst, []).append(i)
                for dst, indices in sorted(groups.items()):
                    self.shards[dst].shard_migrate_stage(
                        table,
                        rekeyed.take(indices),
                        placement=_slice_placement(
                            dst, plan.new_count, shard_by,
                            self._colocate_of(table),
                        ),
                    )
                    migration.record_move(table, chunk, src, dst, len(indices))
                    moved += len(indices)
            with self._state_lock:
                pending = migration.pending.get(table)
                if pending is not None:
                    pending.discard(chunk)
            return moved

    def commit_rebalance(self, rekey, on_step=None) -> ClusterMigration:
        """Settle dirty chunks, write the commit record, flip the topology.

        Exclusive: sessions queue behind the write lock for the duration
        of the final settle + promote/purge (copy passes already moved the
        bulk).  Once the commit record is written the new topology wins --
        a crash after that point is rolled *forward* by recovery.
        """
        def step(label: str) -> None:
            if on_step is not None:
                on_step(label)

        with self._lock.write_locked():
            migration = self._migration
            if migration is None:
                raise ShardError("no rebalance in progress")
            plan = migration.plan
            # final settle: chunks dirtied by concurrent writes re-copy
            # here, under exclusion, so staging is exact at the record
            while True:
                pending = self.migration_pending()
                if not pending:
                    break
                for table, chunk in pending:
                    step(f"settle:{table}:{chunk}")
                    self.copy_chunk(table, chunk, rekey)
            step("commit:record")
            self._store_commit_record(migration)
            tables = dict(migration.tables)
            self._complete_commit(
                tables, plan.old_count, plan.new_count, on_step=on_step,
                new_weights=plan.new_weights,
            )
            self._migration = None
            self._epoch += 1
            for name in list(self._materialized):
                self._invalidate_materialized(name)
            return migration

    def recover_rebalance(self) -> str:
        """Resolve an interrupted rebalance; returns 'forward' | 'back' | 'none'.

        *With* a commit record (or an already-persisted new topology), the
        commit is completed -- the new topology wins.  *Without* one, the
        old topology wins: staging is dropped and incoming backends are
        detached.  Also runs implicitly when a fresh coordinator attaches
        to shards left behind by a crashed one.
        """
        with self._lock.write_locked():
            migration, self._migration = self._migration, None
            names = self._shard_table_names(self.primary)
            if COMMIT_TABLE in names:
                self._roll_forward_commit()
                self._epoch += 1
                return "forward"
            if (
                migration is not None
                and TOPOLOGY_TABLE in names
                and self._committed_count() == migration.plan.new_count
            ):
                # crashed in the tiny window after the record was consumed:
                # the new topology is already persisted and complete
                self.topology = ShardTopology(
                    epoch=self.topology.epoch,
                    shard_count=self._committed_count(),
                    weights=self._committed_weights(),
                )
                self._epoch += 1
                return "forward"
            tables = (
                list(migration.tables)
                if migration is not None
                else [n for n, p in self._placements.items() if p.sharded]
            )
            for shard in self.shards:
                for table in tables:
                    try:
                        shard.shard_migrate_abort(table)
                    except Exception:
                        pass  # unreachable shard; staging is inert
            if migration is not None and migration.incoming:
                keep = len(self.shards) - migration.incoming
                detached, self.shards = self.shards[keep:], self.shards[:keep]
                for backend in detached:
                    for table in tables:
                        try:
                            backend.drop_table(table)
                        except Exception:
                            pass
                    close_quietly(backend)
            self._epoch += 1
            return "back" if migration is not None else "none"

    def _committed_count(self) -> int:
        record = self.primary.shard_dump(TOPOLOGY_TABLE)
        if record.num_rows == 0:
            return self.topology.shard_count
        return int(record.column("shard_count")[-1])

    def _committed_weights(self) -> tuple:
        record = self.primary.shard_dump(TOPOLOGY_TABLE)
        if record.num_rows == 0 or "weights" not in record.schema.names:
            return self.topology.weights
        return _parse_weights(record.column("weights")[-1])

    def _store_commit_record(self, migration: ClusterMigration) -> None:
        from repro.engine.schema import ColumnSpec, DataType, Schema

        plan = migration.plan
        schema = Schema(
            (
                ColumnSpec("name", DataType.STRING),
                ColumnSpec("shard_by", DataType.STRING),
                ColumnSpec("old_n", DataType.INT),
                ColumnSpec("new_n", DataType.INT),
                ColumnSpec("num_chunks", DataType.INT),
                ColumnSpec("new_weights", DataType.STRING),
            )
        )
        names = sorted(migration.tables)
        if not names:
            # no sharded tables: the record still has to carry the target
            # shape, or recovery could not flip the topology
            names = [""]
        columns = [
            list(names),
            [migration.tables.get(name) or "" for name in names],
            [plan.old_count] * len(names),
            [plan.new_count] * len(names),
            [plan.num_chunks] * len(names),
            [_weights_str(plan.new_weights)] * len(names),
        ]
        self.primary.store_table(COMMIT_TABLE, Table(schema, columns), replace=True)

    # -- introspection ---------------------------------------------------------

    def shard_status(self) -> list[dict]:
        """Live per-shard status (the shell's ``\\shards`` view).

        Coordinator-internal temporaries (fallback materializations,
        per-statement broadcast copies) are filtered out: they are cache
        state, not relations an operator placed.
        """
        internal = INTERNAL_PREFIXES
        with self._lock.read_locked():
            out = []
            for index, shard in enumerate(self.shards):
                status = dict(shard.shard_status())
                status["tables"] = {
                    name: count
                    for name, count in status.get("tables", {}).items()
                    if not name.startswith(internal)
                }
                if status.get("shard_id") is None:
                    status["shard_id"] = index
                status["backend"] = type(shard).__name__
                status["primary"] = index == 0
                out.append(status)
            return out
