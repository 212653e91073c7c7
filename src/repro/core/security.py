"""Threat-model harness (paper Section 2.3 and demo step 3).

Simulates the three attacker knowledge levels the paper defines and checks
SDB's claims against them:

* **DB knowledge** -- the attacker reads the SP's disk: every stored share.
  :func:`scan_for_plaintext` confirms sensitive plaintexts never appear;
  :func:`share_uniformity` quantifies that shares look like uniform ring
  elements.
* **CPA knowledge** -- the attacker inserts chosen plaintexts and watches
  the new ciphertexts.  :class:`CPAAttacker` mounts the matching attack the
  scheme must (and does) resist: because every row gets a fresh random row
  id, equal plaintexts do not produce matching shares.
* **QR knowledge** -- the attacker observes rewritten queries, UDF traffic
  and intermediate results.  :func:`tap` records that view on a running
  server; :class:`QRAttacker` extracts exactly the *declared* leakage
  (comparison signs, token equality patterns) from it and verifies the
  underlying values remain hidden.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.server import SDBServer
from repro.core.udfs import BATCH_UDFS, SCALAR_UDFS
from repro.crypto.sies import SIESCiphertext
from repro.engine.schema import DataType
from repro.engine.table import Table
from repro.engine.udf import rows_from_args


#: The scheme's *declared* leakage surface, in one auditable place.  Every
#: entry is inherent to the design (and therefore reported to the data
#: owner), not an implementation defect; the audit functions below quantify
#: each of them against a live deployment.
DECLARED_LEAKAGE = (
    "zero-values: the encryption of 0 is 0 under every item key, so an SP "
    "observer learns which sensitive cells are exactly zero "
    "(see zero_value_cells)",
    "comparison-signs: masked comparison UDFs reveal the sign bit of each "
    "comparison, by construction (see QRAttacker.DECLARED_LEAKAGE_UDFS)",
    "shard-routing: in a cluster deployment, the PRF bucket of each row's "
    "shard-key value is visible as its shard assignment -- the SPs learn "
    "the shard-key column name, co-residency of equal shard keys and "
    "per-shard cardinalities, never the key values or the routing PRF key "
    "(see shard_routing_leakage)",
    "routing-residues: shard slices store each row's routing residue "
    "(bucket mod 27720, the hidden __bucket column) so elastic resharding "
    "can select movers shard-side -- this refines per-shard co-residency "
    "into residue-class co-residency, still never the shard-key values or "
    "the PRF key (see repro.cluster.router.ROUTING_SPACE)",
    "rebalance: an online topology change reveals the shard-count change "
    "and the bucket->shard reassignment cardinalities (how many rows each "
    "shard handed each other shard, per table); migrated rows are re-keyed "
    "in flight, so the SPs cannot link a moved ciphertext to its source "
    "(see rebalance_leakage and RebalanceReport.leakage)",
    "prepared-statements: cached rewrite plans reuse their rewrite-time "
    "masks/tokens across executions (declared per-plan as 'prepared:')",
    "replica-placement: with replicas=N every member of a shard's replica "
    "group stores the identical encrypted slice, so each replica SP "
    "observes everything its primary observes (placement, cardinalities, "
    "residue co-residency) -- replication multiplies observers, not "
    "leakage classes; per-shard weights skew cardinalities visibly "
    "(see replication_leakage)",
    "replica-health: failure detection pings and health probes reveal "
    "liveness and probe timing of every member to the coordinator's "
    "network path; a promotion reveals which member died and which "
    "replica took over, and is persisted in the __cluster_replicas__ "
    "record on the primary shard (see FailoverManager.events and the "
    "'cluster: failover:' entries on QueryReport.leakage)",
    "replica-sync: a joining replica's catch-up streams every table's "
    "slice through the coordinator (windowed shard dumps), revealing to "
    "the new SP the same slice contents plus the copy-pass timing/row "
    "counts; throttled passes additionally reveal the configured rate cap "
    "(see ShardGroup.add_replica)",
    "transactions: a cluster COMMIT stages each shard's write set as "
    "hidden __txnstage__ tables before the commit record lands, so every "
    "shard SP learns which of its tables the transaction wrote and the "
    "per-table write-set cardinalities (inserted/updated/deleted row "
    "counts), plus commit timing relative to other sessions; staged rows "
    "are ordinary encrypted rows, so values stay hidden (see "
    "Coordinator.last_txn_commit['cardinalities'])",
)


@dataclass(frozen=True)
class PlaintextHit:
    table: str
    column: str
    row: int
    value: object


def iter_stored_shares(server):
    """Yield (table, column, row, share) for every SHARE-typed cell.

    ``server`` is a single :class:`SDBServer` or a cluster coordinator
    (anything with a ``shards`` list of servers).  In the cluster case the
    scan covers every shard's full catalog -- including hidden relations
    such as in-flight ``__txnstage__*`` staging tables -- and table names
    are prefixed ``shard<i>:`` so a hit names the observing SP.
    """
    shards = getattr(server, "shards", None)
    if shards is not None:
        for index, shard in enumerate(shards):
            for name, column, row, value in iter_stored_shares(shard):
                yield f"shard{index}:{name}", column, row, value
        return
    for name in server.catalog.names():
        table = server.catalog.get(name)
        for spec in table.schema.columns:
            if spec.dtype is not DataType.SHARE:
                continue
            for i, value in enumerate(table.column(spec.name)):
                yield name, spec.name, i, value


def scan_for_plaintext(
    server, plaintexts: Iterable, include_zero: bool = False
) -> list[PlaintextHit]:
    """DB-knowledge check: do any sensitive plaintexts appear on disk?

    ``plaintexts`` are the ring-encoded sensitive values the DO uploaded.
    A correct deployment returns an empty list (up to the negligible chance
    of a share colliding with a value).  Accepts a single server or a
    cluster coordinator (see :func:`iter_stored_shares`).

    **Zero is excluded by default**: multiplicative secret sharing maps 0
    to 0 (``ve = 0 * vk^-1 = 0``, Definition 2), so zero-ness of a cell is
    visible at the SP by construction.  This is an inherent, *declared*
    property of the paper's scheme, not an implementation defect; see
    :func:`zero_value_cells` for quantifying it.  Pass ``include_zero=True``
    to surface those cells as hits anyway.
    """
    needles = set(plaintexts)
    if not include_zero:
        needles.discard(0)
    hits = []
    for table, column, row, share in iter_stored_shares(server):
        if share in needles and isinstance(share, int):
            hits.append(PlaintextHit(table=table, column=column, row=row, value=share))
    return hits


def zero_value_cells(server) -> list[PlaintextHit]:
    """Stored shares equal to zero: the scheme's declared zero-leakage.

    An SP observer learns *which sensitive cells are exactly zero* (and
    nothing about any non-zero magnitude), because the encryption of 0 is 0
    under every item key.  Accepts a single server or a cluster coordinator
    (see :func:`iter_stored_shares`).
    """
    return [
        PlaintextHit(table=table, column=column, row=row, value=0)
        for table, column, row, share in iter_stored_shares(server)
        if share == 0 and column != "__rowid"
    ]


@dataclass(frozen=True)
class UniformityReport:
    """First-order uniformity statistics of stored shares over Z_n."""

    count: int
    mean_fraction: float      # mean(share / n); uniform -> 0.5
    top_bit_fraction: float   # fraction with top bit set; uniform -> ~0.5
    distinct_fraction: float  # distinct / count; uniform -> ~1.0

    def looks_uniform(self, tolerance: float = 0.05) -> bool:
        return (
            abs(self.mean_fraction - 0.5) < tolerance
            and abs(self.top_bit_fraction - 0.5) < tolerance * 2
            and self.distinct_fraction > 0.9
        )


def share_uniformity(server: SDBServer, n: int) -> UniformityReport:
    shares = [
        share
        for _, column, _, share in iter_stored_shares(server)
        if isinstance(share, int) and column != "__rowid"
    ]
    if not shares:
        return UniformityReport(0, 0.5, 0.5, 1.0)
    mean_fraction = sum(s / n for s in shares) / len(shares)
    top = sum(1 for s in shares if s >= n // 2) / len(shares)
    distinct = len(set(shares)) / len(shares)
    return UniformityReport(
        count=len(shares),
        mean_fraction=mean_fraction,
        top_bit_fraction=top,
        distinct_fraction=distinct,
    )


def shard_routing_leakage(coordinator) -> list[str]:
    """Quantify the declared shard-routing leakage of a cluster.

    For every sharded table, report exactly what the shard SPs jointly
    observe from placement: the shard-key *column name* (shipped in the
    SHARD_STORE placement metadata so a restarted/reattached coordinator
    can rebuild routing -- and visible in the stored schema anyway, like
    every column name), per-shard cardinalities, and the co-residency of
    rows with equal shard-key values.  What the SPs never see: the PRF
    routing key and the shard-key *values* behind the buckets.  The
    returned entries mirror the style of per-query leakage declarations.
    """
    entries = []
    statuses = coordinator.shard_status()
    topology = getattr(coordinator, "topology", None)
    for name, placement in sorted(coordinator.placements().items()):
        if not placement.sharded:
            continue
        counts = [status["tables"].get(name, 0) for status in statuses]
        suffix = ""
        if topology is not None:
            suffix = (
                f"; topology epoch {topology.epoch} "
                f"({topology.shard_count} shard(s)"
                + (
                    " -- every epoch bump revealed a bucket->shard "
                    "reassignment)"
                    if topology.epoch
                    else ")"
                )
            )
        entries.append(
            f"shard-routing: {name!r} placed by PRF bucket of "
            f"{placement.shard_column!r} (column name visible to the SPs); "
            f"per-shard cardinalities visible to the SPs: {counts}{suffix}"
        )
    return entries


def replication_leakage(coordinator) -> list[str]:
    """Quantify the declared replication leakage of a cluster.

    For every replica group, report what replication itself discloses:
    how many SPs hold each shard's slice (each replica sees exactly what
    its primary sees -- more observers, same leakage classes), the
    current member health states, and every recorded failover event
    (which member died, who was promoted, under which generation).  The
    entries mirror the style of per-query leakage declarations.
    """
    entries = []
    status_fn = getattr(coordinator, "replica_status", None)
    if not callable(status_fn):
        return entries
    for status in status_fn():
        members = status.get("members", ())
        if len(members) <= 1:
            continue
        states = ", ".join(
            f"replica{m['ordinal']}={m['state']}" for m in members
        )
        entries.append(
            f"replica-placement: shard {status['group']} slice held by "
            f"{len(members)} SP(s) (primary ordinal "
            f"{status['primary_ordinal']}); health visible to the "
            f"coordinator: {states}"
        )
    failover = getattr(coordinator, "failover", None)
    for event in getattr(failover, "events", ()) or ():
        entries.append(f"replica-health: failover event observed: {event}")
    weights = tuple(getattr(getattr(coordinator, "topology", None), "weights", ()) or ())
    if weights:
        entries.append(
            f"replica-placement: per-shard capacity weights {weights} "
            "visible as skewed per-shard cardinalities"
        )
    return entries


def rebalance_leakage(plan, moves: dict) -> list:
    """Quantify the declared leakage of one elastic rebalance.

    Thin re-export of :func:`repro.cluster.rebalance.rebalance_leakage`
    so the security audit surface stays in one module: the SPs jointly
    learn the shard-count change and per-table reassignment cardinalities
    -- never which shard-key values sat behind the moved buckets, and
    (because movers are re-keyed in flight) not even which destination
    ciphertext corresponds to which source ciphertext.
    """
    from repro.cluster.rebalance import rebalance_leakage as _impl

    return list(_impl(plan, moves))


class CPAAttacker:
    """Chosen-plaintext attack: insert known values, try to match rows.

    The attacker controls plaintexts inserted through the DO (e.g. opening
    bank accounts with chosen balances, Section 2.3) and then reads the SP
    disk.  The attack: for each chosen plaintext, find stored shares equal
    to the share its insertion produced, hoping to identify other rows with
    the same value.  Fresh random row ids make item keys row-unique, so
    matches never exceed the attacker's own rows.
    """

    def __init__(self, server: SDBServer):
        self._server = server
        self._before: dict = {}

    def snapshot(self) -> None:
        self._before = {
            name: self._server.catalog.get(name).num_rows
            for name in self._server.catalog.names()
        }

    def observe_new_shares(self, table: str, column: str) -> list:
        """Shares of rows inserted after :meth:`snapshot` (CPA knowledge)."""
        stored = self._server.catalog.get(table)
        start = self._before.get(table, 0)
        return stored.column(column)[start:]

    def match_rows(self, table: str, column: str, chosen_shares: Iterable) -> int:
        """Count *pre-existing* rows whose share equals a chosen one."""
        stored = self._server.catalog.get(table)
        start = self._before.get(table, 0)
        old = stored.column(column)[:start]
        chosen = set(chosen_shares)
        return sum(1 for share in old if share in chosen)


#: Most UDF calls one tap records; later calls run unrecorded, so a long
#: workload on a tapped server holds a bounded transcript.
UDF_SAMPLE_LIMIT = 10_000


@dataclass
class Transcript:
    """What an attacker sitting on the SP can see (QR knowledge)."""

    queries: list = field(default_factory=list)      # rewritten SQL strings
    results: list = field(default_factory=list)      # result tables / chunks
    udf_values: list = field(default_factory=list)   # sampled UDF in/outputs
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record(self, statement=None, result=None) -> None:
        """One statement text (str or AST) and/or one result or chunk."""
        if statement is not None and not isinstance(statement, str):
            statement = statement.to_sql()
        with self._lock:
            if statement is not None:
                self.queries.append(statement)
            if result is not None:
                self.results.append(result)

    def record_udf(self, name: str, rows, results) -> None:
        """``(name, args, result)`` per row, up to :data:`UDF_SAMPLE_LIMIT`."""
        with self._lock:
            room = UDF_SAMPLE_LIMIT - len(self.udf_values)
            if room > 0:
                self.udf_values.extend(itertools.islice(
                    zip(itertools.repeat(name), rows, results), room
                ))

    def clear(self) -> None:
        with self._lock:
            self.queries.clear()
            self.results.clear()
            self.udf_values.clear()


def tap(server: SDBServer) -> Transcript:
    """Record what an SP-resident attacker observes on ``server``.

    Attaches a :class:`Transcript` as ``server.transcript`` (returning the
    one already attached, if any): the server then records every statement
    text it executes and every result or streamed chunk it returns.  The
    SDB UDFs are re-registered through the registry's public API so scalar
    *and* batch calls record their inputs and outputs -- a batch call row
    by row -- under the transcript's own lock.  Nothing else changes: the
    tapped server runs the same executor, locks and streaming as an
    untapped one, so the QR check judges the code that ships.
    """
    if server.transcript is not None:
        return server.transcript
    transcript = Transcript()
    registry = server.udfs

    def scalar(name, fn):
        def call(*args):
            result = fn(*args)
            transcript.record_udf(name, (args,), (result,))
            return result
        return call

    def batch(name, fn):
        def call(num_rows, *args):
            results = fn(num_rows, *args)
            transcript.record_udf(name, rows_from_args(num_rows, args), results)
            return results
        return call

    for name in SCALAR_UDFS:
        registry.register_scalar(name, scalar(name, registry.scalar(name)), replace=True)
    for name in BATCH_UDFS:
        registry.register_batch(name, batch(name, registry.batch(name)), replace=True)
    server.transcript = transcript
    return transcript


@dataclass
class QRObservation:
    """What a wire/memory tap learns from one query execution."""

    rewritten_sql: str
    comparison_signs: list = field(default_factory=list)
    token_matches: int = 0
    token_values_seen: int = 0


class QRAttacker:
    """Query-result knowledge: harvest what the transcript actually leaks."""

    def __init__(self, server: SDBServer):
        if server.transcript is None:
            raise ValueError("QR analysis needs a tap: call tap(server) first")
        self._server = server

    def observations(self) -> list[QRObservation]:
        out = []
        transcript = self._server.transcript
        for sql in transcript.queries:
            out.append(QRObservation(rewritten_sql=sql))
        signs = [
            result
            for name, _, result in transcript.udf_values
            if name == "sdb_sign"
        ]
        if out:
            out[-1].comparison_signs = signs
        return out

    #: UDFs whose *outputs* are declared leakage (masked comparison signs);
    #: their results carrying small integers is by design, not recovery.
    DECLARED_LEAKAGE_UDFS = frozenset({"sdb_sign"})

    def recovered_plaintexts(self, known_ring_values: Iterable) -> int:
        """How many sensitive ring values appear in UDF traffic *beyond
        what the attacker already knows*.

        For a sound deployment this is 0: every UDF input/output is either
        a share, a masked value, or public material.  Three exclusions keep
        the check honest rather than coincidence-driven:

        * ring value 0 (shares of 0 *are* 0 under multiplicative sharing,
          same as :func:`scan_for_plaintext`);
        * integers that appear verbatim in the rewritten queries -- a QR
          attacker reads the query text, so re-seeing a query constant in a
          UDF argument reveals nothing new (e.g. rescale factors like 100
          colliding with a small sensitive domain);
        * results of declared-leakage UDFs (comparison signs in {-1,0,1}).
        """
        known = set(known_ring_values)
        known.discard(0)
        known -= self._public_query_constants()
        seen = 0
        for name, args, result in self._server.transcript.udf_values:
            candidates = list(args)
            if name not in self.DECLARED_LEAKAGE_UDFS:
                candidates.append(result)
            for value in candidates:
                if isinstance(value, int) and value in known:
                    seen += 1
        return seen

    def _public_query_constants(self) -> set:
        """Every integer literal visible in the submitted query texts."""
        import re

        public: set = set()
        for sql in self._server.transcript.queries:
            public.update(int(m) for m in re.findall(r"\d+", sql))
        return public
