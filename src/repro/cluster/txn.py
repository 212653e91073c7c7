"""Cluster-wide atomic commit: two-phase commit over the shard set.

A session's transaction spans every shard its DML touched (each shard
holds that session's private write set; see :mod:`repro.core.txn`).
Committing it must be all-or-none across the cluster, so the
coordinator runs classic presumed-abort 2PC with the primary shard as
the durable home of the decision:

1. **prepare** -- every shard validates its write set (first-updater-wins
   conflict check) and stages the delta under a commit ``token`` as
   hidden catalog relations.  A conflict anywhere aborts the whole
   transaction: staged shards discard, unprepared shards roll back.
2. **record** -- a one-row commit record (:data:`TXN_COMMIT_PREFIX` +
   token) lands on the primary shard.  This write is the commit point:
   before it, recovery discards all staging; after it, recovery rolls
   the transaction forward.
3. **finalize** -- every shard folds its staged delta into the live
   tables (idempotent: finalize scans the catalog, so a shard that
   already applied is a no-op) and the record is dropped.

``on_step`` mirrors the rebalance commit's crash-injection hook: the
fault tests raise at ``txn:prepare:<i>`` / ``txn:record`` /
``txn:finalize:<i>`` and assert that a fresh coordinator's recovery
leaves every shard all-committed or all-discarded.
"""

from __future__ import annotations

import uuid

from repro.core.txn import TXN_STAGING_PREFIX
from repro.obs.trace import child_span

#: Primary-shard relation prefix recording a decided cluster commit:
#: ``__cluster_txncommit__<token>`` existing means every shard prepared
#: and the transaction must roll forward; absent means nobody committed
#: it and staging is discarded (presumed abort).
TXN_COMMIT_PREFIX = "__cluster_txncommit__"


def _step(on_step, label: str) -> None:
    if on_step is not None:
        on_step(label)


def _commit_record():
    """The one-row marker table whose *name* carries the token."""
    from repro.engine.schema import ColumnSpec, DataType, Schema
    from repro.engine.table import Table

    schema = Schema((ColumnSpec("committed", DataType.INT),))
    return Table(schema, [[1]])


def _abort(shards, token: str, session) -> None:
    """Presumed abort: drop staging everywhere, roll back open write sets.

    Best-effort on purpose -- an unreachable shard's staging is inert
    (no commit record will ever exist for ``token``) and the recovery
    sweep drops it when the shard returns.
    """
    for shard in shards:
        try:
            shard.txn_discard(token)
        except Exception:
            pass
        try:
            shard.rollback(session=session)
        except Exception:
            pass  # not prepared yet / already discarded by validation


def commit_cluster(coordinator, session, on_step=None) -> dict:
    """Commit ``session``'s transaction atomically across every shard.

    Returns ``{"token", "tables", "cardinalities"}`` where
    ``cardinalities`` is the per-shard write-set row counts the prepare
    phase declared (transaction-metadata leakage: the SPs learn how many
    rows each shard's delta touches, never their contents).
    """
    shards = list(coordinator.shards)
    token = uuid.uuid4().hex
    prepared = []
    try:
        with child_span("txn-prepare") as span:
            span.set_attr("shards", len(shards))
            for index, shard in enumerate(shards):
                _step(on_step, f"txn:prepare:{index}")
                prepared.append(shard.txn_prepare(token, session=session))
    except Exception:
        # conflict (TransactionConflictError) or a dead shard: either way
        # nothing was decided, so the whole transaction aborts
        _abort(shards, token, session)
        raise
    tables = sorted({name for info in prepared for name in info["tables"]})
    cardinalities = [dict(info["cardinalities"]) for info in prepared]
    if not tables:
        # a read-only (or empty) transaction: nothing staged anywhere, so
        # there is no commit point to record -- just clear the tokens
        for shard in shards:
            try:
                shard.txn_discard(token)
            except Exception:
                pass
        return {"token": token, "tables": [], "cardinalities": cardinalities}
    # the commit point: once this record exists the transaction is
    # decided, and every later failure is repaired by rolling *forward*
    with child_span("txn-commit") as span:
        span.set_attr("shards", len(shards))
        span.set_attr("tables", len(tables))
        _step(on_step, "txn:record")
        coordinator.primary.store_table(
            TXN_COMMIT_PREFIX + token, _commit_record(), replace=True
        )
        for index, shard in enumerate(shards):
            _step(on_step, f"txn:finalize:{index}")
            shard.txn_finalize(token)
        coordinator.primary.drop_table(TXN_COMMIT_PREFIX + token)
    return {"token": token, "tables": tables, "cardinalities": cardinalities}


def recover_cluster_txns(coordinator) -> dict:
    """Finish or undo cluster transactions a crashed coordinator left.

    For every surviving commit record the transaction is rolled forward
    (finalize is idempotent, so shards that already applied are no-ops);
    afterwards any staging without a record belongs to a transaction
    nobody decided, and is discarded wholesale (presumed abort).
    """
    rolled_forward = []
    for name in sorted(coordinator._shard_table_names(coordinator.primary)):
        if not name.lower().startswith(TXN_COMMIT_PREFIX):
            continue
        token = name[len(TXN_COMMIT_PREFIX):]
        for shard in coordinator.shards:
            shard.txn_finalize(token)
        coordinator.primary.drop_table(name)
        rolled_forward.append(token)
    discarded = 0
    for shard in coordinator.shards:
        try:
            discarded += shard.txn_discard(None)
        except Exception:
            pass  # unreachable shard: its orphan staging is inert
    return {"rolled_forward": rolled_forward, "discarded": discarded}


__all__ = [
    "TXN_COMMIT_PREFIX",
    "TXN_STAGING_PREFIX",
    "commit_cluster",
    "recover_cluster_txns",
]
