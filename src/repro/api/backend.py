"""The execution backend protocol and per-session execution contexts.

Every deployment shape the session layer can drive -- in-process
:class:`~repro.core.server.SDBServer`, crash-safe
:class:`~repro.storage.durable.DurableServer`, networked
:class:`~repro.net.client.RemoteServer`, sharded
:class:`~repro.cluster.Coordinator` -- presents the same duck-typed
surface.  This module makes that contract *formal*: :class:`Backend` is
the typed protocol the proxy and session layer program against, and the
conformance of every concrete backend is pinned by
``tests/api/test_backend_protocol.py``.

Alongside it lives :class:`ExecutionContext`: the per-session identity
that replaces the old "one global lock, no sessions" model.  A
:class:`~repro.api.connection.Connection` owns exactly one context --
session id, last observed snapshot epoch, a handle on the session's
statement cache, and a leakage accumulator -- and threads it through
cursor -> statement -> proxy, while the session id travels over the wire
so a networked SP can key its dispatch (and per-session statistics) by
session rather than by socket.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Optional, Protocol, Sequence, runtime_checkable

__all__ = [
    "Backend",
    "ShardBackend",
    "ClusterBackend",
    "ExecutionContext",
    "next_session_id",
]

_session_ids = itertools.count(1)


def next_session_id() -> int:
    """A process-unique session id (connections, wire clients)."""
    return next(_session_ids)


@runtime_checkable
class Backend(Protocol):
    """What the proxy and session layer require of an execution backend.

    Implementations must be safe for concurrent use by multiple sessions:
    read-only entry points (``execute``, ``execute_prepared`` of SELECTs,
    ``fetch_rows``) may run in parallel, while mutations (``execute_dml``,
    ``store_table``, ``drop_table``, transaction control) are exclusive
    and advance the backend's snapshot epoch.
    """

    # -- storage ---------------------------------------------------------------

    def store_table(self, name: str, table, replace: bool = False) -> None: ...

    def drop_table(self, name: str) -> None: ...

    # -- statements ------------------------------------------------------------

    def execute(self, query): ...

    def execute_dml(self, statement) -> int: ...

    # -- transactions ----------------------------------------------------------
    #
    # Session-scoped (see repro.core.txn): ``session`` is the
    # ExecutionContext / wire session id whose write set the call
    # addresses; None is the legacy anonymous (server-global) form.

    def begin(self, session=None) -> None: ...

    def commit(self, session=None) -> None: ...

    def rollback(self, session=None) -> None: ...

    # -- prepared statements / streaming fetch ----------------------------------

    def prepare_query(self, query) -> int: ...

    # ``(result_id, num_rows)``; single-SP backends return the pair as a
    # :class:`~repro.engine.executor.PreparedResult`, whose ``info``
    # attribute says how this very execution ran (batch/row path, index
    # probe vs scan) -- the session layer reads it with ``getattr``, so a
    # backend returning a plain tuple simply reports nothing.
    def execute_prepared(
        self, stmt_id: int, params: Sequence = ()
    ) -> tuple[int, int]: ...

    def fetch_rows(self, result_id: int, count: Optional[int] = None): ...

    def close_result(self, result_id: int) -> None: ...

    def close_prepared(self, stmt_id: int) -> None: ...


@runtime_checkable
class ShardBackend(Backend, Protocol):
    """A backend that can additionally serve as one shard of a cluster."""

    def shard_status(self) -> dict: ...

    def shard_store(
        self, name: str, table, placement=None, replace: bool = False
    ) -> int: ...

    def shard_dump(
        self, name: str, offset: Optional[int] = None,
        count: Optional[int] = None,
    ): ...

    def append_table(self, name: str, table) -> int: ...

    def execute_partial(self, query): ...

    # -- elastic resharding (bucket-chunk migration; see cluster.rebalance) ----

    def shard_migrate_extract(
        self,
        name: str,
        num_chunks: int,
        chunk: int,
        old_modulus: int,
        new_modulus: int,
    ): ...

    def shard_migrate_stage(self, name: str, table, placement=None) -> int: ...

    def shard_migrate_unstage(
        self, name: str, num_chunks: int, chunk: int
    ) -> int: ...

    def shard_migrate_promote(self, name: str, placement=None) -> int: ...

    def shard_migrate_purge(
        self, name: str, modulus: int, keep_index: int, placement=None
    ) -> int: ...

    def shard_migrate_abort(self, name: str) -> bool: ...


@runtime_checkable
class ClusterBackend(Backend, Protocol):
    """The extra surface a scatter-gather coordinator presents."""

    @property
    def num_shards(self) -> int: ...

    def shard_column(self, name: str) -> Optional[str]: ...

    def store_sharded(
        self,
        name: str,
        table,
        shard_column: str,
        buckets: Sequence[int],
        replace: bool = False,
    ) -> None: ...

    def insert_routed(
        self, statement, buckets: Sequence[int], session=None
    ) -> int: ...

    def scatter_report(self, result_id: int): ...

    # -- elastic resharding (driven by repro.cluster.rebalance) -----------------

    @property
    def topology(self): ...

    def begin_rebalance(self, plan, incoming: Sequence = ()): ...

    def migration_pending(self) -> tuple: ...

    def copy_chunk(self, table: str, chunk: int, rekey) -> int: ...

    def commit_rebalance(self, rekey, on_step=None): ...

    def recover_rebalance(self) -> str: ...


@dataclass
class ExecutionContext:
    """Per-session execution state, threaded through the stack.

    One instance per :class:`~repro.api.connection.Connection`; everything
    the old global-lock design kept implicit (who is executing, against
    which snapshot, with which plan cache, leaking what) is explicit here.
    """

    #: process-unique session identity; travels on the wire so a networked
    #: SP keys its per-session dispatch queues and statistics by it
    session_id: int = field(default_factory=next_session_id)
    #: snapshot epoch of the backend as of this session's last statement
    #: (None until the backend reports one)
    epoch: Optional[int] = None
    #: handle on the session's statement cache (the Connection's LRU); the
    #: cache travels with the context so anything holding the context can
    #: reach the session's prepared plans
    statements: Optional[object] = None
    #: per-session leakage accumulator: every declared leakage entry of
    #: every statement this session executed, in execution order
    leakage: list = field(default_factory=list)
    #: statements executed through this context
    executions: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def observe_epoch(self, epoch: Optional[int]) -> None:
        """Record the backend snapshot epoch a statement executed against."""
        if epoch is None:
            return
        with self._lock:
            self.epoch = epoch

    def record_statement(self, leakage: Sequence[str] = ()) -> None:
        """Account one executed statement (and what it declared leaking)."""
        with self._lock:
            self.executions += 1
            if leakage:
                self.leakage.extend(leakage)

    def leakage_report(self) -> tuple:
        """Everything this session has declared leaking so far."""
        with self._lock:
            return tuple(self.leakage)
