"""Lock-discipline rules over ReadWriteLock and ``threading`` primitives.

Lock *identities* are static names: ``self._lock`` inside ``class C`` is
``C._lock``; a module-level or local lock is ``<scope>.<name>``.  Distinct
instances behind one identity are conflated and aliased instances behind
two identities are split -- both conservative for the rules below in the
direction of this codebase's idioms (locks live on long-lived singletons
and are always reached through one attribute path).

Five rules:

* **lock-order-cycle** -- a global graph with an edge A->B whenever B is
  acquired (lexically, or transitively through a resolvable call chain)
  while A is held.  A cycle across functions is a potential deadlock that
  no single test interleaving is likely to reach.
* **lock-no-release** -- a bare ``acquire_read()`` / ``acquire_write()`` /
  ``acquire()`` whose matching release is not guaranteed on exception
  paths (no enclosing/immediately-following ``try/finally``, not a
  ``with``).  Acquire-wrapper methods (``acquire*``, ``__enter__``,
  ``locked`` context-manager factories) are exempt: handing the lock to
  the caller is their contract.
* **blocking-under-write-lock** -- a call that may block (sleep, socket,
  wire framing; transitive through resolvable calls) while a
  ReadWriteLock write side is held, i.e. while every reader is stalled.
* **await-under-lock** -- an ``await`` lexically inside a ``with`` on a
  *synchronous* lock in an async function: suspending there blocks the
  whole event loop's access to the lock.  ``async with asyncio.Lock`` is
  the sanctioned pattern and is untouched.
* **mutation-under-read-lock** -- a call that mutates reader-shared state
  in place (the table mutation hooks and index maintenance registered in
  ``contracts.SHARED_MUTATION_*``; transitive through resolvable calls)
  while only the *read* side of a ReadWriteLock is held.  Lazy index
  builds are the sanctioned pattern under the read side: build a private
  object, then hand it over through a registered publish entry point
  (``contracts.ATOMIC_PUBLISH_*``), where the closure is cut.
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.analysis import contracts
from repro.analysis.model import Finding, Severity
from repro.analysis.project import FunctionInfo, Project

_LOCKISH_FRAGMENTS = ("lock", "mutex")
_ACQUIRE_METHODS = {"acquire_read": "read", "acquire_write": "write", "acquire": "mutex"}
_RELEASE_FOR = {"acquire_read": "release_read", "acquire_write": "release_write",
                "acquire": "release"}
_CM_METHODS = {"read_locked": "read", "write_locked": "write"}


def _expr_name_chain(expr: ast.expr) -> Optional[list[str]]:
    """["self", "_lock"] for ``self._lock``; None for anything unnamed."""
    parts: list[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    if isinstance(expr, ast.Name):
        parts.append(expr.id)
        return list(reversed(parts))
    return None


def _is_lockish_name(name: str) -> bool:
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


class _Held:
    __slots__ = ("identity", "mode", "line")

    def __init__(self, identity: str, mode: str, line: int):
        self.identity = identity
        self.mode = mode
        self.line = line


class LockPass:
    def __init__(self, project: Project):
        self.project = project
        self.findings: list[Finding] = []
        #: (A, B) -> (file, line, symbol) of one witness acquisition
        self.edges: dict[tuple, tuple] = {}
        #: per-function: identities acquired anywhere inside (direct)
        self.direct_acquires: dict[str, set] = {}
        self.direct_blocks: dict[str, Optional[int]] = {}
        self.direct_mutates: dict[str, Optional[int]] = {}
        #: fixpoint closures through resolvable calls
        self.trans_acquires: dict[str, set] = {}
        self.may_block: dict[str, Optional[tuple]] = {}
        self.may_mutate: dict[str, Optional[tuple]] = {}

    # -- entry -----------------------------------------------------------------

    def run(self) -> list[Finding]:
        for fn in self.project.functions.values():
            acquires, blocks, mutates = self._collect_direct(fn)
            self.direct_acquires[fn.qualname] = acquires
            self.direct_blocks[fn.qualname] = blocks
            self.direct_mutates[fn.qualname] = mutates
        self._fixpoint()
        for fn in self.project.functions.values():
            _FunctionWalk(self, fn).run()
        self._find_cycles()
        return self.findings

    # -- summaries -------------------------------------------------------------

    def _collect_direct(self, fn: FunctionInfo):
        acquires: set[str] = set()
        blocks: Optional[int] = None
        mutates: Optional[int] = None
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node is not fn.node:
                continue
            if isinstance(node, ast.withitem):
                acq = self._with_item_lock(node.context_expr, fn)
                if acq is not None:
                    acquires.add(acq[0])
            elif isinstance(node, ast.Call):
                acq = self._acquire_call(node, fn)
                if acq is not None:
                    acquires.add(acq[0])
                if blocks is None and fn.is_blocking is False \
                        and self.project.is_blocking_call(node, fn):
                    blocks = node.lineno
                if mutates is None \
                        and self.project.is_shared_mutation_call(node, fn):
                    mutates = node.lineno
        if fn.is_blocking:
            blocks = fn.node.lineno
        if fn.qualname in contracts.SHARED_MUTATION_FUNCTIONS:
            mutates = fn.node.lineno
        return acquires, blocks, mutates

    def _fixpoint(self) -> None:
        self.trans_acquires = {q: set(a) for q, a in self.direct_acquires.items()}
        self.may_block = {
            q: ((line,) if line is not None else None)
            for q, line in self.direct_blocks.items()
        }
        self.may_mutate = {
            q: ((line,) if line is not None else None)
            for q, line in self.direct_mutates.items()
        }
        callees = {
            q: self._resolved_callees(fn)
            for q, fn in self.project.functions.items()
        }
        for _ in range(20):
            changed = False
            for qual, targets in callees.items():
                for target in targets:
                    extra = self.trans_acquires.get(target, ())
                    if not set(extra) <= self.trans_acquires[qual]:
                        self.trans_acquires[qual] |= set(extra)
                        changed = True
                    if self.may_block[qual] is None and \
                            self.may_block.get(target) is not None:
                        self.may_block[qual] = (target,) + tuple(
                            self.may_block[target]
                        )[:4]
                        changed = True
                    if self.may_mutate[qual] is None and \
                            target not in contracts.ATOMIC_PUBLISH_FUNCTIONS and \
                            self.may_mutate.get(target) is not None:
                        self.may_mutate[qual] = (target,) + tuple(
                            self.may_mutate[target]
                        )[:4]
                        changed = True
            if not changed:
                break

    def _resolved_callees(self, fn: FunctionInfo) -> set:
        out = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                qual, _ = self.project.resolve_call(node, fn)
                if qual in self.project.functions:
                    out.add(qual)
        return out

    # -- lock identity ---------------------------------------------------------

    def lock_identity(self, expr: ast.expr, fn: FunctionInfo) -> Optional[str]:
        chain = _expr_name_chain(expr)
        if chain is None:
            return None
        if not _is_lockish_name(chain[-1]):
            return None
        if chain[0] in ("self", "cls"):
            scope = fn.class_name or fn.module.name
            return ".".join([scope] + chain[1:])
        if len(chain) == 1:
            return f"{fn.module.name}.{chain[0]}"
        return ".".join(chain)

    def _with_item_lock(self, expr: ast.expr, fn: FunctionInfo):
        """(identity, mode) when a with-item acquires a lock, else None."""
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            mode = _CM_METHODS.get(expr.func.attr)
            if mode is not None:
                identity = self.lock_identity(expr.func.value, fn)
                if identity is not None:
                    return identity, mode
            return None
        identity = self.lock_identity(expr, fn)
        if identity is not None:
            return identity, "mutex"
        return None

    def _acquire_call(self, node: ast.Call, fn: FunctionInfo):
        """(identity, mode, method) for a bare acquire call, else None."""
        if not isinstance(node.func, ast.Attribute):
            return None
        mode = _ACQUIRE_METHODS.get(node.func.attr)
        if mode is None:
            return None
        identity = self.lock_identity(node.func.value, fn)
        if identity is None:
            return None
        return identity, mode, node.func.attr

    # -- reporting -------------------------------------------------------------

    def report(self, fn: FunctionInfo, rule: str, line: int, message: str,
               trace=()) -> None:
        self.findings.append(
            Finding(
                rule=rule,
                file=fn.module.rel_path,
                line=line,
                symbol=fn.qualname,
                message=message,
                severity=Severity.ERROR,
                trace=tuple(trace),
            )
        )

    def add_edge(self, a: str, b: str, fn: FunctionInfo, line: int) -> None:
        if a == b:
            return  # re-entrant acquisition, not an ordering edge
        self.edges.setdefault((a, b), (fn.module.rel_path, line, fn.qualname))

    def _find_cycles(self) -> None:
        graph: dict[str, set] = {}
        for a, b in self.edges:
            graph.setdefault(a, set()).add(b)
            graph.setdefault(b, set())
        for scc in _tarjan(graph):
            if len(scc) < 2:
                continue
            members = sorted(scc)
            witness = []
            for a, b in sorted(self.edges):
                if a in scc and b in scc:
                    file, line, symbol = self.edges[(a, b)]
                    witness.append(f"{a}->{b} at {file}:{line}")
            file, line, symbol = self.edges[
                next((a, b) for a, b in sorted(self.edges) if a in scc and b in scc)
            ]
            self.findings.append(
                Finding(
                    rule="lock-order-cycle",
                    file=file,
                    line=line,
                    symbol=symbol,
                    message="lock-order cycle between "
                    + ", ".join(members),
                    severity=Severity.ERROR,
                    trace=tuple(witness[:6]),
                )
            )


def _tarjan(graph: dict) -> list[set]:
    """Strongly connected components, iteratively (no recursion limit)."""
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    sccs: list[set] = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(graph[succ]))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                scc = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    scc.add(member)
                    if member == node:
                        break
                sccs.append(scc)
    return sccs


class _FunctionWalk:
    """Held-lock walk of one function: edges, blocking, await, release."""

    def __init__(self, owner: LockPass, fn: FunctionInfo):
        self.owner = owner
        self.fn = fn
        self.is_async = isinstance(fn.node, ast.AsyncFunctionDef)
        #: finally-block release targets active around the current statement
        self._finally_releases: list[set] = []

    def run(self) -> None:
        self._visit_block(self.fn.node.body, held=[])

    # -- traversal -------------------------------------------------------------

    def _visit_block(self, stmts, held: list) -> None:
        local_held = list(held)
        for i, stmt in enumerate(stmts):
            self._visit_stmt(stmt, stmts, i, local_held)

    def _visit_stmt(self, stmt, siblings, i, held: list) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquired = []
            if isinstance(stmt, ast.With):  # async with = asyncio locks, exempt
                for item in stmt.items:
                    acq = self.owner._with_item_lock(item.context_expr, self.fn)
                    if acq is not None:
                        identity, mode = acq
                        self._on_acquire(identity, held, stmt.lineno)
                        acquired.append(_Held(identity, mode, stmt.lineno))
                    else:
                        self._scan_calls(item.context_expr, held)
            self._visit_block(stmt.body, held + acquired)
            return
        if isinstance(stmt, ast.Try):
            releases = self._releases_in(stmt.finalbody)
            self._finally_releases.append(releases)
            try:
                self._visit_block(stmt.body, held)
                for handler in stmt.handlers:
                    self._visit_block(handler.body, held)
                self._visit_block(stmt.orelse, held)
            finally:
                self._finally_releases.pop()
            self._visit_block(stmt.finalbody, held)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._scan_calls(stmt.test, held)
            self._visit_block(stmt.body, held)
            self._visit_block(stmt.orelse, held)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_calls(stmt.iter, held)
            self._visit_block(stmt.body, held)
            self._visit_block(stmt.orelse, held)
            return

        # bare acquire/release statements adjust the held set for the
        # remainder of this block
        direct = self._direct_acquire_stmt(stmt)
        if direct is not None:
            identity, mode, method = direct
            self._on_acquire(identity, held, stmt.lineno)
            self._check_guaranteed_release(stmt, siblings, i, method)
            held.append(_Held(identity, mode, stmt.lineno))
            return
        released = self._direct_release_stmt(stmt)
        if released is not None:
            for k in range(len(held) - 1, -1, -1):
                if held[k].identity == released:
                    del held[k]
                    break
            return
        self._scan_calls(stmt, held)

    # -- events ----------------------------------------------------------------

    def _on_acquire(self, identity: str, held: list, line: int) -> None:
        if any(h.identity == identity for h in held):
            return  # re-entrant: no new ordering established
        for h in held:
            self.owner.add_edge(h.identity, identity, self.fn, line)

    def _scan_calls(self, node, held: list) -> None:
        """Check calls and awaits in an expression/statement under ``held``."""
        if not held:
            return
        write_held = next((h for h in held if h.mode == "write"), None)
        read_held = None
        if write_held is None:
            read_held = next((h for h in held if h.mode == "read"), None)
        stack = [node]
        while stack:
            sub = stack.pop()
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested defs are analyzed on their own
            stack.extend(ast.iter_child_nodes(sub))
            if isinstance(sub, ast.Await) and self.is_async:
                holder = held[-1]
                self.owner.report(
                    self.fn, "await-under-lock", sub.lineno,
                    f"await while holding {holder.identity} "
                    f"(acquired line {holder.line}) blocks the event loop",
                )
            if isinstance(sub, ast.Call):
                qual, _ = self.owner.project.resolve_call(sub, self.fn)
                # interprocedural lock-order edges
                if qual in self.owner.project.functions:
                    already = {h.identity for h in held}
                    for target in self.owner.trans_acquires.get(qual, ()):
                        if target in already:
                            continue  # re-entrant through the call chain
                        for h in held:
                            self.owner.add_edge(
                                h.identity, target, self.fn, sub.lineno
                            )
                if write_held is not None:
                    self._check_blocking(sub, qual, write_held)
                if read_held is not None:
                    self._check_mutation(sub, qual, read_held)

    def _check_blocking(self, call: ast.Call, qual, write_held: _Held) -> None:
        if self.owner.project.is_blocking_call(call, self.fn):
            self.owner.report(
                self.fn, "blocking-under-write-lock", call.lineno,
                f"blocking call while holding the write side of "
                f"{write_held.identity} (acquired line {write_held.line})",
            )
            return
        if qual in self.owner.project.functions:
            chain = self.owner.may_block.get(qual)
            if chain is not None:
                self.owner.report(
                    self.fn, "blocking-under-write-lock", call.lineno,
                    f"call to {qual}() may block while holding the write "
                    f"side of {write_held.identity} "
                    f"(acquired line {write_held.line})",
                    trace=tuple(str(c) for c in chain),
                )

    def _check_mutation(self, call: ast.Call, qual, read_held: _Held) -> None:
        project = self.owner.project
        if project.is_atomic_publish_call(call, self.fn):
            return  # one-assignment handover of a privately built object
        if project.is_shared_mutation_call(call, self.fn):
            self.owner.report(
                self.fn, "mutation-under-read-lock", call.lineno,
                f"in-place mutation of reader-shared state while holding "
                f"only the read side of {read_held.identity} "
                f"(acquired line {read_held.line})",
            )
            return
        if qual in project.functions:
            chain = self.owner.may_mutate.get(qual)
            if chain is not None:
                self.owner.report(
                    self.fn, "mutation-under-read-lock", call.lineno,
                    f"call to {qual}() may mutate reader-shared state in "
                    f"place while holding only the read side of "
                    f"{read_held.identity} (acquired line {read_held.line})",
                    trace=tuple(str(c) for c in chain),
                )

    # -- bare acquire/release helpers ------------------------------------------

    def _direct_acquire_stmt(self, stmt):
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            return self.owner._acquire_call(stmt.value, self.fn)
        return None

    def _direct_release_stmt(self, stmt) -> Optional[str]:
        if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call)):
            return None
        call = stmt.value
        if not isinstance(call.func, ast.Attribute):
            return None
        if call.func.attr not in ("release", "release_read", "release_write"):
            return None
        return self.owner.lock_identity(call.func.value, self.fn)

    def _releases_in(self, stmts) -> set:
        out = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr in ("release", "release_read",
                                           "release_write"):
                    identity = self.owner.lock_identity(node.func.value, self.fn)
                    if identity is not None:
                        out.add((identity, node.func.attr))
        return out

    def _check_guaranteed_release(self, stmt, siblings, i, method: str) -> None:
        name = self.fn.name
        if name.startswith("acquire") or name in ("__enter__",) \
                or name.endswith("locked"):
            return  # lock handoff is this function's contract
        identity, _, _ = self._direct_acquire_stmt(stmt)
        release = _RELEASE_FOR[method]
        # (a) immediately followed by try/finally releasing the lock
        if i + 1 < len(siblings) and isinstance(siblings[i + 1], ast.Try):
            if (identity, release) in self._releases_in(siblings[i + 1].finalbody):
                return
        # (b) already inside a try whose finally releases the lock
        for releases in self._finally_releases:
            if (identity, release) in releases:
                return
        self.owner.report(
            self.fn, "lock-no-release", stmt.lineno,
            f"{identity}.{method}() without a guaranteed {release}() on "
            "exception paths (use a with-block or try/finally)",
        )


def run_locks(project: Project) -> list[Finding]:
    return LockPass(project).run()
