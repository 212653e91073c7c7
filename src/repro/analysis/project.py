"""Source model for ``sdb-lint``: modules, functions, imports, call resolution.

The analyzer never imports the code under analysis -- everything is read
from ``ast`` parses.  A :class:`Project` indexes every function by its
qualified name (``package.module.Class.func``), records each module's
import aliases, and offers best-effort static call resolution:

* ``name(...)``            -> a module-level def or an imported name;
* ``alias.attr(...)``      -> through ``import x.y as alias`` /
  ``from x import y``;
* ``self.meth(...)``       -> a method of the lexically enclosing class;
* ``cls.meth(...)`` / ``ClassName.meth(...)`` -> ditto by class name.

Unresolvable receiver-typed calls fall back to the *method name*
registries in :mod:`repro.analysis.contracts` -- the honest trade-off that
keeps the pass useful without a type checker.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis import contracts

#: Decorator spellings that mark taint roles, mapped to the role name.
_DECORATOR_ROLES = {
    "plaintext_source": "source",
    "sanitizer": "sanitizer",
    "plaintext_sink": "sink",
    "blocking": "blocking",
}


@dataclass
class FunctionInfo:
    """One function or method, with its analysis-relevant facts."""

    qualname: str                  # module.Class.func or module.func
    module: "ModuleInfo"
    node: ast.AST                  # FunctionDef | AsyncFunctionDef
    class_name: Optional[str]      # enclosing class, if a method
    role: Optional[str] = None     # source | sanitizer | sink | None
    is_blocking: bool = False      # decorated @blocking

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ModuleInfo:
    """One parsed source file."""

    name: str                       # dotted module name ("repro.core.proxy")
    path: Path
    rel_path: str                   # repo-relative posix path for findings
    tree: ast.Module
    #: local alias -> qualified target ("sies" -> "repro.crypto.sies",
    #: "send_message" -> "repro.net.protocol.send_message")
    imports: dict = field(default_factory=dict)
    functions: dict = field(default_factory=dict)  # qualname -> FunctionInfo


def _module_name_for(path: Path, roots: Iterable[Path]) -> str:
    """Dotted module name of ``path`` relative to the innermost source root."""
    best = None
    for root in roots:
        try:
            rel = path.resolve().relative_to(root.resolve())
        except ValueError:
            continue
        if best is None or len(rel.parts) < len(best.parts):
            best = rel
    rel = best if best is not None else Path(path.name)
    parts = list(rel.parts)
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts) or path.stem


def _decorator_role(node: ast.AST) -> tuple[Optional[str], bool]:
    """(taint role, is_blocking) declared by the function's decorators."""
    role = None
    blocking = False
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute):
            name = target.attr
        elif isinstance(target, ast.Name):
            name = target.id
        else:
            continue
        declared = _DECORATOR_ROLES.get(name)
        if declared == "blocking":
            blocking = True
        elif declared is not None:
            role = declared
    return role, blocking


@functools.cache
def _wire_stub_sinks() -> frozenset:
    """Client stub names whose arguments are serialized onto the wire.

    The stubs are generated from the op table, so they have no bodies for
    the taint pass to summarise; the table itself says which ones ship
    their arguments (a ``value`` or ``sql`` field).
    """
    from repro.net.protocol import STUBS

    return frozenset(
        row.method
        for row in STUBS
        if any(f.codec in ("value", "sql") for f in row.fields)
    )


class Project:
    """All parsed modules plus the resolution machinery."""

    def __init__(self, repo_root: Path):
        self.repo_root = repo_root
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}

    # -- loading ---------------------------------------------------------------

    @classmethod
    def load(cls, paths: Iterable[Path], repo_root: Optional[Path] = None) -> "Project":
        """Parse every ``.py`` under ``paths`` into a project model."""
        files: list[Path] = []
        for p in paths:
            p = Path(p)
            if p.is_dir():
                files.extend(sorted(p.rglob("*.py")))
            elif p.suffix == ".py":
                files.append(p)
        if repo_root is None:
            repo_root = Path.cwd()
        # source roots: any ancestor named "src" plus each supplied dir, so
        # "src/repro/..." maps to "repro...." and a fixtures dir maps flat
        roots = set()
        for f in files:
            for ancestor in f.resolve().parents:
                if ancestor.name == "src":
                    roots.add(ancestor)
        for p in paths:
            p = Path(p)
            if p.is_dir():
                roots.add(p)
        project = cls(repo_root)
        for f in files:
            project._load_file(f, roots or [repo_root])
        return project

    def _load_file(self, path: Path, roots: Iterable[Path]) -> None:
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError:
            return  # not this tool's job to report
        name = _module_name_for(path, roots)
        try:
            rel = path.resolve().relative_to(self.repo_root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        module = ModuleInfo(name=name, path=path, rel_path=rel, tree=tree)
        self._index_imports(module)
        self._index_functions(module)
        self.modules[name] = module
        self.functions.update(module.functions)

    def _index_imports(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    module.imports[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module:
                base = node.module
                if node.level:  # relative import: resolve against this module
                    parts = module.name.split(".")
                    parts = parts[: len(parts) - node.level]
                    base = ".".join(parts + [node.module]) if parts else node.module
                for alias in node.names:
                    local = alias.asname or alias.name
                    module.imports[local] = f"{base}.{alias.name}"

    def _index_functions(self, module: ModuleInfo) -> None:
        def visit(node: ast.AST, class_name: Optional[str]):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = (
                        f"{module.name}.{class_name}.{child.name}"
                        if class_name
                        else f"{module.name}.{child.name}"
                    )
                    role, is_blocking = _decorator_role(child)
                    module.functions[qual] = FunctionInfo(
                        qualname=qual,
                        module=module,
                        node=child,
                        class_name=class_name,
                        role=role,
                        is_blocking=is_blocking,
                    )
                    visit(child, class_name)  # nested defs keep the class scope
                elif isinstance(child, ast.ClassDef):
                    visit(child, child.name)
                else:
                    visit(child, class_name)

        visit(module.tree, None)

    # -- resolution ------------------------------------------------------------

    def resolve_call(
        self, call: ast.Call, fn: FunctionInfo
    ) -> tuple[Optional[str], Optional[str]]:
        """(qualified name, method name) for a call, either may be None.

        The qualified name is returned when imports/class scope pin the
        callee; the bare method name is returned for ``obj.meth(...)`` so
        callers can consult the method-name registries as a fallback.
        """
        target = call.func
        module = fn.module
        if isinstance(target, ast.Name):
            name = target.id
            local = f"{module.name}.{name}"
            if local in self.functions:
                return local, name
            imported = module.imports.get(name)
            if imported is not None:
                return imported, name
            return f"{module.name}.{name}", name
        if isinstance(target, ast.Attribute):
            attr = target.attr
            base = target.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and fn.class_name:
                    qual = f"{module.name}.{fn.class_name}.{attr}"
                    if qual in self.functions:
                        return qual, attr
                    return None, attr
                class_qual = f"{module.name}.{base.id}.{attr}"
                if class_qual in self.functions:
                    return class_qual, attr
                imported = module.imports.get(base.id)
                if imported is not None:
                    # "from repro.crypto import sies; sies.decrypt(...)" or
                    # "import time; time.sleep(...)"
                    qual = f"{imported}.{attr}"
                    if qual in self.functions:
                        return qual, attr
                    # imported name may itself be a class
                    return qual, attr
            return None, attr
        return None, None

    # -- contract lookups ------------------------------------------------------

    def role_of_call(self, call: ast.Call, fn: FunctionInfo) -> Optional[str]:
        """Taint role of a call: source | sanitizer | (wire|storage sink)."""
        qual, meth = self.resolve_call(call, fn)
        if qual is not None:
            target = self.functions.get(qual)
            if target is not None and target.role is not None:
                if target.role == "sink":
                    return "wire"
                return target.role
            if qual in contracts.SANITIZER_FUNCTIONS:
                return "sanitizer"
            if qual in contracts.SINK_FUNCTIONS:
                return contracts.SINK_FUNCTIONS[qual]
        if meth is not None and isinstance(call.func, ast.Attribute):
            if meth in contracts.SOURCE_METHODS:
                return "source"
            if meth in contracts.SANITIZER_METHODS:
                return "sanitizer"
            if meth in contracts.SINK_METHODS:
                return contracts.SINK_METHODS[meth]
            # a generated stub never resolves to a def; a same-named
            # method that does (``SDBServer.execute``) is not the wire
            if meth in _wire_stub_sinks() and qual not in self.functions:
                return "wire"
        return None

    def is_shared_mutation_call(self, call: ast.Call, fn: FunctionInfo) -> bool:
        """Does the call mutate reader-shared state in place (a table hook
        or index maintenance)?"""
        qual, meth = self.resolve_call(call, fn)
        if qual in contracts.SHARED_MUTATION_FUNCTIONS:
            return True
        return (
            qual not in self.functions
            and meth in contracts.SHARED_MUTATION_METHODS
            and isinstance(call.func, ast.Attribute)
        )

    def is_atomic_publish_call(self, call: ast.Call, fn: FunctionInfo) -> bool:
        qual, meth = self.resolve_call(call, fn)
        if qual in contracts.ATOMIC_PUBLISH_FUNCTIONS:
            return True
        return qual is None and meth in contracts.ATOMIC_PUBLISH_METHODS

    def is_blocking_call(self, call: ast.Call, fn: FunctionInfo) -> bool:
        qual, meth = self.resolve_call(call, fn)
        if qual is not None:
            target = self.functions.get(qual)
            if target is not None and target.is_blocking:
                return True
            if qual in contracts.BLOCKING_FUNCTIONS:
                return True
        if meth is not None and isinstance(call.func, ast.Attribute):
            if meth in contracts.BLOCKING_METHODS:
                return True
        return False
