"""Cross-module symbol table and call resolution for whole-program rules.

detlint v1 analyzed one function body at a time: a ``time.time()``
wrapped in a helper in one module and *called* from ``sim/`` scope in
another was invisible.  The :class:`ProjectIndex` built here is the
first pass of the two-pass engine (:mod:`repro.lint.engine`): it maps
every analyzed file to a dotted module name, records every module-level
function, class, method, and module-global assignment under a fully
qualified name, and expands each module's import aliases — including
relative imports — so a call site anywhere in the project can be
resolved to the function definition it lands on, wherever that lives.

The index is intentionally a *static over-approximation with
conservative fallbacks*: dynamic dispatch, ``getattr``, decorators that
replace functions, and calls on values of unknown type resolve to
``None`` rather than to a wrong target, so downstream rules
(:mod:`repro.lint.taint`) err toward silence, not false positives.
"""

from __future__ import annotations

import ast
import typing as _t

from .engine import ModuleUnderLint

__all__ = ["ProjectIndex", "module_name", "build_index"]


def module_name(path: str) -> str:
    """Dotted module name for a normalized lint path.

    ``repro/sim/core.py`` -> ``repro.sim.core``;
    ``repro/sim/__init__.py`` -> ``repro.sim``; a bare ``fixture.py``
    (no package root) -> ``fixture``.
    """
    parts = path.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p) or "module"


def _relative_base(modname: str, level: int) -> str:
    """Package that a ``from ..x import y`` (``level`` dots) resolves
    against, for a module named ``modname``."""
    parts = modname.split(".")
    # level=1 is the module's own package; each extra dot climbs one.
    keep = len(parts) - level
    return ".".join(parts[:keep]) if keep > 0 else ""


class ProjectIndex:
    """Everything the project-wide rules need to resolve names.

    Attributes
    ----------
    modules:
        dotted module name -> :class:`ModuleUnderLint`.
    functions:
        fully qualified name (``pkg.mod.func`` or
        ``pkg.mod.Class.method``) -> function/async-function AST node.
    function_module:
        fully qualified function name -> its module's dotted name.
    classes:
        fully qualified class name -> class AST node.
    global_values:
        fully qualified module-global name -> list of value
        expressions assigned to it at module level.
    aliases:
        dotted module name -> {local name -> fully qualified target},
        with relative imports expanded (unlike the per-module
        :attr:`ModuleUnderLint.aliases`, which skips them).
    """

    def __init__(self) -> None:
        self.modules: dict[str, ModuleUnderLint] = {}
        self.functions: dict[str, ast.AST] = {}
        self.function_module: dict[str, str] = {}
        self.classes: dict[str, ast.AST] = {}
        self.global_values: dict[str, list[ast.expr]] = {}
        self.aliases: dict[str, dict[str, str]] = {}
        #: child -> enclosing ClassDef qualname, per module (for
        #: ``self.method()`` resolution), keyed by dotted module name.
        self._class_of: dict[str, dict[ast.AST, str]] = {}

    # -- construction ------------------------------------------------------
    def add_module(self, mod: ModuleUnderLint) -> None:
        modname = module_name(mod.path)
        self.modules[modname] = mod
        self.aliases[modname] = self._build_aliases(mod, modname)
        class_of: dict[ast.AST, str] = {}
        for stmt in mod.tree.body:
            self._index_statement(stmt, modname, prefix=modname,
                                  class_of=class_of)
        self._class_of[modname] = class_of

    def _build_aliases(self, mod: ModuleUnderLint,
                       modname: str) -> dict[str, str]:
        out = dict(mod.aliases)  # absolute imports, already expanded
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                base = _relative_base(modname, node.level)
                target = (f"{base}.{node.module}" if node.module and base
                          else (node.module or base))
                if not target:
                    continue
                for a in node.names:
                    if a.name != "*":
                        out[a.asname or a.name] = f"{target}.{a.name}"
        return out

    def _index_statement(self, stmt: ast.stmt, modname: str, prefix: str,
                         class_of: dict[ast.AST, str]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{prefix}.{stmt.name}"
            self.functions[qual] = stmt
            self.function_module[qual] = modname
        elif isinstance(stmt, ast.ClassDef):
            qual = f"{prefix}.{stmt.name}"
            self.classes[qual] = stmt
            for child in ast.walk(stmt):
                class_of.setdefault(child, qual)
            for sub in stmt.body:
                self._index_statement(sub, modname, prefix=qual,
                                      class_of=class_of)
        elif isinstance(stmt, ast.Assign) and prefix == modname:
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    self.global_values.setdefault(
                        f"{modname}.{target.id}", []).append(stmt.value)
        elif isinstance(stmt, ast.AnnAssign) and prefix == modname \
                and stmt.value is not None \
                and isinstance(stmt.target, ast.Name):
            self.global_values.setdefault(
                f"{modname}.{stmt.target.id}", []).append(stmt.value)
        elif isinstance(stmt, (ast.If, ast.Try)) and prefix == modname:
            # Module-level conditional defs (TYPE_CHECKING guards,
            # version fallbacks) still define real symbols.
            bodies = [stmt.body]
            if isinstance(stmt, ast.If):
                bodies.append(stmt.orelse)
            else:
                bodies.extend([stmt.orelse, stmt.finalbody]
                              + [h.body for h in stmt.handlers])
            for body in bodies:
                for sub in body:
                    self._index_statement(sub, modname, prefix, class_of)

    # -- resolution --------------------------------------------------------
    def dotted(self, modname: str, node: ast.AST) -> str | None:
        """Dotted name of an expression with this module's aliases
        (incl. relative imports) expanded; ``None`` if not a name."""
        if isinstance(node, ast.Name):
            return self.aliases.get(modname, {}).get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.dotted(modname, node.value)
            return None if base is None else f"{base}.{node.attr}"
        return None

    def resolve_call(self, modname: str,
                     call: ast.Call) -> str | None:
        """Fully qualified name of the function a call lands on, or
        ``None`` when the target is unknown (builtin, dynamic, method
        on a value of unknown type)."""
        func = call.func
        if isinstance(func, ast.Name):
            local = func.id
            target = self.aliases.get(modname, {}).get(local)
            if target is not None:
                return self._canonical(target)
            qual = f"{modname}.{local}"
            if qual in self.functions or qual in self.classes:
                return qual
            return None
        if isinstance(func, ast.Attribute):
            # self.method() -> method on the enclosing class.
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                cls = self._class_of.get(modname, {}).get(call)
                if cls is not None:
                    qual = f"{cls}.{func.attr}"
                    if qual in self.functions:
                        return qual
                return None
            dotted = self.dotted(modname, func)
            if dotted is not None:
                return self._canonical(dotted)
        return None

    def _canonical(self, dotted: str) -> str | None:
        """Map a dotted target onto an indexed symbol, if any.

        Handles both ``import m; m.f()`` (``m.f``) and
        ``from m import f; f()`` (alias already stores ``m.f``), plus
        re-exports through package ``__init__`` files one level deep.
        """
        if dotted in self.functions or dotted in self.classes \
                or dotted in self.global_values:
            return dotted
        # A package __init__ re-export: repro.sim.RandomTree ->
        # repro.sim.rng.RandomTree via the __init__ module's aliases.
        head, _, leaf = dotted.rpartition(".")
        if head in self.modules:
            via = self.aliases.get(head, {}).get(leaf)
            if via is not None and via != dotted:
                return self._canonical(via)
        return dotted if head else None

    def module_of_symbol(self, qual: str) -> str | None:
        """Dotted module name that defines ``qual`` (function, class,
        or module global), or ``None``."""
        if qual in self.function_module:
            return self.function_module[qual]
        head, _, _leaf = qual.rpartition(".")
        while head:
            if head in self.modules:
                return head
            head, _, _leaf = head.rpartition(".")
        return None


def build_index(mods: _t.Iterable[ModuleUnderLint]) -> ProjectIndex:
    """Index pass: one :class:`ProjectIndex` over every parsed module."""
    index = ProjectIndex()
    for mod in mods:
        index.add_module(mod)
    return index
