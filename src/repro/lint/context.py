"""Per-module analysis context shared by every ``reprolint`` rule.

One :class:`ModuleContext` is built per linted file: the parsed AST, the raw
source lines, an import-alias map that lets rules match *qualified* names
(``np.random.default_rng`` resolves to ``numpy.random.default_rng`` whatever
the local alias), module-level string constants (so ``setattr(m, CACHE_ATTR,
...)`` can be resolved when ``CACHE_ATTR = "_repro_degree"``), the
suppression-comment table, and the function decomposition most rules analyse
(:class:`FunctionUnit`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.suppress import SuppressionTable

__all__ = ["FunctionUnit", "ModuleContext"]

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_NODES = _FUNCTION_NODES + (ast.Lambda,)


@dataclass
class FunctionUnit:
    """One function (or the module body) as a unit of rule analysis.

    Attributes
    ----------
    node:
        The ``FunctionDef``/``AsyncFunctionDef`` node, or the ``Module``
        node for top-level code.
    qualname:
        Dotted name including enclosing classes (``Store.put``), or
        ``"<module>"``.
    nodes:
        Every AST node in the unit **including** nested functions/lambdas —
        the view most rules want (a nested helper's cache write still
        belongs to the enclosing operation).
    direct_nodes:
        Every AST node in the unit **excluding** nested function and lambda
        bodies — the view the asyncio rule wants (a blocking call inside a
        nested ``def`` is typically shipped to an executor, not awaited
        inline).
    is_async:
        Whether the unit is an ``async def``.
    """

    node: ast.AST
    qualname: str
    nodes: list[ast.AST]
    direct_nodes: list[ast.AST]
    is_async: bool = False

    def calls(self, *, direct_only: bool = False) -> list[ast.Call]:
        pool = self.direct_nodes if direct_only else self.nodes
        return [n for n in pool if isinstance(n, ast.Call)]


def _collect_unit_nodes(root: ast.AST) -> tuple[list[ast.AST], list[ast.AST]]:
    """``(all descendant nodes, descendants excluding nested scopes)``."""
    all_nodes: list[ast.AST] = []
    direct: list[ast.AST] = []

    def walk(node: ast.AST, in_nested: bool) -> None:
        for child in ast.iter_child_nodes(node):
            all_nodes.append(child)
            if not in_nested:
                direct.append(child)
            nested = in_nested or isinstance(child, _SCOPE_NODES)
            walk(child, nested)

    walk(root, False)
    return all_nodes, direct


class ModuleContext:
    """Everything a rule needs to analyse one source file.

    Parameters
    ----------
    path:
        Display path of the file (posix, relative to the lint root).
    source:
        The file's full text.
    """

    def __init__(self, path: str, source: str) -> None:
        self.path = str(Path(path).as_posix())
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=self.path)
        self.suppressions = SuppressionTable.from_source(source)
        self.aliases = self._import_aliases(self.tree)
        self.constants = self._module_constants(self.tree)
        self._units: list[FunctionUnit] | None = None

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _import_aliases(tree: ast.Module) -> dict[str, str]:
        """Local name → fully qualified dotted prefix, from import statements."""
        aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0]
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for item in node.names:
                    if item.name == "*":
                        continue
                    aliases[item.asname or item.name] = f"{node.module}.{item.name}"
        return aliases

    @staticmethod
    def _module_constants(tree: ast.Module) -> dict[str, str]:
        """Module-level ``NAME = "literal"`` string constants."""
        constants: dict[str, str] = {}
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        constants[target.id] = node.value.value
        return constants

    def dotted(self, node: ast.AST) -> str | None:
        """Dotted source form of a Name/Attribute chain, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def qualified(self, node: ast.AST) -> str | None:
        """Alias-resolved qualified name of a call target / name chain.

        ``np.random.default_rng`` → ``numpy.random.default_rng`` under
        ``import numpy as np``; ``sync_dir`` → the full
        ``repro.utils.durable.sync_dir`` under a ``from`` import.
        """
        dotted = self.dotted(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        resolved = self.aliases.get(head, head)
        return f"{resolved}.{rest}" if rest else resolved

    def string_value(self, node: ast.AST) -> str | None:
        """Literal string value of ``node``, resolving module constants."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        return None

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    # ------------------------------------------------------------------ #
    # Function decomposition
    # ------------------------------------------------------------------ #
    def function_units(self) -> list[FunctionUnit]:
        """Top-level functions/methods (plus the module body) as units.

        Nested functions do **not** get their own unit — they belong to the
        nearest enclosing def, which is the granularity the repo's
        invariants are written at (a ``commit()`` closure inside an async
        handler is part of that handler's durability story).
        """
        if self._units is not None:
            return self._units
        units: list[FunctionUnit] = []

        def visit(body_owner: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(body_owner):
                if isinstance(child, _FUNCTION_NODES):
                    qualname = f"{prefix}{child.name}" if prefix else child.name
                    nodes, direct = _collect_unit_nodes(child)
                    units.append(
                        FunctionUnit(
                            node=child,
                            qualname=qualname,
                            nodes=nodes,
                            direct_nodes=direct,
                            is_async=isinstance(child, ast.AsyncFunctionDef),
                        )
                    )
                    # Nested async defs still need their own asyncio view:
                    # give *async* nested functions a unit of their own.
                    visit(child, f"{qualname}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(self.tree, "")
        # Keep only top-level-per-scope units: a nested *sync* def is part
        # of its parent; a nested *async* def analyses independently too.
        seen_spans: list[tuple[int, int, bool]] = []
        kept: list[FunctionUnit] = []
        for unit in sorted(units, key=lambda u: (u.node.lineno, -u.node.end_lineno)):
            span = (unit.node.lineno, unit.node.end_lineno)
            enclosed = any(
                lo <= span[0] and span[1] <= hi for lo, hi, _ in seen_spans
            )
            if enclosed and not unit.is_async:
                continue
            seen_spans.append((span[0], span[1], unit.is_async))
            kept.append(unit)
        # The module unit sees only top-level code (incl. class bodies) —
        # function bodies belong to their own units, so excluding nested
        # scopes here keeps findings from double-reporting at module level.
        _, module_direct = _collect_unit_nodes(self.tree)
        kept.append(
            FunctionUnit(
                node=self.tree,
                qualname="<module>",
                nodes=module_direct,
                direct_nodes=module_direct,
            )
        )
        self._units = kept
        return kept

    def enclosing_symbol(self, lineno: int) -> str:
        """Qualname of the innermost function unit containing ``lineno``."""
        best = "<module>"
        best_span = None
        for unit in self.function_units():
            if unit.qualname == "<module>":
                continue
            lo, hi = unit.node.lineno, unit.node.end_lineno
            if lo <= lineno <= hi:
                if best_span is None or (hi - lo) < best_span:
                    best, best_span = unit.qualname, hi - lo
        return best
