"""Cache-guard rule: no derived data hangs off a matrix as a ``_repro_*`` attribute.

Every form derived from a receptive field's bit pattern — its CSR and CSC
index patterns and NIM operator — is owned by the
:class:`~repro.core.coverage_kernels.PackedAdjacency` it came from and
dies with it.  An attribute written onto
a scipy matrix instead outlives any in-place edit of that matrix and keeps
serving stale derived data, so every such write is a finding.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import ModuleContext
from repro.lint.rules import LintRule, RawFinding, rules

__all__ = ["UnguardedAttributeCacheRule"]

_CACHE_PREFIX = "_repro_"


@rules.register("rep-c301", aliases=("unguarded-attribute-cache",))
class UnguardedAttributeCacheRule(LintRule):
    id = "REP-C301"
    name = "unguarded-attribute-cache"
    severity = "error"
    category = "cache-guard"
    invariant = (
        "No _repro_* attribute is written onto any object: derived forms "
        "are owned by the PackedAdjacency of their pattern, so they die "
        "with it and cannot serve stale data."
    )
    example_path = "repro/core/example.py"
    bad_example = (
        "def cached_degree(matrix):\n"
        "    if not hasattr(matrix, '_repro_degree'):\n"
        "        matrix._repro_degree = matrix.sum(axis=1)\n"
        "    return matrix._repro_degree\n"
    )
    good_example = (
        "def degree(packed):\n"
        "    return packed.to_csr().sum(axis=1)\n"
        "\n"
        "def cached_degree(packed):\n"
        "    return packed.derived(degree)\n"
    )

    def check(self, ctx: ModuleContext) -> Iterable[RawFinding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                written = any(
                    isinstance(target, ast.Attribute)
                    and target.attr.startswith(_CACHE_PREFIX)
                    for target in targets
                )
            elif isinstance(node, ast.Call) and len(node.args) >= 2:
                name = (
                    ctx.string_value(node.args[1])
                    if ctx.qualified(node.func) == "setattr"
                    else None
                )
                written = name is not None and name.startswith(_CACHE_PREFIX)
            else:
                continue
            if written:
                yield self.at(
                    node,
                    "_repro_* attribute written; keep derived forms on their "
                    "PackedAdjacency (derived()) instead",
                )
