"""Durability rule: one module owns every rename.

A crash-consistent publish is a fixed sequence — write a temp file, fsync
it, rename it onto the final name, fsync the directory — and a mistake in
any step only shows up after a crash.  :mod:`repro.utils.durable` owns that
sequence, so the rule is simply that nothing else renames files: every
other module calls its primitives (``atomic_write``, ``atomic_dir``,
``durable_rename``), whose tests pin the fsync-before-rename order and
whose crash-point tests enumerate every failure along the way.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import ModuleContext
from repro.lint.rules import LintRule, RawFinding, rules
from repro.utils.durable import RENAME_CALLS

__all__ = ["RenameOutsideDurableRule"]


@rules.register("rep-u201", aliases=("rename-outside-durable",))
class RenameOutsideDurableRule(LintRule):
    id = "REP-U201"
    name = "rename-outside-durable"
    severity = "error"
    category = "durability"
    invariant = (
        "Files are renamed only in repro/utils/durable.py, whose primitives "
        "fsync contents before the rename and the directory after it."
    )
    exempt = ("utils/durable.py",)
    example_path = "repro/serving/example.py"
    bad_example = (
        "from os import replace\n"
        "\n"
        "def publish(tmp, final):\n"
        "    replace(tmp, final)\n"
    )
    good_example = (
        "from repro.utils.durable import atomic_write\n"
        "\n"
        "def publish(final, payload):\n"
        "    atomic_write(final, payload)\n"
    )

    def check(self, ctx: ModuleContext) -> Iterable[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            target = ctx.qualified(node.func)
            if target in RENAME_CALLS:
                yield self.at(
                    node,
                    f"{target} outside repro/utils/durable.py; publish through "
                    "atomic_write / atomic_dir / durable_rename, which fsync "
                    "before and after the rename",
                )
