"""Asyncio-hygiene rule: keep the serving event loop unblocked.

The serving tier (PR 6/8) multiplexes every connection over one event
loop; a single synchronous ``fsync`` or ``np.load`` inside an ``async
def`` stalls *all* in-flight requests for its duration.  The sanctioned
pattern is ``loop.run_in_executor`` (see ``ServingServer._handle_delta``):
the blocking work goes inside a nested ``def`` shipped to a pool, which
this rule deliberately does not descend into (it analyses only the
*direct* body of each ``async def``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.context import ModuleContext
from repro.lint.rules import LintRule, RawFinding, rules

__all__ = ["BlockingCallInAsyncRule"]

#: Exactly-matching qualified names that block the loop.
_BLOCKING_EXACT = {
    "time.sleep": "use asyncio.sleep",
    "os.fsync": "ship the fsync to an executor",
}

#: Qualified-name prefixes that block (file/process I/O).
_BLOCKING_PREFIXES = {
    "numpy.load": "ship array loading to an executor",
    "numpy.save": "ship array writes to an executor",
    "subprocess.": "use asyncio.create_subprocess_exec",
}

#: Repo-specific synchronous primitives (disk + verification I/O).
_BLOCKING_SUFFIXES = {
    "sync_dir": "ship the directory fsync to an executor",
    "atomic_write": "ship the durable write to an executor",
    "atomic_dir": "ship the durable directory build to an executor",
    "durable_rename": "ship the durable rename to an executor",
    "published_session": "load the session via run_in_executor",
    "recover_from_wal": "replay the WAL via run_in_executor",
    "set_current": "publish the pointer via run_in_executor",
}


@rules.register("rep-a401", aliases=("blocking-call-in-async",))
class BlockingCallInAsyncRule(LintRule):
    id = "REP-A401"
    name = "blocking-call-in-async"
    severity = "warning"
    category = "asyncio"
    invariant = (
        "async def bodies in serving/ never call blocking I/O directly; "
        "blocking work is shipped to an executor so one slow disk cannot "
        "stall every in-flight request."
    )
    scope = ("serving/",)
    example_path = "repro/serving/example.py"
    bad_example = (
        "import time\n"
        "\n"
        "async def throttle(delay):\n"
        "    time.sleep(delay)\n"
    )
    good_example = (
        "import asyncio\n"
        "\n"
        "async def throttle(delay):\n"
        "    await asyncio.sleep(delay)\n"
    )

    def _blocking_hint(self, ctx: ModuleContext, call: ast.Call) -> str | None:
        qualified = ctx.qualified(call.func)
        dotted = ctx.dotted(call.func)
        if qualified is not None:
            hint = _BLOCKING_EXACT.get(qualified)
            if hint is not None:
                return f"{qualified} blocks the event loop; {hint}"
            for prefix, fix in _BLOCKING_PREFIXES.items():
                if qualified.startswith(prefix):
                    return f"{qualified} blocks the event loop; {fix}"
        for name in (qualified, dotted):
            if name is None:
                continue
            tail = name.split(".")[-1]
            hint = _BLOCKING_SUFFIXES.get(tail)
            if hint is not None:
                return f"{name} blocks the event loop; {hint}"
        # Executor shutdown waits for queued work unless wait=False.
        if dotted and dotted.split(".")[-1] == "shutdown":
            waits = True
            for kw in call.keywords:
                if kw.arg == "wait" and isinstance(kw.value, ast.Constant):
                    waits = bool(kw.value.value)
            if waits:
                return (
                    f"{dotted}() joins queued work on the event loop; ship it "
                    "to an executor or pass wait=False"
                )
        return None

    def check(self, ctx: ModuleContext) -> Iterable[RawFinding]:
        for unit in ctx.function_units():
            if not unit.is_async:
                continue
            for call in unit.calls(direct_only=True):
                hint = self._blocking_hint(ctx, call)
                if hint is not None:
                    yield self.at(call, hint)
