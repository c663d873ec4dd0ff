"""The one replay-and-verify loop: incremental condensation against a full
recondense, delta by delta.

FreeHGC selects rather than optimises, so after every delta the incremental
output must equal a from-scratch condense of the same graph, byte for byte.
``python -m repro stream``, the scenario matrix and
``benchmarks/bench_streaming.py`` all check this through :func:`replay`
and take their medians from :func:`summarize`.  A step's time is
:attr:`~repro.streaming.incremental.StepReport.step_seconds`: apply, context
refresh and condense, the interval of its ``stream.step`` span.

Examples
--------
>>> from repro.core import FreeHGC
>>> from repro.datasets import load_acm
>>> from repro.datasets.generators import generate_delta_schedule
>>> from repro.streaming import IncrementalCondenser, replay, summarize
>>> graph = load_acm(scale=0.2, seed=0)
>>> schedule = generate_delta_schedule(graph, steps=2, seed=0)
>>> inc = IncrementalCondenser(graph, condenser=FreeHGC(max_hops=2), ratio=0.2)
>>> _ = inc.condense()
>>> records = list(replay(inc, schedule, verify_every=2))
>>> [(r.step, r.mode, r.identical) for r in records]
[(1, 'incremental', None), (2, 'incremental', True)]
>>> median_step, median_full, speedup = summarize(records)
>>> median_full > 0
True
"""

from __future__ import annotations

import copy
from time import perf_counter
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.streaming.apply import DeltaApplier
from repro.streaming.delta import GraphDelta
from repro.streaming.incremental import IncrementalCondenser, StepReport, graphs_equal

__all__ = ["replay", "summarize"]


def replay(
    incremental: IncrementalCondenser,
    schedule: Iterable[GraphDelta],
    *,
    verify_every: int = 0,
    step: Callable[[GraphDelta], StepReport | None] | None = None,
    steps_first: bool = False,
) -> Iterator[StepReport]:
    """Step ``incremental`` through ``schedule``; verify at checkpoints.

    Each delta goes through ``step`` when given, else ``incremental.step``.
    ``step`` returns the condenser's report, or ``None`` when it refused a
    delta the live graph kept; nothing is yielded for a refused delta.
    Every delta then goes to a replica of the live graph, taken at the
    first iteration.  Each delta step number divisible by ``verify_every``
    (none when 0) is a checkpoint: the replica is condensed from scratch
    with the incremental condenser's own configuration, and the yielded
    report carries ``full_seconds`` and ``identical``.  With
    ``steps_first`` every delta is stepped before the first checkpoint, so
    no full recondense runs between two timed steps.
    """
    advance = incremental.step if step is None else step
    replica = incremental.graph.copy() if verify_every else None
    applier = DeltaApplier()
    steps = ((delta, advance(delta)) for delta in schedule)
    if steps_first:
        steps = list(steps)
    for delta, report in steps:
        if replica is not None:
            applier.apply(replica, delta)
        if report is None:
            continue
        if verify_every and delta.step % verify_every == 0:
            # A copy, because condense() keeps its context on the instance.
            start = perf_counter()
            full = copy.copy(incremental.condenser).condense(
                replica, incremental.ratio, seed=incremental.seed
            )
            report.full_seconds = perf_counter() - start
            report.identical = graphs_equal(report.condensed, full)
        yield report


def summarize(records: Iterable[StepReport]) -> tuple[float | None, ...]:
    """``(median step, median full recondense, full / step)``, unrounded.

    The step median covers incremental-mode steps only; each value is
    ``None`` when there is nothing to take it over.
    """
    records = list(records)
    steps = [r.step_seconds for r in records if r.mode == "incremental"]
    fulls = [r.full_seconds for r in records if r.full_seconds is not None]
    median_step = float(np.median(steps)) if steps else None
    median_full = float(np.median(fulls)) if fulls else None
    speedup = median_full / median_step if median_step and median_full else None
    return median_step, median_full, speedup
