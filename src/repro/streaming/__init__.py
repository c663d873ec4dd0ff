"""Incremental condensation for evolving heterogeneous graphs.

The paper condenses a *static* graph once; a production deployment sees the
graph change continuously.  This package provides the streaming layer on
top of the condensation core:

* :class:`~repro.streaming.delta.GraphDelta` — one batched update (edge and
  node insertions/removals) with stable node-id semantics;
* :class:`~repro.streaming.apply.DeltaApplier` — applies a delta to a live
  :class:`~repro.hetero.graph.HeteroGraph`, invalidates exactly the
  affected :class:`~repro.core.context.CondensationContext` memos, and
  reports the delta's **dirty target set** (the sound over-approximation
  of feature-changed targets that drives the serving layer's
  prediction-cache invalidation, see :mod:`repro.serving`);
* :class:`~repro.streaming.warmstart.SelectionMemo` /
  :func:`~repro.streaming.warmstart.warm_start_coverage` — byte-exact
  warm starts of the greedy coverage kernel from the previous selection;
* :class:`~repro.streaming.incremental.IncrementalCondenser` — the driver:
  apply, invalidate, re-condense, with a ``recondense_threshold`` fallback
  to full condensation for large deltas;
* :func:`~repro.streaming.replay.replay` — the one loop that replays a
  delta schedule and checks each checkpoint against a full recondense byte
  for byte; ``python -m repro stream``, the scenario matrix and
  ``benchmarks/bench_streaming.py`` all run on it.
"""

from repro.streaming.apply import ApplyReport, DeltaApplier
from repro.streaming.delta import DeltaValidationError, GraphDelta
from repro.streaming.incremental import (
    GraphMismatchError,
    IncrementalCondenser,
    StageMemo,
    StepReport,
    assert_graphs_equal,
    graphs_equal,
)
from repro.streaming.replay import replay, summarize
from repro.streaming.warmstart import SelectionMemo, changed_rows, warm_start_coverage

__all__ = [
    "ApplyReport",
    "DeltaApplier",
    "DeltaValidationError",
    "GraphDelta",
    "GraphMismatchError",
    "IncrementalCondenser",
    "SelectionMemo",
    "StageMemo",
    "StepReport",
    "assert_graphs_equal",
    "changed_rows",
    "graphs_equal",
    "replay",
    "summarize",
    "warm_start_coverage",
]
