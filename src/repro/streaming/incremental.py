"""Incremental condensation of an evolving heterogeneous graph.

:class:`IncrementalCondenser` owns a live graph, a long-lived
:class:`~repro.core.context.CondensationContext` and three layers of memos,
and re-condenses after every :class:`~repro.streaming.delta.GraphDelta`:

1. the **context** keeps every meta-path adjacency the delta did not touch
   (the :class:`~repro.streaming.apply.DeltaApplier` invalidates precisely);
2. the **selection memo** (:class:`~repro.streaming.warmstart.SelectionMemo`)
   keeps per-(meta-path, class) greedy coverage results and per-group
   similarity scores, warm-starting the greedy kernel on rebuilt paths;
3. the **stage memo** (:class:`StageMemo`) keeps whole father and leaf
   stage results — per-father NIM selections, per-leaf syntheses — keyed by
   the identity of every input the stage reads, so an unchanged stage is
   not re-run at all.  The target stage always runs: the selection memo
   already serves its per-path work.

All three layers only ever serve results whose inputs are *identical* to
the cached computation, so the condensed graph is **byte-identical** to a
full re-condensation of the mutated graph — the correctness gate of
``benchmarks/bench_streaming.py`` asserts exactly that at every checkpoint.

Deltas larger than ``recondense_threshold`` (touched-edge fraction) fall
back to a full recondensation: everything is dropped and rebuilt, which is
cheaper than patching when most paths are dirty anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import obs
from repro.core.condenser import FreeHGC
from repro.core.context import CondensationContext
from repro.core.criterion import TargetSelectionResult
from repro.core.metapaths import MetaPath
from repro.core.stages import StageResult
from repro.core.synthesis import SyntheticLeafNodes
from repro.hetero.graph import HeteroGraph
from repro.streaming.apply import ApplyReport, DeltaApplier
from repro.streaming.delta import GraphDelta
from repro.streaming.warmstart import SelectionMemo

__all__ = [
    "GraphMismatchError",
    "IncrementalCondenser",
    "StageMemo",
    "StepReport",
    "assert_graphs_equal",
    "graphs_equal",
]


# --------------------------------------------------------------------------- #
# Whole-stage memoization
# --------------------------------------------------------------------------- #
@dataclass
class _StageSlot:
    fingerprint: tuple
    #: strong references pinning the ids used in the fingerprint
    pins: tuple
    result: object


class StageMemo:
    """Serves cached father/leaf stage results when a stage's inputs are unchanged.

    Fingerprints are built from the *identities* of the artifacts a stage
    reads — context-served meta-path adjacencies, the graph's relation
    matrices and feature blocks (all replaced, never edited, by the delta
    applier) — plus content digests of the small arrays (anchor,
    providers).  Identity is exact because the context and the applier
    replace objects precisely when the underlying data changed.  Stages
    with strategies the memo does not know are simply always re-run.
    """

    def __init__(self) -> None:
        self.stats = {"stage_hits": 0, "stage_misses": 0}
        self._others: dict[tuple[str, str], _StageSlot] = {}

    def _note(self, key: str, **attrs) -> None:
        """Count a hit/miss and mirror it as a trace event when recording."""
        self.stats[key] += 1
        obs.event(f"memo.{key}", **attrs)

    def clear(self) -> None:
        """Drop every cached stage result."""
        self._others.clear()

    # ------------------------------------------------------------------ #
    def condense_type(
        self,
        stage,
        context: CondensationContext,
        role: str,
        node_type: str,
        budget: int,
        *,
        anchor: np.ndarray | None = None,
        providers=None,
    ) -> StageResult:
        fingerprint_pins = self._other_fingerprint(
            stage, context, node_type, budget, anchor, providers
        )
        if fingerprint_pins is None:
            self._note("stage_misses", node_type=node_type)
            return stage.condense_type(
                context, node_type, budget, anchor=anchor, providers=providers
            )
        fingerprint, pins = fingerprint_pins
        key = (str(getattr(stage, "name", "?")), node_type)
        slot = self._others.get(key)
        if slot is not None and slot.fingerprint == fingerprint:
            self._note("stage_hits", node_type=node_type)
            return slot.result
        result = stage.condense_type(
            context, node_type, budget, anchor=anchor, providers=providers
        )
        self._others[key] = _StageSlot(fingerprint, pins, result)
        self._note("stage_misses", node_type=node_type)
        return result

    @staticmethod
    def _providers_digest(providers) -> tuple | None:
        if providers is None:
            return ()
        digest: list[tuple] = []
        for name in sorted(providers):
            provider = providers[name]
            if isinstance(provider, SyntheticLeafNodes):
                digest.append((name, "synthetic", id(provider)))
            else:
                digest.append(
                    (name, "selected", np.asarray(provider, dtype=np.int64).tobytes())
                )
        return tuple(digest)

    def _other_fingerprint(
        self, stage, context: CondensationContext, node_type: str, budget: int, anchor, providers
    ):
        name = getattr(stage, "name", None)
        graph = context.graph
        # NIM consumes the anchor as a 0/1 restart mask, so only the *set*
        # of anchor nodes matters — two selections that rank the same nodes
        # differently produce the identical mask.
        anchor_digest = (
            None
            if anchor is None
            else np.unique(np.asarray(anchor, dtype=np.int64)).tobytes()
        )
        if name == "nim":
            target = context.target_type
            paths = context.metapaths_to(node_type) or [MetaPath((target, node_type))]
            adjacencies = tuple(context.packed_receptive_field(path) for path in paths)
            fingerprint = (
                "nim",
                int(budget),
                anchor_digest,
                int(graph.num_nodes[target]),
                int(graph.num_nodes[node_type]),
                tuple(id(a) for a in adjacencies),
            )
            return fingerprint, (adjacencies,)
        if name == "herding":
            embeddings = context.other_type_embeddings(node_type)
            return ("herding", int(budget), id(embeddings)), (embeddings,)
        if name == "ilm":
            incident = tuple(
                graph.adjacency[rel_name]
                for rel_name in sorted(graph.adjacency)
                if node_type
                in (
                    graph.schema.relation(rel_name).src,
                    graph.schema.relation(rel_name).dst,
                )
            )
            features = graph.features[node_type]
            fingerprint = (
                "ilm",
                int(budget),
                self._providers_digest(providers),
                id(features),
                tuple(id(m) for m in incident),
                tuple(sorted(graph.num_nodes.items())),
            )
            return fingerprint, (incident, features)
        return None


# --------------------------------------------------------------------------- #
# Step reports and graph equality
# --------------------------------------------------------------------------- #
@dataclass
class StepReport:
    """Outcome of one :meth:`IncrementalCondenser.step`."""

    step: int
    #: ``"full"`` (cold start or threshold fallback) or ``"incremental"``
    mode: str
    #: touched-edge fraction of the delta (pre-application)
    edge_fraction: float
    #: the whole step: apply, context refresh and condense
    step_seconds: float
    condensed: HeteroGraph
    apply_report: ApplyReport | None = None
    #: |previous Δ current| of the condensed target-node selection
    selection_drift: int = 0
    #: at a :func:`~repro.streaming.replay.replay` checkpoint: the full
    #: recondense's seconds and whether its graph is byte-identical
    full_seconds: float | None = None
    identical: bool | None = None


class GraphMismatchError(AssertionError):
    """Two graphs that must be byte-identical differ.

    Subclasses ``AssertionError`` for backward compatibility with callers
    that catch it, but is *raised explicitly* — the byte-identity gate this
    backs (benchmarks, the ``stream --verify-every`` CLI) keeps working
    under ``python -O``, which strips ``assert`` statements.
    """


def graphs_equal(first: HeteroGraph, second: HeteroGraph) -> bool:
    """True iff two graphs are byte-identical (structure, values, splits)."""
    try:
        assert_graphs_equal(first, second)
    except GraphMismatchError:
        return False
    return True


def assert_graphs_equal(first: HeteroGraph, second: HeteroGraph) -> None:
    """Raise :class:`GraphMismatchError` naming the first difference."""

    def check(condition: bool, message: str) -> None:
        if not condition:
            raise GraphMismatchError(message)

    check(first.schema.node_types == second.schema.node_types, "node types differ")
    check(
        first.num_nodes == second.num_nodes,
        f"node counts differ: {first.num_nodes} vs {second.num_nodes}",
    )
    check(np.array_equal(first.labels, second.labels), "labels differ")
    for split in ("train", "val", "test"):
        check(
            np.array_equal(getattr(first.splits, split), getattr(second.splits, split)),
            f"{split} split differs",
        )
    for node_type in first.schema.node_types:
        check(
            np.array_equal(first.features[node_type], second.features[node_type]),
            f"features of {node_type!r} differ",
        )
    check(set(first.adjacency) == set(second.adjacency), "relation sets differ")
    for name in first.adjacency:
        a, b = first.adjacency[name].tocsr(), second.adjacency[name].tocsr()
        check(a.shape == b.shape, f"adjacency {name!r} shapes differ")
        check(a.nnz == b.nnz and (a != b).nnz == 0, f"adjacency {name!r} differs")


# --------------------------------------------------------------------------- #
# The incremental condenser
# --------------------------------------------------------------------------- #
class IncrementalCondenser:
    """Warm-started condensation over a stream of graph deltas.

    Parameters
    ----------
    graph:
        The live graph.  The condenser owns it: :meth:`step` mutates it in
        place through the :class:`~repro.streaming.apply.DeltaApplier`.
    condenser:
        The :class:`~repro.core.condenser.FreeHGC` configuration to run
        (default: ``FreeHGC()``).
    ratio:
        Condensation ratio applied at every step.
    recondense_threshold:
        Deltas touching more than this fraction of the graph's edges drop
        every memo and re-condense from scratch (patching would touch most
        artifacts anyway).  ``0`` forces a full recondense on every step;
        ``1`` never falls back.
    seed:
        Seed forwarded to every ``condense`` call (the FreeHGC stages are
        deterministic; the seed only matters for custom stage plugins).

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import FreeHGC
    >>> from repro.datasets import load_acm
    >>> from repro.streaming import GraphDelta, IncrementalCondenser
    >>> inc = IncrementalCondenser(load_acm(scale=0.2, seed=0),
    ...                            condenser=FreeHGC(max_hops=2), ratio=0.2)
    >>> base = inc.condense()                    # cold full condensation
    >>> delta = GraphDelta(remove_edges={"paper-term": (np.array([0]), np.array([0]))})
    >>> report = inc.step(delta)
    >>> report.mode
    'incremental'
    >>> report.condensed.schema.target_type
    'paper'
    """

    def __init__(
        self,
        graph: HeteroGraph,
        *,
        condenser: FreeHGC | None = None,
        ratio: float,
        recondense_threshold: float = 0.05,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= recondense_threshold <= 1.0:
            raise ValueError(
                f"recondense_threshold must be in [0, 1], got {recondense_threshold}"
            )
        self.graph = graph
        self.condenser = condenser if condenser is not None else FreeHGC()
        self.ratio = float(ratio)
        self.recondense_threshold = float(recondense_threshold)
        self.seed = int(seed)
        self.applier = DeltaApplier()
        self.selection_memo = SelectionMemo()
        self.stage_memo = StageMemo()
        self._context: CondensationContext | None = None
        self._previous_selection: np.ndarray | None = None
        #: the report of the most recent :meth:`step`
        self.last_report: StepReport | None = None

    # ------------------------------------------------------------------ #
    @property
    def context(self) -> CondensationContext:
        """The live shared context (created on first use)."""
        if self._context is None:
            self._context = CondensationContext(
                self.graph,
                max_hops=self.condenser.max_hops,
                max_paths=self.condenser.max_paths,
            )
            self._context.selection_memo = self.selection_memo
        return self._context

    def invalidate(self) -> None:
        """Drop the context and every memo (next condense is cold)."""
        self._context = None
        self.selection_memo.clear()
        self.stage_memo.clear()

    # ------------------------------------------------------------------ #
    def condense(self) -> HeteroGraph:
        """Condense the current graph, reusing whatever is still valid."""
        condensed = self.condenser.condense(
            self.graph,
            self.ratio,
            seed=self.seed,
            context=self.context,
            stage_memo=self.stage_memo,
        )
        # Row diffs are only valid within one step; keeping them would pin
        # every replaced adjacency (and its index pattern, CSC and NIM caches).
        self.selection_memo.end_step()
        self._previous_selection = self._selected_targets()
        return condensed

    def step(self, delta: GraphDelta) -> StepReport:
        """Apply ``delta``, re-condense, and report what happened (also as
        :attr:`last_report`); ``step_seconds`` is the ``stream.step`` span."""
        start = perf_counter()
        with obs.span("stream.step", step=int(delta.step)):
            fraction = delta.edge_fraction(self.graph)
            incremental = (
                self._context is not None and fraction <= self.recondense_threshold
            )
            if incremental:
                apply_report = self.applier.apply(self.graph, delta, context=self._context)
                mode = "incremental"
            else:
                apply_report = self.applier.apply(self.graph, delta)
                self.invalidate()
                mode = "full"

            obs.event("stream.mode", mode=mode, edge_fraction=round(fraction, 6))
            previous = self._previous_selection
            condensed = self.condense()
            selection = self._previous_selection
            drift = 0
            if previous is not None and selection is not None:
                drift = int(
                    np.setdiff1d(selection, previous).size
                    + np.setdiff1d(previous, selection).size
                )
        self.last_report = StepReport(
            step=delta.step,
            mode=mode,
            edge_fraction=fraction,
            step_seconds=perf_counter() - start,
            condensed=condensed,
            apply_report=apply_report,
            selection_drift=drift,
        )
        return self.last_report

    def _selected_targets(self) -> np.ndarray | None:
        outcome = self.condenser.last_target_selection
        if isinstance(outcome, TargetSelectionResult):
            return np.unique(outcome.selected)
        return None
