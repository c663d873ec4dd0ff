"""End-to-end incremental condensation: byte-identical to full recondense."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core import FreeHGC
from repro.core.metapaths import MetaPath
from repro.datasets import load_acm, load_dataset
from repro.datasets.generators import generate_delta_schedule
from repro.streaming import (
    DeltaApplier,
    GraphDelta,
    IncrementalCondenser,
    assert_graphs_equal,
    graphs_equal,
)


def make_pair(scale=0.3, seed=0):
    graph = load_acm(scale=scale, seed=seed)
    return graph, graph.copy()


class TestByteIdentical:
    def test_schedule_with_edges_nodes_and_removals(self):
        graph, replica = make_pair()
        schedule = generate_delta_schedule(
            graph,
            steps=6,
            seed=3,
            edge_churn=0.004,
            node_arrival_every=3,
            arrival_count=3,
            removal_every=5,
            removal_count=2,
        )
        condenser = FreeHGC(max_hops=2)
        incremental = IncrementalCondenser(
            graph, condenser=condenser, ratio=0.1, recondense_threshold=0.2, seed=0
        )
        incremental.condense()
        applier = DeltaApplier()
        for delta in schedule:
            report = incremental.step(delta)
            applier.apply(replica, delta)
            full = FreeHGC(max_hops=2).condense(replica, 0.1, seed=0)
            assert_graphs_equal(report.condensed, full)
            assert report.mode in ("incremental", "full")

    def test_target_node_churn(self):
        graph, replica = make_pair()
        dim = graph.features["paper"].shape[1]
        deltas = [
            GraphDelta(
                add_nodes={"paper": np.full((2, dim), 0.5)},
                add_labels=np.array([0, 2]),
                add_split="train",
                step=1,
            ),
            GraphDelta(
                remove_nodes={"paper": graph.splits.train[:2].copy()}, step=2
            ),
        ]
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.15, seed=0
        )
        incremental.condense()
        applier = DeltaApplier()
        for delta in deltas:
            report = incremental.step(delta)
            applier.apply(replica, delta)
            full = FreeHGC(max_hops=2).condense(replica, 0.15, seed=0)
            assert_graphs_equal(report.condensed, full)


class TestThresholdFallback:
    def test_zero_threshold_forces_full(self):
        graph, _ = make_pair()
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.1, recondense_threshold=0.0
        )
        incremental.condense()
        coo = graph.adjacency["paper-author"].tocoo()
        delta = GraphDelta(
            remove_edges={"paper-author": (coo.row[:3], coo.col[:3])}, step=1
        )
        report = incremental.step(delta)
        assert report.mode == "full"

    def test_small_delta_stays_incremental(self):
        graph, _ = make_pair()
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.1, recondense_threshold=0.05
        )
        incremental.condense()
        coo = graph.adjacency["paper-author"].tocoo()
        delta = GraphDelta(
            remove_edges={"paper-author": (coo.row[:2], coo.col[:2])}, step=1
        )
        report = incremental.step(delta)
        assert report.mode == "incremental"
        assert report.edge_fraction <= 0.05

    def test_invalid_threshold_rejected(self):
        graph, _ = make_pair()
        with pytest.raises(ValueError):
            IncrementalCondenser(
                graph, condenser=FreeHGC(), ratio=0.1, recondense_threshold=1.5
            )


class TestMemoBehaviour:
    def test_unrelated_stage_results_are_reused(self):
        graph, _ = make_pair(scale=0.4)
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.1, recondense_threshold=0.1
        )
        incremental.condense()
        # Two consecutive steps churning only paper-term: the author/subject
        # coverage paths are identity-cached, so the selection memo must
        # record hits.
        rng = np.random.default_rng(0)
        for step in (1, 2):
            coo = graph.adjacency["paper-term"].tocoo()
            picked = rng.choice(coo.nnz, size=2, replace=False)
            incremental.step(
                GraphDelta(
                    remove_edges={"paper-term": (coo.row[picked], coo.col[picked])},
                    step=step,
                )
            )
        stats = incremental.selection_memo.stats
        assert stats["hits"] > 0
        assert stats["warm_starts"] + stats["misses"] > 0

    def test_graphs_equal_detects_differences(self):
        graph, replica = make_pair()
        assert graphs_equal(graph, replica)
        replica.labels = replica.labels.copy()
        replica.labels[0] = (replica.labels[0] + 1) % graph.schema.num_classes
        assert not graphs_equal(graph, replica)

    def test_selection_drift_reported(self):
        graph, _ = make_pair()
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.1
        )
        incremental.condense()
        coo = graph.adjacency["paper-subject"].tocoo()
        report = incremental.step(
            GraphDelta(
                remove_edges={"paper-subject": (coo.row[:4], coo.col[:4])}, step=1
            )
        )
        assert report.selection_drift >= 0
        assert report.step_seconds > 0


class TestStepScopedMemory:
    def test_replaced_adjacency_released_after_next_step(self):
        """A step's row diffs must not pin the adjacencies it replaced."""
        graph, _ = make_pair(scale=0.2)
        schedule = generate_delta_schedule(
            graph, steps=2, seed=1, edge_churn=0.01, relations=("paper-author",)
        )
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.1, recondense_threshold=1.0
        )
        incremental.condense()
        path = MetaPath(("paper", "author", "paper"))
        replaced = weakref.ref(incremental.context.receptive_field(path))
        report = incremental.step(schedule[0])
        assert path.node_types in report.apply_report.patched_paths
        assert incremental.context.receptive_field(path) is not replaced()
        incremental.step(schedule[1])
        gc.collect()
        assert replaced() is None


class TestStageMemo:
    def test_stage_half_hits_and_stays_byte_identical(self):
        """Single-relation paper-term churn leaves every father/leaf stage
        input of some step untouched: the stage memo must serve it, and each
        step must still equal a full recondense of a replica."""
        graph = load_dataset("acm", scale=0.1)
        replica = graph.copy()
        schedule = generate_delta_schedule(
            graph, steps=4, seed=11, edge_churn=0.01, relations=("paper-term",)
        )
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=3), ratio=0.1, seed=0
        )
        incremental.condense()
        applier = DeltaApplier()
        for delta in schedule:
            report = incremental.step(delta)
            applier.apply(replica, delta)
            assert_graphs_equal(
                report.condensed, FreeHGC(max_hops=3).condense(replica, 0.1, seed=0)
            )
        assert incremental.stage_memo.stats["stage_hits"] >= 1


class TestDerivedFormOwnership:
    def test_no_attribute_caches_after_stream_steps(self):
        """Derived forms live on their PackedAdjacency: no matrix the context
        or the graph's typed-adjacency cache reaches carries a _repro_*
        attribute after a condense and two stream steps."""
        graph, _ = make_pair(scale=0.2)
        schedule = generate_delta_schedule(
            graph, steps=2, seed=1, edge_churn=0.01, relations=("paper-author",)
        )
        incremental = IncrementalCondenser(
            graph, condenser=FreeHGC(max_hops=2), ratio=0.1, recondense_threshold=1.0
        )
        incremental.condense()
        for delta in schedule:
            incremental.step(delta)

        context = incremental.context
        matrices = []
        for key in context.cached_path_keys():
            packed = context.cached_packed(key)
            matrices.append(packed.source)
            matrices.extend(packed.derived_forms().values())
        for _deps, combined, pinned in graph.__dict__["_typed_adjacency_cache"].values():
            matrices.append(combined)
            matrices.extend(pinned)
        matrices = [m for m in matrices if m is not None]
        assert matrices
        for matrix in matrices:
            assert not [name for name in vars(matrix) if name.startswith("_repro_")]
