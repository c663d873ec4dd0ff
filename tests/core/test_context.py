"""Tests for the shared :class:`~repro.core.context.CondensationContext`."""

import numpy as np
import pytest

import repro.core.context as context_module
import repro.core.criterion as criterion_module
import repro.core.metapaths as metapaths_module
import repro.core.neighbor_influence as nim_module
from repro.core import CondensationContext, FreeHGC
from repro.core.criterion import TargetNodeSelector
from repro.core.metapaths import compose_packed, enumerate_metapaths
from repro.core.neighbor_influence import NeighborInfluenceMaximizer


def _install_composition_spy(monkeypatch, calls):
    """Record every real composition: each packed chain (meta-paths and the
    suffix products behind them)."""

    def packed_spy(graph, metapath, products=None):
        if products is None or metapath.node_types not in products:
            calls.append((metapath.node_types, "packed"))
        return compose_packed(graph, metapath, products)

    # compose_packed recurses through its module global, so suffix
    # compositions are recorded too.
    for module in (metapaths_module, context_module, criterion_module, nim_module):
        monkeypatch.setattr(module, "compose_packed", packed_spy)


def _install_enumeration_spy(monkeypatch, calls):
    def spy(schema, start_type, max_hops, **kwargs):
        calls.append((start_type, max_hops))
        return enumerate_metapaths(schema, start_type, max_hops, **kwargs)

    monkeypatch.setattr(context_module, "enumerate_metapaths", spy)
    monkeypatch.setattr(criterion_module, "enumerate_metapaths", spy)


class TestMemoization:
    def test_adjacency_computed_once(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        path = ctx.metapaths()[0]
        first = ctx.receptive_field(path)
        second = ctx.receptive_field(path)
        assert first is second
        assert ctx.stats["adjacency_builds"] == 1
        assert ctx.stats["adjacency_hits"] == 1

    def test_feature_blocks_memoized(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        blocks = ctx.target_feature_blocks()
        assert ctx.target_feature_blocks() is blocks
        assert (ctx.stats["embedding_builds"], ctx.stats["embedding_hits"]) == (1, 1)
        assert not any(block.flags.writeable for block in blocks.values())

    def test_enumeration_memoized(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        assert ctx.metapaths() is ctx.metapaths()
        assert ctx.stats["metapath_enumerations"] == 1

    def test_metapaths_to_filters_enumeration(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=16)
        for path in ctx.metapaths_to("author"):
            assert path.end == "author"
        assert ctx.stats["metapath_enumerations"] == 1

    def test_embeddings_memoized(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        assert ctx.target_embeddings() is ctx.target_embeddings()
        assert ctx.other_type_embeddings("author") is ctx.other_type_embeddings("author")

    def test_clear_resets_memo(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        path = ctx.metapaths()[0]
        ctx.receptive_field(path)
        ctx.clear()
        ctx.receptive_field(path)
        assert ctx.stats["adjacency_builds"] == 2

    def test_invalid_settings_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            CondensationContext(toy_graph, max_hops=0)
        with pytest.raises(ValueError):
            CondensationContext(toy_graph, max_paths=0)


class TestFeatureBlockInvalidation:
    def test_dropped_with_an_invalidated_path_never_memoized(self, toy_graph):
        # The blocks are propagated along every meta-path, so invalidating
        # one drops them even when its receptive fields were never composed.
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        blocks = ctx.target_feature_blocks()
        assert ctx.invalidate_paths([ctx.metapaths()[-1].node_types]) == []
        rebuilt = ctx.target_feature_blocks()
        assert rebuilt is not blocks
        assert all(np.array_equal(rebuilt[key], blocks[key]) for key in blocks)

    def test_survive_invalidating_a_path_they_do_not_read(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        blocks = ctx.target_feature_blocks()
        ctx.invalidate_paths([("author", "paper")])
        assert ctx.target_feature_blocks() is blocks


class TestCondenseBuildsEachArtifactOnce:
    def test_adjacency_built_at_most_once_per_condense(self, monkeypatch, toy_graph):
        calls: list[tuple] = []
        _install_composition_spy(monkeypatch, calls)
        FreeHGC(max_hops=2, max_paths=8).condense(toy_graph, 0.2, seed=0)
        assert calls, "condense() must compose meta-path adjacencies"
        assert len(calls) == len(set(calls)), (
            "each adjacency form must be composed at most once "
            f"per condense() call, got duplicates in {calls}"
        )

    def test_each_suffix_product_composed_once_per_condense(self, monkeypatch, toy_graph):
        calls: list[tuple] = []
        _install_composition_spy(monkeypatch, calls)
        FreeHGC(max_hops=3, max_paths=16).condense(toy_graph, 0.2, seed=0)
        packed = [key for key, form in calls if form == "packed"]
        paths = {path.node_types for path in enumerate_metapaths(
            toy_graph.schema, toy_graph.schema.target_type, 3, max_paths=16
        )}
        suffixes = [key for key in packed if key not in paths]
        assert suffixes, "3-hop paths must compose intermediate suffix products"
        assert len(packed) == len(set(packed)), f"duplicate compositions in {packed}"
        # A path that is the suffix of a longer path is shared, not recomposed.
        shared = {path[1:] for path in paths if len(path) > 2} & paths
        assert shared and all(packed.count(key) == 1 for key in shared)

    def test_enumeration_runs_once_per_condense(self, monkeypatch, toy_graph):
        calls: list[tuple] = []
        _install_enumeration_spy(monkeypatch, calls)
        FreeHGC(max_hops=2, max_paths=8).condense(toy_graph, 0.2, seed=0)
        assert len(calls) == 1

    def test_adjacency_built_once_across_all_strategies(self, monkeypatch, tiny_dblp):
        calls: list[tuple] = []
        _install_composition_spy(monkeypatch, calls)
        FreeHGC(
            max_hops=2,
            max_paths=8,
            target_strategy="herding",
            father_strategy="nim",
            leaf_strategy="herding",
        ).condense(tiny_dblp, 0.15, seed=0)
        assert len(calls) == len(set(calls))

    def test_condense_shares_context_across_stages(self, toy_graph):
        condenser = FreeHGC(max_hops=2, max_paths=8)
        condenser.condense(toy_graph, 0.2, seed=0)
        stats = condenser.last_context.stats
        assert stats["metapath_enumerations"] == 1
        assert stats["packed_hits"] > 0, "stages must share cached adjacencies"


class TestCachedResultsIdentical:
    def test_condense_identical_with_and_without_cache(self, toy_graph):
        condenser = FreeHGC(max_hops=2, max_paths=8)
        cached = condenser.condense(toy_graph, 0.2, seed=0)
        cold = condenser.condense(
            toy_graph,
            0.2,
            seed=0,
            context=CondensationContext(toy_graph, max_hops=2, max_paths=8, cache=False),
        )
        assert np.array_equal(cached.labels, cold.labels)
        assert cached.num_nodes == cold.num_nodes
        for name in cached.adjacency:
            assert (cached.adjacency[name] != cold.adjacency[name]).nnz == 0

    def test_selector_identical_with_and_without_context(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        selector = TargetNodeSelector(max_hops=2, max_paths=8)
        with_ctx = selector.select(toy_graph, 6, context=ctx)
        without_ctx = selector.select(toy_graph, 6)
        assert np.array_equal(with_ctx.selected, without_ctx.selected)
        assert np.allclose(with_ctx.scores, without_ctx.scores)

    def test_nim_identical_with_and_without_context(self, toy_graph):
        ctx = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        maximizer = NeighborInfluenceMaximizer(max_hops=2, max_paths=8)
        with_ctx = maximizer.select(toy_graph, "author", 5, context=ctx)
        without_ctx = maximizer.select(toy_graph, "author", 5)
        assert np.array_equal(with_ctx.selected, without_ctx.selected)
        assert np.allclose(with_ctx.influence, without_ctx.influence)

    def test_mismatched_context_ignored_by_selector(self, toy_graph):
        # A context with different hop settings must not poison the result.
        ctx = CondensationContext(toy_graph, max_hops=1, max_paths=4)
        selector = TargetNodeSelector(max_hops=2, max_paths=8)
        with_bad_ctx = selector.select(toy_graph, 6, context=ctx)
        reference = selector.select(toy_graph, 6)
        assert np.array_equal(with_bad_ctx.selected, reference.selected)

    def test_condense_rejects_foreign_context(self, toy_graph, tiny_acm):
        from repro.errors import CondensationError

        condenser = FreeHGC(max_hops=2, max_paths=8)
        foreign = CondensationContext(tiny_acm, max_hops=2, max_paths=8)
        with pytest.raises(CondensationError):
            condenser.condense(toy_graph, 0.2, seed=0, context=foreign)


class TestCacheBytes:
    FAMILIES = {"words", "pattern", "csc", "nim", "features", "total"}

    def test_families_after_condense(self, toy_graph):
        condenser = FreeHGC(max_hops=2, max_paths=8)
        condenser.condense(toy_graph, 0.2, seed=0)
        context = condenser.last_context
        stats = dict(context.stats)
        sizes = context.cache_bytes()
        assert set(sizes) == self.FAMILIES
        assert sizes["total"] == sum(v for k, v in sizes.items() if k != "total")
        assert sizes["words"] > 0 and sizes["pattern"] > 0 and sizes["nim"] > 0
        assert context.stats == stats  # inspects, builds nothing

    def test_empty_context_holds_nothing(self, toy_graph):
        sizes = CondensationContext(toy_graph, max_hops=2).cache_bytes()
        assert sizes == dict.fromkeys(self.FAMILIES, 0)

    def test_traced_condense_emits_event_and_matches_untraced(self, toy_graph):
        from repro import obs

        untraced = FreeHGC(max_hops=2, max_paths=8).condense(toy_graph, 0.2, seed=0)
        condenser = FreeHGC(max_hops=2, max_paths=8)
        with obs.tracing("t-cache-bytes") as tracer:
            traced = condenser.condense(toy_graph, 0.2, seed=0)
            spans = tracer.drain_spans()
        pipeline = next(span for span in spans if span.name == "condense.pipeline")
        events = [e for e in pipeline.events if e.name == "context.cache_bytes"]
        assert [e.attrs for e in events] == [condenser.last_context.cache_bytes()]
        assert np.array_equal(traced.labels, untraced.labels)
        for name in traced.adjacency:
            assert (traced.adjacency[name] != untraced.adjacency[name]).nnz == 0
