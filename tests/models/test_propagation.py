"""Tests for meta-path feature propagation and normalisation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.models.propagation as propagation_module
from repro import obs
from repro.core import CondensationContext, enumerate_metapaths
from repro.datasets import load_dataset
from repro.models.propagation import (
    SELF_FEATURE_KEY,
    metapath_feature_blocks,
    propagate_metapath_features,
    row_normalize_features,
    standardize_features,
)
from tests.core.test_packed_kernels import random_hin
from tests.oracles import compose_matmul, composed_metapath_features


def target_metapaths(graph, max_hops, max_paths=16):
    return enumerate_metapaths(
        graph.schema, graph.schema.target_type, max_hops, max_paths=max_paths
    )


def suffix_chains(metapaths):
    """Every chain of one hop or more that ends a path: the hop products."""
    return {path.node_types[start:] for path in metapaths for start in range(path.length)}


def assert_matches_composed(graph, max_hops, max_paths=16):
    """Hop by hop agrees with the composed ``Â_P X`` to 1e-12, key for key,
    and targets the path never leaves get rows of exact zeros."""
    metapaths = target_metapaths(graph, max_hops, max_paths)
    fast = propagate_metapath_features(graph, max_hops=max_hops, max_paths=max_paths)
    reference = composed_metapath_features(graph, metapaths)
    assert list(fast) == list(reference)
    for key, block in reference.items():
        assert fast[key].shape == block.shape, key
        np.testing.assert_allclose(fast[key], block, rtol=1e-12, atol=1e-12, err_msg=key)
    for path in metapaths:
        unreached = compose_matmul(graph, path).getnnz(axis=1) == 0
        assert not fast[str(path)][unreached].any(), str(path)


class TestPropagation:
    def test_contains_self_block(self, toy_graph):
        features = propagate_metapath_features(toy_graph, max_hops=2)
        assert SELF_FEATURE_KEY in features
        np.testing.assert_allclose(
            features[SELF_FEATURE_KEY], toy_graph.features["paper"]
        )

    def test_rows_match_target_count(self, toy_graph):
        features = propagate_metapath_features(toy_graph, max_hops=2)
        for block in features.values():
            assert block.shape[0] == toy_graph.num_nodes["paper"]

    def test_columns_match_source_type_dim(self, toy_graph):
        features = propagate_metapath_features(toy_graph, max_hops=1)
        assert features["paper-author"].shape[1] == toy_graph.features["author"].shape[1]
        assert features["paper-venue"].shape[1] == toy_graph.features["venue"].shape[1]

    def test_more_hops_more_blocks(self, toy_graph):
        one = propagate_metapath_features(toy_graph, max_hops=1)
        two = propagate_metapath_features(toy_graph, max_hops=2, max_paths=64)
        assert len(two) > len(one)

    def test_keys_depend_only_on_schema(self, toy_graph):
        sub = toy_graph.induced_subgraph({"paper": np.arange(10)})
        full_keys = set(propagate_metapath_features(toy_graph, max_hops=2))
        sub_keys = set(propagate_metapath_features(sub, max_hops=2))
        assert full_keys == sub_keys

    def test_exclude_self(self, toy_graph):
        features = propagate_metapath_features(toy_graph, max_hops=1, include_self=False)
        assert SELF_FEATURE_KEY not in features

    def test_aggregation_is_convex_combination(self, toy_graph):
        """Row-normalised 1-hop aggregation stays within the source value range."""
        features = propagate_metapath_features(toy_graph, max_hops=1)
        block = features["paper-venue"]
        source = toy_graph.features["venue"]
        assert block.max() <= source.max() + 1e-9
        assert block.min() >= source.min() - 1e-9


class TestHopByHop:
    """Hop-by-hop propagation against the composed-matrix oracle."""

    @pytest.mark.parametrize("max_hops", [1, 2, 3])
    def test_matches_composed_on_toy_graph(self, toy_graph, max_hops):
        assert_matches_composed(toy_graph, max_hops)

    @pytest.mark.parametrize("max_hops", [1, 2, 3])
    @pytest.mark.parametrize("dataset", ["acm", "dblp", "imdb"])
    def test_matches_composed_on_datasets(self, dataset, max_hops):
        assert_matches_composed(load_dataset(dataset, scale=0.1, seed=0), max_hops)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 3), st.booleans())
    @example(seed=3, max_hops=3, empty_relation=True)
    @settings(max_examples=25, deadline=None)
    def test_matches_composed_on_random_hins(self, seed, max_hops, empty_relation):
        # Every type keeps isolated nodes; an empty relation zeroes whole blocks.
        graph = random_hin(seed, empty_relation=empty_relation)
        assert_matches_composed(graph, max_hops, max_paths=64)

    def test_each_hop_normalised_and_each_suffix_product_computed_once(
        self, monkeypatch, toy_graph
    ):
        normalised: list[int] = []
        products: list[tuple[int, int]] = []

        class HopSpy:
            def __init__(self, matrix):
                self.matrix = matrix

            def __matmul__(self, operand):
                products.append((id(self), id(operand)))
                return self.matrix @ operand

        def normalize_spy(matrix):
            normalised.append(id(matrix))
            return HopSpy(row_normalize(matrix))

        row_normalize = propagation_module.row_normalize
        monkeypatch.setattr(propagation_module, "row_normalize", normalize_spy)
        metapaths = target_metapaths(toy_graph, 3)
        hops = {hop for path in metapaths for hop in path.hops()}
        suffixes = suffix_chains(metapaths)
        assert len(suffixes) < sum(path.length for path in metapaths), "paths share suffixes"
        with obs.tracing("t-propagate-once") as tracer:
            metapath_feature_blocks(toy_graph, metapaths)
            [span] = [s for s in tracer.drain_spans() if s.name == "models.propagate"]
        assert len(normalised) == len(set(normalised)) == len(hops)
        assert len(products) == len(set(products)) == len(suffixes)
        assert span.attrs["paths"] == len(metapaths)
        assert span.attrs["products"] == len(suffixes)

    def test_traced_matches_untraced(self, toy_graph):
        untraced = propagate_metapath_features(toy_graph, max_hops=3)
        with obs.tracing("t-propagate") as tracer:
            traced = propagate_metapath_features(toy_graph, max_hops=3)
            spans = [s for s in tracer.drain_spans() if s.name == "models.propagate"]
        assert len(spans) == 1
        assert list(traced) == list(untraced)
        for key, block in untraced.items():
            assert traced[key].tobytes() == block.tobytes(), key

    def test_context_serves_the_same_bytes(self, toy_graph):
        """The context short-cut hands out the memo's own arrays, uncopied
        and read-only, in a new dict: the same bytes as a direct call, and
        neither an in-place write nor ``include_self=False`` reaches the memo."""
        context = CondensationContext(toy_graph, max_hops=3, max_paths=16)
        served = propagate_metapath_features(toy_graph, max_hops=3, context=context)
        direct = propagate_metapath_features(toy_graph, max_hops=3)
        assert list(served) == list(direct)
        for key, block in direct.items():
            assert served[key].tobytes() == block.tobytes(), key
            assert not served[key].flags.writeable, "callers get the read-only memo"
        with pytest.raises(ValueError):
            served["self"][0, 0] = 1.0
        without_self = propagate_metapath_features(
            toy_graph, max_hops=3, include_self=False, context=context
        )
        assert "self" not in without_self
        assert "self" in context.target_feature_blocks()


class TestNormalization:
    def test_standardize_zero_mean(self, toy_graph):
        features = standardize_features(propagate_metapath_features(toy_graph, max_hops=1))
        for block in features.values():
            np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-8)

    def test_standardize_handles_constant_columns(self):
        features = {"x": np.ones((5, 3))}
        result = standardize_features(features)
        assert np.isfinite(result["x"]).all()

    def test_row_normalize_unit_norm(self, toy_graph):
        features = row_normalize_features(propagate_metapath_features(toy_graph, max_hops=1))
        for block in features.values():
            norms = np.linalg.norm(block, axis=1)
            nonzero = norms > 1e-9
            np.testing.assert_allclose(norms[nonzero], 1.0)

    def test_row_normalize_keeps_zero_rows(self):
        result = row_normalize_features({"x": np.zeros((3, 4))})
        np.testing.assert_allclose(result["x"], 0.0)

    def test_row_normalize_mixed_zero_rows_no_nan(self):
        """Isolated nodes (e.g. after a streaming delta removal) have all-zero
        propagated features: those rows must stay exactly zero — never NaN —
        while the other rows are normalised to unit norm."""
        block = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 5.0]])
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = row_normalize_features({"x": block})["x"]
        assert np.isfinite(result).all()
        np.testing.assert_allclose(result[1], 0.0)
        np.testing.assert_allclose(np.linalg.norm(result[[0, 2]], axis=1), 1.0)

    def test_row_normalize_after_streaming_isolation(self, toy_graph):
        """Tombstoning every edge of a node yields zero propagated rows; the
        normalised features must stay finite end to end."""
        from repro.streaming import DeltaApplier, GraphDelta

        graph = toy_graph.copy()
        target = graph.schema.target_type
        victim = int(graph.splits.train[0])
        DeltaApplier().apply(
            graph, GraphDelta(remove_nodes={target: np.array([victim])})
        )
        features = row_normalize_features(
            propagate_metapath_features(graph, max_hops=1)
        )
        for block in features.values():
            assert np.isfinite(block).all()
            np.testing.assert_allclose(block[victim], 0.0)

    def test_row_normalize_graph_size_invariant(self, toy_graph):
        """The same node gets the same normalised self-features regardless of
        which other nodes are present — the key transferability property."""
        sub = toy_graph.induced_subgraph(
            {t: np.arange(toy_graph.num_nodes[t]) for t in toy_graph.schema.node_types}
        )
        full = row_normalize_features(propagate_metapath_features(toy_graph, max_hops=1))
        again = row_normalize_features(propagate_metapath_features(sub, max_hops=1))
        np.testing.assert_allclose(full[SELF_FEATURE_KEY], again[SELF_FEATURE_KEY])
