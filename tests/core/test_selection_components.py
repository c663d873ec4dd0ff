"""Tests for receptive-field maximisation, similarity, criterion, NIM, synthesis."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.baselines.base import per_type_budgets
from repro.core import (
    InformationLossMinimizer,
    NeighborInfluenceMaximizer,
    TargetNodeSelector,
    classify_node_types,
    greedy_max_coverage,
    greedy_max_coverage_reference,
    jaccard_between_sets,
    metapath_similarity_scores,
    pairwise_jaccard,
    receptive_field_size,
)
from repro.errors import BudgetError
from tests.oracles import personalized_pagerank


def toy_coverage_matrix():
    """5 target rows covering subsets of 6 columns."""
    rows = [
        [0, 1, 2],        # node 0: large RF
        [0, 1],           # node 1: subset of node 0
        [3, 4],           # node 2: disjoint
        [5],              # node 3: small
        [2, 3],           # node 4: overlaps 0 and 2
    ]
    matrix = np.zeros((5, 6))
    for row, cols in enumerate(rows):
        matrix[row, cols] = 1.0
    return sp.csr_matrix(matrix)


class TestReceptiveField:
    def test_receptive_field_size(self):
        adjacency = toy_coverage_matrix()
        assert receptive_field_size(adjacency, np.array([0])) == 3
        assert receptive_field_size(adjacency, np.array([0, 1])) == 3
        assert receptive_field_size(adjacency, np.array([0, 2])) == 5
        assert receptive_field_size(adjacency, np.array([])) == 0

    def test_greedy_prefers_disjoint_coverage(self):
        adjacency = toy_coverage_matrix()
        result = greedy_max_coverage(adjacency, np.arange(5), 2)
        assert set(result.selected.tolist()) == {0, 2}
        assert result.covered == 5

    def test_greedy_respects_budget(self):
        adjacency = toy_coverage_matrix()
        result = greedy_max_coverage(adjacency, np.arange(5), 3)
        assert len(result.selected) <= 3

    def test_greedy_respects_pool(self):
        adjacency = toy_coverage_matrix()
        result = greedy_max_coverage(adjacency, np.array([1, 3]), 2)
        assert set(result.selected.tolist()) <= {1, 3}

    def test_gains_non_increasing(self):
        adjacency = toy_coverage_matrix()
        result = greedy_max_coverage(adjacency, np.arange(5), 5)
        gains = result.gains
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))

    def test_lazy_matches_naive(self):
        rng = np.random.default_rng(0)
        adjacency = sp.random(40, 60, density=0.08, random_state=0, format="csr")
        adjacency.data[:] = 1.0
        pool = np.arange(40)
        result = greedy_max_coverage(adjacency, pool, 8)
        for lazy in (True, False):
            reference = greedy_max_coverage_reference(adjacency, pool, 8, lazy=lazy)
            assert result.selected.tolist() == reference.selected.tolist()
            assert result.covered == reference.covered
        del rng

    def test_zero_budget(self):
        result = greedy_max_coverage(toy_coverage_matrix(), np.arange(5), 0)
        assert result.selected.size == 0


class TestSimilarity:
    def test_jaccard_between_sets(self):
        assert jaccard_between_sets({1, 2}, {2, 3}) == pytest.approx(1 / 3)
        assert jaccard_between_sets(set(), set()) == 1.0
        assert jaccard_between_sets({1}, {1}) == 1.0

    def test_pairwise_jaccard_identical(self):
        matrix = toy_coverage_matrix()
        np.testing.assert_allclose(pairwise_jaccard(matrix, matrix), 1.0)

    def test_pairwise_jaccard_disjoint(self):
        a = sp.csr_matrix(np.array([[1.0, 0.0, 0.0]]))
        b = sp.csr_matrix(np.array([[0.0, 1.0, 1.0]]))
        assert pairwise_jaccard(a, b)[0] == 0.0

    def test_pairwise_jaccard_empty_rows_are_one(self):
        a = sp.csr_matrix((2, 3))
        assert np.allclose(pairwise_jaccard(a, a), 1.0)

    def test_pairwise_jaccard_range(self):
        rng = np.random.default_rng(0)
        a = sp.csr_matrix((rng.random((10, 20)) < 0.3).astype(float))
        b = sp.csr_matrix((rng.random((10, 20)) < 0.3).astype(float))
        values = pairwise_jaccard(a, b)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairwise_jaccard(sp.csr_matrix((2, 3)), sp.csr_matrix((2, 4)))

    def test_similarity_scores_shape(self):
        matrices = [toy_coverage_matrix(), toy_coverage_matrix()]
        scores = metapath_similarity_scores(matrices)
        assert scores.shape == (5, 2)
        np.testing.assert_allclose(scores, 1.0)  # identical meta-paths

    def test_single_metapath_zero_similarity(self):
        scores = metapath_similarity_scores([toy_coverage_matrix()])
        np.testing.assert_allclose(scores, 0.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            metapath_similarity_scores([])


class TestTargetSelector:
    def test_selects_budget_from_train_pool(self, toy_graph):
        selector = TargetNodeSelector(max_hops=2, max_paths=8)
        result = selector.select(toy_graph, 8)
        assert 1 <= result.selected.size <= 8
        assert set(result.selected.tolist()) <= set(toy_graph.splits.train.tolist())

    def test_class_balance(self, toy_graph):
        selector = TargetNodeSelector(max_hops=2, max_paths=8)
        result = selector.select(toy_graph, 8)
        labels = toy_graph.labels[result.selected]
        assert set(np.unique(labels)) == {0, 1}

    def test_ablation_variants_differ(self, toy_graph):
        full = TargetNodeSelector(max_hops=2, max_paths=8).select(toy_graph, 6)
        rf_only = TargetNodeSelector(
            max_hops=2, max_paths=8, use_similarity=False
        ).select(toy_graph, 6)
        sim_only = TargetNodeSelector(
            max_hops=2, max_paths=8, use_receptive_field=False
        ).select(toy_graph, 6)
        assert full.selected.size == rf_only.selected.size == sim_only.selected.size
        assert not np.array_equal(np.sort(rf_only.scores), np.zeros_like(rf_only.scores))
        del sim_only

    def test_both_terms_disabled_rejected(self):
        with pytest.raises(ValueError):
            TargetNodeSelector(use_receptive_field=False, use_similarity=False)

    def test_invalid_budget_rejected(self, toy_graph):
        with pytest.raises(BudgetError):
            TargetNodeSelector().select(toy_graph, 0)

    def test_diagnostics_present(self, toy_graph):
        result = TargetNodeSelector(max_hops=2, max_paths=8).select(toy_graph, 4)
        assert result.diagnostics["num_metapaths"] > 0
        assert "class_budgets" in result.diagnostics


class TestPersonalizedPageRank:
    def test_distribution_sums_to_one_ish(self):
        adjacency = sp.csr_matrix(np.ones((4, 4)) - np.eye(4))
        scores = personalized_pagerank(adjacency, np.array([1.0, 0, 0, 0]))
        assert scores.shape == (4,)
        assert np.all(scores >= 0)

    def test_restart_node_has_high_score(self):
        adjacency = sp.csr_matrix(np.ones((5, 5)) - np.eye(5))
        scores = personalized_pagerank(adjacency, np.array([1.0, 0, 0, 0, 0]), alpha=0.5)
        assert scores[0] == scores.max()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            personalized_pagerank(sp.csr_matrix((2, 3)), np.ones(2))

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            personalized_pagerank(sp.eye(3, format="csr"), np.ones(3), alpha=1.5)

    def test_zero_restart_falls_back_to_uniform(self):
        scores = personalized_pagerank(sp.eye(3, format="csr"), np.zeros(3))
        assert np.allclose(scores, scores[0])


class TestNeighborInfluence:
    def test_selects_budget(self, toy_graph):
        maximizer = NeighborInfluenceMaximizer(max_hops=2, max_paths=8)
        result = maximizer.select(toy_graph, "author", 5)
        assert result.selected.size == 5
        assert result.influence.shape == (toy_graph.num_nodes["author"],)

    def test_anchored_selection_prefers_anchor_neighbors(self, toy_graph):
        anchor = toy_graph.splits.train[:5]
        maximizer = NeighborInfluenceMaximizer(max_hops=1, max_paths=4)
        result = maximizer.select(toy_graph, "author", 5, anchor_nodes=anchor)
        # selected authors should be connected to at least one anchor paper
        adjacency = toy_graph.typed_adjacency("paper", "author")
        connected = np.unique(adjacency[anchor].nonzero()[1])
        assert len(set(result.selected.tolist()) & set(connected.tolist())) > 0

    def test_degree_importance_variant(self, toy_graph):
        maximizer = NeighborInfluenceMaximizer(importance="degree", max_hops=1)
        result = maximizer.select(toy_graph, "venue", 2)
        assert result.selected.size == 2

    def test_invalid_importance(self):
        with pytest.raises(ValueError):
            NeighborInfluenceMaximizer(importance="random")

    def test_target_type_rejected(self, toy_graph):
        with pytest.raises(ValueError):
            NeighborInfluenceMaximizer().select(toy_graph, "paper", 3)

    def test_budget_clamped_to_type_size(self, toy_graph):
        maximizer = NeighborInfluenceMaximizer(max_hops=1)
        result = maximizer.select(toy_graph, "venue", 100)
        assert result.selected.size == toy_graph.num_nodes["venue"]


class TestSynthesis:
    def test_budget_respected(self, toy_graph):
        hierarchy = classify_node_types(toy_graph.schema)
        fathers = {"author": np.arange(10)}
        synthesizer = InformationLossMinimizer()
        result = synthesizer.synthesize(toy_graph, "term", 4, fathers)
        assert result.num_nodes <= 4
        assert result.features.shape[1] == toy_graph.features["term"].shape[1]
        del hierarchy

    def test_features_are_member_means(self, toy_graph):
        synthesizer = InformationLossMinimizer(add_reverse_edges=False)
        result = synthesizer.synthesize(toy_graph, "venue", 100, {"paper": np.arange(8)})
        for hyper_index, members in enumerate(result.members):
            expected = toy_graph.features["venue"][members].mean(axis=0)
            np.testing.assert_allclose(result.features[hyper_index], expected)

    def test_edges_reference_selected_fathers(self, toy_graph):
        selected = {"paper": np.arange(6)}
        result = InformationLossMinimizer().synthesize(toy_graph, "venue", 3, selected)
        for father_type, edges in result.edges.items():
            assert father_type == "paper"
            for father, hyper in edges:
                assert father in set(selected["paper"].tolist())
                assert 0 <= hyper < result.num_nodes

    def test_reverse_edges_add_connectivity(self, toy_graph):
        selected = {"paper": np.arange(12)}
        with_reverse = InformationLossMinimizer(add_reverse_edges=True).synthesize(
            toy_graph, "venue", 6, selected
        )
        without = InformationLossMinimizer(add_reverse_edges=False).synthesize(
            toy_graph, "venue", 6, selected
        )
        assert sum(len(e) for e in with_reverse.edges.values()) >= sum(
            len(e) for e in without.edges.values()
        )

    def test_invalid_budget_rejected(self, toy_graph):
        with pytest.raises(BudgetError):
            InformationLossMinimizer().synthesize(toy_graph, "venue", 0, {"paper": np.arange(3)})

    def test_disconnected_father_fallback(self, toy_graph):
        # venue nodes are not connected to authors directly -> fallback hyper-node
        result = InformationLossMinimizer().synthesize(
            toy_graph, "venue", 3, {"term": np.arange(3)}
        )
        assert result.num_nodes == 1

    def test_invalid_aggregator(self):
        with pytest.raises(ValueError):
            InformationLossMinimizer(aggregator="median")


class TestBudgets:
    def test_per_type_budgets(self, toy_graph):
        budgets = per_type_budgets(toy_graph, 0.1)
        assert budgets["paper"] == max(1, round(0.1 * toy_graph.num_nodes["paper"]))
        assert all(v >= 1 for v in budgets.values())

    def test_invalid_ratio(self, toy_graph):
        with pytest.raises(BudgetError):
            per_type_budgets(toy_graph, 1.5)
