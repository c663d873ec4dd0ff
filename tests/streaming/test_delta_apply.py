"""GraphDelta semantics and DeltaApplier graph mutation / context refresh."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import CondensationContext
from repro.core.metapaths import MetaPath
from repro.datasets import load_acm
from repro.streaming import DeltaApplier, DeltaValidationError, GraphDelta
from tests.oracles import compose_matmul


@pytest.fixture()
def graph():
    return load_acm(scale=0.3, seed=0)


def edge_delta(graph, relation, n=5, seed=0, add=True, remove=True, step=1):
    rng = np.random.default_rng(seed)
    rel = graph.schema.relation(relation)
    add_edges, remove_edges = {}, {}
    if add:
        add_edges[relation] = (
            rng.integers(0, graph.num_nodes[rel.src], n),
            rng.integers(0, graph.num_nodes[rel.dst], n),
        )
    if remove:
        coo = graph.adjacency[relation].tocoo()
        picked = rng.choice(coo.nnz, size=min(n, coo.nnz), replace=False)
        remove_edges[relation] = (coo.row[picked], coo.col[picked])
    return GraphDelta(add_edges=add_edges, remove_edges=remove_edges, step=step)


class TestGraphDelta:
    def test_empty_delta(self, graph):
        delta = GraphDelta()
        assert delta.is_empty
        assert delta.edge_fraction(graph) == 0.0
        assert delta.touched_type_pairs(graph) == set()

    def test_edge_counting_includes_removed_node_incidents(self, graph):
        delta = GraphDelta(remove_nodes={"author": np.array([0])})
        incident = int(graph.adjacency["paper-author"].tocsc()[:, 0].nnz)
        assert delta.num_edge_changes(graph) == incident

    def test_edge_counting_counts_shared_incidents_once(self):
        """An edge between two removed nodes (here on paper-cite-paper) and
        a removed node's self-loop are each one touched edge."""
        graph = load_acm(scale=0.1, seed=0)
        removed = {"paper": np.array([0, 3])}
        incident = set()
        for name, matrix in graph.adjacency.items():
            rel = graph.schema.relation(name)
            coo = matrix.tocoo()
            for row, col in zip(coo.row.tolist(), coo.col.tolist()):
                if (rel.src in removed and row in removed[rel.src]) or (
                    rel.dst in removed and col in removed[rel.dst]
                ):
                    incident.add((name, row, col))
        delta = GraphDelta(remove_nodes=removed)
        assert delta.num_edge_changes(graph) == len(incident) == 59

    def test_validation_rejects_out_of_range(self, graph):
        bad = GraphDelta(
            add_edges={"paper-author": (np.array([10**6]), np.array([0]))}
        )
        with pytest.raises(DeltaValidationError):
            bad.validate_against(graph)

    def test_validation_rejects_unknown_type(self, graph):
        with pytest.raises(DeltaValidationError):
            GraphDelta(remove_nodes={"nope": np.array([0])}).validate_against(graph)

    def test_target_addition_requires_labels(self, graph):
        delta = GraphDelta(add_nodes={"paper": np.zeros((2, graph.features["paper"].shape[1]))})
        with pytest.raises(DeltaValidationError):
            delta.validate_against(graph)

    def test_summary_mentions_counts(self, graph):
        delta = edge_delta(graph, "paper-author", n=3)
        text = delta.summary()
        assert "+3" in text and "-3" in text

    def test_edge_counting_with_same_delta_added_then_removed_node(self, graph):
        """Removing a node that this same delta adds must not crash the
        edge-count estimate (the new id has no incident edges yet)."""
        dim = graph.features["author"].shape[1]
        new_id = graph.num_nodes["author"]
        delta = GraphDelta(
            add_nodes={"author": np.zeros((2, dim))},
            remove_nodes={"author": np.array([new_id + 1, 0])},
        )
        delta.validate_against(graph)
        incident = int(graph.adjacency["paper-author"].tocsc()[:, 0].nnz)
        assert delta.num_edge_changes(graph) == incident
        report = DeltaApplier().apply(graph, delta)
        assert report.nodes_removed == 2


class TestDeltaApplier:
    def test_edge_add_remove_set_semantics(self, graph):
        before = graph.adjacency["paper-author"].copy()
        delta = edge_delta(graph, "paper-author", n=7, seed=1)
        report = DeltaApplier().apply(graph, delta)
        after = graph.adjacency["paper-author"]
        assert report.edges_removed >= 1
        assert after.nnz == before.nnz + report.edges_added - report.edges_removed
        assert after.nnz == 0 or bool((after.data == 1.0).all())
        # idempotent: reapplying the additions changes nothing
        again = DeltaApplier().apply(
            graph, GraphDelta(add_edges=dict(delta.add_edges), step=2)
        )
        assert again.edges_added == 0

    def test_node_addition_extends_everything(self, graph):
        dim = graph.features["author"].shape[1]
        count = graph.num_nodes["author"]
        delta = GraphDelta(add_nodes={"author": np.ones((3, dim))})
        DeltaApplier().apply(graph, delta)
        assert graph.num_nodes["author"] == count + 3
        assert graph.features["author"].shape[0] == count + 3
        assert graph.adjacency["paper-author"].shape[1] == count + 3
        graph.validate()

    def test_target_addition_labels_and_split(self, graph):
        dim = graph.features["paper"].shape[1]
        n = graph.num_nodes["paper"]
        delta = GraphDelta(
            add_nodes={"paper": np.zeros((2, dim))},
            add_labels=np.array([0, 1]),
            add_split="test",
        )
        DeltaApplier().apply(graph, delta)
        assert graph.labels.shape == (n + 2,)
        assert {n, n + 1} <= set(graph.splits.test.tolist())

    def test_tombstone_removal(self, graph):
        target = graph.schema.target_type
        victim = int(graph.splits.train[0])
        delta = GraphDelta(remove_nodes={target: np.array([victim])})
        DeltaApplier().apply(graph, delta)
        assert graph.labels[victim] == -1
        assert victim not in graph.splits.train.tolist()
        assert np.all(graph.features[target][victim] == 0.0)
        for name, matrix in graph.adjacency.items():
            rel = graph.schema.relation(name)
            if rel.src == target:
                assert matrix[victim].nnz == 0
            if rel.dst == target:
                assert matrix.tocsc()[:, victim].nnz == 0
        # node count unchanged: ids stay stable
        assert graph.num_nodes[target] == graph.labels.shape[0]

    def test_edges_to_new_nodes_in_same_delta(self, graph):
        dim = graph.features["author"].shape[1]
        new_id = graph.num_nodes["author"]
        delta = GraphDelta(
            add_nodes={"author": np.zeros((1, dim))},
            add_edges={"paper-author": (np.array([0]), np.array([new_id]))},
        )
        report = DeltaApplier().apply(graph, delta)
        assert report.edges_added == 1
        assert graph.adjacency["paper-author"][0, new_id] == 1.0


class TestContextRefresh:
    """The applier must leave the shared context exactly consistent."""

    def _context_with_all_paths(self, graph):
        context = CondensationContext(graph, max_hops=2, max_paths=16)
        for path in context.metapaths():
            context.receptive_field(path)
        return context

    def test_untouched_paths_survive(self, graph):
        context = self._context_with_all_paths(graph)
        survivors = {
            path.node_types: context.cached_packed(path.node_types).kept_pattern
            for path in context.metapaths()
            if not any({"paper", "term"} == set(hop) for hop in path.hops())
        }
        delta = edge_delta(graph, "paper-term", n=5)
        DeltaApplier().apply(graph, delta, context=context)
        for key, pattern in survivors.items():
            assert context.cached_packed(key).kept_pattern is pattern

    def test_refreshed_paths_match_recomposition(self, graph):
        context = self._context_with_all_paths(graph)
        delta = edge_delta(graph, "paper-term", n=8, seed=3)
        report = DeltaApplier().apply(graph, delta, context=context)
        assert report.patched_paths or report.invalidated_paths
        for path in context.metapaths():
            served = context.receptive_field(path)
            fresh = compose_matmul(graph, path)
            assert served.shape == fresh.shape
            assert served.nnz == fresh.nnz
            assert (served != fresh).nnz == 0

    def test_refresh_after_node_changes(self, graph):
        context = self._context_with_all_paths(graph)
        dim = graph.features["term"].shape[1]
        delta = GraphDelta(
            add_nodes={"term": np.zeros((2, dim))},
            remove_nodes={"author": np.array([1, 4])},
            step=1,
        )
        DeltaApplier().apply(graph, delta, context=context)
        for path in context.metapaths():
            served = context.receptive_field(path)
            fresh = compose_matmul(graph, path)
            assert served.shape == fresh.shape
            assert (served != fresh).nnz == 0

    def test_patched_packed_words_are_correct(self, graph):
        from repro.core.coverage_kernels import PackedAdjacency

        context = self._context_with_all_paths(graph)
        delta = edge_delta(graph, "paper-term", n=6, seed=5)
        report = DeltaApplier().apply(graph, delta, context=context)
        assert report.patched_paths
        for key in report.patched_paths:
            packed = context.cached_packed(key)
            fresh = compose_matmul(graph, MetaPath(key))
            np.testing.assert_array_equal(packed.words, PackedAdjacency.from_csr(fresh).words)
            derived = packed.to_csr()
            np.testing.assert_array_equal(derived.indptr, fresh.indptr)
            np.testing.assert_array_equal(derived.indices, fresh.indices)


class TestPayloadRoundTrip:
    """The JSON wire format: POST /delta bodies and WAL records."""

    def roundtrip(self, delta):
        payload = json.loads(json.dumps(delta.to_payload()))
        return GraphDelta.from_payload(payload)

    def assert_deltas_equal(self, left, right):
        assert left.step == right.step
        assert left.add_split == right.add_split
        assert left.metadata == right.metadata
        for attr in ("add_edges", "remove_edges"):
            lhs, rhs = getattr(left, attr), getattr(right, attr)
            assert set(lhs) == set(rhs)
            for name in lhs:
                np.testing.assert_array_equal(lhs[name][0], rhs[name][0])
                np.testing.assert_array_equal(lhs[name][1], rhs[name][1])
        assert set(left.add_nodes) == set(right.add_nodes)
        for t in left.add_nodes:
            np.testing.assert_array_equal(left.add_nodes[t], right.add_nodes[t])
        assert set(left.remove_nodes) == set(right.remove_nodes)
        for t in left.remove_nodes:
            np.testing.assert_array_equal(left.remove_nodes[t], right.remove_nodes[t])
        if left.add_labels is None:
            assert right.add_labels is None
        else:
            np.testing.assert_array_equal(left.add_labels, right.add_labels)

    def test_empty_delta(self):
        delta = GraphDelta()
        back = self.roundtrip(delta)
        assert back.is_empty
        self.assert_deltas_equal(delta, back)
        # an empty delta keeps the historical payload shape: no metadata key
        assert "metadata" not in delta.to_payload()

    def test_tombstone_only_removals(self):
        delta = GraphDelta(
            remove_nodes={"paper": np.array([4, 1, 1, 9]), "author": np.array([], dtype=np.int64)},
            step=7,
        )
        back = self.roundtrip(delta)
        self.assert_deltas_equal(delta, back)
        # ids were deduplicated and sorted on construction, and stay that way
        np.testing.assert_array_equal(back.remove_nodes["paper"], [1, 4, 9])
        assert back.remove_nodes["author"].size == 0
        assert not back.is_empty

    def test_node_arrivals_with_unicode_metadata(self, graph):
        dim = graph.features["paper"].shape[1]
        delta = GraphDelta(
            add_nodes={"paper": np.ones((2, dim))},
            add_labels=np.array([0, 2]),
            add_split="val",
            metadata={"source": "crawl-α", "operator": "Ünïcode ✓ 测试", "batch": 12},
            step=3,
        )
        back = self.roundtrip(delta)
        self.assert_deltas_equal(delta, back)
        assert back.metadata["operator"] == "Ünïcode ✓ 测试"
        assert back.add_labels is not None and back.add_labels.tolist() == [0, 2]
        assert back.add_split == "val"
        back.validate_against(graph)

    def test_edge_delta_roundtrip(self, graph):
        delta = edge_delta(graph, "paper-author", n=4)
        self.assert_deltas_equal(delta, self.roundtrip(delta))

    def test_metadata_rejects_non_dict(self):
        with pytest.raises(DeltaValidationError):
            GraphDelta(metadata=["not", "a", "dict"])

    def test_payload_must_be_object(self):
        with pytest.raises(DeltaValidationError):
            GraphDelta.from_payload([1, 2, 3])
