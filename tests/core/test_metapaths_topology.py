"""Tests for meta-path enumeration/composition and topology classification."""

import numpy as np
import pytest

from repro.core import (
    MetaPath,
    TypeHierarchy,
    classify_node_types,
    enumerate_metapaths,
    metapaths_to_type,
)
from repro.core.metapaths import compose_packed
from repro.datasets import dataset_config, schema_from_config
from repro.errors import SchemaError
from repro.models.propagation import metapath_feature_blocks


class TestMetaPath:
    def test_properties(self):
        path = MetaPath(("paper", "author", "paper"))
        assert path.length == 2
        assert path.start == "paper" and path.end == "paper"
        assert path.abbreviation == "PAP"
        assert str(path) == "paper-author-paper"
        assert path.hops() == [("paper", "author"), ("author", "paper")]

    def test_too_short_rejected(self):
        with pytest.raises(SchemaError):
            MetaPath(("paper",))


class TestEnumeration:
    def test_one_hop_paths(self, toy_schema):
        paths = enumerate_metapaths(toy_schema, "paper", 1)
        ends = {p.end for p in paths}
        assert ends == {"author", "venue", "term", "paper"}

    def test_hop_limit_respected(self, toy_schema):
        paths = enumerate_metapaths(toy_schema, "paper", 3)
        assert max(p.length for p in paths) <= 3

    def test_classic_pap_pattern_present(self, toy_schema):
        paths = enumerate_metapaths(toy_schema, "paper", 2)
        assert any(str(p) == "paper-author-paper" for p in paths)

    def test_max_paths_cap(self, toy_schema):
        paths = enumerate_metapaths(toy_schema, "paper", 4, max_paths=5)
        assert len(paths) == 5

    def test_no_revisit_option(self, toy_schema):
        paths = enumerate_metapaths(toy_schema, "paper", 3, allow_revisit=False)
        for path in paths:
            # the anchor may appear only once when revisits are disabled
            assert list(path.node_types).count("paper") == 1

    def test_unknown_start_rejected(self, toy_schema):
        with pytest.raises(SchemaError):
            enumerate_metapaths(toy_schema, "alien", 2)

    def test_invalid_hops_rejected(self, toy_schema):
        with pytest.raises(ValueError):
            enumerate_metapaths(toy_schema, "paper", 0)

    def test_metapaths_to_type(self, toy_schema):
        paths = metapaths_to_type(toy_schema, "paper", "venue", 3)
        assert paths and all(p.end == "venue" for p in paths)

    def test_enumeration_over_all_benchmark_schemas(self):
        for name in ("acm", "dblp", "imdb", "freebase", "mutag", "am", "aminer"):
            config = dataset_config(name)
            schema = schema_from_config(config)
            paths = enumerate_metapaths(schema, config.target_type, 2, max_paths=40)
            assert paths, f"no meta-paths for {name}"


class TestAdjacency:
    def test_normalized_rows(self, toy_graph):
        # Propagating all-ones features yields the row sums of the
        # normalised path operator: one wherever the path reaches a node.
        path = MetaPath(("paper", "author"))
        graph = toy_graph.copy()
        graph.features["author"] = np.ones((graph.num_nodes["author"], 1))
        sums = metapath_feature_blocks(graph, [path])[str(path)].ravel()
        nonzero = sums > 0
        assert nonzero.any()
        np.testing.assert_allclose(sums[nonzero], 1.0)

    def test_boolean_mode(self, toy_graph):
        path = MetaPath(("paper", "author", "paper"))
        adjacency = compose_packed(toy_graph, path).to_csr()
        assert set(np.unique(adjacency.data)) <= {1.0}

    def test_shape(self, toy_graph):
        path = MetaPath(("paper", "author", "paper"))
        adjacency = compose_packed(toy_graph, path).to_csr()
        n = toy_graph.num_nodes["paper"]
        assert adjacency.shape == (n, n)

    def test_two_hop_reaches_more_than_one_hop(self, toy_graph):
        one = compose_packed(toy_graph, MetaPath(("paper", "author"))).to_csr()
        two = compose_packed(toy_graph, MetaPath(("paper", "author", "paper"))).to_csr()
        assert two.nnz >= one.shape[0]  # 2-hop fan-out is at least self-reachability


class TestTopology:
    def test_toy_hierarchy(self, toy_schema):
        hierarchy = classify_node_types(toy_schema)
        assert hierarchy.root == "paper"
        assert set(hierarchy.fathers) == {"author", "venue", "term"}
        assert hierarchy.leaves == ()
        assert hierarchy.structure == 1

    def test_dblp_structure_two(self):
        schema = schema_from_config(dataset_config("dblp"))
        hierarchy = classify_node_types(schema)
        assert hierarchy.root == "author"
        assert hierarchy.fathers == ("paper",)
        assert set(hierarchy.leaves) == {"term", "venue"}
        assert hierarchy.structure == 2

    def test_freebase_structure_three(self):
        schema = schema_from_config(dataset_config("freebase"))
        hierarchy = classify_node_types(schema)
        assert hierarchy.structure == 3
        assert len(hierarchy.leaves) >= 1

    def test_role_of(self):
        hierarchy = TypeHierarchy("a", ("b",), ("c",))
        assert hierarchy.role_of("a") == "root"
        assert hierarchy.role_of("b") == "father"
        assert hierarchy.role_of("c") == "leaf"
        with pytest.raises(KeyError):
            hierarchy.role_of("zzz")

    def test_every_benchmark_type_classified(self):
        for name in ("acm", "dblp", "imdb", "freebase", "mutag", "am", "aminer"):
            schema = schema_from_config(dataset_config(name))
            hierarchy = classify_node_types(schema)
            covered = {hierarchy.root} | set(hierarchy.fathers) | set(hierarchy.leaves)
            assert covered == set(schema.node_types)
