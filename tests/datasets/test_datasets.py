"""Tests for the synthetic dataset configurations, generator and registry."""

import numpy as np
import pytest

from repro import obs
from repro.datasets import (
    DATASETS,
    NodeTypeSpec,
    RelationSpec,
    SyntheticHINConfig,
    available_datasets,
    dataset_config,
    generate_hin,
    load_dataset,
    schema_from_config,
)
from repro.errors import DatasetError


def tiny_config() -> SyntheticHINConfig:
    return SyntheticHINConfig(
        name="tiny",
        target_type="a",
        num_classes=3,
        node_types=(
            NodeTypeSpec("a", count=60, feature_dim=8),
            NodeTypeSpec("b", count=40, feature_dim=6),
        ),
        relations=(RelationSpec("ab", "a", "b", avg_degree=2.0, affinity=0.8),),
    )


class TestConfigValidation:
    def test_valid(self):
        assert tiny_config().num_classes == 3

    def test_duplicate_node_types(self):
        with pytest.raises(DatasetError):
            SyntheticHINConfig(
                name="x",
                target_type="a",
                num_classes=2,
                node_types=(NodeTypeSpec("a", 10), NodeTypeSpec("a", 10)),
                relations=(),
            )

    def test_unknown_target(self):
        with pytest.raises(DatasetError):
            SyntheticHINConfig(
                name="x",
                target_type="zzz",
                num_classes=2,
                node_types=(NodeTypeSpec("a", 10),),
                relations=(),
            )

    def test_relation_references_unknown_type(self):
        with pytest.raises(DatasetError):
            SyntheticHINConfig(
                name="x",
                target_type="a",
                num_classes=2,
                node_types=(NodeTypeSpec("a", 10),),
                relations=(RelationSpec("r", "a", "zzz"),),
            )

    def test_bad_fractions(self):
        with pytest.raises(DatasetError):
            SyntheticHINConfig(
                name="x",
                target_type="a",
                num_classes=2,
                node_types=(NodeTypeSpec("a", 10),),
                relations=(),
                train_fraction=0.8,
                val_fraction=0.3,
            )

    def test_node_spec_validation(self):
        with pytest.raises(DatasetError):
            NodeTypeSpec("a", count=0)
        with pytest.raises(DatasetError):
            NodeTypeSpec("a", count=5, feature_dim=0)

    def test_relation_spec_validation(self):
        with pytest.raises(DatasetError):
            RelationSpec("r", "a", "b", avg_degree=0.0)
        with pytest.raises(DatasetError):
            RelationSpec("r", "a", "b", affinity=1.5)

    def test_scaled_counts(self):
        counts = tiny_config().scaled_counts(0.5)
        assert counts == {"a": 30, "b": 20}

    def test_scaled_counts_minimum(self):
        counts = tiny_config().scaled_counts(0.01)
        assert min(counts.values()) >= 4

    def test_scaled_counts_invalid(self):
        with pytest.raises(DatasetError):
            tiny_config().scaled_counts(0.0)

    def test_node_type_lookup(self):
        assert tiny_config().node_type("b").count == 40
        with pytest.raises(DatasetError):
            tiny_config().node_type("zzz")


def _array_bytes(graph) -> list[bytes]:
    arrays = [graph.labels, graph.splits.train, graph.splits.val, graph.splits.test]
    for name in sorted(graph.adjacency):
        matrix = graph.adjacency[name]
        arrays += [matrix.indptr, matrix.indices, matrix.data]
    arrays += [graph.features[name] for name in sorted(graph.features)]
    return [array.tobytes() for array in arrays]


class TestGenerator:
    def test_schema_from_config(self):
        schema = schema_from_config(tiny_config())
        assert schema.target_type == "a"
        assert len(schema.relations) == 1

    def test_generation_deterministic(self):
        g1 = generate_hin(tiny_config(), seed=5)
        g2 = generate_hin(tiny_config(), seed=5)
        assert g1.total_edges == g2.total_edges
        assert np.array_equal(g1.labels, g2.labels)

    def test_different_seeds_differ(self):
        g1 = generate_hin(tiny_config(), seed=1)
        g2 = generate_hin(tiny_config(), seed=2)
        assert not np.array_equal(g1.features["a"], g2.features["a"])

    def test_labels_cover_all_classes(self):
        graph = generate_hin(tiny_config(), seed=0)
        assert set(np.unique(graph.labels)) == {0, 1, 2}

    def test_splits_partition_target(self):
        graph = generate_hin(tiny_config(), seed=0)
        total = len(graph.splits.train) + len(graph.splits.val) + len(graph.splits.test)
        assert total == graph.num_nodes["a"]

    def test_hgb_split_fractions(self):
        graph = generate_hin(tiny_config(), seed=0)
        train_fraction = len(graph.splits.train) / graph.num_nodes["a"]
        assert 0.15 < train_fraction < 0.35

    def test_edges_respect_shapes(self):
        graph = generate_hin(tiny_config(), seed=0)
        matrix = graph.adjacency["ab"]
        assert matrix.shape == (graph.num_nodes["a"], graph.num_nodes["b"])

    def test_assortative_structure(self):
        """Same-topic edges should dominate thanks to the affinity parameter."""
        config = tiny_config()
        graph = generate_hin(config, seed=0)
        matrix = graph.adjacency["ab"].tocoo()
        # topics of type b are not stored, but labels of a are; check edges of
        # nodes in the same class share destinations more often than chance.
        same_dst: dict[int, set[int]] = {}
        for src, dst in zip(matrix.row, matrix.col):
            same_dst.setdefault(int(graph.labels[src]), set()).add(int(dst))
        overlap = len(same_dst.get(0, set()) & same_dst.get(1, set()))
        union = len(same_dst.get(0, set()) | same_dst.get(1, set()))
        assert union == 0 or overlap / union < 0.9

    def test_scale_changes_size(self):
        small = generate_hin(tiny_config(), scale=0.5, seed=0)
        large = generate_hin(tiny_config(), scale=1.0, seed=0)
        assert small.num_nodes["a"] < large.num_nodes["a"]

    def test_traced_generation_matches_untraced(self):
        untraced = load_dataset("acm", scale=0.05, seed=3)
        with obs.tracing("t-generate") as tracer:
            traced = load_dataset("acm", scale=0.05, seed=3)
            spans = [s for s in tracer.drain_spans() if s.name == "datasets.generate"]
        assert len(spans) == 1
        assert spans[0].attrs == {
            "dataset": "acm",
            "scale": 0.05,
            "nodes": untraced.total_nodes,
            "edges": untraced.total_edges,
        }
        assert _array_bytes(traced) == _array_bytes(untraced)


class TestRegistry:
    def test_all_registered(self):
        assert set(available_datasets()) == {
            "acm",
            "dblp",
            "imdb",
            "freebase",
            "aminer",
            "mutag",
            "am",
        }

    def test_unknown_dataset(self):
        with pytest.raises(DatasetError):
            load_dataset("nope")

    def test_configs_buildable(self):
        for name in available_datasets():
            config = dataset_config(name)
            schema = schema_from_config(config)
            assert schema.num_classes >= 2

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_each_dataset_loads_at_tiny_scale(self, name):
        graph = load_dataset(name, scale=0.1, seed=0)
        graph.validate()
        assert graph.total_nodes > 0
        assert graph.splits.train.size > 0
        entry = DATASETS[name]
        assert graph.schema.target_type == dataset_config(name).target_type
        assert len(entry.paper_ratios) >= 3

    def test_schema_matches_paper_shape(self):
        acm = dataset_config("acm")
        assert acm.num_classes == 3 and acm.target_type == "paper"
        dblp = dataset_config("dblp")
        assert dblp.num_classes == 4 and dblp.target_type == "author"
        imdb = dataset_config("imdb")
        assert imdb.num_classes == 5 and imdb.target_type == "movie"
        freebase = dataset_config("freebase")
        assert freebase.num_classes == 7 and len(freebase.node_types) == 8
        aminer = dataset_config("aminer")
        assert aminer.num_classes == 8 and len(aminer.node_types) == 3
        mutag = dataset_config("mutag")
        assert mutag.num_classes == 2
        am = dataset_config("am")
        assert am.num_classes == 11
