"""Model-bundle persistence and the ``--bundle-store`` version-dir store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.condenser import FreeHGC
from repro.datasets import load_acm
from repro.errors import ServingError, StateDictError
from repro.models.hetero_sgc import HeteroSGC
from repro.serving import (
    BUNDLE_FORMAT,
    InferenceSession,
    ModelBundle,
    load_bundle,
    save_bundle,
)
from repro.serving.artifacts import (
    current_version,
    lineage_dir,
    publish_version,
    published_bundle,
    published_logits,
    published_versions,
    set_current,
)
from repro.serving.replicated import published_session
from repro.streaming.incremental import assert_graphs_equal
from repro.utils.durable import is_temp


@pytest.fixture(scope="module")
def trained():
    graph = load_acm(scale=0.15, seed=0)
    condensed = FreeHGC(max_hops=2).condense(graph, ratio=0.3, seed=0)
    model = HeteroSGC(hidden_dim=16, epochs=25, max_hops=2, seed=0)
    model.fit(condensed)
    return model, condensed, graph


def all_logits(model, graph):
    session = InferenceSession(model, graph)
    return session.logits(np.arange(session.num_targets))


class TestBundleRoundTrip:
    def test_save_load_identical_predictions(self, trained, tmp_path):
        model, condensed, graph = trained
        bundle = ModelBundle.from_model(
            "heterosgc", model, condensed, metadata={"dataset": "acm"}
        )
        path = save_bundle(bundle, tmp_path / "m")
        loaded = load_bundle(path)
        assert loaded.model_name == "heterosgc"
        assert loaded.metadata == {"dataset": "acm"}
        assert_graphs_equal(loaded.condensed, condensed)
        restored = loaded.build_model()
        assert np.array_equal(restored.predict(graph), model.predict(graph))

    def test_restored_session_identical(self, trained, tmp_path):
        model, condensed, graph = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        path = save_bundle(bundle, tmp_path / "m")
        restored = load_bundle(path).build_model()
        ids = np.arange(graph.num_nodes[graph.schema.target_type])
        original = InferenceSession(model, graph).predict(ids)
        assert np.array_equal(InferenceSession(restored, graph).predict(ids), original)

    def test_weights_round_trip_exactly(self, trained, tmp_path):
        model, condensed, _ = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        loaded = load_bundle(save_bundle(bundle, tmp_path / "m"))
        for name, value in bundle.weights.items():
            assert np.array_equal(loaded.weights[name], value)

    def test_alias_resolves_to_canonical(self, trained):
        model, condensed, _ = trained
        bundle = ModelBundle.from_model("sgc", model, condensed)
        assert bundle.model_name == "heterosgc"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ServingError):
            load_bundle(tmp_path / "absent")

    def test_corrupt_file_raises(self, tmp_path):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"definitely not a zip archive")
        with pytest.raises(ServingError):
            load_bundle(bad)

    def test_foreign_npz_raises(self, trained, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez_compressed(path, something=np.arange(3))
        with pytest.raises(ServingError):
            load_bundle(path)

    def test_future_format_raises(self, trained, tmp_path, monkeypatch):
        model, condensed, _ = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        import repro.serving.artifacts as artifacts

        monkeypatch.setattr(artifacts, "BUNDLE_FORMAT", BUNDLE_FORMAT + 1)
        path = save_bundle(bundle, tmp_path / "future")
        monkeypatch.setattr(artifacts, "BUNDLE_FORMAT", BUNDLE_FORMAT)
        with pytest.raises(ServingError):
            load_bundle(path)

    def test_tampered_weights_fail_strict_load(self, trained, tmp_path):
        model, condensed, _ = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        first = next(iter(bundle.weights))
        bundle.weights[first] = bundle.weights[first][:1]
        loaded = load_bundle(save_bundle(bundle, tmp_path / "m"))
        with pytest.raises(StateDictError):
            loaded.build_model()

    def test_failed_restore_leaves_model_unfitted(self, trained, tmp_path):
        """A bad weight set must not leave a random-init model looking fitted."""
        from repro.errors import ModelError

        model, condensed, _ = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        bundle.weights.pop(next(iter(bundle.weights)))
        loaded = load_bundle(save_bundle(bundle, tmp_path / "m"))
        fresh = HeteroSGC(hidden_dim=16, epochs=25, max_hops=2, seed=0)
        with pytest.raises(StateDictError):
            fresh.restore_state(loaded.state, loaded.weights)
        with pytest.raises(ModelError):
            fresh.predict(trained[2])

    def test_numpy_metadata_values_serialise(self, trained, tmp_path):
        model, condensed, _ = trained
        bundle = ModelBundle.from_model(
            "heterosgc",
            model,
            condensed,
            metadata={"accuracy": np.float64(0.93), "hist": np.array([1, 2])},
        )
        loaded = load_bundle(save_bundle(bundle, tmp_path / "m"))
        assert loaded.metadata["accuracy"] == 0.93
        assert loaded.metadata["hist"] == [1, 2]


class TestDirLayout:
    """The uncompressed (memory-mappable) bundle directory layout."""

    def test_dir_round_trip_identical_predictions(self, trained, tmp_path):
        model, condensed, graph = trained
        bundle = ModelBundle.from_model(
            "heterosgc", model, condensed, metadata={"dataset": "acm"}
        )
        path = save_bundle(bundle, tmp_path / "m.bundle")
        assert path.is_dir() and (path / "header.json").exists()
        loaded = load_bundle(path)
        assert loaded.model_name == "heterosgc"
        assert loaded.metadata == {"dataset": "acm"}
        assert_graphs_equal(loaded.condensed, condensed)
        restored = loaded.build_model()
        assert np.array_equal(restored.predict(graph), model.predict(graph))

    def test_mmap_load_shares_disk_pages(self, trained, tmp_path):
        """Workers map a published version's logits read-only from disk."""
        model, condensed, graph = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        logits = all_logits(model, graph)
        vdir = publish_version(tmp_path, version=1, bundle=bundle, logits=logits)
        version, mapped = published_logits(vdir)
        assert version == 1
        assert isinstance(mapped, np.memmap) and not mapped.flags.writeable
        assert np.array_equal(mapped, logits)
        session = published_session(tmp_path, version=1, fallback=False)
        ids = np.arange(session.num_targets)
        assert np.array_equal(session.predict(ids), model.predict(graph))

    def test_save_overwrites_existing_dir_atomically(self, trained, tmp_path):
        model, condensed, _ = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        path = save_bundle(bundle, tmp_path / "m.bundle")
        bundle.metadata["rev"] = 2
        again = save_bundle(bundle, path)
        assert load_bundle(again).metadata == {"rev": 2}
        # the replaced tree and the staging dir are both gone
        assert [p.name for p in tmp_path.iterdir()] == ["m.bundle"]

    def test_unknown_layout_raises(self, tmp_path):
        """A bundle in the retired single-archive ``.npz`` layout is refused."""
        legacy = tmp_path / "m.npz"
        np.savez_compressed(
            legacy,
            bundle_json=np.frombuffer(b'{"format": 1}', dtype=np.uint8),
            weight__w=np.ones(3),
        )
        with pytest.raises(ServingError, match="not a model bundle directory"):
            load_bundle(legacy)

    def test_dir_without_header_raises(self, tmp_path):
        empty = tmp_path / "not-a-bundle"
        empty.mkdir()
        with pytest.raises(ServingError):
            load_bundle(empty)

    def test_dir_with_corrupt_header_raises(self, tmp_path):
        broken = tmp_path / "broken"
        broken.mkdir()
        (broken / "header.json").write_text("{not json")
        with pytest.raises(ServingError):
            load_bundle(broken)

    def test_future_format_dir_raises(self, trained, tmp_path):
        """A header rewritten on disk to a newer format is refused."""
        model, condensed, _ = trained
        bundle = ModelBundle.from_model("heterosgc", model, condensed)
        path = save_bundle(bundle, tmp_path / "future")
        header = json.loads((path / "header.json").read_text())
        header["format"] = BUNDLE_FORMAT + 1
        (path / "header.json").write_text(json.dumps(header))
        with pytest.raises(ServingError, match="format"):
            load_bundle(path)


class TestModelStore:
    """The ``serve --bundle-store`` model store: one lineage of published
    version dirs per bundle key, with ``CURRENT`` naming the newest."""

    def publish(self, lineage, version, trained):
        model, condensed, graph = trained
        bundle = ModelBundle.from_model(
            "heterosgc", model, condensed, metadata={"version": version}
        )
        publish_version(
            lineage, version=version, bundle=bundle, logits=all_logits(model, graph)
        )
        set_current(lineage, version)

    def test_revisions_and_latest_wins(self, trained, tmp_path):
        model, _, graph = trained
        lineage = lineage_dir(tmp_path, "k")
        assert published_versions(lineage) == []
        self.publish(lineage, 1, trained)
        self.publish(lineage, 2, trained)
        assert [version for version, _ in published_versions(lineage)] == [2, 1]
        version, vdir = current_version(lineage)
        assert version == 2
        loaded = published_bundle(vdir)
        assert loaded.metadata == {"version": 2}
        assert np.array_equal(
            loaded.build_model().predict(graph), model.predict(graph)
        )

    def test_missing_key_raises(self, tmp_path):
        with pytest.raises(ServingError):
            current_version(lineage_dir(tmp_path, "nope"))

    def test_store_survives_reopen(self, trained, tmp_path):
        self.publish(lineage_dir(tmp_path, "a:b:0.5"), 1, trained)
        version, vdir = current_version(lineage_dir(tmp_path, "a:b:0.5"))
        assert version == 1
        assert published_bundle(vdir).model_name == "heterosgc"

    def test_unsafe_key_characters_sanitised(self, trained, tmp_path):
        lineage = lineage_dir(tmp_path, "we/ird key!")
        assert lineage.parent == tmp_path
        assert not any(c in lineage.name for c in "/! ")
        # keys that sanitise to the same text still get lineages of their own
        assert lineage != lineage_dir(tmp_path, "we_ird_key_")
        self.publish(lineage, 1, trained)
        assert current_version(lineage)[0] == 1
        assert not any(is_temp(p.name) for p in lineage.rglob("*"))
