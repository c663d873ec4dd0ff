"""Published-artifact integrity: manifests, last-good scan, publish faults.

The contract under test is the publish write order (payload files ->
``manifest.json`` -> ``meta.json``) and what loaders do when any link in
that chain is broken: detect the corruption before mmap, and fall back to
the newest version that still verifies instead of serving garbage bytes.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from repro.core.condenser import FreeHGC
from repro.datasets import load_acm
from repro.errors import IntegrityError, ServingError
from repro.models.hetero_sgc import HeteroSGC
from repro.serving import ServingController
from repro.serving.artifacts import last_good_version, verify_version_dir
from repro.serving.integrity import (
    MANIFEST_NAME,
    file_digest,
    read_manifest,
    verify_manifest,
    write_manifest,
)
from repro.serving.replicated.pool import (
    publish_version,
    published_session,
    set_current,
)
from repro.utils import faults
from repro.utils.faults import FaultInjector


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall()
    yield
    faults.uninstall()


def flip_byte(path, offset=0):
    with open(path, "r+b") as handle:
        handle.seek(offset)
        byte = handle.read(1)
        handle.seek(offset)
        handle.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")


class TestManifestRoundtrip:
    def populate(self, vdir):
        vdir.mkdir(parents=True, exist_ok=True)
        (vdir / "a.bin").write_bytes(b"alpha" * 100)
        (vdir / "sub").mkdir()
        (vdir / "sub" / "b.bin").write_bytes(b"beta" * 100)
        return vdir

    def test_manifest_lists_payload_files_only(self, tmp_path):
        vdir = self.populate(tmp_path / "v1")
        (vdir / "meta.json").write_text("{}")
        manifest = write_manifest(vdir)
        assert manifest["algorithm"] == "sha256"
        # meta.json and the manifest itself are deliberately unlisted: meta
        # is written *after* the manifest, so it can't digest itself.
        assert sorted(manifest["files"]) == ["a.bin", "sub/b.bin"]
        assert manifest["files"]["a.bin"] == file_digest(vdir / "a.bin")
        assert read_manifest(vdir) == manifest

    def test_manifest_skips_temp_leftovers(self, tmp_path):
        # A crashed durable write leaves temp names behind; they are never
        # payload, so they must not be digested.
        vdir = self.populate(tmp_path / "v1")
        (vdir / "a.bin.4242.tmp").write_bytes(b"half a write")
        (vdir / "bundle.4242.tmp").mkdir()
        (vdir / "bundle.4242.tmp" / "a0000.npy").write_bytes(b"staged")
        assert sorted(write_manifest(vdir)["files"]) == ["a.bin", "sub/b.bin"]

    def test_verify_passes_on_untouched_dir(self, tmp_path):
        vdir = self.populate(tmp_path / "v1")
        write_manifest(vdir)
        assert verify_manifest(vdir)["files"]

    def test_byte_flip_is_detected_and_named(self, tmp_path):
        vdir = self.populate(tmp_path / "v1")
        write_manifest(vdir)
        flip_byte(vdir / "sub" / "b.bin", offset=7)
        with pytest.raises(IntegrityError, match=r"sub/b\.bin.*mismatch"):
            verify_manifest(vdir)

    def test_missing_listed_file_is_detected(self, tmp_path):
        vdir = self.populate(tmp_path / "v1")
        write_manifest(vdir)
        (vdir / "a.bin").unlink()
        with pytest.raises(IntegrityError, match=r"a\.bin: missing"):
            verify_manifest(vdir)

    def test_extra_unlisted_file_is_tolerated(self, tmp_path):
        # The manifest pins what the publisher wrote, not the directory's
        # closure: sidecar files added later must not fail verification.
        vdir = self.populate(tmp_path / "v1")
        write_manifest(vdir)
        (vdir / "added-later.log").write_text("operator notes")
        verify_manifest(vdir)

    def test_absent_or_malformed_manifest_raises(self, tmp_path):
        vdir = self.populate(tmp_path / "v1")
        with pytest.raises(IntegrityError, match="no manifest"):
            read_manifest(vdir)
        (vdir / MANIFEST_NAME).write_text("[1, 2, 3]")
        with pytest.raises(IntegrityError, match="malformed"):
            read_manifest(vdir)
        (vdir / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(IntegrityError, match="unreadable"):
            read_manifest(vdir)

    def test_version_dir_needs_meta_and_manifest(self, tmp_path):
        # meta.json is the completion marker: a dir with a manifest but no
        # meta is an unfinished publish, and vice versa is tampering.
        vdir = self.populate(tmp_path / "v1")
        write_manifest(vdir)
        with pytest.raises(IntegrityError, match="incomplete publish"):
            verify_version_dir(vdir)
        (vdir / "meta.json").write_text("{}")
        verify_version_dir(vdir)
        (vdir / MANIFEST_NAME).unlink()
        with pytest.raises(IntegrityError, match="no manifest"):
            verify_version_dir(vdir)


def make_version(root, number, payload=b"payload"):
    vdir = root / "versions" / f"v{number:06d}"
    vdir.mkdir(parents=True)
    (vdir / "payload.bin").write_bytes(payload * 64)
    write_manifest(vdir)
    (vdir / "meta.json").write_text(json.dumps({"version": number}))
    return vdir


class TestLastGoodVersion:
    def test_newest_verifiable_wins(self, tmp_path):
        for number in (1, 2, 3):
            make_version(tmp_path, number)
        flip_byte(tmp_path / "versions" / "v000003" / "payload.bin")
        number, vdir = last_good_version(tmp_path)
        assert number == 2 and vdir.name == "v000002"

    def test_below_and_exclude_narrow_the_scan(self, tmp_path):
        for number in (1, 2, 3):
            make_version(tmp_path, number)
        assert last_good_version(tmp_path)[0] == 3
        assert last_good_version(tmp_path, below=3)[0] == 2
        assert last_good_version(tmp_path, below=3, exclude=(2,))[0] == 1

    def test_incomplete_publish_is_skipped(self, tmp_path):
        make_version(tmp_path, 1)
        newest = make_version(tmp_path, 2)
        (newest / "meta.json").unlink()  # publish never completed
        assert last_good_version(tmp_path)[0] == 1

    def test_nothing_verifiable_raises(self, tmp_path):
        with pytest.raises(ServingError, match="no verifiable"):
            last_good_version(tmp_path)
        make_version(tmp_path, 1)
        flip_byte(tmp_path / "versions" / "v000001" / "payload.bin")
        with pytest.raises(ServingError, match="no verifiable"):
            last_good_version(tmp_path)


# ---------------------------------------------------------------------- #
# Real publishes (bundle + logits) and the worker-side fallback
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def publishable():
    """One trained controller's bundle + logits, shared across the module."""
    controller = ServingController(
        load_acm(scale=0.1, seed=0),
        lambda: HeteroSGC(hidden_dim=8, epochs=5, max_hops=2, seed=0),
        model_name="heterosgc",
        ratio=0.3,
        condenser=FreeHGC(max_hops=2),
        seed=0,
        cache_size=64,
    )
    controller.start()
    return controller.export_bundle(), np.asarray(controller.session._logits)


class TestPublishFaultSites:
    def test_corrupt_file_fails_verification(self, tmp_path, publishable):
        bundle, logits = publishable
        injector = FaultInjector(seed=0)
        injector.plan("publish.corrupt_file", at=(1,), flip_at=64)
        with faults.injected(injector):
            vdir = publish_version(tmp_path, version=1, bundle=bundle, logits=logits)
        assert injector.fires["publish.corrupt_file"] == 1
        # The publish *completed* (meta exists) but the bytes betray it.
        assert (vdir / "meta.json").is_file()
        with pytest.raises(IntegrityError, match="mismatch"):
            verify_version_dir(vdir)

    def test_truncate_manifest_fails_the_read(self, tmp_path, publishable):
        bundle, logits = publishable
        injector = FaultInjector(seed=0)
        injector.plan("publish.truncate_manifest", at=(1,), keep_bytes=10)
        with faults.injected(injector):
            vdir = publish_version(tmp_path, version=1, bundle=bundle, logits=logits)
        assert injector.fires["publish.truncate_manifest"] == 1
        with pytest.raises(IntegrityError):
            read_manifest(vdir)
        with pytest.raises(IntegrityError):
            verify_version_dir(vdir)

    def test_clean_publish_verifies(self, tmp_path, publishable):
        bundle, logits = publishable
        vdir = publish_version(tmp_path, version=1, bundle=bundle, logits=logits)
        manifest = verify_version_dir(vdir)
        assert "logits.npy" in manifest["files"]

    def test_republish_over_a_crashed_publish_verifies(self, tmp_path, publishable):
        """Temp files a crashed publish left in the dir must not break the
        next publish of the same version (coordinator recovery republishes
        the recovered version into the same dir)."""
        bundle, logits = publishable
        vdir = publish_version(tmp_path, version=1, bundle=bundle, logits=logits)
        (vdir / "manifest.json.tmp").write_text("{")
        (vdir / "logits.npy.4242.tmp").write_bytes(b"torn")
        (vdir / "bundle.4242.tmp").mkdir()
        (vdir / "bundle.4242.tmp" / "a0000.npy").write_bytes(b"staged")
        publish_version(tmp_path, version=1, bundle=bundle, logits=logits)
        manifest = verify_version_dir(vdir)
        assert not any(".tmp" in name for name in manifest["files"])


class TestPublishedSessionFallback:
    def publish_two(self, root, publishable):
        bundle, logits = publishable
        for version in (1, 2):
            publish_version(root, version=version, bundle=bundle, logits=logits)
        set_current(root, 2)

    def test_corrupt_current_falls_back_to_last_good(self, tmp_path, publishable):
        self.publish_two(tmp_path, publishable)
        flip_byte(tmp_path / "versions" / "v000002" / "logits.npy", offset=128)
        session = published_session(tmp_path, cache_size=16)
        # Callers detect the fallback by the version mismatch.
        assert session.version == 1
        _, logits = publishable
        ids = np.arange(min(32, logits.shape[0]))
        assert np.array_equal(session.predict(ids), logits[ids].argmax(axis=1))

    def test_fallback_false_surfaces_the_integrity_error(
        self, tmp_path, publishable
    ):
        self.publish_two(tmp_path, publishable)
        flip_byte(tmp_path / "versions" / "v000002" / "logits.npy", offset=128)
        with pytest.raises(IntegrityError):
            published_session(tmp_path, fallback=False)

    def test_no_version_verifies_raises(self, tmp_path, publishable):
        self.publish_two(tmp_path, publishable)
        for name in ("v000001", "v000002"):
            flip_byte(tmp_path / "versions" / name / "logits.npy", offset=128)
        with pytest.raises(ServingError):
            published_session(tmp_path)

    def test_nuked_dir_falls_back_too(self, tmp_path, publishable):
        # Not just bit rot: the whole CURRENT directory going missing (an
        # overeager cleanup job) must also land on the previous version.
        self.publish_two(tmp_path, publishable)
        shutil.rmtree(tmp_path / "versions" / "v000002")
        assert published_session(tmp_path, cache_size=16).version == 1
