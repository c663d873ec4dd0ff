"""Durable writes fsync file contents before the rename that publishes them.

A rename is atomic, but without an fsync of the renamed bytes first, a power
loss right after the (durable, directory-fsynced) rename can atomically
publish a truncated file.  These tests record the order of ``os.fsync`` and
rename calls and pin it for every serving-side writer.
"""

from __future__ import annotations

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.hetero.io import load_graph
from repro.serving.artifacts import ModelBundle, load_bundle, save_bundle
from repro.serving.integrity import file_digest
from repro.serving.replicated import ReplicatedConfig, ReplicatedServer
from repro.serving.replicated.wal import DeltaWAL, read_wal
from repro.streaming.incremental import assert_graphs_equal
from repro.utils import durable


@pytest.fixture()
def graph(toy_graph):
    return toy_graph[0] if isinstance(toy_graph, tuple) else toy_graph


@pytest.fixture()
def bundle(graph):
    rng = np.random.default_rng(0)
    return ModelBundle(
        model_name="heterosgc",
        state={"hidden_dim": 8},
        weights={"w0": rng.standard_normal((4, 4)), "b0": rng.standard_normal(4)},
        condensed=graph,
        metadata={"dataset": "toy"},
    )


def first(log, kind, path) -> int:
    return next(i for i, entry in enumerate(log) if entry == (kind, str(path)))


def test_save_bundle_fsyncs_payload_before_rename(bundle, tmp_path, io_log):
    save_bundle(bundle, tmp_path / "bundle.d")
    rename = next(i for i, (kind, _) in enumerate(io_log) if kind == "rename")
    staged = io_log[rename][1]
    synced = [path for kind, path in io_log[:rename] if kind == "fsync"]
    # every staged array file plus header.json is synced before the rename
    assert any(path.endswith(".npy") for path in synced)
    assert os.path.join(staged, "header.json") in synced
    assert all(path.startswith(staged + os.sep) for path in synced)
    assert ("dirsync", staged) in io_log[:rename]
    assert ("dirsync", str(tmp_path)) in io_log[rename:]


def test_save_bundle_round_trips_after_fsync_change(bundle, tmp_path):
    target = tmp_path / "bundle.d"
    save_bundle(bundle, target)
    loaded = load_bundle(target)
    assert loaded.model_name == bundle.model_name
    assert loaded.metadata == bundle.metadata
    for key, value in bundle.weights.items():
        np.testing.assert_array_equal(loaded.weights[key], value)
    # no stray temp staging left behind
    assert [p.name for p in tmp_path.iterdir()] == ["bundle.d"]


def test_replaced_bundle_is_removed_only_after_its_successor_is_durable(
    bundle, tmp_path, io_log, monkeypatch
):
    """The old tree is swapped out, never deleted before the new one exists."""
    target = save_bundle(bundle, tmp_path / "bundle.d")
    io_log.clear()
    real_rmtree = durable.shutil.rmtree

    def rmtree(path, *args, **kwargs):
        if os.path.exists(path):
            io_log.append(("rmtree", os.fspath(path)))
        real_rmtree(path, *args, **kwargs)

    monkeypatch.setattr(durable.shutil, "rmtree", rmtree)
    bundle.metadata["rev"] = 2
    save_bundle(bundle, target)
    kinds = [kind for kind, _ in io_log]
    assert kinds.index("rename") < kinds.index("rmtree")
    assert io_log.index(("dirsync", str(tmp_path))) < kinds.index("rmtree")
    assert load_bundle(target).metadata["rev"] == 2


def test_snapshot_graph_is_durable_before_its_wal_record(graph, tmp_path, io_log):
    """The graph is fsynced, renamed and its directory fsynced before the
    fsynced snapshot record that carries its digest commits."""
    server = ReplicatedServer(lambda g=None: None, config=ReplicatedConfig(root=tmp_path))
    server.controller = SimpleNamespace(graph=graph)
    server.wal = DeltaWAL(tmp_path / "wal.log")
    io_log.clear()
    try:
        server._write_snapshot(SimpleNamespace(step=3, version=4))
    finally:
        server.wal.close()
    final = tmp_path / "snapshots" / "snap-000004-graph.npz"
    rename = next(i for i, entry in enumerate(io_log) if entry[0] == "rename")
    tmp = io_log[rename][1]
    assert durable.is_temp(tmp) and os.path.dirname(tmp) == str(final.parent)
    assert first(io_log, "fsync", tmp) < rename
    assert rename < first(io_log, "dirsync", final.parent)
    assert first(io_log, "dirsync", final.parent) < first(io_log, "fsync", tmp_path / "wal.log")
    (record,) = read_wal(tmp_path / "wal.log")
    assert record.payload["graph_sha256"] == file_digest(final)
    assert record.payload["bundle_path"] == "versions/v000004"
    assert_graphs_equal(load_graph(final), graph)
