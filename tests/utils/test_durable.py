"""The durable-write primitives: contents, ordering and failure cleanup.

The ordering tests pin the invariant the retired ``REP-U202`` lint rule
guarded: file contents are fsynced before the rename that publishes them,
and the directory is fsynced after it.
"""

from __future__ import annotations

import os

import pytest

from repro.utils import durable
from repro.utils.durable import (
    atomic_dir,
    atomic_write,
    durable_rename,
    is_temp,
    sync_dir,
)


def listing(root):
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


class TestAtomicWrite:
    def test_replaces_contents_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "CURRENT"
        target.write_bytes(b"old")
        assert atomic_write(target, b"new") == target
        assert target.read_bytes() == b"new"
        assert listing(tmp_path) == ["CURRENT"]

    def test_fsyncs_contents_before_rename_and_dir_after(self, tmp_path, io_log):
        atomic_write(tmp_path / "f.json", b"{}")
        (kind_w, tmp), (kind_r, renamed), (kind_d, synced_dir) = io_log
        assert (kind_w, kind_r, kind_d) == ("fsync", "rename", "dirsync")
        assert tmp == renamed and is_temp(os.path.basename(tmp))
        assert synced_dir == str(tmp_path)

    def test_failed_rename_keeps_old_file_and_removes_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "f"
        target.write_bytes(b"old")

        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken)
        with pytest.raises(OSError, match="disk full"):
            atomic_write(target, b"new")
        assert target.read_bytes() == b"old"
        assert listing(tmp_path) == ["f"]

    def test_large_payload_written_whole(self, tmp_path):
        payload = os.urandom(3 << 20)
        assert atomic_write(tmp_path / "big", payload).read_bytes() == payload


class TestAtomicDir:
    FILES = {"header.json": b"{}", "a0000.npy": b"array"}

    def test_builds_fresh_tree(self, tmp_path):
        path = atomic_dir(tmp_path / "sub" / "bundle", self.FILES)
        assert {p.name: p.read_bytes() for p in path.iterdir()} == self.FILES
        assert listing(tmp_path) == [
            "sub", "sub/bundle", "sub/bundle/a0000.npy", "sub/bundle/header.json"
        ]

    def test_fsyncs_every_file_and_the_stage_before_rename(self, tmp_path, io_log):
        atomic_dir(tmp_path / "bundle", self.FILES)
        rename = [kind for kind, _ in io_log].index("rename")
        staged = io_log[rename][1]
        before = io_log[:rename]
        for name in self.FILES:
            assert ("fsync", os.path.join(staged, name)) in before
        assert before[-1] == ("dirsync", staged)
        assert io_log[rename + 1:] == [("dirsync", str(tmp_path))]

    @pytest.mark.parametrize("exchange", ["renameat2", "rename-aside"])
    def test_replaces_existing_tree_whole(self, tmp_path, monkeypatch, exchange):
        if exchange == "rename-aside":
            monkeypatch.setattr(durable, "_renameat2", lambda: None)
        target = atomic_dir(tmp_path / "bundle", {"old.npy": b"old", "header.json": b"1"})
        atomic_dir(target, self.FILES)
        assert {p.name: p.read_bytes() for p in target.iterdir()} == self.FILES
        assert listing(tmp_path) == ["bundle", "bundle/a0000.npy", "bundle/header.json"]

    def test_failure_before_rename_keeps_old_tree(self, tmp_path, monkeypatch):
        target = atomic_dir(tmp_path / "bundle", {"header.json": b"old"})
        real_fsync = os.fsync
        calls = []

        def failing_fsync(fd):
            calls.append(fd)
            if len(calls) == 2:
                raise OSError("I/O error")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="I/O error"):
            atomic_dir(target, self.FILES)
        assert (target / "header.json").read_bytes() == b"old"
        assert listing(tmp_path) == ["bundle", "bundle/header.json"]


class TestRenameAndSync:
    def test_durable_rename_moves_and_syncs_destination_dir(self, tmp_path, io_log):
        (tmp_path / "trace.jsonl").write_text("x")
        durable_rename(tmp_path / "trace.jsonl", tmp_path / "trace.jsonl.1")
        assert listing(tmp_path) == ["trace.jsonl.1"]
        assert io_log == [
            ("rename", str(tmp_path / "trace.jsonl")),
            ("dirsync", str(tmp_path)),
        ]

    def test_sync_dir_tolerates_a_missing_dir(self, tmp_path):
        sync_dir(tmp_path / "absent")

    def test_temp_names_are_recognisable(self, tmp_path, io_log):
        atomic_write(tmp_path / "manifest.json", b"{}")
        atomic_dir(tmp_path / "bundle", {"x": b"x"})
        renamed = [os.path.basename(path) for kind, path in io_log if kind == "rename"]
        assert renamed and all(is_temp(name) for name in renamed)
        assert not is_temp("manifest.json") and not is_temp("v000001")
