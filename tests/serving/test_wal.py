"""Durable GraphDelta write-ahead log: framing, fsync commit, torn-tail repair."""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np
import pytest

from repro.errors import WALError
from repro.serving.artifacts import version_dir
from repro.serving.integrity import write_manifest
from repro.serving.replicated.wal import DeltaWAL, plan_replay, read_wal
from repro.streaming.delta import GraphDelta


def make_delta(step: int = 1) -> GraphDelta:
    return GraphDelta(
        add_edges={"paper-author": (np.array([0, 1]), np.array([2, 3]))},
        remove_edges={"paper-author": (np.array([4]), np.array([5]))},
        step=step,
    )


def make_version_dir(root, version: int) -> str:
    """A minimal published version dir that verifies; returns its WAL-relative path."""
    vdir = version_dir(root, version)
    vdir.mkdir(parents=True)
    (vdir / "logits.npy").write_bytes(b"l")
    write_manifest(vdir)
    (vdir / "meta.json").write_text(json.dumps({"version": version}))
    return vdir.relative_to(root).as_posix()


def frame(payload: dict) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return struct.pack("<II", len(body), zlib.crc32(body)) + body


class TestAppendAndRead:
    def test_round_trip_preserves_order_and_payloads(self, tmp_path):
        path = tmp_path / "wal.log"
        with DeltaWAL(path) as wal:
            wal.append_genesis({"dataset": "acm", "scale": 0.1, "seed": 3})
            for step in (1, 2, 3):
                wal.append_delta(make_delta(step))
        records = read_wal(path)
        assert [r.kind for r in records] == ["genesis", "delta", "delta", "delta"]
        assert records[0].payload["config"]["dataset"] == "acm"
        replayed = records[2].delta()
        original = make_delta(2)
        assert replayed.step == 2
        for name, (src, dst) in original.add_edges.items():
            got_src, got_dst = replayed.add_edges[name]
            assert np.array_equal(got_src, src) and np.array_equal(got_dst, dst)

    def test_reopen_appends_after_existing_records(self, tmp_path):
        path = tmp_path / "wal.log"
        with DeltaWAL(path) as wal:
            wal.append_genesis({"seed": 0})
        wal, records = DeltaWAL.open(path)
        with wal:
            assert len(records) == 1
            wal.append_delta(make_delta(9))
        assert [r.kind for r in read_wal(path)] == ["genesis", "delta"]

    def test_unknown_kind_refused(self, tmp_path):
        with DeltaWAL(tmp_path / "wal.log") as wal:
            with pytest.raises(WALError):
                wal.append({"kind": "mystery"})

    def test_delta_accessor_rejects_non_delta(self, tmp_path):
        path = tmp_path / "wal.log"
        with DeltaWAL(path) as wal:
            wal.append_genesis({})
        with pytest.raises(WALError):
            read_wal(path)[0].delta()


class TestTornTailRecovery:
    def write_good_log(self, path) -> list[bytes]:
        frames = [
            frame({"kind": "genesis", "config": {"seed": 0}}),
            frame({"kind": "delta", "delta": make_delta(1).to_payload()}),
            frame({"kind": "delta", "delta": make_delta(2).to_payload()}),
        ]
        path.write_bytes(b"".join(frames))
        return frames

    def test_truncated_header_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        good = b"".join(self.write_good_log(path))
        path.write_bytes(good + b"\x07\x00")
        with pytest.raises(WALError):
            read_wal(path)
        records = read_wal(path, repair=True)
        assert len(records) == 3
        assert path.stat().st_size == len(good)

    def test_truncated_body_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        good = b"".join(self.write_good_log(path))
        partial = frame({"kind": "delta", "delta": make_delta(3).to_payload()})
        path.write_bytes(good + partial[: len(partial) - 5])
        records = read_wal(path, repair=True)
        assert [r.kind for r in records] == ["genesis", "delta", "delta"]
        # repaired in place: a second read needs no repair
        assert len(read_wal(path)) == 3

    def test_bad_crc_on_final_record_is_torn(self, tmp_path):
        path = tmp_path / "wal.log"
        good = b"".join(self.write_good_log(path))
        bad = bytearray(frame({"kind": "delta", "delta": make_delta(3).to_payload()}))
        bad[-1] ^= 0xFF  # flip a payload byte: CRC no longer matches
        path.write_bytes(good + bytes(bad))
        records = read_wal(path, repair=True)
        assert len(records) == 3
        assert path.stat().st_size == len(good)

    def test_bad_crc_mid_log_is_corruption_not_tear(self, tmp_path):
        path = tmp_path / "wal.log"
        frames = self.write_good_log(path)
        corrupted = bytearray(b"".join(frames))
        # flip a byte inside the *second* frame's payload
        corrupted[len(frames[0]) + 12] ^= 0xFF
        path.write_bytes(bytes(corrupted))
        with pytest.raises(WALError):
            read_wal(path, repair=True)

    def test_absurd_length_field_is_corruption(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(struct.pack("<II", 2**31, 0) + b"xx")
        with pytest.raises(WALError):
            read_wal(path, repair=True)

    def test_open_repairs_and_appends_cleanly(self, tmp_path):
        path = tmp_path / "wal.log"
        good = b"".join(self.write_good_log(path))
        path.write_bytes(good + b"torn!")
        wal, records = DeltaWAL.open(path)
        with wal:
            assert len(records) == 3
            wal.append_delta(make_delta(3))
        assert [r.payload["delta"]["step"] for r in read_wal(path) if r.kind == "delta"] == [1, 2, 3]

    def test_empty_and_missing_logs(self, tmp_path):
        path = tmp_path / "wal.log"
        wal, records = DeltaWAL.open(path)  # missing: created fresh
        wal.close()
        assert records == []
        assert read_wal(path) == []


class TestPlanReplay:
    def test_no_snapshot_replays_everything_after_genesis(self, tmp_path):
        path = tmp_path / "wal.log"
        with DeltaWAL(path) as wal:
            wal.append_genesis({"dataset": "acm"})
            wal.append_delta(make_delta(1))
            wal.append_delta(make_delta(2))
        genesis, snapshot, deltas = plan_replay(read_wal(path), root=path.parent)
        assert genesis == {"dataset": "acm"}
        assert snapshot is None
        assert [d.step for d in deltas] == [1, 2]

    def test_snapshot_cuts_replay_to_suffix(self, tmp_path):
        path = tmp_path / "wal.log"
        (tmp_path / "snap-graph.npz").write_bytes(b"g")
        bundle_path = make_version_dir(tmp_path, 2)
        with DeltaWAL(path) as wal:
            wal.append_genesis({"dataset": "acm"})
            wal.append_delta(make_delta(1))
            wal.append_snapshot(
                step=1, version=2, graph_path="snap-graph.npz",
                bundle_path=bundle_path, deltas_applied=1,
            )
            wal.append_delta(make_delta(2))
            wal.append_delta(make_delta(3))
        genesis, snapshot, deltas = plan_replay(read_wal(path), root=tmp_path)
        assert snapshot is not None and snapshot.payload["version"] == 2
        assert [d.step for d in deltas] == [2, 3]

    def test_snapshot_with_missing_files_is_skipped(self, tmp_path):
        path = tmp_path / "wal.log"
        with DeltaWAL(path) as wal:
            wal.append_genesis({"dataset": "acm"})
            wal.append_delta(make_delta(1))
            wal.append_snapshot(
                step=1, version=2, graph_path="gone-graph.npz",
                bundle_path="gone-bundle.npz", deltas_applied=1,
            )
            wal.append_delta(make_delta(2))
        genesis, snapshot, deltas = plan_replay(read_wal(path), root=tmp_path)
        assert snapshot is None
        assert [d.step for d in deltas] == [1, 2]

    def test_snapshot_with_npz_bundle_is_skipped(self, tmp_path):
        """A record written before snapshots pointed at version dirs names an
        ``.npz`` bundle: unverifiable, so replay falls back to an older
        snapshot (or genesis) and the log's deltas rebuild the same state."""
        path = tmp_path / "wal.log"
        (tmp_path / "snap-1-graph.npz").write_bytes(b"g")
        (tmp_path / "snap-2-graph.npz").write_bytes(b"g")
        (tmp_path / "snap-2-bundle.npz").write_bytes(b"b")
        with DeltaWAL(path) as wal:
            wal.append_genesis({"dataset": "acm"})
            wal.append_delta(make_delta(1))
            wal.append_snapshot(
                step=1, version=2, graph_path="snap-1-graph.npz",
                bundle_path=make_version_dir(tmp_path, 2), deltas_applied=1,
            )
            wal.append_delta(make_delta(2))
            wal.append_snapshot(
                step=2, version=3, graph_path="snap-2-graph.npz",
                bundle_path="snap-2-bundle.npz", deltas_applied=2,
            )
            wal.append_delta(make_delta(3))
        _, snapshot, deltas = plan_replay(read_wal(path), root=tmp_path)
        assert snapshot is not None and snapshot.payload["version"] == 2
        assert [d.step for d in deltas] == [2, 3]
        # with the verifiable snapshot gone too, replay starts from genesis
        (tmp_path / "snap-1-graph.npz").unlink()
        _, snapshot, deltas = plan_replay(read_wal(path), root=tmp_path)
        assert snapshot is None and [d.step for d in deltas] == [1, 2, 3]
