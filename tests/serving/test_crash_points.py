"""Crash points of every durable write sequence, enumerated ALICE-style.

Following ALICE (Pillai et al., OSDI 2014), each sequence first runs once
under a recorder that lists its steps: every ``os.write``, file fsync,
rename (``os.replace`` or the directory exchange) and directory fsync.  It
then reruns from the same starting state once per step, with that step
raising :class:`Crash`.  The crash models process death: every completed
step persists, nothing after it runs, and the dying process cleans nothing
up (unlink and rmtree turn into no-ops), so its temp files stay on disk.

After each crash the on-disk state must load as the complete previous or
the complete next state, no temp file may be visible to a loader, and
rerunning the sequence from that state must reach the next state.  The
recorded step lists also pin that each renamed file or tree was fsynced
before its rename and its directory after it.
"""

from __future__ import annotations

import os
import shutil
import stat
from contextlib import contextmanager

import numpy as np
import pytest

from repro.obs.export import TraceSink
from repro.obs.spans import Span, read_trace
from repro.runner.cli import _trace_paths
from repro.serving.artifacts import (
    ModelBundle,
    current_version,
    publish_version,
    published_bundle,
    set_current,
    verify_version_dir,
)
from repro.serving.replicated import published_session
from repro.utils import durable
from repro.utils.durable import atomic_dir, atomic_write, is_temp

STEP_KINDS = {"write", "fsync", "rename", "dirsync"}


class Crash(Exception):
    """The simulated death of the writing process."""


class StepRecorder:
    def __init__(self, crash_at: int | None = None) -> None:
        self.steps: list[tuple[str, str]] = []
        self.crash_at = crash_at
        self.crashed = False

    def step(self, kind: str, path: str) -> None:
        if self.crashed:
            raise Crash("the process is already dead")
        if len(self.steps) == self.crash_at:
            self.crashed = True
            raise Crash(f"crash before step {self.crash_at}: {kind} {path}")
        self.steps.append((kind, path))


@contextmanager
def recording(crash_at: int | None = None):
    """Route the durable syscalls through a :class:`StepRecorder`."""
    recorder = StepRecorder(crash_at)
    real_write, real_fsync, real_replace = os.write, os.fsync, os.replace
    real_exchange = durable._exchange

    def fd_path(fd: int) -> str:
        return os.readlink(f"/proc/self/fd/{fd}")

    def write(fd, data):
        recorder.step("write", fd_path(fd))
        return real_write(fd, data)

    def fsync(fd):
        kind = "dirsync" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync"
        recorder.step(kind, fd_path(fd))
        real_fsync(fd)

    def replace(src, dst):
        recorder.step("rename", os.fspath(src))
        real_replace(src, dst)

    def exchange(staged, path):
        recorder.step("rename", os.fspath(staged))
        real_exchange(staged, path)

    def unless_crashed(cleanup):
        def guarded(*args, **kwargs):
            if not recorder.crashed:
                return cleanup(*args, **kwargs)
        return guarded

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "write", write)
        patch.setattr(os, "fsync", fsync)
        patch.setattr(os, "replace", replace)
        patch.setattr(durable, "_exchange", exchange)
        patch.setattr(os, "unlink", unless_crashed(os.unlink))
        patch.setattr(shutil, "rmtree", unless_crashed(shutil.rmtree))
        yield recorder


def payload_entries(root):
    """Entries of ``root`` (recursively) that are not crash leftovers."""
    return sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if not any(is_temp(part) for part in path.relative_to(root).parts)
    )


# ---------------------------------------------------------------------- #
# The sequences.  Each builds its previous state, runs its write, and
# classifies what it finds on disk as "prev" or "next" (asserting it is one
# of the two, complete).
# ---------------------------------------------------------------------- #
class AtomicWrite:
    OLD, NEW = b"old contents", os.urandom(1 << 16)

    def setup(self, root):
        (root / "data.bin").write_bytes(self.OLD)

    def run(self, root):
        atomic_write(root / "data.bin", self.NEW)

    def state(self, root):
        assert payload_entries(root) == ["data.bin"]
        contents = (root / "data.bin").read_bytes()
        assert contents in (self.OLD, self.NEW)
        return "next" if contents == self.NEW else "prev"


class AtomicDir:
    OLD = {"header.json": b'{"rev": 1}', "a0000.npy": b"old array"}
    NEW = {"header.json": b'{"rev": 2}', "a0000.npy": b"new array", "a0001.npy": b"more"}

    def setup(self, root):
        atomic_dir(root / "bundle", self.OLD)

    def run(self, root):
        atomic_dir(root / "bundle", self.NEW)

    def state(self, root):
        tree = {path.name: path.read_bytes() for path in (root / "bundle").iterdir()}
        assert tree in (self.OLD, self.NEW)
        assert payload_entries(root) == ["bundle"] + [f"bundle/{n}" for n in sorted(tree)]
        return "next" if tree == self.NEW else "prev"


def make_span(index: int) -> Span:
    return Span(span_id=f"main:{index}", name=f"span-{index:03d}", trace_id="t")


class TraceRotation:
    SPANS = [make_span(i) for i in range(20)]

    def setup(self, root):
        sink = TraceSink(root / "trace.jsonl", "t")
        sink.write(self.SPANS)
        sink.close()

    def run(self, root):
        # The live file is over this budget: the write rotates it first.
        sink = TraceSink(root / "trace.jsonl", "t", max_bytes=64)
        sink.write([])
        sink.close()

    def state(self, root):
        names: list[str] = []
        # the files ``repro trace report`` reads; each decodes on its own
        for path in _trace_paths(root / "trace.jsonl"):
            header, spans = read_trace(path)
            assert header["trace_id"] == "t"
            names.extend(span.name for span in spans)
        assert sorted(names) == [span.name for span in self.SPANS]
        return "next" if (root / "trace.jsonl.1").exists() else "prev"


class PublishThenFlip:
    """``publish_version`` of v2 then ``set_current`` over a published v1."""

    def __init__(self, toy_graph):
        rng = np.random.default_rng(0)
        self.bundles, self.logits = {}, {}
        for version in (1, 2):
            self.bundles[version] = ModelBundle(
                model_name="heterosgc",
                state={"hidden_dim": 4},
                weights={"w0": rng.standard_normal((4, 4)), "b0": rng.standard_normal(4)},
                condensed=toy_graph,
                metadata={"version": version},
            )
            self.logits[version] = rng.standard_normal((12, 3))

    def publish(self, root, version):
        publish_version(
            root, version=version, bundle=self.bundles[version], logits=self.logits[version]
        )
        set_current(root, version)

    def setup(self, root):
        self.publish(root, 1)

    def run(self, root):
        self.publish(root, 2)

    def state(self, root):
        version, vdir = current_version(root)
        assert version in (1, 2) and not is_temp(vdir.name)
        session = published_session(root, fallback=False)
        assert session.version == version
        ids = np.arange(self.logits[version].shape[0])
        assert np.array_equal(session.logits(ids), self.logits[version])
        assert published_bundle(vdir).metadata == {"version": version}
        listed = verify_version_dir(vdir)["files"]
        assert not any(is_temp(part) for name in listed for part in name.split("/"))
        return "next" if version == 2 else "prev"


@pytest.fixture(params=["atomic_write", "atomic_dir", "trace_rotation", "publish_then_flip"])
def sequence(request, toy_graph):
    graph = toy_graph[0] if isinstance(toy_graph, tuple) else toy_graph
    return {
        "atomic_write": AtomicWrite,
        "atomic_dir": AtomicDir,
        "trace_rotation": TraceRotation,
        "publish_then_flip": lambda: PublishThenFlip(graph),
    }[request.param]()


def test_every_crash_point_leaves_previous_or_next_state(sequence, tmp_path):
    template = tmp_path / "template"
    template.mkdir()
    sequence.setup(template)
    assert sequence.state(template) == "prev"

    clean = tmp_path / "clean"
    shutil.copytree(template, clean)
    with recording() as recorder:
        sequence.run(clean)
    steps = recorder.steps
    assert sequence.state(clean) == "next"
    assert {kind for kind, _ in steps} == STEP_KINDS

    # Contents are durable before every rename (a renamed tree: each file
    # written into it and the tree itself), the directory after it.
    for index, (kind, src) in enumerate(steps):
        if kind != "rename":
            continue
        synced = {path for k, path in steps[:index] if k in ("fsync", "dirsync")}
        written = {
            path
            for k, path in steps[:index]
            if k == "write" and (path == src or path.startswith(src + os.sep))
        }
        assert src in synced and written <= synced, f"{src} renamed before it was fsynced"
        assert any(k == "dirsync" for k, _ in steps[index + 1 :]), (
            f"rename of {src} never followed by a directory fsync"
        )

    seen = set()
    for crash_at in range(len(steps)):
        root = tmp_path / f"crash-{crash_at}"
        shutil.copytree(template, root)
        with recording(crash_at) as recorder, pytest.raises(Crash):
            sequence.run(root)
        where = f"crash before step {crash_at} {steps[crash_at]}"
        try:
            seen.add(sequence.state(root))
            sequence.run(root)  # recovery: the next attempt completes
            assert sequence.state(root) == "next"
        except AssertionError as exc:
            raise AssertionError(f"{where}: {exc}") from exc
        shutil.rmtree(root)
    assert seen == {"prev", "next"}
