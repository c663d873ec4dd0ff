"""Poison-delta quarantine: dead-letter sidecar, poison records, convergence.

The invariant under test is *crash-loop safety*: a delta whose replay
crashes the boot is dead-lettered and poisoned on the first boot
(``quarantined_now == 1``), and every later boot skips it for free
(``quarantined_now == 0``) — the tier converges instead of dying on the
same record forever.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.condenser import FreeHGC
from repro.datasets import load_acm
from repro.models.hetero_sgc import HeteroSGC
from repro.serving import ServingController
from repro.serving.replicated import recover_from_wal
from repro.serving.replicated.wal import (
    KIND_POISON,
    DeltaWAL,
    deadletter_path,
    plan_replay_records,
    read_deadletter,
    read_wal,
)
from repro.streaming import GraphDelta
from repro.utils import faults


@pytest.fixture(autouse=True)
def _clean_injector():
    faults.uninstall()
    yield
    faults.uninstall()


GENESIS = {"dataset": "acm", "scale": 0.1, "seed": 0}


def make_controller(graph=None):
    if graph is None:
        graph = load_acm(scale=0.1, seed=0)
    controller = ServingController(
        graph,
        lambda: HeteroSGC(hidden_dim=8, epochs=5, max_hops=2, seed=0),
        model_name="heterosgc",
        ratio=0.3,
        condenser=FreeHGC(max_hops=2),
        recondense_threshold=0.5,
        seed=0,
        cache_size=64,
    )
    return controller


def churn_delta(graph, step):
    coo = graph.adjacency["paper-term"].tocoo()
    lo = (step - 1) * 3
    return GraphDelta(
        remove_edges={"paper-term": (coo.row[lo : lo + 3], coo.col[lo : lo + 3])},
        step=step,
    )


def poison_delta(step):
    """A delta that *parses* fine but crashes when applied to the graph."""
    return GraphDelta(remove_edges={"nope": ([0], [1])}, step=step)


class TestDeadLetterSidecar:
    def test_quarantine_writes_sidecar_then_poison_record(self, tmp_path):
        path = tmp_path / "wal.log"
        with DeltaWAL(path) as wal:
            wal.append_genesis(GENESIS)
            wal.append_delta(poison_delta(1))
            victim = read_wal(path)[1]
            entry = wal.quarantine(
                victim, ValueError("boom at step 1"), reason="replay_crash"
            )
        assert entry["offset"] == victim.offset
        assert entry["reason"] == "replay_crash"
        assert entry["error"] == "ValueError: boom at step 1"
        assert entry["fingerprint"]
        assert entry["payload"]["delta"]["step"] == 1

        # One JSON line per quarantine, machine-readable for forensics.
        sidecar = deadletter_path(path)
        assert sidecar == path.with_name(path.name + ".deadletter")
        lines = sidecar.read_text().splitlines()
        assert len(lines) == 1 and json.loads(lines[0]) == entry
        assert read_deadletter(path) == [entry]

        # The WAL itself gained a poison record pointing at the victim.
        records = read_wal(path)
        assert [r.kind for r in records] == ["genesis", "delta", KIND_POISON]
        assert records[2].payload["target_offset"] == victim.offset
        assert records[2].payload["fingerprint"] == entry["fingerprint"]

    def test_replay_plan_skips_poisoned_records(self, tmp_path):
        path = tmp_path / "wal.log"
        graph = load_acm(scale=0.1, seed=0)
        with DeltaWAL(path) as wal:
            wal.append_genesis(GENESIS)
            wal.append_delta(churn_delta(graph, 1))
            wal.append_delta(poison_delta(2))
            victim = read_wal(path)[2]
            wal.quarantine(victim, ValueError("boom"), reason="replay_crash")
            wal.append_delta(churn_delta(graph, 3))
        records = read_wal(path)
        genesis, snapshot, deltas, poisoned = plan_replay_records(
            records, root=tmp_path
        )
        assert genesis is not None and snapshot is None
        assert poisoned == {victim.offset}
        assert [r.delta().step for r in deltas] == [1, 3]

    def test_empty_deadletter_reads_as_empty(self, tmp_path):
        assert read_deadletter(tmp_path / "absent.log") == []


class TestRecoveryConvergence:
    def test_poisoned_boot_converges_and_matches_clean_replay(self, tmp_path):
        """First boot quarantines the crasher; second boot is free; the
        recovered state equals a controller that never saw the poison."""
        wal_path = tmp_path / "wal.log"
        graph = load_acm(scale=0.1, seed=0)
        good1, bad, good2 = churn_delta(graph, 1), poison_delta(2), churn_delta(graph, 3)
        with DeltaWAL(wal_path) as wal:
            wal.append_genesis(GENESIS)
            wal.append_delta(good1)
            wal.append_delta(bad)  # bypasses commit-time validation on purpose
            wal.append_delta(good2)

        # Boot 1: replay trips on the poison, dead-letters it, and finishes.
        controller, wal, report = recover_from_wal(
            wal_path, root=tmp_path, make_controller=make_controller,
            genesis_config=GENESIS,
        )
        wal.close()
        assert report["mode"] == "genesis"
        assert report["deltas_replayed"] == 2
        assert report["quarantined"] == 1
        assert report["quarantined_now"] == 1
        entries = read_deadletter(wal_path)
        assert len(entries) == 1
        assert entries[0]["payload"]["delta"]["step"] == 2
        assert entries[0]["fingerprint"]

        # The survivor state is exactly "the good deltas, in order".
        mirror = make_controller()
        mirror.start()
        mirror.apply_delta(good1)
        mirror.apply_delta(good2)
        ids = np.arange(controller.session.num_targets)
        assert controller.version == mirror.version
        assert np.array_equal(
            controller.session.predict(ids), mirror.session.predict(ids)
        )

        # Boot 2: the poison record is skipped without any work or new
        # dead-letter lines — this is what breaks the crash loop.
        controller2, wal2, report2 = recover_from_wal(
            wal_path, root=tmp_path, make_controller=make_controller,
            genesis_config=GENESIS,
        )
        wal2.close()
        assert report2["quarantined"] == 1
        assert report2["quarantined_now"] == 0
        assert report2["deltas_replayed"] == 2
        assert len(read_deadletter(wal_path)) == 1
        assert controller2.version == controller.version
        assert np.array_equal(
            controller2.session.predict(ids), controller.session.predict(ids)
        )

    def test_poison_first_delta_still_boots(self, tmp_path):
        # Degenerate shape: the *only* delta is poison — recovery must land
        # on the genesis state rather than refusing to serve at all.
        wal_path = tmp_path / "wal.log"
        with DeltaWAL(wal_path) as wal:
            wal.append_genesis(GENESIS)
            wal.append_delta(poison_delta(1))
        controller, wal, report = recover_from_wal(
            wal_path, root=tmp_path, make_controller=make_controller,
            genesis_config=GENESIS,
        )
        wal.close()
        assert report["deltas_replayed"] == 0
        assert report["quarantined_now"] == 1
        assert controller.version == 1  # the freshly started genesis state
