"""The one replay-and-verify loop behind ``stream``, ``matrix`` and
``bench_streaming.py``: it yields what the hand-written incremental-vs-full
loop sees, and a divergence below it reaches all three callers."""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.streaming as streaming
from repro.core import FreeHGC
from repro.datasets import load_acm
from repro.datasets.generators import generate_delta_schedule
from repro.runner.cli import main
from repro.runner.matrix import MatrixConfig, plan_matrix, run_matrix_cell
from repro.streaming import (
    DeltaApplier,
    IncrementalCondenser,
    StepReport,
    assert_graphs_equal,
    replay,
    summarize,
)

ROOT = Path(__file__).resolve().parents[2]
STEPS = 6
#: between the schedule's edge fractions, so steps 3, 5 and 6 fall back to full
THRESHOLD = 0.01
STREAM_ARGS = [
    "stream", "--dataset", "acm", "--ratio", "0.2", "--steps", "3",
    "--scale", "0.1", "--max-hops", "2", "--edge-churn", "0.002", "--quiet",
]


def fresh():
    graph = load_acm(scale=0.2, seed=0)
    schedule = generate_delta_schedule(
        graph,
        steps=STEPS,
        seed=3,
        edge_churn=0.004,
        node_arrival_every=3,
        arrival_count=3,
        removal_every=5,
        removal_count=2,
    )
    incremental = IncrementalCondenser(
        graph, condenser=FreeHGC(max_hops=2), ratio=0.1,
        recondense_threshold=THRESHOLD, seed=0,
    )
    incremental.condense()
    return incremental, schedule


@pytest.fixture(scope="module")
def hand_written():
    """The loop ``test_incremental.py`` writes out: step, then replay the
    delta on a replica and condense it from scratch."""
    incremental, schedule = fresh()
    replica = incremental.graph.copy()
    applier = DeltaApplier()
    steps = []
    for delta in schedule:
        report = incremental.step(delta)
        applier.apply(replica, delta)
        assert_graphs_equal(
            report.condensed, FreeHGC(max_hops=2).condense(replica, 0.1, seed=0)
        )
        steps.append((report.mode, report.condensed))
    return steps


@pytest.mark.parametrize(
    "verify_every, steps_first, checkpoints",
    [
        (0, False, set()),
        (1, False, {1, 2, 3, 4, 5, 6}),
        (2, False, {2, 4, 6}),
        (STEPS, False, {STEPS}),
        (1, True, {1, 2, 3, 4, 5, 6}),
    ],
)
def test_records_match_the_hand_written_loop(
    hand_written, verify_every, steps_first, checkpoints
):
    incremental, schedule = fresh()
    records = list(
        replay(incremental, schedule, verify_every=verify_every, steps_first=steps_first)
    )
    assert [r.mode for r in records] == [mode for mode, _ in hand_written]
    assert [r.mode for r in records].count("full") == 3
    for record, (_, condensed) in zip(records, hand_written):
        assert_graphs_equal(record.condensed, condensed)
    assert {r.step for r in records if r.identical is not None} == checkpoints
    assert {r.step for r in records if r.full_seconds is not None} == checkpoints
    assert all(r.identical for r in records if r.identical is not None)
    assert all(r.step_seconds > 0 for r in records)


def test_a_refused_step_keeps_the_replica_in_sync():
    incremental, schedule = fresh()

    def refuse_the_second(delta):
        report = incremental.step(delta)
        return None if delta.step == 2 else report

    records = list(replay(incremental, schedule, verify_every=1, step=refuse_the_second))
    assert [r.step for r in records] == [1, 3, 4, 5, 6]
    assert all(r.identical for r in records)


def test_summary_takes_incremental_steps_only():
    def record(mode, seconds, full=None):
        return StepReport(step=0, mode=mode, edge_fraction=0.0, step_seconds=seconds,
                          condensed=None, full_seconds=full)

    median_step, median_full, speedup = summarize(
        [record("incremental", 0.1, 1.0), record("full", 9.0, 0.8),
         record("incremental", 0.3), record("incremental", 0.2, 0.9)]
    )
    assert (median_step, median_full) == (0.2, 0.9)
    assert speedup == pytest.approx(4.5)
    assert summarize([record("full", 1.0, 1.0)]) == (None, 1.0, None)


@pytest.fixture
def checkpoint_spy(monkeypatch):
    """Record the checkpoint steps of every replay the CLI and matrix run."""
    seen: list[list[int]] = []
    real = streaming.replay

    def spy(*args, **kwargs):
        seen.append([])
        for record in real(*args, **kwargs):
            if record.identical is not None:
                seen[-1].append(record.step)
            yield record

    monkeypatch.setattr(streaming, "replay", spy)
    return seen


@pytest.mark.parametrize("verify_every, checkpoints", [(0, []), (2, [2])])
def test_stream_verify_every_zero_means_never(checkpoint_spy, capsys, verify_every, checkpoints):
    assert main(STREAM_ARGS + ["--verify-every", str(verify_every)]) == 0
    assert checkpoint_spy == [checkpoints]


@pytest.mark.parametrize("verify_every, checkpoints", [(0, [3]), (2, [2])])
def test_matrix_verify_every_zero_means_the_final_step(checkpoint_spy, verify_every, checkpoints):
    cell = plan_matrix(MatrixConfig(
        datasets=("acm",), scales=(0.08,), regimes=("steady",), steps=3,
        ratio=0.2, max_hops=2, verify_every=verify_every,
    )).cells[0]
    result = run_matrix_cell(cell)
    assert checkpoint_spy == [checkpoints]
    assert result["verified_checkpoints"] == len(checkpoints)
    assert result["mismatches"] == 0


# --------------------------------------------------------------------------- #
# A real divergence below the loop
# --------------------------------------------------------------------------- #
@pytest.fixture
def stale_refresh(monkeypatch):
    """A context refresh that leaves its first patched path stale."""
    real = DeltaApplier._refresh_context

    def refresh(self, graph, delta, context, report, *rest):
        before = {key: context.cached_packed(key) for key in context.cached_path_keys()}
        real(self, graph, delta, context, report, *rest)
        for key in report.patched_paths[:1]:
            context.install_adjacency(key, before[key])

    monkeypatch.setattr(DeltaApplier, "_refresh_context", refresh)


def test_replay_reports_the_divergence(stale_refresh):
    graph = load_acm(scale=0.1, seed=0)
    schedule = generate_delta_schedule(graph, steps=3, seed=0, edge_churn=0.002)
    incremental = IncrementalCondenser(graph, condenser=FreeHGC(max_hops=2), ratio=0.2)
    incremental.condense()
    records = list(replay(incremental, schedule, verify_every=1))
    assert [r.identical for r in records] == [True, False, False]


def test_stream_exits_1_on_the_divergence(stale_refresh, capsys):
    assert main(STREAM_ARGS + ["--verify-every", "1", "--no-timings"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("load", ["none", "light"])
def test_matrix_counts_the_divergence(stale_refresh, load):
    cell = plan_matrix(MatrixConfig(
        datasets=("acm",), scales=(0.08,), regimes=("steady",), loads=(load,),
        steps=2, ratio=0.2, max_hops=2, verify_every=1, epochs=4, hidden_dim=8,
    )).cells[0]
    result = run_matrix_cell(cell)
    assert result["verified_checkpoints"] == 2
    assert result["mismatches"] == 1


def test_bench_streaming_fails_on_the_divergence(stale_refresh, monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(ROOT))
    import benchmarks.bench_streaming as bench
    import benchmarks.common as common

    monkeypatch.setattr(bench, "SCALE", 0.1)
    monkeypatch.setattr(common, "JSON_DIR", tmp_path)
    monkeypatch.setattr(common, "REPORT_DIR", tmp_path)
    assert bench.main() == 1
    assert "error: incremental condensation diverged" in capsys.readouterr().out
