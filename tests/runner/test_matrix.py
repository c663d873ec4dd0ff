"""Scenario-matrix harness: planning, resume-zero-reexec, gating, CLI."""

from __future__ import annotations

import json

import pytest

from repro.datasets.adversarial import churn_regimes
from repro.errors import ConfigurationError
from repro.runner import ArtifactStore, execute_plan
from repro.runner.executor import CellOutcome
from repro.runner.gates import derive_matrix_gates
from repro.runner.matrix import (
    MatrixCell,
    MatrixConfig,
    consolidate,
    plan_matrix,
    run_matrix_cell,
)

SMALL = dict(
    datasets=("acm",),
    scales=(0.08,),
    regimes=("steady", "hub-deletion"),
    loads=("none",),
    steps=2,
    ratio=0.2,
    max_hops=2,
)


def small_config(**overrides):
    return MatrixConfig(**{**SMALL, **overrides})


class TestPlanning:
    def test_grid_expansion_and_order(self):
        config = MatrixConfig(
            datasets=("acm", "dblp"),
            scales=(0.1, 0.2),
            regimes=("steady", "burst-arrival"),
            loads=("none", "light"),
            max_hops=2,
        )
        plan = plan_matrix(config)
        assert len(plan) == 2 * 2 * 2 * 2
        # Loads vary fastest, datasets slowest.
        assert plan.cells[0].load == "none" and plan.cells[1].load == "light"
        assert plan.cells[0].dataset == plan.cells[7].dataset == "acm"
        assert plan.cells[8].dataset == "dblp"
        assert "2 datasets x 2 scales x 2 regimes x 2 loads" == plan.description

    def test_keys_stable_and_unique(self):
        plan_a = plan_matrix(small_config())
        plan_b = plan_matrix(small_config())
        assert plan_a.keys() == plan_b.keys()
        assert len(set(plan_a.keys())) == len(plan_a)
        assert all(len(k) == 16 for k in plan_a.keys())

    def test_key_changes_with_any_knob(self):
        base = plan_matrix(small_config()).cells[0]
        reseeded = plan_matrix(small_config(seed=1)).cells[0]
        assert base.key() != reseeded.key()

    def test_cell_round_trips_through_dict(self):
        cell = plan_matrix(small_config()).cells[1]
        clone = MatrixCell.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert clone == cell
        assert clone.key() == cell.key()

    def test_max_hops_resolved_per_dataset(self):
        plan = plan_matrix(
            MatrixConfig(datasets=("acm",), regimes=("steady",), max_hops=None)
        )
        assert plan.cells[0].max_hops >= 1

    def test_default_regimes_are_the_cli_order(self):
        # `matrix` without --regimes runs churn_regimes(); the config agrees.
        assert MatrixConfig().regimes == churn_regimes()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(regimes=("no-such-regime",))
        with pytest.raises(ConfigurationError):
            small_config(loads=("extreme",))
        with pytest.raises(ConfigurationError):
            small_config(steps=0)
        with pytest.raises(ConfigurationError):
            small_config(scales=())


class TestCellExecution:
    def test_no_load_cell_verifies_byte_identity(self):
        plan = plan_matrix(small_config())
        result = run_matrix_cell(plan.cells[0])
        assert result["regime"] == "steady"
        assert result["verified_checkpoints"] == 1
        assert result["mismatches"] == 0
        assert result["queries"] == 0
        assert result["latency_ms"] == {}
        assert result["modes"]["full"] + result["modes"]["incremental"] == 2

    def test_graph_override_rejected(self):
        cell = plan_matrix(small_config()).cells[0]
        with pytest.raises(ConfigurationError, match="own dataset"):
            cell.run(object())

    def test_result_is_json_safe(self):
        plan = plan_matrix(small_config())
        json.dumps(run_matrix_cell(plan.cells[1]))  # must not raise

    def test_serving_load_cell_answers_queries(self):
        config = small_config(
            regimes=("burst-arrival",),
            loads=("light",),
            epochs=4,
            hidden_dim=8,
            inject_faults=True,
        )
        cell = plan_matrix(config).cells[0]
        assert cell.label().endswith("+faults")
        result = run_matrix_cell(cell)
        assert result["queries"] == 2 * 32  # 2 steps x light load
        assert result["prediction_failures"] == 0
        assert result["mismatches"] == 0
        assert set(result["latency_ms"]) == {"p50", "p95", "p99", "mean", "max"}
        # The per-cell fault plan (delay every 2nd swap) actually fired.
        assert result["fault_fires"].get("hotswap.delay_publish", 0) >= 1


class TestResume:
    def test_resume_zero_reexec(self, tmp_path):
        plan = plan_matrix(small_config())
        store = ArtifactStore(tmp_path / "runs")
        first = execute_plan(plan, store=store)
        assert [o.cached for o in first] == [False, False]
        second = execute_plan(plan, store=store)
        assert [o.cached for o in second] == [True, True]
        # Byte-for-byte the same results, straight from the store.
        assert [o.result for o in second] == [o.result for o in first]

    def test_partial_resume_runs_only_missing_cells(self, tmp_path):
        plan = plan_matrix(small_config())
        store = ArtifactStore(tmp_path / "runs")
        # Simulate a killed suite: only the first cell completed.
        only_first = plan_matrix(small_config(regimes=("steady",)))
        execute_plan(only_first, store=store)
        seen = []
        outcomes = execute_plan(
            plan, store=store, progress=lambda o, i, n: seen.append(o.cached)
        )
        assert [o.cached for o in outcomes] == [True, False]
        assert seen == [True, False]  # cached reported first, in plan order

    def test_force_reexecutes_everything(self, tmp_path):
        plan = plan_matrix(small_config())
        store = ArtifactStore(tmp_path / "runs")
        execute_plan(plan, store=store)
        forced = execute_plan(plan, store=store, force=True)
        assert [o.cached for o in forced] == [False, False]

    def test_no_store_runs_everything(self):
        plan = plan_matrix(small_config(regimes=("steady",)))
        outcomes = execute_plan(plan)
        assert [o.cached for o in outcomes] == [False]

    def test_parallel_elapsed_is_each_cells_own_run_time(self, tmp_path):
        # Each outcome times its own cell where it ran, not the wait on its
        # future, so no cell can report less than the work it did.
        plan = plan_matrix(
            small_config(
                scales=(0.1,),
                regimes=("steady", "hub-deletion", "burst-arrival", "skewed-types"),
            )
        )
        store = ArtifactStore(tmp_path / "runs")
        outcomes = execute_plan(plan, store=store, workers=2)
        assert [o.cell for o in outcomes] == list(plan.cells)
        for outcome in outcomes:
            assert outcome.elapsed_s >= outcome.result["elapsed_seconds"] > 0
        stored = {r["key"]: r["meta"]["elapsed_s"] for r in store.records()}
        for outcome in outcomes:
            assert stored[outcome.cell.key()] == round(outcome.elapsed_s, 6)


class TestConsolidatedReport:
    def test_report_structure_and_summary(self, tmp_path):
        plan = plan_matrix(small_config())
        store = ArtifactStore(tmp_path / "runs")
        outcomes = execute_plan(plan, store=store)
        gates = derive_matrix_gates(".")  # repo root holds the baselines
        report = consolidate(outcomes, gates)
        assert report["version"] == 1
        assert len(report["cells"]) == 2
        assert len(report["gates"]) == len(gates) >= 3
        for entry in report["cells"]:
            assert entry["key"] == MatrixCell.from_dict(entry["cell"]).key()
            assert {g["name"] for g in entry["gates"]} == {g.name for g in gates}
            assert entry["failed_gates"] == []
        summary = report["summary"]
        assert summary["total"] == 2
        assert summary["executed"] == 2
        assert summary["mismatches"] == 0
        assert summary["gate_failures"] == 0
        assert summary["passed"] is True
        json.dumps(report)  # JSON-safe end to end

    def test_byte_identity_gate_enforced_where_verified(self, tmp_path):
        plan = plan_matrix(small_config(regimes=("steady",)))
        outcomes = execute_plan(plan)
        gates = derive_matrix_gates(".")
        report = consolidate(outcomes, gates)
        by_name = {g["name"]: g for g in report["cells"][0]["gates"]}
        assert by_name["byte-identity"]["enforced"] is True
        assert by_name["byte-identity"]["passed"] is True
        # Tiny CI-scale cell: the speedup ratio is recorded, not enforced.
        assert by_name["incremental-speedup"]["enforced"] is False

    def test_mismatch_fails_the_suite(self):
        plan = plan_matrix(small_config(regimes=("steady",)))
        outcomes = execute_plan(plan)
        outcomes[0].result["mismatches"] = 1  # simulate a divergence
        report = consolidate(outcomes, derive_matrix_gates("."))
        assert report["summary"]["passed"] is False

    @pytest.mark.parametrize("invariant", ["prediction_failures", "canary_rejections"])
    def test_serving_invariants_fail_the_suite_without_gates(
        self, invariant, monkeypatch, capsys
    ):
        """``matrix --no-gates`` consolidates with no gates: a serving-load
        cell with one wrong prediction or one canary rejection still fails,
        and its row names the failed invariant."""
        from repro.runner import cli

        (cell,) = plan_matrix(small_config(regimes=("steady",), loads=("light",))).cells
        outcome = CellOutcome(cell=cell, result={invariant: 1}, cached=False, elapsed_s=0.0)
        report = consolidate([outcome], ())
        assert report["summary"][invariant] == 1
        assert report["summary"]["passed"] is False
        assert report["cells"][0]["failed_invariants"] == [invariant]

        monkeypatch.setattr(cli, "_run_plan", lambda plan, args: [outcome])
        argv = ["matrix", "--datasets", "acm", "--scales", "0.08", "--regimes", "steady",
                "--loads", "light", "--no-gates", "--no-store", "--quiet"]
        assert cli.main(argv) == 1
        assert f"FAIL:{invariant}" in capsys.readouterr().out


class TestCLI:
    def test_matrix_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.runner.cli import main

        store = tmp_path / "runs"
        argv = [
            "matrix",
            "--datasets", "acm",
            "--scales", "0.08",
            "--regimes", "steady",
            "--loads", "none",
            "--steps", "2",
            "--max-hops", "2",
            "--store", str(store),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "ran" in out and "matrix summary" in out
        report = json.loads((store / "matrix_report.json").read_text())
        assert report["summary"]["passed"] is True
        # Second invocation resumes without re-executing.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cached" in out and " ran " not in out

    def test_no_timings_is_byte_stable(self, capsys):
        from repro.runner.cli import main

        argv = [
            "matrix",
            "--datasets", "acm",
            "--scales", "0.1",
            "--regimes", "steady",
            "--loads", "none,light",
            "--steps", "2",
            "--ratio", "0.2",
            "--max-hops", "2",
            "--epochs", "4",
            "--hidden-dim", "8",
            "--verify-every", "1",
            "--no-store", "--quiet", "--no-timings",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "speedup" not in outputs[0] and "p95_ms" not in outputs[0]
        assert "identical" in outputs[0]
