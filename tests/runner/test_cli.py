"""CLI tests: in-process command coverage plus a real ``python -m repro`` smoke."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.evaluation.pipeline import ExperimentConfig
from repro.runner.cli import _config, build_parser, main
from repro.runner.matrix import MatrixConfig
from repro.runner.plan import GeneralizationConfig, ServeConfig, StreamConfig

SRC = Path(__file__).resolve().parents[2] / "src"

SWEEP_ARGS = [
    "sweep",
    "--dataset", "acm",
    "--ratios", "0.2",
    "--methods", "random-hg",
    "--model", "heterosgc",
    "--scale", "0.1",
    "--seeds", "1",
    "--epochs", "10",
    "--hidden-dim", "8",
    "--max-hops", "2",
]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestOptionsDeclaredOnce:
    """Every option default is its config field's default."""

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["sweep", "--dataset", "acm", "--ratios", "0.1"],
             ExperimentConfig(dataset="acm", ratios=(0.1,))),
            (["generalize", "--dataset", "acm", "--ratio", "0.1"],
             GeneralizationConfig(dataset="acm", ratio=0.1)),
            (["stream", "--dataset", "acm", "--ratio", "0.1"],
             StreamConfig(dataset="acm", ratio=0.1)),
            (["serve", "--dataset", "acm", "--ratio", "0.1"],
             ServeConfig(dataset="acm", ratio=0.1)),
            (["matrix"], MatrixConfig()),
        ],
        ids=["sweep", "generalize", "stream", "serve", "matrix"],
    )
    def test_defaults_come_from_the_config(self, argv, config):
        assert _config(type(config), build_parser().parse_args(argv)) == config

    def test_inverted_flags_store_into_their_field(self):
        args = build_parser().parse_args(
            ["sweep", "--dataset", "acm", "--paper-loops", "--no-whole"]
        )
        assert args.fast_optimization is False and args.include_whole is False
        args = build_parser().parse_args(
            ["stream", "--dataset", "acm", "--ratio", "0.1",
             "--arrivals-every", "2", "--removals-every", "3"]
        )
        config = _config(StreamConfig, args)
        assert (config.node_arrival_every, config.removal_every) == (2, 3)


class TestStream:
    STREAM_ARGS = [
        "stream",
        "--dataset", "acm",
        "--ratio", "0.2",
        "--steps", "3",
        "--scale", "0.1",
        "--max-hops", "2",
        "--edge-churn", "0.002",
    ]

    def test_stream_replays_and_renders(self, capsys):
        code, out = run_cli(self.STREAM_ARGS, capsys)
        assert code == 0
        assert "Streaming condensation" in out
        assert "incremental" in out

    def test_stream_verification_passes(self, capsys):
        code, out = run_cli(self.STREAM_ARGS + ["--verify-every", "2"], capsys)
        assert code == 0
        assert "identical" in out
        assert "MISMATCH" not in out

    def test_stream_eval_reports_accuracy(self, capsys):
        code, out = run_cli(
            self.STREAM_ARGS + ["--eval-every", "3", "--epochs", "5", "--hidden-dim", "8"],
            capsys,
        )
        assert code == 0
        assert "accuracy" in out

    def test_stream_node_churn(self, capsys):
        code, out = run_cli(
            self.STREAM_ARGS
            + ["--arrivals-every", "2", "--removals-every", "3", "--verify-every", "1"],
            capsys,
        )
        assert code == 0
        assert "MISMATCH" not in out

    def test_stream_rejects_bad_steps(self, capsys):
        code, _ = run_cli(
            ["stream", "--dataset", "acm", "--ratio", "0.2", "--steps", "0"], capsys
        )
        assert code == 2


class TestSweep:
    def test_sweep_and_resume_render_identical_tables(self, tmp_path, capsys):
        args = SWEEP_ARGS + ["--store", str(tmp_path / "runs"), "--workers", "2"]
        code, first = run_cli(args, capsys)
        assert code == 0
        assert "Random-HG" in first and "Whole Dataset" in first
        assert "1 cached" not in first

        code, second = run_cli(args, capsys)
        assert code == 0
        assert "0 executed" in second
        # timings come from the store, so the rerun's table is byte-identical
        table = lambda text: text.split("Ratio sweep")[1]
        assert table(first) == table(second)

    def test_no_store_disables_resume(self, tmp_path, capsys):
        args = SWEEP_ARGS + ["--no-store", "--quiet"]
        code, out = run_cli(args, capsys)
        assert code == 0 and "Random-HG" in out

    def test_no_whole_and_output(self, tmp_path, capsys):
        out_file = tmp_path / "report.txt"
        args = SWEEP_ARGS + [
            "--no-store", "--quiet", "--no-whole", "--no-timings",
            "--output", str(out_file),
        ]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert "Whole Dataset" not in out
        assert "condense_s" not in out
        assert "Random-HG" in out_file.read_text()

    def test_markdown(self, capsys):
        code, out = run_cli(SWEEP_ARGS + ["--no-store", "--quiet", "--markdown"], capsys)
        assert code == 0 and "| dataset |" in out

    def test_unknown_dataset_is_a_clean_error(self, capsys):
        code = main(["sweep", "--dataset", "nope", "--no-store", "--quiet"])
        assert code == 2
        assert "unknown dataset" in capsys.readouterr().err

    def test_bad_max_hops_is_a_clean_error_before_any_cell_runs(self, capsys):
        code = main(SWEEP_ARGS[:3] + ["--max-hops", "0", "--no-store", "--quiet"])
        assert code == 2
        captured = capsys.readouterr()
        assert "max_hops" in captured.err
        assert "ran" not in captured.out  # rejected at plan time, nothing executed


class TestGeneralize:
    def test_generalize(self, tmp_path, capsys):
        args = [
            "generalize",
            "--dataset", "acm",
            "--ratio", "0.2",
            "--methods", "random-hg",
            "--models", "heterosgc,sehgnn",
            "--scale", "0.1",
            "--seeds", "1",
            "--epochs", "10",
            "--hidden-dim", "8",
            "--max-hops", "2",
            "--store", str(tmp_path / "runs"),
            "--quiet",
        ]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert "HETEROSGC" in out and "Condensed Avg." in out and "Whole Avg." in out


class TestReportAndList:
    def test_report_from_store(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(SWEEP_ARGS + ["--store", store, "--quiet"]) == 0
        capsys.readouterr()
        code, out = run_cli(["report", "--store", store, "--no-timings"], capsys)
        assert code == 0
        assert "Random-HG" in out and "model" in out

    def test_report_dataset_filter_is_alias_aware(self, tmp_path, capsys):
        store = str(tmp_path / "runs")
        assert main(SWEEP_ARGS + ["--store", store, "--quiet"]) == 0
        capsys.readouterr()
        code, out = run_cli(["report", "--store", store, "--dataset", "ACM"], capsys)
        assert code == 0 and "Random-HG" in out
        code, out = run_cli(["report", "--store", store, "--dataset", "dblp"], capsys)
        assert code == 0 and "Random-HG" not in out

    def test_report_empty_store(self, tmp_path, capsys):
        code, out = run_cli(["report", "--store", str(tmp_path / "empty")], capsys)
        assert code == 0 and "no artifacts" in out

    def test_list_all(self, capsys):
        code, out = run_cli(["list"], capsys)
        assert code == 0
        for needle in ("freehgc", "sehgnn", "acm", "nim", "criterion"):
            assert needle in out

    def test_list_single_registry(self, capsys):
        code, out = run_cli(["list", "condensers"], capsys)
        assert code == 0 and "hgcond" in out and "sehgnn" not in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro_smoke(self, tmp_path):
        """The documented entry point works end-to-end in a fresh process."""
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)}
        store = str(tmp_path / "runs")
        args = [sys.executable, "-m", "repro"] + SWEEP_ARGS + [
            "--workers", "2", "--store", store, "--quiet", "--no-timings",
        ]
        first = subprocess.run(args, capture_output=True, text=True, env=env, cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        assert "Random-HG" in first.stdout

        second = subprocess.run(args, capture_output=True, text=True, env=env, cwd=tmp_path)
        assert second.returncode == 0, second.stderr
        assert first.stdout == second.stdout  # resumed run renders identical bytes

    def test_cli_import_defers_streaming(self):
        """The commands import the streaming stack when they run, not before."""
        script = "import sys, repro.runner.cli; print(*sorted(sys.modules))"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        loaded = [name for name in out.stdout.split() if name.split(".")[0] == "repro"]
        assert "repro.runner.cli" in loaded and len(loaded) <= 85
        assert [name for name in loaded if name.startswith("repro.streaming")] == []

    def test_python_dash_m_repro_list(self, tmp_path):
        env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)}
        out = subprocess.run(
            [sys.executable, "-m", "repro", "list", "datasets"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0 and "acm" in out.stdout
