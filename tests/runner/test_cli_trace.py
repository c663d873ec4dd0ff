"""``python -m repro trace``: record, report and flame."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.report import REPORT_SCHEMA
from repro.obs.spans import TRACE_SCHEMA_VERSION, read_trace
from repro.runner.cli import main

STREAM_ARGS = [
    "stream",
    "--dataset", "acm",
    "--ratio", "0.2",
    "--steps", "2",
    "--scale", "0.1",
    "--max-hops", "2",
    "--quiet",
]


@pytest.fixture(autouse=True)
def clean_tracer():
    yield
    obs.uninstall()


def run_cli(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


class TestTraceRecord:
    def test_records_inner_command_spans(self, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        code, out = run_cli(
            ["trace", "record", "--out", str(out_path), "--", *STREAM_ARGS], capsys
        )
        assert code == 0
        assert "recorded" in out and str(out_path) in out
        header, spans = read_trace(out_path)
        assert header["schema"] == TRACE_SCHEMA_VERSION
        assert spans
        names = {s.name for s in spans}
        assert "stream.step" in names
        assert "condense.pipeline" in names
        assert obs.active() is None  # uninstalled after the run

    def test_json_output_is_a_report(self, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        code, out = run_cli(
            ["trace", "record", "--json", "--out", str(out_path), "--", *STREAM_ARGS],
            capsys,
        )
        assert code == 0
        # the inner command owns stdout while it runs; the report JSON is
        # the final document
        obj = json.loads(out[out.index("\n{") :])
        assert obj["schema"] == REPORT_SCHEMA
        assert obj["spans"] > 0

    def test_explicit_trace_id_wins(self, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        code, _ = run_cli(
            ["trace", "record", "--trace-id", "my-run", "--out", str(out_path),
             "--", *STREAM_ARGS],
            capsys,
        )
        assert code == 0
        header, _ = read_trace(out_path)
        assert header["trace_id"] == "my-run"

    def test_empty_command_rejected(self, tmp_path, capsys):
        code = main(["trace", "record", "--out", str(tmp_path / "t.jsonl"), "--"])
        assert code != 0
        assert "needs a command" in capsys.readouterr().err

    def test_recursive_trace_rejected(self, tmp_path, capsys):
        code = main(
            ["trace", "record", "--out", str(tmp_path / "t.jsonl"),
             "--", "trace", "report", "x"]
        )
        assert code != 0
        capsys.readouterr()


class TestTraceReportFlame:
    @pytest.fixture()
    def recorded(self, tmp_path, capsys):
        out_path = tmp_path / "run.jsonl"
        assert main(["trace", "record", "--out", str(out_path), "--", *STREAM_ARGS]) == 0
        capsys.readouterr()
        return out_path

    def test_report_renders_tree(self, recorded, capsys):
        code, out = run_cli(["trace", "report", str(recorded)], capsys)
        assert code == 0
        assert "call tree" in out
        assert "stream.step" in out

    def test_report_json_schema(self, recorded, capsys):
        code, out = run_cli(["trace", "report", "--json", str(recorded)], capsys)
        assert code == 0
        assert json.loads(out)["schema"] == REPORT_SCHEMA

    def test_flame_collapsed_stacks(self, recorded, capsys):
        code, out = run_cli(["trace", "flame", str(recorded)], capsys)
        assert code == 0
        for line in out.strip().splitlines():
            stack, _, weight = line.rpartition(" ")
            assert stack and int(weight) > 0

    def test_report_missing_file_fails(self, capsys):
        assert main(["trace", "report", "/nonexistent/trace.jsonl"]) != 0
        capsys.readouterr()


class TestTraceFlagOnCommands:
    def test_stream_trace_flag_writes_file(self, tmp_path, capsys):
        """``trace record`` is the one way to trace a command; its default id
        comes from the recorded command's own parameters."""
        out_path = tmp_path / "stream.jsonl"
        code, _ = run_cli(
            ["trace", "record", "--out", str(out_path), "--", *STREAM_ARGS], capsys
        )
        assert code == 0
        header, spans = read_trace(out_path)
        assert header["trace_id"] == "stream-acm-s0"
        assert spans

    @pytest.mark.parametrize("command", ["sweep", "stream", "serve", "matrix"])
    def test_commands_take_no_trace_option(self, command, capsys):
        assert main([command, "--help"]) == 0
        assert "--trace" not in capsys.readouterr().out
