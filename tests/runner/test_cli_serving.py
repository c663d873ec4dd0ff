"""CLI coverage for the serving additions: serve, list --json, exit codes."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.runner.cli import main
from repro.runner.plan import ServeConfig

SRC = Path(__file__).resolve().parents[2] / "src"

SELFTEST_ARGS = [
    "serve",
    "--dataset", "acm",
    "--ratio", "0.2",
    "--scale", "0.1",
    "--max-hops", "2",
    "--epochs", "10",
    "--hidden-dim", "8",
    "--port", "0",
    "--selftest", "2",
]


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExitCodes:
    def test_unknown_subcommand_returns_2_without_traceback(self, capsys):
        assert main(["definitely-not-a-command"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_no_command_returns_2(self, capsys):
        assert main([]) == 2

    def test_help_returns_0(self, capsys):
        assert main(["--help"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_bad_option_value_returns_2(self, capsys):
        assert main(["sweep", "--dataset", "acm", "--ratios", "not-a-float"]) == 2

    def test_unknown_subcommand_subprocess_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "nosuch"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestListJson:
    def test_json_listing_is_valid_and_complete(self, capsys):
        code, out = run_cli(["list", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        for section in (
            "datasets", "condensers", "models",
            "target-stages", "other-stages", "serving",
        ):
            assert section in payload
        assert "freehgc" in payload["condensers"]
        assert payload["datasets"]["acm"]["max_hops"] >= 1
        assert payload["datasets"]["acm"]["paper_ratios"]

    def test_json_serving_section(self, capsys):
        code, out = run_cli(["list", "serving", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"serving"}
        serving = payload["serving"]
        assert "engine" in serving["components"]
        assert "replicated" in serving["components"]
        assert "wal" in serving["components"]
        assert "POST /predict" in serving["endpoints"]
        assert "GET /metrics" in serving["endpoints"]
        assert serving["subcommand"] == "python -m repro serve"

    def test_plain_listing_includes_serving(self, capsys):
        code, out = run_cli(["list"], capsys)
        assert code == 0
        assert "serving:" in out
        assert "InferenceSession" in out

    def test_single_registry_json(self, capsys):
        code, out = run_cli(["list", "models", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"models"}
        assert "heterosgc" in payload["models"]


class TestServeConfig:
    def test_rejects_bad_ratio(self):
        with pytest.raises(ReproError):
            ServeConfig(dataset="acm", ratio=0.0)

    def test_rejects_negative_cache(self):
        with pytest.raises(ReproError):
            ServeConfig(dataset="acm", ratio=0.1, cache_size=-1)

    def test_workers_require_wal(self):
        with pytest.raises(ReproError, match="--wal"):
            ServeConfig(dataset="acm", ratio=0.1, workers=2)
        ServeConfig(dataset="acm", ratio=0.1, workers=2, wal="/tmp/wal.log")

    def test_rejects_negative_replication_knobs(self):
        with pytest.raises(ReproError):
            ServeConfig(dataset="acm", ratio=0.1, workers=-1)
        with pytest.raises(ReproError):
            ServeConfig(dataset="acm", ratio=0.1, snapshot_every=-1)
        with pytest.raises(ReproError):
            ServeConfig(dataset="acm", ratio=0.1, max_pending=-1)
        with pytest.raises(ReproError):
            ServeConfig(dataset="acm", ratio=0.1, max_body_bytes=0)

    def test_bundle_key_is_stable_and_distinct(self):
        a = ServeConfig(dataset="acm", ratio=0.1)
        b = ServeConfig(dataset="acm", ratio=0.1)
        c = ServeConfig(dataset="acm", ratio=0.2)
        assert a.bundle_key() == b.bundle_key() != c.bundle_key()

    def test_recipe_canonicalises_the_model_name(self):
        config = ServeConfig(dataset="acm", ratio=0.2, scale=0.1, max_hops=2, model="SGC")
        controller = config.build_controller()
        assert controller.model_name == "heterosgc"
        assert controller.canary is None

    def test_replicated_genesis_spelling_is_pinned(self, tmp_path):
        # recover_from_wal refuses a log whose genesis differs, so existing
        # WALs only recover while this dict keeps its exact spelling.
        config = ServeConfig(
            dataset="acm", ratio=0.2, scale=0.1, model="SGC", workers=2,
            wal=str(tmp_path / "wal.log"),
        )
        server = config.replicated_server()
        assert server.genesis == {
            "dataset": "acm", "scale": 0.1, "seed": 0, "ratio": 0.2, "model": "SGC",
            "hidden_dim": 32, "epochs": 80, "max_hops": 3,
        }
        assert server.config.root == tmp_path and server.config.wal_filename == "wal.log"

    def test_replicated_unknown_dataset_fails_before_the_wal(self, tmp_path, capsys):
        argv = ["serve", "--dataset", "nope", "--ratio", "0.2", "--workers", "1",
                "--wal", str(tmp_path / "wal" / "wal.log")]
        assert main(argv) == 2
        assert "unknown dataset" in capsys.readouterr().err
        assert not (tmp_path / "wal").exists()


class TestServeBanner:
    def test_banner_lists_every_route(self, capsys, monkeypatch):
        from repro.serving.server import ServingServer

        async def return_at_once(self):
            return None

        monkeypatch.setattr(ServingServer, "serve_forever", return_at_once)
        code, out = run_cli(SELFTEST_ARGS[:-2], capsys)  # serve, not --selftest
        assert code == 0
        assert "(endpoints: /healthz /stats /metrics /predict /delta)" in out
        assert re.search(r"on http://127\.0\.0\.1:\d+ ", out)


class TestServeSelftest:
    def test_selftest_passes_end_to_end(self, capsys):
        code, out = run_cli(SELFTEST_ARGS, capsys)
        assert code == 0
        assert "0 failures" in out

    def test_selftest_fails_when_one_version_answers_a_flipped_label(
        self, capsys, monkeypatch
    ):
        from repro.serving.engine import InferenceSession

        predict = InferenceSession.predict

        def flip_version_2(self, node_ids):
            labels = predict(self, node_ids)
            return labels + 1 if self.version == 2 else labels

        monkeypatch.setattr(InferenceSession, "predict", flip_version_2)
        code = main(SELFTEST_ARGS)
        captured = capsys.readouterr()
        assert code == 1
        failures = int(re.search(r"selftest: \d+ requests, (\d+) failures", captured.out)[1])
        assert failures > 0
        assert f"error: serving selftest had {failures} failed/incorrect" in captured.err

    def test_selftest_with_bundle_store_warm_starts(self, tmp_path, capsys):
        args = SELFTEST_ARGS + ["--bundle-store", str(tmp_path / "bundles")]
        code, out = run_cli(args, capsys)
        assert code == 0
        assert "cold start" in out and "persisted bundle" in out
        code, out = run_cli(args, capsys)
        assert code == 0
        assert "warm-started from stored bundle" in out

    def test_bundle_store_versions_never_go_backwards(self, tmp_path, capsys):
        """A cold start over a non-empty store publishes above every stored
        version instead of overwriting one, and a warm start adopts the
        stored version number."""
        store = tmp_path / "bundles"
        args = SELFTEST_ARGS + ["--bundle-store", str(store)]
        code, out = run_cli(args, capsys)
        assert code == 0 and "version 1" in out
        (lineage,) = store.iterdir()
        first = lineage / "versions" / "v000001"
        logits = first / "logits.npy"
        damaged = bytearray(logits.read_bytes())
        damaged[-1] ^= 0xFF  # bit rot
        logits.write_bytes(bytes(damaged))
        code, out = run_cli(args, capsys)
        assert code == 0
        assert "starting cold" in out and "persisted bundle" in out and "version 2" in out
        assert logits.read_bytes() == damaged  # the earlier run's dir is untouched
        assert json.loads((lineage / "CURRENT").read_text())["version"] == 2
        code, out = run_cli(args, capsys)
        assert code == 0 and "warm-started from stored bundle" in out
        assert "persisted bundle" not in out
