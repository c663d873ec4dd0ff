"""CLI surface of ``python -m repro lint`` (and the ``list`` integration)."""

from __future__ import annotations

import json

import pytest

from repro.runner.cli import main

BAD_RNG = "import numpy as np\nrng = np.random.default_rng()\n"
CLEAN = "x = 1\n"


@pytest.fixture()
def bad_tree(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(BAD_RNG, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_lint_clean_tree_exits_zero(tmp_path, monkeypatch, capsys):
    (tmp_path / "mod.py").write_text(CLEAN, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "."]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_lint_findings_exit_one_with_location(bad_tree, capsys):
    assert main(["lint", "."]) == 1
    out = capsys.readouterr().out
    assert "REP-D101" in out and "mod.py:2:" in out


def test_lint_json_matches_schema(bad_tree, capsys):
    assert main(["lint", ".", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == 1
    assert payload["stats"]["findings"] == 1
    assert payload["findings"][0]["rule"] == "REP-D101"


def test_lint_rules_filter(bad_tree, capsys):
    # U201 alone does not fire on this tree
    assert main(["lint", ".", "--rules", "REP-U201"]) == 0
    # alias works and finds the RNG call
    assert main(["lint", ".", "--rules", "unseeded-rng"]) == 1


def test_lint_unknown_rule_exits_two(bad_tree, capsys):
    assert main(["lint", ".", "--rules", "no-such-rule"]) == 2
    assert "error:" in capsys.readouterr().err


def test_lint_missing_target_exits_two(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lint", "absent-dir"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_lint_stats_table(bad_tree, capsys):
    assert main(["lint", ".", "--stats"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[0] == "rule"
    assert any(line.startswith("REP-D101") for line in out.splitlines())


def test_lint_selftest_ok(bad_tree, capsys):
    from repro.lint.rules import all_rules

    assert main(["lint", "--selftest"]) == 0
    assert f"all {len(all_rules())} rules" in capsys.readouterr().out


def test_lint_list_rules(bad_tree, capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "REP-D101" in out and "REP-U201" in out


def test_lint_list_rules_json(bad_tree, capsys):
    assert main(["lint", "--list-rules", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = [rule["id"] for rule in payload["rules"]]
    assert "REP-D101" in ids and len(ids) >= 9


def test_lint_update_baseline_round_trip(bad_tree, capsys):
    baseline = bad_tree / "baseline.json"
    assert main(["lint", ".", "--baseline", str(baseline), "--update-baseline"]) == 0
    assert baseline.exists()
    capsys.readouterr()
    # with the baseline in place the same tree lints clean
    assert main(["lint", ".", "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out


def test_lint_default_baseline_discovered(bad_tree, capsys):
    """tools/reprolint_baseline.json is picked up from the cwd when present."""
    tools = bad_tree / "tools"
    tools.mkdir()
    assert main(["lint", ".", "--update-baseline"]) == 0
    assert (tools / "reprolint_baseline.json").exists()
    capsys.readouterr()
    assert main(["lint", "."]) == 0


def test_lint_explicit_missing_baseline_exits_two(bad_tree, capsys):
    assert main(["lint", ".", "--baseline", "absent.json"]) == 2
    assert "baseline" in capsys.readouterr().err


def test_list_includes_lint_section(capsys):
    assert main(["list", "lint"]) == 0
    assert "REP-D101" in capsys.readouterr().out


def test_list_json_includes_lint_rules(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lint"]["subcommand"] == "python -m repro lint"
    assert "REP-U201" in payload["lint"]["rules"]
    assert payload["lint"]["rules"]["REP-U201"]["severity"] == "error"
