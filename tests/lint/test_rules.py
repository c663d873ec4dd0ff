"""Per-rule fixture tests: every rule fires on bad, stays silent on good.

The bad/good snippets live on the rule classes themselves (they also power
``python -m repro lint --selftest``), so this module is automatically
parametrized over every registered rule — a new rule without working
fixtures fails here on the day it lands.
"""

from __future__ import annotations

import pytest

from repro.lint import all_rules, lint_source, selftest

RULES = all_rules()
RULE_IDS = [rule.id for rule in RULES]


def findings_for(rule, source):
    return [
        f
        for f in lint_source(source, path=rule.example_path, rules=[rule.id])
        if f.rule == rule.id
    ]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_fires_on_bad_example(rule):
    hits = findings_for(rule, rule.bad_example)
    assert hits, f"{rule.id} did not fire on its bad example"
    assert all(f.severity == rule.severity for f in hits)
    assert all(f.path == rule.example_path for f in hits)


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_silent_on_good_example(rule):
    assert findings_for(rule, rule.good_example) == []


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_good_examples_are_fully_clean(rule):
    """Good fixtures model the sanctioned idiom — no *other* rule may fire."""
    hits = lint_source(rule.good_example, path=rule.example_path)
    assert hits == [], [f.render() for f in hits]


@pytest.mark.parametrize("rule", RULES, ids=RULE_IDS)
def test_rule_metadata_complete(rule):
    assert rule.id.startswith("REP-")
    assert rule.invariant, f"{rule.id} must document its invariant"
    assert rule.severity in ("error", "warning")
    described = rule.describe()
    assert described["id"] == rule.id
    assert described["invariant"] == rule.invariant


def test_selftest_passes():
    assert selftest() == []


def test_rule_scope_respected():
    """A scoped rule never fires outside its directories."""
    for rule in RULES:
        if not rule.scope:
            continue
        hits = lint_source(
            rule.bad_example, path="repro/elsewhere/example.py", rules=[rule.id]
        )
        assert hits == [], f"{rule.id} fired outside its scope"


def test_determinism_exemption_for_rng_module():
    """utils/rng.py is the sanctioned RNG funnel — REP-D101 skips it."""
    source = "import numpy as np\nrng = np.random.default_rng()\n"
    assert lint_source(source, path="repro/utils/rng.py", rules=["REP-D101"]) == []
    assert lint_source(source, path="repro/core/x.py", rules=["REP-D101"]) != []


def test_durability_exemption_for_durable_module():
    """utils/durable.py is the one module allowed to rename — REP-U201 skips it."""
    source = "import os\ndef publish(tmp, final):\n    os.replace(tmp, final)\n"
    assert lint_source(source, path="repro/utils/durable.py", rules=["REP-U201"]) == []
    assert lint_source(source, path="repro/obs/x.py", rules=["REP-U201"]) != []


def test_durable_primitives_block_the_event_loop():
    """Moving fsyncs behind repro.utils.durable must not hide them from REP-A401."""
    source = (
        "from repro.utils.durable import atomic_dir, atomic_write, durable_rename\n"
        "async def handler(path):\n"
        "    atomic_write(path, b'')\n"
        "    atomic_dir(path, {})\n"
        "    durable_rename(path, path)\n"
    )
    hits = lint_source(source, path="repro/serving/x.py", rules=["REP-A401"])
    assert [hit.line for hit in hits] == [3, 4, 5]


def test_rules_resolve_by_alias():
    from repro.lint.rules import resolve_rules

    by_alias = resolve_rules(["unseeded-rng"])
    assert [r.id for r in by_alias] == ["REP-D101"]
    # case-insensitive id lookup, deduplicated with its alias
    both = resolve_rules(["rep-d101", "UNSEEDED-RNG"])
    assert [r.id for r in both] == ["REP-D101"]


def test_unknown_rule_raises_registry_error():
    from repro.errors import ReproError
    from repro.lint.rules import resolve_rules

    with pytest.raises(ReproError):
        resolve_rules(["no-such-rule"])
