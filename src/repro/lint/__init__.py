"""``reprolint`` — the repo-invariant static-analysis pass.

Every guarantee this reproduction ships — byte-identical selection,
crash-consistent WAL publishes, derived forms owned by their
``PackedAdjacency`` (never ``_repro_*`` attributes on a matrix), an
unblocked serving event loop — is encoded here as an AST rule, so
violations are caught at review time instead of by a chaos drill.

Entry points:

* ``python -m repro lint [paths]`` — the CLI (see ``repro.runner.cli``);
* :func:`repro.lint.run_lint` — the engine, shared by CLI / tests / CI;
* :data:`repro.lint.rules.rules` — the rule registry (pluggable like every
  other ``repro.registry.Registry``).

See ``docs/linting.md`` for the rule catalogue and suppression policy.
"""

from repro.lint.baseline import Baseline, BaselineEntry
from repro.lint.engine import LintReport, lint_source, run_lint, selftest
from repro.lint.findings import Finding, Severity, fingerprint
from repro.lint.rules import LintRule, all_rules, rules
from repro.lint.suppress import Suppression, SuppressionTable

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LintReport",
    "LintRule",
    "Severity",
    "Suppression",
    "SuppressionTable",
    "all_rules",
    "fingerprint",
    "lint_source",
    "rules",
    "run_lint",
    "selftest",
]
