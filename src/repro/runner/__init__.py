"""Parallel, resumable experiment runner.

The runner decomposes the paper's tables into independent, hashable work
cells (:mod:`repro.runner.plan`), executes them serially or across a process
pool with deterministic seeding (:mod:`repro.runner.executor`), and caches
every completed cell in a JSON-lines artifact store keyed by a stable cell
hash (:mod:`repro.runner.cache`) so interrupted runs resume where they
stopped.  :mod:`repro.runner.cli` exposes the whole stack as
``python -m repro``.

The high-level facades
:func:`repro.evaluation.pipeline.run_ratio_sweep` and
:func:`repro.evaluation.pipeline.run_generalization_study` are thin wrappers
over this package, so library callers get the same numbers whichever entry
point they use.

Examples
--------
>>> from repro.evaluation import ExperimentConfig
>>> from repro.runner import plan_ratio_sweep
>>> plan = plan_ratio_sweep(ExperimentConfig(dataset="acm", ratios=(0.05,),
...                                          methods=("random-hg",)))
>>> len(plan)
2
"""

from repro.runner.cache import ArtifactStore
from repro.runner.executor import CellOutcome, execute_plan
from repro.runner.gates import (
    Gate,
    GateOutcome,
    derive_matrix_gates,
    evaluate_cell_gates,
    read_baseline,
)
from repro.runner.matrix import (
    MatrixCell,
    MatrixConfig,
    consolidate,
    plan_matrix,
    run_matrix_cell,
)
from repro.runner.plan import (
    Cell,
    ExperimentPlan,
    GeneralizationConfig,
    StreamConfig,
    assemble_generalization_rows,
    plan_generalization,
    plan_ratio_sweep,
)

__all__ = [
    "ArtifactStore",
    "Cell",
    "CellOutcome",
    "ExperimentPlan",
    "Gate",
    "GateOutcome",
    "GeneralizationConfig",
    "MatrixCell",
    "MatrixConfig",
    "StreamConfig",
    "assemble_generalization_rows",
    "consolidate",
    "derive_matrix_gates",
    "evaluate_cell_gates",
    "execute_plan",
    "plan_generalization",
    "plan_matrix",
    "plan_ratio_sweep",
    "read_baseline",
    "run_matrix_cell",
]
