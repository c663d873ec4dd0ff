"""Drive the experiment runner programmatically: plan, execute, resume.

The ``python -m repro`` CLI is a thin shell around the three calls shown
here.  The script:

1. expands an :class:`~repro.evaluation.pipeline.ExperimentConfig` into an
   explicit cell plan,
2. executes it across worker processes with a progress callback, storing
   every completed cell in an artifact store,
3. re-executes the same plan to demonstrate that the second pass is served
   entirely from the store (zero cells re-run),
4. renders the report rows from the returned evaluations.

Run with: ``python examples/parallel_sweep.py``
"""

from __future__ import annotations

import tempfile

from repro.evaluation import ExperimentConfig, format_table, sweep_columns
from repro.runner import ArtifactStore, execute_plan, plan_ratio_sweep


def main() -> None:
    config = ExperimentConfig(
        dataset="acm",
        ratios=(0.024, 0.048),
        methods=("random-hg", "herding-hg", "freehgc"),
        model="sehgnn",
        scale=0.2,
        seeds=2,
        epochs=40,
        hidden_dim=16,
    )
    plan = plan_ratio_sweep(config)
    print(f"plan: {plan.description}")
    for cell, key in zip(plan.cells, plan.keys()):
        print(f"  {key}  {cell.label()}")

    store = ArtifactStore(tempfile.mkdtemp(prefix="repro-runs-"))

    def progress(outcome, index, total) -> None:
        status = "cached" if outcome.cached else f"ran {outcome.elapsed_s:.2f}s"
        print(f"  [{index + 1}/{total}] {outcome.cell.label()}  {status}")

    print("\nfirst pass (4 workers):")
    outcomes = execute_plan(plan, workers=4, store=store, progress=progress)

    print("\nsecond pass (resumed from the store):")
    resumed = execute_plan(plan, workers=4, store=store, progress=progress)
    assert all(outcome.cached for outcome in resumed)

    rows = [outcome.result.as_row() for outcome in outcomes]
    print()
    print(format_table(rows, columns=sweep_columns(), title="Ratio sweep on ACM"))
    print(f"\nartifacts: {store.path}")


if __name__ == "__main__":
    main()
