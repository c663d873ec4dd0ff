"""Scenario-matrix harness: {dataset × scale × churn regime × serving load}.

The three committed benches cover three hand-picked happy paths; the matrix
covers the cross product.  A declarative :class:`MatrixConfig` expands into
an :class:`~repro.runner.plan.ExperimentPlan` of frozen, content-hashed
:class:`MatrixCell` s (hashed like :class:`repro.runner.plan.Cell`); each
cell replays an adversarial or steady delta schedule through the
incremental condenser — optionally under a live
:class:`~repro.serving.hotswap.ServingController` answering predictions
between swaps — and verifies byte-identity against a fresh full
condensation.  Cells run through :func:`repro.runner.executor.execute_plan`
like every other plan, so they land in the shared
:class:`~repro.runner.cache.ArtifactStore`, fan out over ``--workers``,
and trace under ``runner.cell`` spans.  Interrupting the suite and
re-running it skips every completed cell (resume-zero-reexec), which is
what lets CI kill a run mid-suite and assert nothing re-executes.

Per-cell **regression gates** (:mod:`repro.runner.gates`) derived from the
committed ``BENCH_*.json`` baselines are evaluated over the consolidated
results: byte-identity everywhere it was verified, ratio/latency thresholds
where the baseline's preconditions hold, every outcome stamped with the
baseline's provenance.

``python -m repro matrix`` is the CLI entry point; see ``docs/testing.md``
for the taxonomy and how to add a regime.

Examples
--------
>>> from repro.runner.matrix import MatrixConfig, plan_matrix
>>> plan = plan_matrix(MatrixConfig(datasets=("acm",), scales=(0.1,),
...                                 regimes=("steady", "hub-deletion"),
...                                 loads=("none",), steps=2))
>>> len(plan), plan.cells[0].regime
(2, 'steady')
>>> plan.cells[0].key() == plan_matrix(MatrixConfig(datasets=("acm",),
...     scales=(0.1,), regimes=("steady", "hub-deletion"), loads=("none",),
...     steps=2)).cells[0].key()
True
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro import registry
from repro.datasets.adversarial import churn_regimes
from repro.errors import CanaryRejectedError, ConfigurationError
from repro.runner.executor import CellOutcome
from repro.runner.gates import Gate, evaluate_cell_gates
from repro.runner.plan import ExperimentPlan, HashedCell, ServeConfig, resolve_max_hops

__all__ = [
    "LOADS",
    "MatrixConfig",
    "MatrixCell",
    "plan_matrix",
    "run_matrix_cell",
    "consolidate",
]

#: serving-load levels and the queries issued per step under each
LOADS = ("none", "light", "heavy")
_QUERIES_PER_STEP = {"none": 0, "light": 32, "heavy": 256}
_QUERY_BATCH = 8


@dataclass(frozen=True)
class MatrixConfig:
    """Declarative description of one scenario matrix."""

    datasets: tuple[str, ...] = ("acm",)
    scales: tuple[float, ...] = (0.1,)
    regimes: tuple[str, ...] = churn_regimes()
    loads: tuple[str, ...] = ("none",)
    steps: int = 4
    ratio: float = 0.2
    seed: int = 0
    max_hops: int | None = None
    recondense_threshold: float = 0.05
    #: verify byte-identity every N steps (0 = final step only)
    verify_every: int = 0
    hidden_dim: int = 16
    epochs: int = 15
    model: str = "heterosgc"
    #: install a deterministic FaultInjector in serving-load cells
    inject_faults: bool = False

    def __post_init__(self) -> None:
        if not self.datasets:
            raise ConfigurationError("matrix needs at least one dataset")
        if not self.scales or any(s <= 0 for s in self.scales):
            raise ConfigurationError(f"scales must be positive, got {self.scales}")
        if not self.regimes:
            raise ConfigurationError("matrix needs at least one churn regime")
        known = set(churn_regimes())
        unknown = [r for r in self.regimes if r not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown churn regimes {unknown}; known: {sorted(known)}"
            )
        bad_loads = [l for l in self.loads if l not in LOADS]
        if not self.loads or bad_loads:
            raise ConfigurationError(f"loads must be drawn from {LOADS}, got {self.loads}")
        if self.steps < 1:
            raise ConfigurationError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.ratio <= 1.0:
            raise ConfigurationError(f"ratio must be in (0, 1], got {self.ratio}")
        if self.verify_every < 0:
            raise ConfigurationError("verify_every must be >= 0")


@dataclass(frozen=True)
class MatrixCell(HashedCell):
    """One self-contained matrix cell; hashes like :class:`repro.runner.plan.Cell`."""

    dataset: str
    scale: float
    regime: str
    load: str
    steps: int
    ratio: float
    seed: int
    max_hops: int
    recondense_threshold: float
    verify_every: int
    hidden_dim: int
    epochs: int
    model: str
    inject_faults: bool
    kind: str = "matrix"

    def label(self) -> str:
        """Human-oriented progress label."""
        return (
            f"{self.dataset}@{self.scale:g} {self.regime} load={self.load}"
            + (" +faults" if self.inject_faults and self.load != "none" else "")
        )

    def run(self, graph=None, *, use_memo: bool = True) -> dict:
        """Run the cell (see :func:`run_matrix_cell`).

        A matrix cell loads and mutates its own dataset, so it takes no
        graph override; it keeps no per-process memo, so ``use_memo``
        changes nothing.
        """
        if graph is not None:
            raise ConfigurationError("matrix cells load their own dataset; pass no graph")
        return run_matrix_cell(self)

    @staticmethod
    def load_result(payload: dict) -> dict:
        """Matrix results are consumed as the JSON-safe dict itself."""
        return dict(payload)


def plan_matrix(config: MatrixConfig) -> ExperimentPlan:
    """Expand ``config`` into the full dataset × scale × regime × load grid."""
    cells = []
    for dataset in config.datasets:
        max_hops = resolve_max_hops(dataset, config.max_hops)
        for scale in config.scales:
            for regime in config.regimes:
                for load in config.loads:
                    cells.append(
                        MatrixCell(
                            dataset=dataset,
                            scale=float(scale),
                            regime=regime,
                            load=load,
                            steps=config.steps,
                            ratio=float(config.ratio),
                            seed=config.seed,
                            max_hops=max_hops,
                            recondense_threshold=float(config.recondense_threshold),
                            verify_every=config.verify_every,
                            hidden_dim=config.hidden_dim,
                            epochs=config.epochs,
                            model=config.model,
                            inject_faults=bool(config.inject_faults),
                        )
                    )
    description = (
        f"{len(config.datasets)} datasets x {len(config.scales)} scales x "
        f"{len(config.regimes)} regimes x {len(config.loads)} loads"
    )
    return ExperimentPlan(cells=tuple(cells), description=description)


# --------------------------------------------------------------------------- #
# Cell execution
# --------------------------------------------------------------------------- #
def run_matrix_cell(cell: MatrixCell) -> dict:
    """Execute one cell; returns a JSON-safe result dict.

    Deterministic given the cell (dataset load, schedule generation,
    condensation and training are all seeded by ``cell.seed``); wall-clock
    fields are the only run-dependent values.
    """
    from repro.core.condenser import FreeHGC
    from repro.datasets.generators import generate_delta_schedule
    from repro.evaluation.timing import summarize_latencies
    from repro.streaming import IncrementalCondenser, replay, summarize
    from repro.utils import faults

    started = perf_counter()
    entry = registry.datasets.get(cell.dataset)
    graph = entry.loader(scale=cell.scale, seed=cell.seed)
    target_nodes = int(graph.num_nodes[graph.schema.target_type])
    schedule = generate_delta_schedule(
        graph,
        steps=cell.steps,
        seed=cell.seed,
        regime=cell.regime,
        regime_params=(
            None
            if cell.regime == "steady"
            else {"recondense_threshold": cell.recondense_threshold}
        ),
    )

    controller = None
    swap = None
    if cell.load == "none":
        incremental = IncrementalCondenser(
            graph,
            condenser=FreeHGC(max_hops=cell.max_hops),
            ratio=cell.ratio,
            recondense_threshold=cell.recondense_threshold,
            seed=cell.seed,
        )
    else:
        from repro.serving.canary import CanaryConfig

        controller = ServeConfig(
            dataset=cell.dataset,
            ratio=cell.ratio,
            scale=cell.scale,
            seed=cell.seed,
            max_hops=cell.max_hops,
            model=cell.model,
            hidden_dim=cell.hidden_dim,
            epochs=cell.epochs,
            recondense_threshold=cell.recondense_threshold,
        ).build_controller(
            graph,
            # Canary gate in blow-up-detection mode: adversarial regimes
            # legitimately move clean predictions after a retrain, so the
            # consistency floor is off; the finite check still rejects any
            # candidate whose training produced NaN/Inf logits, and the
            # canary-rejections matrix gate pins that count at zero.
            canary=CanaryConfig(size=32, min_consistency=0.0, seed=cell.seed),
        )
        incremental = controller.incremental

        def swap(delta):
            try:
                controller.apply_delta(delta)
            except CanaryRejectedError:
                # The candidate was rejected (non-finite logits) and the
                # previous session keeps serving.  Refusing the step keeps
                # the replica in sync and moves on: the canary-rejections
                # gate fails the cell from the recorded count instead of
                # crashing the whole suite run.
                return None
            return incremental.last_report

    injector = None
    if cell.inject_faults and controller is not None:
        # Deterministic per-cell fault plan: stretch every second hot-swap's
        # publish window so queries race a slow swap.
        injector = faults.FaultInjector(seed=cell.seed)
        injector.plan("hotswap.delay_publish", every=2, seconds=0.001)
        faults.install(injector)

    records = []
    latencies: list[float] = []
    prediction_failures = 0

    try:
        cold_start = perf_counter()
        if controller is None:
            incremental.condense()
        else:
            controller.start()
        cold_seconds = perf_counter() - cold_start

        # ``--verify-every 0`` verifies the final step only.
        verify_every = cell.verify_every or cell.steps
        for record in replay(incremental, schedule, verify_every=verify_every, step=swap):
            records.append(record)
            if controller is not None:
                session = controller.session
                per_step = _QUERIES_PER_STEP[cell.load]
                rng = np.random.default_rng([cell.seed, record.step])
                for issued in range(0, per_step, _QUERY_BATCH):
                    size = min(_QUERY_BATCH, per_step - issued)
                    ids = rng.integers(0, session.num_targets, size=size)
                    t0 = perf_counter()
                    predictions = session.predict(ids)
                    latencies.append(perf_counter() - t0)
                    expected = np.argmax(session.logits(ids), axis=1)
                    prediction_failures += int((predictions != expected).sum())
    finally:
        if injector is not None:
            faults.uninstall()

    modes = {"full": 0, "incremental": 0}
    for record in records:
        modes[record.mode] += 1
    dirty = [record.apply_report.dirty_targets for record in records]
    checkpoints = [record.identical for record in records if record.identical is not None]
    median_step, median_full, speedup = summarize(records)
    result: dict[str, object] = {
        "dataset": cell.dataset,
        "scale": cell.scale,
        "regime": cell.regime,
        "load": cell.load,
        "steps": cell.steps,
        "target_nodes": target_nodes,
        "modes": modes,
        "threshold_fallbacks": modes["full"],
        "max_edge_fraction": float(max((r.edge_fraction for r in records), default=0.0)),
        "dirty_targets_max": max((d.size for d in dirty if d is not None), default=0),
        "cold_condense_seconds": float(cold_seconds),
        "median_incremental_seconds": median_step,
        "median_full_seconds": median_full,
        "speedup": speedup,
        "verified_checkpoints": len(checkpoints),
        "mismatches": checkpoints.count(False),
        "queries": _QUERIES_PER_STEP[cell.load] * len(records),
        "prediction_failures": int(prediction_failures),
        "canary_evaluations": (
            len(controller.canary_history) if controller is not None else 0
        ),
        "canary_rejections": (
            int(controller.canary_rejections) if controller is not None else 0
        ),
        "latency_ms": (
            {
                key: value * 1e3
                for key, value in summarize_latencies(latencies).items()
                if key in ("p50", "p95", "p99", "mean", "max")
            }
            if latencies
            else {}
        ),
        "fault_fires": dict(injector.fires) if injector is not None else {},
        "elapsed_seconds": float(perf_counter() - started),
    }
    return result


def consolidate(outcomes: list[CellOutcome], gates: tuple[Gate, ...]) -> dict:
    """Assemble the consolidated suite report (JSON-safe).

    Per cell: the cell spec, its result, and every gate outcome.  The
    summary counts enforced-gate failures and byte-identity mismatches —
    the two conditions that fail the suite.
    """
    cells = []
    gate_failures = 0
    mismatches = 0
    for outcome in outcomes:
        cell_dict = outcome.cell.to_dict()
        evaluated = evaluate_cell_gates(cell_dict, outcome.result, gates)
        failed = [g for g in evaluated if g.enforced and g.passed is False]
        gate_failures += len(failed)
        mismatches += int(outcome.result.get("mismatches", 0) or 0)
        cells.append(
            {
                "key": outcome.cell.key(),
                "cell": cell_dict,
                "cached": outcome.cached,
                "elapsed_s": outcome.elapsed_s,
                "result": outcome.result,
                "gates": [g.to_dict() for g in evaluated],
                "failed_gates": [g.name for g in failed],
            }
        )
    return {
        "version": 1,
        "cells": cells,
        "gates": [gate.to_dict() for gate in gates],
        "summary": {
            "total": len(outcomes),
            "cached": sum(1 for o in outcomes if o.cached),
            "executed": sum(1 for o in outcomes if not o.cached),
            "verified_checkpoints": sum(
                int(o.result.get("verified_checkpoints", 0) or 0) for o in outcomes
            ),
            "mismatches": mismatches,
            "gate_failures": gate_failures,
            "passed": gate_failures == 0 and mismatches == 0,
        },
    }
