"""High-level experiment driver used by the benchmark harness and examples.

Wraps the low-level protocol (:mod:`repro.evaluation.protocol`) with the
bookkeeping every table of the paper needs: dataset loading at a chosen
scale, instantiating condensers and evaluation models by name with
dataset-appropriate hyper-parameters, sweeping condensation ratios, and
collecting report rows.

Since the runner subsystem landed, :func:`run_ratio_sweep` and
:func:`run_generalization_study` are thin facades over
:mod:`repro.runner` — the same plans the ``python -m repro`` CLI executes —
gaining parallel workers and store-backed resumability while keeping their
historical signatures and serial result ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import registry
from repro.baselines import GraphCondenser
from repro.datasets.registry import DATASETS
from repro.evaluation.protocol import MethodEvaluation
from repro.hetero.graph import HeteroGraph
from repro.models import HGNNClassifier
from repro.utils.validation import check_max_hops

__all__ = [
    "ExperimentConfig",
    "make_condenser",
    "make_model_factory",
    "run_ratio_sweep",
    "run_generalization_study",
    "CONDENSER_NAMES",
]

#: Canonical condenser names, in the paper's comparison order.  The single
#: source of truth is :data:`repro.registry.condensers`; this tuple is kept
#: for backwards compatibility with older callers.
CONDENSER_NAMES = (
    "random-hg",
    "herding-hg",
    "k-center-hg",
    "coarsening-hg",
    "gcond",
    "hgcond",
    "freehgc",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of one ratio-sweep experiment (a Table III-style block)."""

    dataset: str
    ratios: tuple[float, ...]
    methods: tuple[str, ...] = ("random-hg", "herding-hg", "hgcond", "freehgc")
    model: str = "sehgnn"
    scale: float = 0.35
    seeds: int = 2
    base_seed: int = 0
    hidden_dim: int = 32
    epochs: int = 80
    max_hops: int | None = None
    include_whole: bool = True
    fast_optimization: bool = True
    extra_model_kwargs: dict[str, object] = field(default_factory=dict)

    def resolved_max_hops(self) -> int:
        """Meta-path hop limit: explicit value or the dataset's paper default."""
        if self.max_hops is not None:
            return self.max_hops
        entry = DATASETS.get(self.dataset.lower())
        return min(entry.max_hops, 3) if entry is not None else 2


def make_condenser(
    name: str, *, max_hops: int = 2, fast_optimization: bool = True, **overrides: object
) -> GraphCondenser:
    """Instantiate a condenser (FreeHGC or baseline) with sensible defaults.

    Thin wrapper over :data:`repro.registry.condensers`; ``name`` may be any
    registered name or alias.  ``fast_optimization`` shrinks the nested
    loops of the optimisation-based baselines so benchmark runs finish
    quickly; the paper-scale loop sizes are used when it is False.
    """
    factory = registry.condensers.get(name)
    return factory(max_hops=max_hops, fast_optimization=fast_optimization, **overrides)


def make_model_factory(
    model: str,
    *,
    hidden_dim: int = 32,
    epochs: int = 80,
    max_hops: int = 2,
    seed: int = 0,
    **extra: object,
) -> Callable[[], HGNNClassifier]:
    """Return a zero-argument factory building the named evaluation HGNN.

    ``model`` may be any name or alias registered in
    :data:`repro.registry.models`.

    ``max_hops`` is honoured as given (it used to be silently clamped to 2).
    The supported range is ``1 <= max_hops <= 5``, matching the paper's
    per-dataset hop limits; the number of meta-paths grows quickly with the
    hop count but is bounded by the models' ``max_paths`` cap (16 by
    default), so hop counts above 2 trade training time for longer-range
    semantics rather than exploding memory.
    """
    model_cls = registry.models.get(model)
    max_hops = check_max_hops(max_hops)

    def factory() -> HGNNClassifier:
        return model_cls(
            hidden_dim=hidden_dim,
            epochs=epochs,
            max_hops=max_hops,
            seed=seed,
            **extra,
        )

    return factory


def run_ratio_sweep(
    config: ExperimentConfig,
    *,
    graph: HeteroGraph | None = None,
    workers: int = 1,
    store: object = None,
    force: bool = False,
) -> list[MethodEvaluation]:
    """Run every (method, ratio) cell of ``config`` and return all evaluations.

    Thin facade over the experiment runner: the config is expanded into
    independent cells (:func:`repro.runner.plan.plan_ratio_sweep`) which are
    executed serially or in parallel (:func:`repro.runner.executor.execute_plan`).

    Parameters
    ----------
    config:
        The sweep definition.
    graph:
        Pre-loaded graph override (skips dataset loading; incompatible with
        ``store`` and parallel workers).
    workers:
        Worker processes; ``1`` (default) keeps the historical serial,
        in-process behaviour.
    store:
        Optional :class:`~repro.runner.cache.ArtifactStore` (or directory
        path) — completed cells found in it are skipped, fresh ones appended.
    force:
        Re-run cells even when ``store`` already has their results.

    Returns
    -------
    list of MethodEvaluation
        One per (ratio, method) cell in ratio-major order, plus the
        whole-graph reference when ``config.include_whole`` is set — the
        exact order the pre-runner serial implementation produced.
    """
    from repro.runner.executor import execute_plan
    from repro.runner.plan import plan_ratio_sweep

    # With an injected graph the dataset string is a pure label (historical
    # behaviour) — don't require it to name a registered dataset.
    plan = plan_ratio_sweep(config, validate_dataset=graph is None)
    outcomes = execute_plan(plan, graph=graph, workers=workers, store=store, force=force)
    return [outcome.result for outcome in outcomes]


def run_generalization_study(
    dataset: str,
    ratio: float,
    *,
    methods: Sequence[str] = ("herding-hg", "hgcond", "freehgc"),
    models: Sequence[str] = ("hgb", "hgt", "han", "sehgnn"),
    scale: float = 0.35,
    seeds: int = 1,
    base_seed: int = 0,
    hidden_dim: int = 32,
    epochs: int = 80,
    graph: HeteroGraph | None = None,
    workers: int = 1,
    store: object = None,
    force: bool = False,
) -> list[dict[str, object]]:
    """Table IV: evaluate every method's condensed graph on several HGNNs.

    Facade over the experiment runner
    (:func:`repro.runner.plan.plan_generalization` +
    :func:`repro.runner.executor.execute_plan`): each (method, model) pair is
    an independent cell, and the models of one method row share a single
    condensation per trial instead of re-condensing per model.  ``workers``,
    ``store`` and ``force`` behave as in :func:`run_ratio_sweep`.

    Returns one row per method with per-model accuracies, the condensed
    average and the whole-graph average.
    """
    from repro.runner.executor import execute_plan
    from repro.runner.plan import (
        GeneralizationConfig,
        assemble_generalization_rows,
        plan_generalization,
    )

    config = GeneralizationConfig(
        dataset=dataset,
        ratio=ratio,
        methods=tuple(methods),
        models=tuple(models),
        scale=scale,
        seeds=seeds,
        base_seed=base_seed,
        hidden_dim=hidden_dim,
        epochs=epochs,
    )
    plan = plan_generalization(config, validate_dataset=graph is None)
    outcomes = execute_plan(plan, graph=graph, workers=workers, store=store, force=force)
    evaluations = {key: outcome.result for key, outcome in zip(plan.keys(), outcomes)}
    return assemble_generalization_rows(config, evaluations, plan=plan)
