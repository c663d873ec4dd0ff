"""Cell planner: expand experiment configs into independent work cells.

The paper's tables are grids of independent ``(dataset, method, ratio,
model, seed)`` cells; this module turns the declarative configs
(:class:`~repro.evaluation.pipeline.ExperimentConfig` for Table III sweeps,
:class:`GeneralizationConfig` for Table IV grids) into an explicit
:class:`ExperimentPlan` — an ordered tuple of :class:`Cell` records that the
executor (:mod:`repro.runner.executor`) can run in any order, in any number
of processes, and that the artifact store (:mod:`repro.runner.cache`) can
key by a stable content hash.

A cell is *self-contained*: it names the dataset (loaded deterministically
from ``(dataset, scale, base_seed)``), the condensation method, the
evaluation model and every hyper-parameter, so two processes that ever build
the same cell compute the same :func:`Cell.key`.

Examples
--------
>>> from repro.evaluation.pipeline import ExperimentConfig
>>> from repro.runner.plan import plan_ratio_sweep
>>> plan = plan_ratio_sweep(ExperimentConfig(dataset="acm", ratios=(0.05,),
...                                          methods=("random-hg",), seeds=1))
>>> [cell.kind for cell in plan]
['evaluate', 'whole']
>>> plan.cells[0].method, plan.cells[0].ratio
('random-hg', 0.05)
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Iterator

from repro import registry
from repro.errors import ReproError
from repro.utils.validation import check_max_hops

__all__ = [
    "Cell",
    "ExperimentPlan",
    "GeneralizationConfig",
    "ServeConfig",
    "StreamConfig",
    "plan_ratio_sweep",
    "plan_generalization",
    "assemble_generalization_rows",
]

def resolve_max_hops(dataset: str, max_hops: int | None) -> int:
    """Hop limit shared by every config: explicit value wins, otherwise the
    dataset's paper default capped at 3 (unknown datasets fall back to 2)."""
    if max_hops is not None:
        return max_hops
    from repro.datasets.registry import DATASETS

    entry = DATASETS.get(dataset.lower())
    return min(entry.max_hops, 3) if entry is not None else 2


#: Evaluate one (method, ratio) cell: condense → train model → test on full graph.
KIND_EVALUATE = "evaluate"
#: Whole-graph reference: train the model on the uncondensed graph.
KIND_WHOLE = "whole"


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    Parameters
    ----------
    kind:
        ``"evaluate"`` (condense → train → test) or ``"whole"`` (train the
        model on the full graph as the reference row).
    dataset:
        Dataset name or alias, kept in the caller's spelling (it labels the
        report rows); the executor resolves it through
        :data:`repro.registry.datasets` and loads at ``(scale, base_seed)``.
    method:
        Canonical condenser name (``None`` for ``"whole"`` cells).
    ratio:
        Condensation ratio (``None`` for ``"whole"`` cells).
    model:
        Canonical evaluation-model name.
    scale, seeds, base_seed, hidden_dim, epochs, max_hops, fast_optimization:
        The experiment hyper-parameters, mirroring
        :class:`~repro.evaluation.pipeline.ExperimentConfig`.
    extra_model_kwargs:
        Sorted ``(key, value)`` pairs forwarded to the model constructor.

    Returns nothing interesting by itself — cells are plain data; the
    executor turns them into
    :class:`~repro.evaluation.protocol.MethodEvaluation` results.

    Examples
    --------
    >>> cell = Cell(kind="evaluate", dataset="acm", method="random-hg",
    ...             ratio=0.05, model="sehgnn")
    >>> cell.key() == Cell.from_dict(cell.to_dict()).key()
    True
    """

    kind: str
    dataset: str
    method: str | None = None
    ratio: float | None = None
    model: str = "sehgnn"
    scale: float = 0.35
    seeds: int = 2
    base_seed: int = 0
    hidden_dim: int = 32
    epochs: int = 80
    max_hops: int = 2
    fast_optimization: bool = True
    extra_model_kwargs: tuple[tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in (KIND_EVALUATE, KIND_WHOLE):
            raise ReproError(f"unknown cell kind {self.kind!r}")
        if self.kind == KIND_EVALUATE and (self.method is None or self.ratio is None):
            raise ReproError("evaluate cells need both a method and a ratio")
        if self.kind == KIND_WHOLE:
            # No condenser runs in a whole cell: normalise the
            # condensation-only flag so it cannot cause spurious cache
            # misses (e.g. re-running the slow whole-graph reference just
            # because --paper-loops changed).
            object.__setattr__(self, "fast_optimization", True)

    # ------------------------------------------------------------------ #
    # Serialization / hashing
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict[str, object]:
        """JSON-safe dict representation (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "dataset": self.dataset,
            "method": self.method,
            "ratio": self.ratio,
            "model": self.model,
            "scale": self.scale,
            "seeds": self.seeds,
            "base_seed": self.base_seed,
            "hidden_dim": self.hidden_dim,
            "epochs": self.epochs,
            "max_hops": self.max_hops,
            "fast_optimization": self.fast_optimization,
            "extra_model_kwargs": [list(pair) for pair in self.extra_model_kwargs],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "Cell":
        """Rebuild a cell from :meth:`to_dict` output (e.g. a stored artifact)."""
        data = dict(payload)
        extra = data.get("extra_model_kwargs", [])
        data["extra_model_kwargs"] = tuple((str(k), v) for k, v in extra)
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def key(self) -> str:
        """Stable 16-hex-digit content hash of the cell.

        The hash is SHA-256 over the canonical JSON encoding of
        :meth:`to_dict` (sorted keys, no whitespace), so it is identical
        across processes, machines and Python versions — the property the
        artifact store relies on for resumability.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def condense_key(self) -> tuple[object, ...] | None:
        """Cache key of the condensed artifact this cell trains on.

        Deliberately excludes the model hyper-parameters: every model of a
        generalization row trains on the *same* condensed graph, so cells
        differing only in model fields share one condensation per trial.
        Returns ``None`` for ``"whole"`` cells (nothing is condensed).
        """
        if self.kind != KIND_EVALUATE:
            return None
        return (
            self.dataset,
            self.scale,
            self.base_seed,
            self.method,
            self.ratio,
            self.max_hops,
            self.fast_optimization,
            self.seeds,
        )

    def label(self) -> str:
        """Short human-readable label used in progress lines."""
        if self.kind == KIND_WHOLE:
            return f"{self.dataset}/whole×{self.model}"
        return f"{self.dataset}/{self.method}@{self.ratio:g}×{self.model}"


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered, immutable collection of :class:`Cell` records.

    Iterating a plan yields its cells in the order the serial pipeline would
    have executed them, which is also the order the executor reports results
    in (regardless of completion order under parallelism).

    Examples
    --------
    >>> from repro.evaluation.pipeline import ExperimentConfig
    >>> plan = plan_ratio_sweep(ExperimentConfig(dataset="acm",
    ...                                          ratios=(0.05, 0.1),
    ...                                          methods=("random-hg",)))
    >>> len(plan)
    3
    >>> len(plan.keys()) == len(set(plan.keys()))
    True
    """

    cells: tuple[Cell, ...]
    description: str = ""

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def keys(self) -> tuple[str, ...]:
        """The cell hashes, in plan order."""
        return tuple(cell.key() for cell in self.cells)


@dataclass(frozen=True)
class GeneralizationConfig:
    """Configuration of one Table IV-style generalization grid.

    Every ``method`` condenses the dataset once per trial at ``ratio``; each
    condensed artifact then trains every ``model``, and each model's
    whole-graph reference is measured once.  Mirrors the keyword surface of
    :func:`~repro.evaluation.pipeline.run_generalization_study`.
    """

    dataset: str
    ratio: float
    methods: tuple[str, ...] = ("herding-hg", "hgcond", "freehgc")
    models: tuple[str, ...] = ("hgb", "hgt", "han", "sehgnn")
    scale: float = 0.35
    seeds: int = 1
    base_seed: int = 0
    hidden_dim: int = 32
    epochs: int = 80
    max_hops: int | None = None
    fast_optimization: bool = True
    extra_model_kwargs: dict[str, object] = field(default_factory=dict)

    def resolved_max_hops(self) -> int:
        """Meta-path hop limit: explicit value or the dataset's paper default."""
        return resolve_max_hops(self.dataset, self.max_hops)


@dataclass(frozen=True)
class StreamConfig:
    """Configuration of one ``python -m repro stream`` replay.

    Describes an evolving-graph run: the starting synthetic graph, the
    generated delta schedule (see
    :func:`repro.datasets.generators.generate_delta_schedule`) and the
    incremental-condensation settings
    (:class:`repro.streaming.IncrementalCondenser`).

    Examples
    --------
    >>> StreamConfig(dataset="acm", ratio=0.05, steps=4).resolved_max_hops()
    3
    >>> StreamConfig(dataset="acm", ratio=0.05, steps=0)
    Traceback (most recent call last):
        ...
    repro.errors.ReproError: steps must be >= 1, got 0
    """

    dataset: str
    ratio: float
    steps: int = 20
    scale: float = 0.35
    seed: int = 0
    max_hops: int | None = None
    edge_churn: float = 0.002
    relations: tuple[str, ...] | None = None
    node_arrival_every: int = 0
    arrival_count: int = 4
    removal_every: int = 0
    removal_count: int = 2
    recondense_threshold: float = 0.05
    verify_every: int = 0
    eval_every: int = 0
    hidden_dim: int = 32
    epochs: int = 40
    model: str = "heterosgc"

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ReproError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.ratio <= 1.0:
            raise ReproError(f"ratio must be in (0, 1], got {self.ratio}")
        if not 0.0 <= self.edge_churn <= 1.0:
            raise ReproError(f"edge_churn must be in [0, 1], got {self.edge_churn}")
        if not 0.0 <= self.recondense_threshold <= 1.0:
            raise ReproError(
                "recondense_threshold must be in [0, 1], got "
                f"{self.recondense_threshold}"
            )
        for field_name in ("verify_every", "eval_every", "node_arrival_every", "removal_every"):
            if getattr(self, field_name) < 0:
                raise ReproError(f"{field_name} must be >= 0")
        if self.max_hops is not None:
            check_max_hops(self.max_hops)

    def resolved_max_hops(self) -> int:
        """Meta-path hop limit: explicit value or the dataset's paper default."""
        return resolve_max_hops(self.dataset, self.max_hops)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of one ``python -m repro serve`` deployment.

    Describes the graph being served, the condensation keeping it cheap and
    the serving knobs (micro-batching, prediction cache, bundle store); the
    CLI expands it into a :class:`repro.serving.ServingController` plus a
    :class:`repro.serving.ServingServer`.

    Examples
    --------
    >>> ServeConfig(dataset="acm", ratio=0.05).resolved_max_hops()
    3
    >>> ServeConfig(dataset="acm", ratio=2.0)
    Traceback (most recent call last):
        ...
    repro.errors.ReproError: ratio must be in (0, 1], got 2.0
    """

    dataset: str
    ratio: float
    scale: float = 0.35
    seed: int = 0
    max_hops: int | None = None
    model: str = "heterosgc"
    hidden_dim: int = 32
    epochs: int = 80
    recondense_threshold: float = 0.05
    cache_size: int = 4096
    max_batch: int = 256
    batch_window_ms: float = 2.0
    host: str = "127.0.0.1"
    port: int = 8765
    bundle_store: str | None = None
    workers: int = 0
    wal: str | None = None
    snapshot_every: int = 0
    max_pending: int = 0
    max_body_bytes: int = 16 * 1024 * 1024

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio <= 1.0:
            raise ReproError(f"ratio must be in (0, 1], got {self.ratio}")
        if not 0.0 <= self.recondense_threshold <= 1.0:
            raise ReproError(
                "recondense_threshold must be in [0, 1], got "
                f"{self.recondense_threshold}"
            )
        if self.cache_size < 0:
            raise ReproError(f"cache_size must be >= 0, got {self.cache_size}")
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_window_ms < 0:
            raise ReproError(f"batch_window_ms must be >= 0, got {self.batch_window_ms}")
        if self.max_hops is not None:
            check_max_hops(self.max_hops)
        if self.workers < 0:
            raise ReproError(f"workers must be >= 0, got {self.workers}")
        if self.workers > 0 and not self.wal:
            raise ReproError(
                "replicated serving (workers > 0) requires --wal PATH: the "
                "write-ahead log is what makes worker restarts and coordinator "
                "crash recovery safe"
            )
        if self.snapshot_every < 0:
            raise ReproError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}"
            )
        if self.max_pending < 0:
            raise ReproError(f"max_pending must be >= 0, got {self.max_pending}")
        if self.max_body_bytes < 1:
            raise ReproError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}"
            )

    def resolved_max_hops(self) -> int:
        """Meta-path hop limit: explicit value or the dataset's paper default."""
        return resolve_max_hops(self.dataset, self.max_hops)

    def bundle_key(self) -> str:
        """Stable key of this deployment's bundle lineage under ``--bundle-store``."""
        return (
            f"{self.dataset.lower()}:{self.model.lower()}:r{self.ratio:g}"
            f":s{self.scale:g}:seed{self.seed}:h{self.resolved_max_hops()}"
        )


def _sorted_kwargs(kwargs: dict[str, object]) -> tuple[tuple[str, object], ...]:
    return tuple(sorted(kwargs.items()))


def _checked_dataset(name: str, validate: bool) -> str:
    """Validate ``name`` against the dataset registry, keeping it verbatim.

    The caller's spelling is preserved (it labels every report row, exactly
    as the pre-runner pipeline did); validation is skipped when the plan
    will run against an explicitly injected graph, where the dataset string
    is a pure label.
    """
    if validate:
        registry.datasets.get(name)  # raises RegistryError listing valid names
    return name


def plan_ratio_sweep(config, *, validate_dataset: bool = True) -> ExperimentPlan:
    """Expand an ``ExperimentConfig`` into a Table III-style plan.

    Cell order matches the serial pipeline exactly: every ``(ratio, method)``
    pair in ratio-major order, followed by the whole-graph reference when
    ``config.include_whole`` is set.

    Parameters
    ----------
    config:
        An :class:`~repro.evaluation.pipeline.ExperimentConfig`.
    validate_dataset:
        Check ``config.dataset`` against the registry (pass ``False`` when
        the plan will execute against an injected graph and the name is a
        pure label).

    Returns
    -------
    ExperimentPlan
        One ``"evaluate"`` cell per (ratio, method) plus at most one
        ``"whole"`` cell.
    """
    dataset = _checked_dataset(config.dataset, validate_dataset)
    model = registry.models.canonical(config.model)
    methods = tuple(registry.condensers.canonical(m) for m in config.methods)
    max_hops = check_max_hops(config.resolved_max_hops())
    common = dict(
        dataset=dataset,
        model=model,
        scale=config.scale,
        seeds=config.seeds,
        base_seed=config.base_seed,
        hidden_dim=config.hidden_dim,
        epochs=config.epochs,
        max_hops=max_hops,
        fast_optimization=config.fast_optimization,
        extra_model_kwargs=_sorted_kwargs(dict(config.extra_model_kwargs)),
    )
    cells = [
        Cell(kind=KIND_EVALUATE, method=method, ratio=float(ratio), **common)
        for ratio in config.ratios
        for method in methods
    ]
    if config.include_whole:
        cells.append(Cell(kind=KIND_WHOLE, **common))
    return ExperimentPlan(
        cells=tuple(cells),
        description=f"ratio sweep on {dataset} ({len(cells)} cells)",
    )


def plan_generalization(
    config: GeneralizationConfig, *, validate_dataset: bool = True
) -> ExperimentPlan:
    """Expand a :class:`GeneralizationConfig` into a Table IV-style plan.

    Returns one ``"evaluate"`` cell per (method, model) pair — all models of
    one method share a :meth:`Cell.condense_key`, so the executor condenses
    once per row — plus one ``"whole"`` cell per model.
    ``validate_dataset`` behaves as in :func:`plan_ratio_sweep`.
    """
    dataset = _checked_dataset(config.dataset, validate_dataset)
    methods = tuple(registry.condensers.canonical(m) for m in config.methods)
    models = tuple(registry.models.canonical(m) for m in config.models)
    max_hops = check_max_hops(config.resolved_max_hops())
    common = dict(
        dataset=dataset,
        scale=config.scale,
        seeds=config.seeds,
        base_seed=config.base_seed,
        hidden_dim=config.hidden_dim,
        epochs=config.epochs,
        max_hops=max_hops,
        fast_optimization=config.fast_optimization,
        extra_model_kwargs=_sorted_kwargs(dict(config.extra_model_kwargs)),
    )
    cells = [
        Cell(kind=KIND_EVALUATE, method=method, ratio=float(config.ratio), model=model, **common)
        for method in methods
        for model in models
    ]
    cells.extend(Cell(kind=KIND_WHOLE, model=model, **common) for model in models)
    return ExperimentPlan(
        cells=tuple(cells),
        description=f"generalization grid on {dataset} ({len(cells)} cells)",
    )


def assemble_generalization_rows(
    config: GeneralizationConfig,
    evaluations_by_key: dict[str, object],
    *,
    plan: ExperimentPlan | None = None,
) -> list[dict[str, object]]:
    """Fold per-cell evaluations back into Table IV rows.

    Parameters
    ----------
    config:
        The grid configuration the plan was built from.
    evaluations_by_key:
        Mapping from :meth:`Cell.key` to the cell's
        :class:`~repro.evaluation.protocol.MethodEvaluation` (the shape
        produced by the executor).
    plan:
        The executed plan; pass it to avoid re-expanding (and re-hashing)
        the config.  Defaults to ``plan_generalization(config)``.

    Returns
    -------
    list of dict
        One row per method with per-model accuracies (keys are the
        upper-cased model names as passed by the caller), the condensed
        average and the whole-graph average — byte-compatible with the
        pre-runner ``run_generalization_study`` output.
    """
    if plan is None:
        plan = plan_generalization(config, validate_dataset=False)
    cells = {cell.key(): cell for cell in plan}
    by_cell: dict[tuple[str | None, str, str], object] = {}
    for key, evaluation in evaluations_by_key.items():
        cell = cells.get(key)
        if cell is not None:
            by_cell[(cell.method, cell.model, cell.kind)] = evaluation

    canonical_models = [registry.models.canonical(m) for m in config.models]
    whole_mean = {
        model: by_cell[(None, model, KIND_WHOLE)].mean_accuracy for model in canonical_models
    }
    whole_avg = round(100.0 * sum(whole_mean.values()) / len(canonical_models), 2)

    rows: list[dict[str, object]] = []
    for method in config.methods:
        canonical_method = registry.condensers.canonical(method)
        row: dict[str, object] = {"dataset": config.dataset, "method": None, "ratio": config.ratio}
        per_model: list[float] = []
        for caller_name, model in zip(config.models, canonical_models):
            evaluation = by_cell[(canonical_method, model, KIND_EVALUATE)]
            row["method"] = evaluation.method
            row[caller_name.upper()] = round(100.0 * evaluation.mean_accuracy, 2)
            per_model.append(evaluation.mean_accuracy)
        row["Condensed Avg."] = round(100.0 * sum(per_model) / len(per_model), 2)
        row["Whole Avg."] = whole_avg
        rows.append(row)
    return rows
