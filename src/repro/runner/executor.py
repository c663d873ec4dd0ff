"""Parallel, resumable execution of experiment plans.

:func:`execute_plan` is the one executor for every cell type — sweep and
generalization :class:`~repro.runner.plan.Cell` s and scenario-matrix
:class:`~repro.runner.matrix.MatrixCell` s.  It owns store lookup and
resume, process-pool fan-out, trace propagation (one ``runner.cell`` span
per executed cell), per-cell timing, progress callbacks and plan-order
results; each cell type brings only its ``run`` entry point (see
:class:`~repro.runner.plan.HashedCell`).
Three properties make a parallel run equivalent to the serial pipeline:

* **Deterministic per-cell seeding** — each cell derives its trial RNGs from
  its own ``base_seed`` via :func:`repro.utils.rng.spawn_rngs`, exactly as
  the serial pipeline does, so cell results do not depend on scheduling.
* **Deterministic inputs** — workers re-load the dataset from the cell's
  ``(dataset, scale, base_seed)`` triple instead of shipping graphs over
  pipes; synthetic generation is seeded, so every process sees the same
  graph.
* **Result ordering** — results are reported in plan order no matter which
  worker finished first.

Sweep cells (:func:`evaluate_cell`) additionally memoise loaded graphs and
condensed artifacts per process (keyed by
:meth:`~repro.runner.plan.Cell.condense_key` plus the trial seed), so the
models of one generalization row share a single condensation instead of
re-condensing per model.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from copy import deepcopy
from dataclasses import dataclass
from typing import Callable

from repro import obs
from repro.errors import ReproError
from repro.evaluation.protocol import (
    MethodEvaluation,
    evaluate_condenser,
    whole_graph_reference,
)
from repro.evaluation.timing import timed
from repro.hetero.graph import HeteroGraph
from repro.obs.propagate import continue_trace, extract_payload, inject_payload
from repro.obs.spans import Span
from repro.runner.cache import ArtifactStore
from repro.runner.plan import KIND_WHOLE, Cell, ExperimentPlan, HashedCell
from repro.utils.rng import spawn_seed_ints

__all__ = ["CellOutcome", "execute_plan", "clear_worker_caches"]

ProgressCallback = Callable[["CellOutcome", int, int], None]

#: per-process dataset memo — workers handling many cells of one plan load
#: the graph once.  Small cap: graphs dominate worker memory.
_GRAPH_CACHE: "OrderedDict[tuple[str, float, int], HeteroGraph]" = OrderedDict()
_GRAPH_CACHE_MAX = 4

#: per-process condensed-artifact memo keyed by (condense_key, trial_seed).
_CONDENSED_CACHE: "OrderedDict[tuple[object, ...], object]" = OrderedDict()
_CONDENSED_CACHE_MAX = 64


def clear_worker_caches() -> None:
    """Drop this process's dataset and condensed-artifact memos.

    The memos are keyed by registered component *names*; call this after
    swapping a registration under an existing name
    (:meth:`repro.registry.Registry.unregister` + re-register) so the next
    ``execute_plan`` in this process cannot serve artifacts produced by the
    old implementation.  Pool workers are spawned per ``execute_plan`` call
    and never outlive it, so only the in-process (``workers=1``) path needs
    this.
    """
    _GRAPH_CACHE.clear()
    _CONDENSED_CACHE.clear()


@dataclass
class CellOutcome:
    """Result of one cell plus how it was obtained.

    ``result`` is what the cell type's ``load_result`` makes of its payload:
    a :class:`~repro.evaluation.protocol.MethodEvaluation` for a
    :class:`~repro.runner.plan.Cell`, the result dict for a matrix cell.
    ``elapsed_s`` is the cell's own run time, measured where it ran.
    """

    cell: HashedCell
    result: object
    cached: bool
    elapsed_s: float


def _graph_for(cell: Cell) -> HeteroGraph:
    from repro import registry

    # Cache by canonical name so alias spellings share one loaded graph.
    entry = registry.datasets.get(cell.dataset)
    key = (registry.datasets.canonical(cell.dataset), float(cell.scale), int(cell.base_seed))
    graph = _GRAPH_CACHE.get(key)
    if graph is None:
        graph = entry.loader(scale=cell.scale, seed=cell.base_seed)  # type: ignore[attr-defined]
        _GRAPH_CACHE[key] = graph
        while len(_GRAPH_CACHE) > _GRAPH_CACHE_MAX:
            _GRAPH_CACHE.popitem(last=False)
    else:
        _GRAPH_CACHE.move_to_end(key)
    return graph


class _MemoisingCondenser:
    """Wraps a condenser so repeated trials reuse cached condensed artifacts.

    :func:`~repro.evaluation.protocol.evaluate_condenser` calls ``condense``
    exactly once per trial, in trial order; pairing the call index with the
    pre-computed trial seeds gives a stable cache key without inspecting the
    generator.  Cache hits hand out a deep copy so no two model trainings
    ever share (and could cross-mutate) one artifact — matching the serial
    pipeline, where every trial condenses a fresh object.
    """

    def __init__(self, condenser: object, base_key: tuple[object, ...], trial_seeds: list[int]):
        self._condenser = condenser
        self._base_key = base_key
        self._trial_seeds = trial_seeds
        self._calls = 0

    @property
    def name(self) -> str:
        return self._condenser.name  # type: ignore[attr-defined]

    def condense(self, graph: HeteroGraph, ratio: float, *, seed: object = None) -> object:
        index = self._calls
        self._calls += 1
        if index >= len(self._trial_seeds):  # defensive: never expected
            return self._condenser.condense(graph, ratio, seed=seed)  # type: ignore[attr-defined]
        key = self._base_key + (self._trial_seeds[index],)
        cached = _CONDENSED_CACHE.get(key)
        if cached is not None:
            _CONDENSED_CACHE.move_to_end(key)
            return deepcopy(cached)
        artifact = self._condenser.condense(graph, ratio, seed=seed)  # type: ignore[attr-defined]
        _CONDENSED_CACHE[key] = deepcopy(artifact)
        while len(_CONDENSED_CACHE) > _CONDENSED_CACHE_MAX:
            _CONDENSED_CACHE.popitem(last=False)
        return artifact


def evaluate_cell(
    cell: Cell, graph: HeteroGraph | None = None, *, use_memo: bool = True
) -> MethodEvaluation:
    """Run one sweep/generalization cell to completion in this process.

    ``use_memo=False`` (the ``force`` path) bypasses the condensed-artifact
    memo so a forced re-run re-measures condensation instead of replaying a
    cached artifact.  An injected graph bypasses the memo unconditionally:
    the memo key describes the *named* dataset, which an arbitrary override
    graph does not match.
    """
    from repro.evaluation.pipeline import make_condenser, make_model_factory

    override = graph is not None
    graph = graph if graph is not None else _graph_for(cell)
    model_factory = make_model_factory(
        cell.model,
        hidden_dim=cell.hidden_dim,
        epochs=cell.epochs,
        max_hops=cell.max_hops,
        seed=cell.base_seed,
        **dict(cell.extra_model_kwargs),
    )
    if cell.kind == KIND_WHOLE:
        return whole_graph_reference(
            graph,
            model_factory,
            seeds=cell.seeds,
            base_seed=cell.base_seed,
            dataset_name=cell.dataset,
        )
    condenser = make_condenser(
        cell.method,  # type: ignore[arg-type]
        max_hops=cell.max_hops,
        fast_optimization=cell.fast_optimization,
    )
    if use_memo and not override:
        condenser = _MemoisingCondenser(  # type: ignore[assignment]
            condenser,
            cell.condense_key(),  # type: ignore[arg-type]
            spawn_seed_ints(cell.base_seed, cell.seeds),
        )
    return evaluate_condenser(
        graph,
        condenser,  # type: ignore[arg-type]
        cell.ratio,  # type: ignore[arg-type]
        model_factory,
        seeds=cell.seeds,
        base_seed=cell.base_seed,
        dataset_name=cell.dataset,
    )


def _run_cell(
    cell: HashedCell, index: int, graph: HeteroGraph | None = None, *, use_memo: bool
) -> tuple[dict, float]:
    """``cell.run`` under its ``runner.cell`` span and the per-cell clock —
    one spelling shared by the serial and pool paths, so a parallel run's
    reassembled span tree and timings match the serial run's."""
    with obs.span("runner.cell", index=int(index), dataset=cell.dataset, label=cell.label()):
        with timed() as clock:
            payload = cell.run(graph, use_memo=use_memo)
    return payload, clock[0]


def _worker(payload: dict[str, object]) -> dict[str, object]:
    """Pool entry point: the cell travels pickled, its result as a JSON-safe dict."""
    index = int(payload["index"])  # type: ignore[arg-type]
    # Continue the submitter's trace: the payload carries its TraceContext,
    # and this worker's spans parent to the submitting span.  Buffer-only
    # tracer — spans travel back in the result dict, not through a file.
    ctx = extract_payload(payload)
    tracer = obs.install(continue_trace(ctx, scope=f"cell-{index}")) if ctx else None
    try:
        result, elapsed_s = _run_cell(
            payload["cell"], index, use_memo=bool(payload["use_memo"])  # type: ignore[arg-type]
        )
    finally:
        if tracer is not None:
            obs.uninstall()
    out: dict[str, object] = {"result": result, "elapsed_s": elapsed_s}
    if tracer is not None:
        out["spans"] = [span.to_obj() for span in tracer.drain_spans()]
    return out


def _absorb_spans(objs) -> None:
    """Merge a worker's returned spans into the caller's active tracer."""
    tracer = obs.active()
    if tracer is None or not objs:
        return
    tracer.collector.extend(Span.from_obj(obj) for obj in objs)


def _coerce_store(store: "ArtifactStore | str | None") -> ArtifactStore | None:
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


def execute_plan(
    plan: ExperimentPlan,
    *,
    workers: int = 1,
    store: "ArtifactStore | str | None" = None,
    force: bool = False,
    graph: HeteroGraph | None = None,
    progress: ProgressCallback | None = None,
) -> list[CellOutcome]:
    """Execute every cell of ``plan``, skipping those already in ``store``.

    Parameters
    ----------
    plan:
        The plan to run (see :mod:`repro.runner.plan`).
    workers:
        Process count.  ``1`` (default) runs in the calling process; values
        above one fan pending cells out over a
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    store:
        An :class:`~repro.runner.cache.ArtifactStore` (or a directory path
        for one).  Completed cells found in the store are **not** re-run;
        newly computed cells are appended to it.  ``None`` disables caching.
    force:
        Re-run every cell even when the store already holds its result (the
        fresh result is appended and becomes the latest record).
    graph:
        Pre-loaded graph override used by the in-process facades.  Mutually
        exclusive with both ``store`` (cache keys describe the *named*
        dataset, not an arbitrary graph) and multi-process execution (the
        override cannot be shipped to workers faithfully).
    progress:
        Optional callback ``(outcome, index, total)`` invoked once per cell
        in completion order.

    Returns
    -------
    list of CellOutcome
        One outcome per plan cell, **in plan order** regardless of worker
        scheduling.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if graph is not None and store is not None:
        raise ReproError(
            "an explicit graph override cannot be combined with an artifact "
            "store: stored results are keyed by the named dataset"
        )
    if graph is not None and workers > 1:
        raise ReproError(
            "an explicit graph override cannot be combined with workers > 1: "
            "the override graph cannot be shipped to worker processes "
            "faithfully — pass workers=1 (or drop the override)"
        )
    store = _coerce_store(store)
    total = len(plan)
    keys = plan.keys()
    outcomes: list[CellOutcome | None] = [None] * total

    pending: list[int] = []
    for index, (cell, key) in enumerate(zip(plan.cells, keys)):
        record = None if (force or store is None) else store.get(key)
        if record is None:
            pending.append(index)
            continue
        outcome = CellOutcome(
            cell=cell,
            result=cell.load_result(record["result"]),  # type: ignore[arg-type]
            cached=True,
            elapsed_s=float(record.get("meta", {}).get("elapsed_s", 0.0)),  # type: ignore[union-attr]
        )
        outcomes[index] = outcome
        if progress is not None:
            progress(outcome, index, total)

    def finish(index: int, payload: dict, elapsed_s: float) -> None:
        cell = plan.cells[index]
        outcome = CellOutcome(
            cell=cell, result=cell.load_result(payload), cached=False, elapsed_s=elapsed_s
        )
        outcomes[index] = outcome
        if store is not None:
            store.put(keys[index], cell.to_dict(), payload, elapsed_s=elapsed_s)
        if progress is not None:
            progress(outcome, index, total)

    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(pending))) as pool:
            futures = {
                pool.submit(
                    _worker,
                    inject_payload(
                        {"cell": plan.cells[index], "use_memo": not force, "index": index}
                    ),
                ): index
                for index in pending
            }
            for future in as_completed(futures):
                out = future.result()
                _absorb_spans(out.get("spans"))
                finish(futures[future], out["result"], float(out["elapsed_s"]))  # type: ignore[arg-type]
    else:
        for index in pending:
            finish(index, *_run_cell(plan.cells[index], index, graph, use_memo=not force))

    return [outcome for outcome in outcomes if outcome is not None]
