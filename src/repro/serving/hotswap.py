"""Zero-downtime model refresh on streaming graph deltas.

:class:`ServingController` glues PR 4's streaming machinery to the
prediction engine:

1. a :class:`~repro.streaming.delta.GraphDelta` arrives and is applied by
   the controller's :class:`~repro.streaming.incremental.IncrementalCondenser`
   (warm memos, byte-identical to full recondensation);
2. if the re-condensed graph is **byte-identical** to the previous one, the
   trained model is *provably* unchanged — training is deterministic (pure
   NumPy, fixed seed, same inputs), so re-running it would reproduce the
   same weights bit for bit — and retraining is skipped; otherwise a fresh
   model is trained on the patched condensed graph;
3. a new :class:`~repro.serving.engine.InferenceSession` is built against
   the mutated live graph (feature propagation rides the condenser's warm
   context) and **atomically** swapped in: readers always see either the
   complete old session or the complete new one, never a half-built state,
   so in-flight requests are never dropped;
4. the old session's LRU label cache is carried into the new session *iff*
   the model was not retrained, minus the delta's **dirty set**
   (:attr:`repro.streaming.apply.ApplyReport.dirty_targets` — a sound
   over-approximation of the target rows whose propagated features
   changed).  A retrain, or an unknown dirty set (full-recondense
   fallback), flushes the cache entirely.

Swaps are serialised by a lock; :attr:`ServingController.session` is a
single attribute read and therefore safe from any thread (the asyncio
server reads it while a worker thread swaps).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter, sleep as time_sleep
from typing import Callable

import numpy as np

from repro import obs
from repro.core.condenser import FreeHGC
from repro.errors import CanaryRejectedError, ServingError
from repro.hetero.graph import HeteroGraph
from repro.models.base import HGNNClassifier
from repro.serving.artifacts import ModelBundle
from repro.serving.canary import CanaryConfig, pin_canary_ids, evaluate_candidate
from repro.serving.engine import InferenceSession
from repro.streaming.delta import GraphDelta
from repro.streaming.incremental import IncrementalCondenser, graphs_equal
from repro.utils import faults

__all__ = ["SwapReport", "ServingController"]


@dataclass
class SwapReport:
    """What one hot-swap did and what it cost."""

    step: int
    #: condensation mode of the underlying step ("incremental" or "full")
    mode: str
    #: new session version now serving
    version: int
    #: whether a fresh model was trained (condensed graph changed)
    retrained: bool
    #: size of the dirty target set, or -1 when unknown (cache flushed)
    dirty_count: int
    #: LRU entries carried over from the previous session's cache
    cache_carried: int
    #: the whole incremental step: apply, context refresh and condense
    condense_seconds: float
    train_seconds: float
    #: total wall-clock of the swap (apply + condense + train + precompute)
    swap_seconds: float


class ServingController:
    """Owns the live graph, the condensed model and the serving session.

    Parameters
    ----------
    graph:
        The live full graph (the controller owns and mutates it).
    model_factory:
        Zero-argument callable building an *unfitted* evaluation model
        (e.g. :func:`repro.evaluation.pipeline.make_model_factory` output).
        Must be deterministic: same condensed graph in, same weights out.
    model_name:
        Registry name recorded in exported bundles.
    ratio:
        Condensation ratio applied at every (re)condensation.
    condenser / recondense_threshold / seed:
        Forwarded to :class:`~repro.streaming.incremental.IncrementalCondenser`.
    cache_size:
        LRU label-cache capacity per session.
    """

    def __init__(
        self,
        graph: HeteroGraph,
        model_factory: Callable[[], HGNNClassifier],
        *,
        model_name: str = "model",
        ratio: float,
        condenser: FreeHGC | None = None,
        recondense_threshold: float = 0.05,
        seed: int = 0,
        cache_size: int = 4096,
        canary: CanaryConfig | None = None,
    ) -> None:
        self.incremental = IncrementalCondenser(
            graph,
            condenser=condenser,
            ratio=ratio,
            recondense_threshold=recondense_threshold,
            seed=seed,
        )
        self.model_factory = model_factory
        self.model_name = str(model_name)
        self.cache_size = int(cache_size)
        self._session: InferenceSession | None = None
        self._model: HGNNClassifier | None = None
        self._condensed: HeteroGraph | None = None
        self._version = 0
        self._swap_lock = threading.Lock()
        self.swap_history: list[SwapReport] = []
        #: swap gate: score candidates on a pinned canary set before publish
        self.canary = canary
        self._canary_ids: np.ndarray | None = None
        self.canary_history: list = []
        self.canary_rejections = 0
        #: whether :meth:`start` adopted a persisted bundle instead of training
        self.warm_started = False
        # The dirty set is computed with the *condenser's* hop limit, so it
        # only bounds feature changes of a model propagating with the same
        # limit.  A model reaching further could change where the dirty set
        # says clean — carrying its cache would serve stale labels, so
        # carry-over is enabled only when the hop limits provably agree.
        probe = model_factory()
        probe_hops = getattr(getattr(probe, "config", None), "max_hops", None)
        self._carry_cache = probe_hops == self.incremental.condenser.max_hops

    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> HeteroGraph:
        """The live graph (mutated in place by :meth:`apply_delta`)."""
        return self.incremental.graph

    @property
    def session(self) -> InferenceSession:
        """The current serving session (atomic reference read)."""
        session = self._session
        if session is None:
            raise ServingError("controller not started: call start() first")
        return session

    @property
    def condensed(self) -> HeteroGraph | None:
        """The condensed graph the current model was trained on."""
        return self._condensed

    @property
    def version(self) -> int:
        """Version of the session currently serving."""
        return self._version

    # ------------------------------------------------------------------ #
    def start(self, *, warm_bundle: ModelBundle | None = None) -> InferenceSession:
        """Cold start: condense, train (or adopt a bundle), build the session.

        ``warm_bundle`` lets a deployment resume from persisted weights: it
        is adopted only when the fresh condensation is byte-identical to
        the bundle's condensed graph (training is deterministic, so the
        stored weights are then provably what retraining would produce).
        Otherwise the bundle is ignored and a fresh model is trained.
        :attr:`warm_started` records which path ran.
        """
        with self._swap_lock:
            condensed = self.incremental.condense()
            model: HGNNClassifier | None = None
            if warm_bundle is not None and graphs_equal(
                condensed, warm_bundle.condensed
            ):
                model = warm_bundle.build_model()
            self.warm_started = model is not None
            if model is None:
                model = self.model_factory()
                model.fit(condensed)
            self._condensed = condensed
            self._model = model
            self._version = 1
            session = InferenceSession(
                model,
                self.graph,
                version=self._version,
                cache_size=self.cache_size,
                context=self.incremental.context,
            )
            self._session = session
            if self.canary is not None:
                self._canary_ids = pin_canary_ids(
                    session.num_targets, size=self.canary.size, seed=self.canary.seed
                )
            return session

    def apply_delta(self, delta: GraphDelta) -> SwapReport:
        """Apply ``delta``, refresh the model if needed, and swap sessions.

        Safe to call from a worker thread while another thread serves
        predictions from :attr:`session`; concurrent ``apply_delta`` calls
        are serialised.
        """
        if self._session is None:
            raise ServingError("controller not started: call start() first")
        with self._swap_lock, obs.span("swap.apply", step=int(delta.step)):
            poison = faults.fire("hotswap.poison_commit")
            if poison is not None:
                # Fault site: a delta whose commit deterministically crashes.
                # Raised before any state is touched so the single-process
                # tier keeps serving; the replicated tier quarantines the WAL
                # record and rebuilds.
                raise faults.InjectedFault(
                    f"hotswap.poison_commit on delta step {delta.step}"
                )
            swap_start = perf_counter()
            step = self.incremental.step(delta)
            retrain = self._condensed is None or not graphs_equal(
                step.condensed, self._condensed
            )
            train_seconds = 0.0
            if retrain:
                with obs.span("swap.train"):
                    train_start = perf_counter()
                    model = self.model_factory()
                    model.fit(step.condensed)
                    train_seconds = perf_counter() - train_start
            else:
                model = self._model
                obs.event("swap.train_skipped", reason="condensed graph unchanged")
            assert model is not None
            new_version = self._version + 1
            with obs.span("swap.build_session", version=new_version):
                session = InferenceSession(
                    model,
                    self.graph,
                    version=new_version,
                    cache_size=self.cache_size,
                    context=self.incremental.context,
                )
            dirty = (
                None
                if step.apply_report is None
                else step.apply_report.dirty_targets
            )
            if self.canary is not None and self._canary_ids is not None:
                with obs.span("swap.canary", candidate=new_version) as canary_span:
                    canary_report = evaluate_candidate(
                        session,
                        self._session,
                        self._canary_ids,
                        dirty=dirty,
                        config=self.canary,
                    )
                    if canary_span is not None:
                        canary_span.attrs["passed"] = bool(canary_report.passed)
                self.canary_history.append(canary_report)
                if not canary_report.passed:
                    # Roll back: none of the published state was touched yet,
                    # so refusing to assign *is* the rollback — the previous
                    # session keeps answering.  (The live graph retains the
                    # delta and self._condensed is now stale, which forces a
                    # retrain on the next delta; the replicated tier instead
                    # quarantines the WAL record and rebuilds for an exact
                    # pre-delta state.)
                    self.canary_rejections += 1
                    raise CanaryRejectedError(
                        "canary rejected candidate version "
                        f"{new_version}: {'; '.join(canary_report.reasons)}",
                        report=canary_report.to_dict(),
                    )
            carried = 0
            if not retrain and dirty is not None and self._carry_cache:
                old_session = self._session
                carried = session.cache.adopt(old_session.cache, drop=dirty)
            self._condensed = step.condensed
            self._model = model
            self._version = new_version
            hold = faults.fire("hotswap.delay_publish")
            if hold is not None:
                # Fault site: stretch the window between building the new
                # session and publishing it, so readers race a slow swap.
                time_sleep(float(hold.get("seconds", 0.0)))
            # The atomic publish: readers switch to the fully-built session.
            self._session = session
            report = SwapReport(
                step=delta.step,
                mode=step.mode,
                version=new_version,
                retrained=retrain,
                dirty_count=-1 if dirty is None else int(np.asarray(dirty).size),
                cache_carried=carried,
                condense_seconds=step.step_seconds,
                train_seconds=train_seconds,
                swap_seconds=perf_counter() - swap_start,
            )
            self.swap_history.append(report)
            return report

    def adopt_version(self, version: int) -> None:
        """Align the version counter with externally recorded history.

        WAL recovery uses this after warm-starting from a snapshot: the
        snapshot records the version it was taken at, and adopting it (and
        re-stamping the live session) makes the replayed deltas land on the
        exact version numbers the pre-crash process acknowledged.
        """
        with self._swap_lock:
            self._version = int(version)
            if self._session is not None:
                self._session.version = int(version)

    # ------------------------------------------------------------------ #
    def export_bundle(self, *, metadata: dict | None = None) -> ModelBundle:
        """Snapshot the current model + condensed graph as a bundle."""
        if self._model is None or self._condensed is None:
            raise ServingError("controller not started: call start() first")
        merged = {"version": self._version, **(metadata or {})}
        return ModelBundle.from_model(
            self.model_name, self._model, self._condensed, metadata=merged
        )

    @property
    def stats(self) -> dict[str, object]:
        """Controller-level counters for the ``/stats`` endpoint."""
        memo = self.incremental.selection_memo.stats
        return {
            "version": self._version,
            "swaps": len(self.swap_history),
            "retrains": sum(1 for r in self.swap_history if r.retrained),
            "canary_evaluations": len(self.canary_history),
            "canary_rejections": self.canary_rejections,
            "coverage_memo": dict(memo),
        }
