"""Executor and artifact-store tests: resume, parallelism, determinism."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import RandomHG
from repro.errors import ReproError
from repro.evaluation.pipeline import ExperimentConfig, run_ratio_sweep
from repro.evaluation.protocol import MethodEvaluation
from repro.runner import (
    ArtifactStore,
    GeneralizationConfig,
    execute_plan,
    plan_generalization,
    plan_ratio_sweep,
)
from repro.runner import executor as executor_module
from repro import registry

TINY = dict(
    dataset="acm",
    ratios=(0.2,),
    methods=("random-hg", "freehgc"),
    model="heterosgc",
    scale=0.1,
    seeds=2,
    epochs=10,
    hidden_dim=8,
    max_hops=2,
)


def tiny_plan(**overrides):
    config = ExperimentConfig(**{**TINY, **overrides})
    return plan_ratio_sweep(config)


def assert_same_results(a: MethodEvaluation, b: MethodEvaluation) -> None:
    assert a.method == b.method
    assert a.dataset == b.dataset
    assert a.ratio == b.ratio
    assert a.accuracies == b.accuracies  # exact float equality, no tolerance
    assert a.storage == b.storage
    assert a.condensed_nodes == b.condensed_nodes


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path / "runs")
        store.put("k1", {"kind": "evaluate"}, {"accuracy": 1.0}, elapsed_s=2.0)
        record = store.get("k1")
        assert record["result"] == {"accuracy": 1.0}
        assert record["meta"]["elapsed_s"] == 2.0
        assert "k1" in store and len(store) == 1

    def test_latest_record_wins(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("k", {}, {"v": 1})
        store.put("k", {}, {"v": 2})
        assert store.get("k")["result"]["v"] == 2
        reopened = ArtifactStore(tmp_path)
        assert reopened.get("k")["result"]["v"] == 2

    def test_truncated_line_is_skipped(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("good", {}, {"v": 1})
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "bad", "resu')  # interrupted write
        reopened = ArtifactStore(tmp_path)
        assert reopened.completed_keys() == {"good"}

    def test_malformed_records_are_treated_as_absent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("good", {}, {"v": 1})
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "shapeless"}\n')  # valid JSON, missing cell/result
            handle.write('{"key": "future", "cell": {}, "result": {}, '
                         '"meta": {"version": 999}}\n')  # incompatible store version
            handle.write('["not", "a", "dict"]\n')
        reopened = ArtifactStore(tmp_path)
        assert reopened.completed_keys() == {"good"}

    def test_missing_store_is_empty(self, tmp_path):
        assert ArtifactStore(tmp_path / "nowhere").completed_keys() == set()


class TestExecutePlan:
    def test_resume_skips_completed_cells(self, tmp_path):
        plan = tiny_plan()
        store = ArtifactStore(tmp_path / "runs")
        first = execute_plan(plan, store=store)
        assert [o.cached for o in first] == [False] * len(plan)

        events = []
        second = execute_plan(
            plan, store=store, progress=lambda o, i, t: events.append(o.cached)
        )
        assert events == [True] * len(plan)  # zero cells re-executed
        for a, b in zip(first, second):
            assert_same_results(a.result, b.result)

    def test_partial_store_runs_only_missing_cells(self, tmp_path):
        plan = tiny_plan()
        store = ArtifactStore(tmp_path)
        execute_plan(plan, store=store)
        # drop one record: rewrite the file without the first cell's key
        victim = plan.keys()[0]
        lines = [
            line
            for line in store.path.read_text().splitlines()
            if f'"key": "{victim}"' not in line and f'"key":"{victim}"' not in line
        ]
        store.path.write_text("\n".join(lines) + "\n")
        outcomes = execute_plan(plan, store=ArtifactStore(tmp_path))
        assert [o.cached for o in outcomes].count(False) == 1

    def test_force_reruns_everything(self, tmp_path):
        plan = tiny_plan()
        store = ArtifactStore(tmp_path)
        execute_plan(plan, store=store)
        outcomes = execute_plan(plan, store=store, force=True)
        assert all(not o.cached for o in outcomes)

    def test_parallel_equals_serial(self, tmp_path):
        plan = tiny_plan()
        serial = execute_plan(plan)
        parallel = execute_plan(plan, workers=2, store=tmp_path / "runs")
        for a, b in zip(serial, parallel):
            assert_same_results(a.result, b.result)
        # and the store round-trip preserves every float bit-for-bit
        resumed = execute_plan(plan, workers=2, store=tmp_path / "runs")
        for a, b in zip(serial, resumed):
            assert_same_results(a.result, b.result)
            assert a.result.as_row() == {
                **b.result.as_row(),
                "condense_s": a.result.as_row()["condense_s"],
                "train_s": a.result.as_row()["train_s"],
            }

    def test_results_in_plan_order(self, tmp_path):
        plan = tiny_plan()
        outcomes = execute_plan(plan, workers=2)
        assert [o.cell for o in outcomes] == list(plan.cells)

    def test_graph_override_with_store_rejected(self, toy_graph, tmp_path):
        with pytest.raises(ReproError):
            execute_plan(tiny_plan(), graph=toy_graph, store=tmp_path)

    def test_graph_override_with_workers_rejected(self, toy_graph):
        # Silent serial fallback would be a surprise; fail fast instead.
        with pytest.raises(ReproError, match="workers"):
            execute_plan(tiny_plan(), graph=toy_graph, workers=2)

    def test_graph_override_keeps_unregistered_dataset_label(self, toy_graph):
        # Pre-runner behaviour: with graph=, the dataset string is only a label.
        config = ExperimentConfig(
            dataset="my-custom-graph",
            ratios=(0.3,),
            methods=("random-hg",),
            model="heterosgc",
            seeds=1,
            epochs=10,
            hidden_dim=8,
            max_hops=2,
        )
        evaluations = run_ratio_sweep(config, graph=toy_graph)
        assert {e.dataset for e in evaluations} == {"my-custom-graph"}

    def test_dataset_alias_loads_through_registry(self):
        # "fb" is a dataset alias; the executor must resolve it like the facade.
        config = ExperimentConfig(
            dataset="fb",
            ratios=(0.2,),
            methods=("random-hg",),
            model="heterosgc",
            scale=0.1,
            seeds=1,
            epochs=5,
            hidden_dim=8,
            max_hops=1,
            include_whole=False,
        )
        evaluations = run_ratio_sweep(config)
        assert evaluations[0].dataset == "fb"  # caller's spelling is the label

    def test_bad_workers_rejected(self):
        with pytest.raises(ReproError):
            execute_plan(tiny_plan(), workers=0)


class _CountingRandomHG(RandomHG):
    condense_calls = 0

    def condense(self, graph, ratio, *, seed=None):
        type(self).condense_calls += 1
        return super().condense(graph, ratio, seed=seed)


class TestCondensedSharing:
    def test_generalization_row_shares_condensation(self):
        """All models of one generalization row reuse one condensed artifact."""
        name = "counting-random-hg-test"
        registry.condensers.register(
            name,
            lambda *, max_hops=2, fast_optimization=True, **kw: _CountingRandomHG(**kw),
        )
        try:
            executor_module._CONDENSED_CACHE.clear()
            _CountingRandomHG.condense_calls = 0
            config = GeneralizationConfig(
                dataset="acm",
                ratio=0.2,
                methods=(name,),
                models=("heterosgc", "sehgnn"),
                scale=0.1,
                seeds=2,
                epochs=5,
                hidden_dim=8,
                max_hops=2,
            )
            execute_plan(plan_generalization(config))
            # two models × two trials, but only two condensations (one per trial)
            assert _CountingRandomHG.condense_calls == 2

            # force bypasses the in-process memo: everything re-condenses
            _CountingRandomHG.condense_calls = 0
            execute_plan(plan_generalization(config), force=True)
            assert _CountingRandomHG.condense_calls == 4
        finally:
            registry.condensers.unregister(name)

    def test_facade_matches_preshared_semantics(self, tmp_path):
        """Sharing must not change numbers: rerun with a cold cache agrees."""
        config = ExperimentConfig(**TINY)
        executor_module._CONDENSED_CACHE.clear()
        cold = run_ratio_sweep(config)
        warm = run_ratio_sweep(config)  # second run hits the condensed memo
        for a, b in zip(cold, warm):
            assert_same_results(a, b)


class TestWorkerCacheLifecycle:
    """Per-process memos must not leak stale artifacts across plans.

    The memos are keyed by registered component *names* (documented on
    :func:`repro.runner.executor.clear_worker_caches`), so when the data a
    name resolves to changes — a swapped registration, or a streaming delta
    mutating the graph a loader serves — the caller must clear the caches.
    These tests pin both halves of that contract: without clearing the memo
    serves the stale artifact byte-for-byte; after clearing the next plan
    sees the new data.
    """

    def _register_evolving(self, name, state):
        from repro.datasets.acm import acm_config
        from repro.datasets.registry import DatasetEntry

        registry.datasets.register(
            name,
            DatasetEntry(
                name=name,
                loader=lambda *, scale=0.1, seed=0: state["graph"],
                config_factory=acm_config,
                paper_ratios=(0.2,),
                max_hops=2,
            ),
        )

    def _plan(self, name):
        return plan_ratio_sweep(
            ExperimentConfig(
                dataset=name,
                ratios=(0.2,),
                methods=("random-hg",),
                model="heterosgc",
                scale=0.1,
                seeds=1,
                epochs=5,
                hidden_dim=8,
                max_hops=2,
                include_whole=False,
            )
        )

    def test_stale_artifacts_across_streaming_deltas(self):
        import numpy as np

        from repro.datasets import load_acm
        from repro.streaming import DeltaApplier, GraphDelta

        name = "evolving-acm-test"
        state = {"graph": load_acm(scale=0.1, seed=0)}
        self._register_evolving(name, state)
        try:
            executor_module.clear_worker_caches()
            plan = self._plan(name)
            first = execute_plan(plan)

            # The stream moves on: the loader now serves a mutated graph.
            evolved = state["graph"].copy()
            coo = evolved.adjacency["paper-author"].tocoo()
            keep = coo.nnz // 2
            DeltaApplier().apply(
                evolved,
                GraphDelta(
                    remove_edges={
                        "paper-author": (coo.row[keep:], coo.col[keep:])
                    }
                ),
            )
            state["graph"] = evolved

            # Without clearing, both memos (dataset graph + condensed
            # artifact) serve the pre-delta artifacts: bit-identical result.
            stale = execute_plan(plan)
            assert_same_results(first[0].result, stale[0].result)

            # After clearing, the run reflects the evolved graph.
            executor_module.clear_worker_caches()
            fresh = execute_plan(plan)
            assert fresh[0].result.storage != first[0].result.storage
        finally:
            registry.datasets.unregister(name)
            executor_module.clear_worker_caches()

    def test_clear_between_swapped_registrations(self):
        from repro.datasets import load_acm

        name = "swapped-acm-test"
        state = {"graph": load_acm(scale=0.1, seed=0)}
        self._register_evolving(name, state)
        try:
            executor_module.clear_worker_caches()
            first = execute_plan(self._plan(name))
            registry.datasets.unregister(name)
            state2 = {"graph": load_acm(scale=0.15, seed=1)}
            self._register_evolving(name, state2)
            executor_module.clear_worker_caches()
            swapped = execute_plan(self._plan(name))
            assert (
                swapped[0].result.condensed_nodes
                != first[0].result.condensed_nodes
            )
        finally:
            registry.datasets.unregister(name)
            executor_module.clear_worker_caches()


class TestMethodEvaluationSerialization:
    def test_round_trip_is_lossless(self):
        evaluation = MethodEvaluation(
            method="FreeHGC",
            dataset="acm",
            ratio=0.05,
            accuracies=[0.1234567890123456789, 1 / 3],
            condense_seconds=0.123456,
            train_seconds=7.89,
            storage=1024,
            condensed_nodes=53,
            details={"note": "x"},
        )
        import json

        payload = json.loads(json.dumps(evaluation.to_dict()))
        rebuilt = MethodEvaluation.from_dict(payload)
        assert rebuilt.accuracies == evaluation.accuracies
        assert rebuilt.as_row() == evaluation.as_row()
        assert np.isclose(rebuilt.mean_accuracy, evaluation.mean_accuracy, rtol=0, atol=0)
