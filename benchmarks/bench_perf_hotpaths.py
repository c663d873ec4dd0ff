"""Hot-path micro-benchmarks with a vectorized-vs-reference correctness gate.

Times the four condensation hot paths — packed meta-path composition,
greedy receptive-field coverage, meta-path Jaccard similarity, and
personalised PageRank — on a scaled synthetic heterogeneous graph
(``REPRO_BENCH_SCALE``), comparing the vectorized kernels against their
reference implementations (the oracles in ``tests/oracles.py``), and
writes the machine-readable trajectory file ``BENCH_perf_hotpaths.json``.
A ``feature_propagation`` row times hop-by-hop meta-path feature
propagation against the composed ``Â_P X`` on the same graph, and a
``trainer_fit`` row times ``Trainer.fit`` (one recorded tape, one fused
Adam) against the oracle's eager epoch loop on FreeHGC-condensed acm.

Two gates run on every invocation:

* **correctness** — kernel outputs must match the reference byte-for-byte
  (packed words and derived CSR of every meta-path; selection, gains,
  covered counts; similarity scores to 1e-10; NIM's father-chain PPR
  against the father half of the block-matrix PPR, and to a dense linear
  solve at small scales).  Hop-by-hop feature blocks must match the
  composed ones key for key to 1e-12 (the float sums run in another
  order, so they are not bit-equal).
  Any divergence exits non-zero, so the CI ``perf-smoke`` job fails.
  ``Trainer.fit`` must leave weights, history, best epoch and epochs run
  byte-identical to the eager loop at every scale.
* **speedup** — at full scale (candidate pools ≥ 2 000 nodes) the default
  coverage kernel must be at least 5× faster than the scalar reference,
  and at scale 1.0 ``Trainer.fit`` of the serving tier's HeteroSGC at
  least 1.5× faster than the eager loop.  The gates are skipped at
  smaller scales, where timings are all noise: CI runs at
  ``REPRO_BENCH_SCALE=0.1`` as a correctness smoke only.

Run directly (``PYTHONPATH=src python benchmarks/bench_perf_hotpaths.py``);
it is deliberately not named ``test_*`` so the tier-1 suite stays fast.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

# Allow `python benchmarks/bench_perf_hotpaths.py` without an installed
# package: put the repo root (for `benchmarks.*`) and src/ (for `repro.*`)
# on the path, mirroring the root conftest.
_ROOT = Path(__file__).resolve().parent.parent
for _entry in (str(_ROOT), str(_ROOT / "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

import numpy as np

from benchmarks.common import SCALE, emit, emit_json
from repro import obs
from repro.core import CondensationContext
from repro.core.condenser import FreeHGC
from repro.streaming import assert_graphs_equal
from repro.core.coverage_kernels import (
    PackedAdjacency,
    greedy_max_coverage_packed,
    greedy_max_coverage_reference,
)
from repro.core.metapaths import compose_packed
from repro.core.neighbor_influence import bipartite_pagerank
from repro.core.receptive_field import greedy_max_coverage
from repro.core.similarity import metapath_similarity_scores
from repro.datasets import load_dataset
from repro.datasets.base import NodeTypeSpec, RelationSpec, SyntheticHINConfig
from repro.datasets.generators import generate_hin
from repro.models import get_model
from repro.models.propagation import metapath_feature_blocks
from repro.nn import Tensor, TrainConfig, Trainer
from repro.utils.rng import ensure_rng
from tests.oracles import (
    compose_matmul,
    composed_metapath_features,
    eager_fit,
    normalized_block,
    personalized_pagerank,
    symmetric_normalize,
)

import scipy.sparse as sp

#: pool size above which the ≥5× speedup gate applies (ISSUE 3 target)
SPEEDUP_POOL_THRESHOLD = 2000
SPEEDUP_FACTOR = 5.0
#: timing repetitions (best-of)
REPEATS = 3
#: maximum tolerated end-to-end condense slowdown with tracing enabled;
#: gated at full scale only (small scales are all timing noise)
TRACE_OVERHEAD_PCT = 5.0
#: minimum Trainer.fit speedup over the eager loop, gated at scale 1.0 for
#: the serving tier's model.  SeHGNN's row is recorded but not gated: its
#: fit is bound by NumPy work the tape leaves alone (dropout draws over a
#: 544-wide block, 19 matmuls) and reads 1.37-1.77x on a 2-vCPU host.
FIT_SPEEDUP_FACTOR = 1.5
FIT_GATED_MODEL = "heterosgc"
FIT_ROUNDS = 9


def hotpath_config() -> SyntheticHINConfig:
    """Skewed bipartite-flavoured HIN sized so the target pool is ≥2k at scale 1."""
    return SyntheticHINConfig(
        name="hotpaths",
        target_type="paper",
        num_classes=3,
        node_types=(
            NodeTypeSpec("paper", count=2500, feature_dim=16),
            NodeTypeSpec("author", count=5000, feature_dim=16),
            NodeTypeSpec("term", count=1500, feature_dim=16),
        ),
        relations=(
            RelationSpec("paper-author", "paper", "author", avg_degree=6.0, affinity=0.8),
            RelationSpec("paper-term", "paper", "term", avg_degree=5.0, affinity=0.75),
            RelationSpec("paper-cite-paper", "paper", "paper", avg_degree=4.0, affinity=0.8),
        ),
        # full-pool selection: every target node is a candidate
        train_fraction=0.999,
        val_fraction=0.0004,
    )


def _best_of(fn, repeats: int = REPEATS) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _same_coverage(a, b) -> bool:
    return (
        np.array_equal(a.selected, b.selected)
        and np.array_equal(a.gains, b.gains)
        and a.covered == b.covered
    )


# --------------------------------------------------------------------------- #
# Sections
# --------------------------------------------------------------------------- #
def bench_composition(context: CondensationContext, errors: list[str]) -> list[dict]:
    """Every meta-path packed vs the float-matmul composition: words and CSR."""
    graph = context.graph
    paths = context.metapaths()

    def packed_all():
        products: dict = {}
        return [compose_packed(graph, path, products) for path in paths]

    def derive_all():
        return [PackedAdjacency(packed.words, packed.shape).to_csr() for packed in fast]

    ref_s, reference = _best_of(lambda: [compose_matmul(graph, path) for path in paths])
    fast_s, fast = _best_of(packed_all)
    csr_s, derived = _best_of(derive_all)
    identical = True
    for path, packed, csr, expected in zip(paths, fast, derived, reference):
        same = (
            np.array_equal(packed.words, PackedAdjacency.from_csr(expected).words)
            and np.array_equal(csr.indptr, expected.indptr)
            and np.array_equal(csr.indices, expected.indices)
            and np.array_equal(csr.data, expected.data)
        )
        if not same:
            identical = False
            errors.append(f"packed composition diverges from the matmul reference on {path}")
    return [
        {
            "kernel": "metapath_composition",
            "case": f"{len(paths)} paths, {sum(m.nnz for m in reference)} nnz",
            "pool": int(graph.num_nodes[context.target_type]),
            "budget": "",
            "reference_s": round(ref_s, 5),
            "vectorized_s": round(fast_s, 5),
            "csr_s": round(csr_s, 5),
            "speedup": round(ref_s / max(fast_s, 1e-9), 2),
            "identical": identical,
        }
    ]


def bench_propagation(context: CondensationContext, errors: list[str]) -> list[dict]:
    """Hop-by-hop feature propagation vs the composed ``Â_P X`` oracle."""
    graph = context.graph
    paths = context.metapaths()
    ref_s, reference = _best_of(lambda: composed_metapath_features(graph, paths))
    fast_s, fast = _best_of(lambda: metapath_feature_blocks(graph, paths))
    identical = list(fast) == list(reference) and all(
        fast[key].shape == block.shape
        and np.allclose(fast[key], block, rtol=1e-12, atol=1e-12)
        for key, block in reference.items()
    )
    if not identical:
        errors.append("hop-by-hop feature propagation diverges from the composed reference")
    return [
        {
            "kernel": "feature_propagation",
            "case": f"{len(paths)} paths, {len(reference)} blocks",
            "pool": int(graph.num_nodes[context.target_type]),
            "budget": "",
            "reference_s": round(ref_s, 5),
            "vectorized_s": round(fast_s, 5),
            "speedup": round(ref_s / max(fast_s, 1e-9), 2),
            "identical": identical,
        }
    ]


def bench_coverage(context: CondensationContext, errors: list[str]) -> list[dict]:
    paths = sorted(
        (p for p in context.metapaths() if p.end != context.target_type),
        key=lambda p: (p.length, str(p)),
    )
    # One sparse 1-hop and one dense 2-hop receptive field.
    paths = [paths[0], paths[-1]] if len(paths) > 1 else paths
    rows: list[dict] = []
    for path in paths:
        adjacency = context.receptive_field(path)
        pool = context.graph.splits.train
        # Paper-scale condensation budget (~2.5% of the pool, Table grids).
        budget = max(1, int(round(0.025 * pool.size)))

        ref_s, reference = _best_of(
            lambda: greedy_max_coverage_reference(adjacency, pool, budget)
        )
        packed = context.packed_receptive_field(path)
        fast_s, fast = _best_of(lambda: greedy_max_coverage(packed, pool, budget))
        celf_s, celf = _best_of(lambda: greedy_max_coverage_packed(packed, pool, budget))
        identical = all(_same_coverage(r, reference) for r in (fast, celf))
        if not identical:
            errors.append(f"greedy_max_coverage diverges from reference on {path}")
        rows.append(
            {
                "kernel": "greedy_max_coverage",
                "case": str(path),
                "pool": int(pool.size),
                "budget": budget,
                "reference_s": round(ref_s, 5),
                "vectorized_s": round(fast_s, 5),
                "celf_s": round(celf_s, 5),
                "speedup": round(ref_s / max(fast_s, 1e-9), 2),
                "identical": identical,
            }
        )
    return rows


def _naive_similarity(adjacencies) -> np.ndarray:
    """Pre-optimisation similarity: re-binarise + both directions per pair."""

    def binarise(matrix):
        out = matrix.copy()
        if out.nnz:
            out.data = np.ones_like(out.data)
        return out

    num_paths = len(adjacencies)
    scores = np.zeros((adjacencies[0].shape[0], num_paths))
    for i in range(num_paths):
        for j in range(num_paths):
            if i == j:
                continue
            a, b = binarise(adjacencies[i]), binarise(adjacencies[j])
            intersection = np.asarray(a.multiply(b).sum(axis=1)).ravel()
            union = (
                np.asarray(a.sum(axis=1)).ravel()
                + np.asarray(b.sum(axis=1)).ravel()
                - intersection
            )
            pair = np.ones(a.shape[0])
            nz = union > 0
            pair[nz] = intersection[nz] / union[nz]
            scores[:, i] += pair
    return scores / (num_paths - 1)


def bench_similarity(context: CondensationContext, errors: list[str]) -> list[dict]:
    groups: dict[str, list] = {}
    for path in context.metapaths():
        groups.setdefault(path.end, []).append(context.receptive_field(path))
    group = max(groups.values(), key=len)
    if len(group) < 2:
        return []
    ref_s, reference = _best_of(lambda: _naive_similarity(group))
    fast_s, fast = _best_of(lambda: metapath_similarity_scores(group))
    identical = bool(np.allclose(fast, reference, atol=1e-10))
    if not identical:
        errors.append("metapath_similarity_scores diverges from reference")
    return [
        {
            "kernel": "metapath_similarity_scores",
            "case": f"{len(group)} paths x {group[0].shape[0]} nodes",
            "pool": int(group[0].shape[0]),
            "budget": "",
            "reference_s": round(ref_s, 5),
            "vectorized_s": round(fast_s, 5),
            "speedup": round(ref_s / max(fast_s, 1e-9), 2),
            "identical": identical,
        }
    ]


def bench_pagerank(context: CondensationContext, errors: list[str]) -> list[dict]:
    graph = context.graph
    path = next(p for p in context.metapaths() if p.end == "author")
    packed = context.packed_receptive_field(path)
    adjacency = packed.to_csr()
    n_target, n_other = adjacency.shape
    size = n_target + n_other
    anchor = np.zeros(n_target)
    anchor[graph.splits.train] = 1.0
    restart = np.concatenate([anchor, np.zeros(n_other)])

    # NIM's father chain (one SpMV per step, no target half) must run all
    # 30 steps and equal, bit for bit, the father half of the block-matrix
    # PPR, which runs both chains.
    block = normalized_block(adjacency)  # both sides time iterations only
    block_s, reference = _best_of(
        lambda: personalized_pagerank(block, restart, iterations=30, prenormalized=True)
    )
    bipartite_pagerank(packed, anchor)  # builds the scaled matrix the packed form keeps
    nim_s, (nim, steps) = _best_of(lambda: bipartite_pagerank(packed, anchor))
    nim_identical = steps == 30 and nim.tobytes() == reference[n_target:].tobytes()
    if not nim_identical:
        errors.append("bipartite_pagerank diverges from the block-matrix PPR's father half")
    rows = [
        {
            "kernel": "bipartite_pagerank",
            "case": f"{path}, {adjacency.nnz} nnz",
            "pool": int(size),
            "budget": "",
            "reference_s": round(block_s, 5),
            "vectorized_s": round(nim_s, 5),
            "speedup": round(block_s / max(nim_s, 1e-9), 2),
            "identical": nim_identical,
        }
    ]
    # "" = the dense-solve check did not run (too large); never report a
    # verification that was skipped as passed.
    identical: bool | str = ""
    converged_s = ""
    if size <= 2500:
        # Small graphs: gate the chain, run to convergence, against the
        # closed form of Eq. 11, alpha (I - (1-alpha) A_hat)^{-1} r.
        seconds, (converged, _) = _best_of(
            lambda: bipartite_pagerank(packed, anchor, iterations=400, tolerance=0.0)
        )
        converged_s = round(seconds, 5)
        bipartite = sp.bmat([[None, adjacency], [adjacency.T, None]], format="csr")
        system = np.eye(size) - 0.85 * symmetric_normalize(bipartite).toarray()
        direct = 0.15 * np.linalg.solve(system, restart / restart.sum())
        identical = bool(np.allclose(converged, direct[n_target:], atol=1e-6))
        if not identical:
            errors.append("bipartite_pagerank diverges from the direct solve")
    return rows + [
        {
            "kernel": "ppr_direct_solve",
            "case": f"bipartite {size} nodes, 400 steps",
            "pool": int(size),
            "budget": "",
            "reference_s": "",
            "vectorized_s": converged_s,
            "speedup": "",
            "identical": identical,
        }
    ]


def bench_trainer_fit(errors: list[str]) -> list[dict]:
    """``Trainer.fit`` vs the eager oracle loop on the serving tier's retrain.

    The serve defaults (hidden 32, 80 epochs) on FreeHGC-condensed acm; the
    fitted weights, history, best epoch and epochs run must match.
    """
    graph = load_dataset("acm", scale=SCALE, seed=0)
    condensed = FreeHGC(max_hops=3).condense(graph, ratio=0.05, seed=0)
    rows: list[dict] = []
    for name in ("heterosgc", "sehgnn"):
        model = get_model(name, hidden_dim=32, epochs=80, max_hops=3)
        features = model.prepare_features(condensed)
        keys = model._select_feature_keys(sorted(features))
        dims = {key: features[key].shape[1] for key in keys}
        inputs = {key: Tensor(features[key]) for key in keys}
        config = TrainConfig(
            lr=model.config.lr,
            weight_decay=model.config.weight_decay,
            epochs=model.config.epochs,
            patience=model.config.patience,
        )
        splits = (condensed.labels, condensed.splits.train, condensed.splits.val)

        def run(fit):
            module = model._build_module(dims, condensed.schema.num_classes, ensure_rng(0))
            start = time.perf_counter()
            result = fit(module)
            return time.perf_counter() - start, module, result

        # Interleaved rounds, so host drift hits both sides alike; best of
        # FIT_ROUNDS, because a shared host only ever adds time.
        fast_s = ref_s = float("inf")
        for _ in range(FIT_ROUNDS):
            seconds, taped, got = run(lambda module: Trainer(module, config).fit(inputs, *splits))
            fast_s = min(fast_s, seconds)
            seconds, eager, want = run(lambda module: eager_fit(module, inputs, *splits, config))
            ref_s = min(ref_s, seconds)
        weights, reference = taped.state_dict(), eager.state_dict()
        identical = (
            all(weights[key].tobytes() == reference[key].tobytes() for key in reference)
            and got.history == want.history
            and (got.best_epoch, got.epochs_run) == (want.best_epoch, want.epochs_run)
        )
        if not identical:
            errors.append(f"Trainer.fit diverges from the eager loop for {name}")
        rows.append(
            {
                "kernel": "trainer_fit",
                "case": f"{name}, {len(keys)} blocks, {got.epochs_run} epochs",
                "pool": int(condensed.num_nodes[condensed.schema.target_type]),
                "budget": "",
                "reference_s": round(ref_s, 5),
                "vectorized_s": round(fast_s, 5),
                "speedup": round(ref_s / max(fast_s, 1e-9), 2),
                "identical": identical,
            }
        )
    return rows


def bench_tracing_overhead(
    graph, errors: list[str], trace_path: str | None
) -> dict:
    """End-to-end condense, untraced vs traced: byte-identity + overhead.

    Tracing must never change what the pipeline computes — the traced run's
    condensed graph is asserted byte-identical to the untraced one — and
    must stay cheap: at full scale the slowdown is gated at
    ``TRACE_OVERHEAD_PCT``.
    """
    condenser = FreeHGC(max_hops=2, max_paths=8)
    condense = lambda: condenser.condense(graph, ratio=0.05, seed=0)
    plain = condense()  # warm-up: page in the graph, settle the allocator
    # Interleave untraced/traced rounds so cache warmth and CPU frequency
    # drift hit both sides equally — measuring one side first biases the
    # comparison far more than the spans themselves cost.
    untraced_s = traced_s = float("inf")
    spans = 0
    traced = plain
    with obs.tracing("bench-hotpaths", path=trace_path) as tracer:
        obs.uninstall()
        try:
            for _ in range(REPEATS + 2):
                start = time.perf_counter()
                plain = condense()
                untraced_s = min(untraced_s, time.perf_counter() - start)
                obs.install(tracer)
                try:
                    start = time.perf_counter()
                    traced = condense()
                    traced_s = min(traced_s, time.perf_counter() - start)
                finally:
                    obs.uninstall()
        finally:
            obs.install(tracer)  # let obs.tracing() tear down normally
        spans = tracer.collector.stats["added"]  # counts spans even after drains
    try:
        assert_graphs_equal(plain, traced)
        identical = True
    except AssertionError as exc:
        identical = False
        errors.append(f"traced condense diverges from untraced: {exc}")
    overhead_pct = 100.0 * (traced_s - untraced_s) / max(untraced_s, 1e-9)
    if SCALE >= 1.0 and overhead_pct > TRACE_OVERHEAD_PCT:
        errors.append(
            f"tracing overhead gate: condense is {overhead_pct:.1f}% slower "
            f"with tracing enabled (budget {TRACE_OVERHEAD_PCT}%)"
        )
    return {
        "untraced_s": round(untraced_s, 5),
        "traced_s": round(traced_s, 5),
        "overhead_pct": round(overhead_pct, 2),
        "budget_pct": TRACE_OVERHEAD_PCT,
        "gated": SCALE >= 1.0,
        "spans": int(spans),
        "identical": identical,
    }


# --------------------------------------------------------------------------- #
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="hot-path micro-benchmarks")
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="also write the traced condense run's span tree to PATH (JSONL)",
    )
    args = parser.parse_args(argv)

    graph = generate_hin(hotpath_config(), scale=SCALE, seed=0)
    context = CondensationContext(graph, max_hops=2, max_paths=8)
    errors: list[str] = []
    rows = (
        bench_composition(context, errors)
        + bench_propagation(context, errors)
        + bench_coverage(context, errors)
        + bench_similarity(context, errors)
        + bench_pagerank(context, errors)
        + bench_trainer_fit(errors)
    )
    overhead = bench_tracing_overhead(graph, errors, args.trace)
    rows.append(
        {
            "kernel": "condense_end_to_end",
            "case": "tracing on vs off",
            "pool": int(graph.splits.train.size),
            "budget": "",
            "reference_s": overhead["untraced_s"],
            "vectorized_s": overhead["traced_s"],
            "speedup": f"+{overhead['overhead_pct']}%",
            "identical": overhead["identical"],
        }
    )
    if args.trace:
        print(f"trace written to {args.trace}")
    emit(
        f"Hot-path kernels vs reference (scale={SCALE})",
        rows,
        "perf_hotpaths.txt",
        paper_note=(
            "Vectorized packed-bitset / decremental kernels must match the "
            "scalar reference exactly; speedups feed the Fig. 8 efficiency "
            "headline."
        ),
    )
    emit_json(
        {
            "benchmark": "perf_hotpaths",
            "scale": SCALE,
            "speedup_gate": {
                "pool_threshold": SPEEDUP_POOL_THRESHOLD,
                "min_speedup": SPEEDUP_FACTOR,
                "trainer_fit_min_speedup": FIT_SPEEDUP_FACTOR,
                "trainer_fit_gated_model": FIT_GATED_MODEL,
            },
            "tracing_overhead": overhead,
            "rows": rows,
        },
        "BENCH_perf_hotpaths.json",
    )

    for row in rows:
        if (
            row["kernel"] == "greedy_max_coverage"
            and row["pool"] >= SPEEDUP_POOL_THRESHOLD
            and row["speedup"] < SPEEDUP_FACTOR
        ):
            errors.append(
                f"speedup gate: greedy_max_coverage on pool={row['pool']} is "
                f"{row['speedup']}x (need >= {SPEEDUP_FACTOR}x)"
            )
        if (
            row["kernel"] == "trainer_fit"
            and row["case"].startswith(FIT_GATED_MODEL)
            and SCALE >= 1.0
            and row["speedup"] < FIT_SPEEDUP_FACTOR
        ):
            errors.append(
                f"speedup gate: trainer_fit ({row['case']}) is {row['speedup']}x "
                f"(need >= {FIT_SPEEDUP_FACTOR}x)"
            )
    if errors:
        for error in errors:
            print(f"GATE FAILURE: {error}", file=sys.stderr)
        return 1
    print("all hot-path gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
