"""Unified data-selection criterion for target-type nodes (Algorithm 1).

Implements Eq. 8–9 of the paper: for every meta-path and every class, the
greedy receptive-field maximiser (Eq. 3) produces normalised coverage gains,
which are combined with the meta-path diversity bonus ``1 − Ĵ`` (Eq. 7) into
the unified score

    F(S) = R(S) / |R̂|  +  (1 − J(S)),                         (Eq. 8)

and the per-meta-path scores are aggregated so the final condensed target set
is the per-class top-k of the summed scores (Eq. 9).  The class proportions
of the original training pool are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import CondensationContext

from repro.baselines.base import per_class_budgets
from repro.core.coverage_kernels import PackedAdjacency
from repro.core.metapaths import MetaPath, compose_packed, enumerate_metapaths
from repro.core.receptive_field import greedy_max_coverage
from repro.core.similarity import metapath_similarity_scores
from repro.errors import BudgetError
from repro.hetero.graph import HeteroGraph

__all__ = ["TargetSelectionResult", "TargetNodeSelector"]


@dataclass
class TargetSelectionResult:
    """Outcome of the target-type selection stage."""

    selected: np.ndarray
    scores: np.ndarray
    per_class: dict[int, np.ndarray]
    metapaths: list[MetaPath]
    diagnostics: dict[str, object] = field(default_factory=dict)


class TargetNodeSelector:
    """Selects high-quality target-type nodes with the unified criterion.

    Parameters
    ----------
    max_hops:
        Maximum meta-path length ``K`` (paper hyper-parameter, per dataset).
    max_paths:
        Cap on the number of enumerated meta-paths.
    use_receptive_field:
        Toggle for the coverage term (ablation Variant #1 disables it).
    use_similarity:
        Toggle for the diversity term (ablation Variant #2 disables it).
    """

    def __init__(
        self,
        *,
        max_hops: int = 2,
        max_paths: int = 16,
        use_receptive_field: bool = True,
        use_similarity: bool = True,
    ) -> None:
        if not (use_receptive_field or use_similarity):
            raise ValueError("at least one criterion term must be enabled")
        self.max_hops = max_hops
        self.max_paths = max_paths
        self.use_receptive_field = use_receptive_field
        self.use_similarity = use_similarity

    # ------------------------------------------------------------------ #
    def select(
        self,
        graph: HeteroGraph,
        budget: int,
        *,
        pool: np.ndarray | None = None,
        context: "CondensationContext | None" = None,
    ) -> TargetSelectionResult:
        """Select ``budget`` target-type nodes from the training pool.

        When a :class:`~repro.core.context.CondensationContext` built for
        ``graph`` with matching hop settings is supplied, meta-path
        enumeration and adjacency composition are served from its cache
        instead of being recomputed.
        """
        if budget < 1:
            raise BudgetError(f"target budget must be >= 1, got {budget}")
        target = graph.schema.target_type
        pool = graph.splits.train if pool is None else np.asarray(pool, dtype=np.int64)
        if pool.size == 0:
            raise BudgetError("target selection pool is empty")

        use_context = context is not None and context.matches(
            graph, max_hops=self.max_hops, max_paths=self.max_paths
        )
        if use_context:
            metapaths = context.metapaths()
        else:
            metapaths = enumerate_metapaths(
                graph.schema, target, self.max_hops, max_paths=self.max_paths
            )
        if not metapaths:
            raise BudgetError("schema exposes no meta-paths from the target type")
        # Receptive fields stay packed: the coverage kernels and Jaccard
        # read words, and only the decremental kernel derives a CSR.
        if use_context:
            adjacencies = [context.packed_receptive_field(path) for path in metapaths]
        else:
            products: dict = {}
            adjacencies = [compose_packed(graph, path, products) for path in metapaths]

        # The streaming subsystem installs a selection memo on its shared
        # context; with no memo (the default) nothing below changes.
        memo = getattr(context, "selection_memo", None) if use_context else None
        similarity = self._similarity_matrix(metapaths, adjacencies, graph, memo=memo)
        class_budgets = per_class_budgets(graph, budget, pool=pool)
        labels = graph.labels
        # Hoisted out of the per-path loop: the class-restricted pools are
        # identical for every meta-path.
        class_pools = {cls: pool[labels[pool] == cls] for cls in class_budgets}

        n_target = graph.num_nodes[target]
        total_scores = np.zeros(n_target, dtype=np.float64)
        coverage_evaluations = 0

        for path_index, adjacency in enumerate(adjacencies):
            normalizer = float(max(adjacency.shape[1], 1))
            path_scores = np.zeros(n_target, dtype=np.float64)
            if self.use_receptive_field:
                if memo is not None:
                    # Memoized / warm-started per-path coverage scores:
                    # byte-identical to the loop below (reused vectors were
                    # produced by it; warm starts replay the exact kernel).
                    scores, evaluations = memo.path_coverage(
                        metapaths[path_index],
                        adjacency,
                        class_pools,
                        class_budgets,
                        normalizer,
                        n_target,
                    )
                    path_scores += scores
                    coverage_evaluations += evaluations
                else:
                    # The greedy kernels cache their index structures (CSR,
                    # inverted CSC) on the packed adjacency, so the per-class
                    # runs — and, with a memoized context, repeated select()
                    # calls — build them once per meta-path.
                    for cls, cls_budget in class_budgets.items():
                        cls_pool = class_pools[cls]
                        if cls_pool.size == 0:
                            continue
                        result = greedy_max_coverage(adjacency, cls_pool, cls_budget)
                        coverage_evaluations += result.evaluations
                        if result.selected.size:
                            path_scores[result.selected] += result.gains / normalizer
            if self.use_similarity:
                diversity = 1.0 - similarity[:, path_index]
                path_scores[pool] += diversity[pool]
            total_scores += path_scores

        per_class: dict[int, np.ndarray] = {}
        selected_parts: list[np.ndarray] = []
        for cls, cls_budget in class_budgets.items():
            cls_pool = class_pools[cls]
            if cls_pool.size == 0:
                continue
            order = np.argsort(-total_scores[cls_pool], kind="stable")
            chosen = cls_pool[order[: min(cls_budget, cls_pool.size)]]
            per_class[cls] = chosen
            selected_parts.append(chosen)
        selected = (
            np.concatenate(selected_parts) if selected_parts else np.empty(0, dtype=np.int64)
        )
        return TargetSelectionResult(
            selected=selected,
            scores=total_scores,
            per_class=per_class,
            metapaths=metapaths,
            diagnostics={
                "num_metapaths": len(metapaths),
                "coverage_evaluations": coverage_evaluations,
                "class_budgets": class_budgets,
            },
        )

    # ------------------------------------------------------------------ #
    def _similarity_matrix(
        self,
        metapaths: list[MetaPath],
        adjacencies: list[PackedAdjacency],
        graph: HeteroGraph,
        *,
        memo=None,
    ) -> np.ndarray:
        """Per-node Ĵ scores (Eq. 6), grouped by meta-path source type.

        Meta-paths are only comparable when they share the same source
        (end) type — PAP vs PFP in Fig. 4 both end at "paper".  Paths whose
        source type is unique in the enumeration have no redundancy and get
        similarity zero.  A selection memo (streaming) caches the scores of
        each group keyed by the identity of its adjacency objects, so a
        delta that rebuilds one group leaves the others untouched.
        """
        n_target = graph.num_nodes[graph.schema.target_type]
        similarity = np.zeros((n_target, len(metapaths)), dtype=np.float64)
        if not self.use_similarity:
            return similarity
        groups: dict[str, list[int]] = {}
        for index, path in enumerate(metapaths):
            groups.setdefault(path.end, []).append(index)
        for end_type, indices in groups.items():
            if len(indices) < 2:
                continue
            group_adjacencies = [adjacencies[i] for i in indices]
            with obs.span("core.jaccard", end_type=end_type, paths=len(indices)):
                if memo is not None:
                    # Byte-identical to metapath_similarity_scores, with
                    # unchanged pairs served from the memo.
                    group_scores = memo.group_similarity(end_type, group_adjacencies)
                else:
                    group_scores = metapath_similarity_scores(group_adjacencies)
            for column, index in enumerate(indices):
                similarity[:, index] = group_scores[:, column]
        return similarity
