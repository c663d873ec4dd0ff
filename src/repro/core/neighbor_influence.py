"""Neighbour-influence maximisation for father-type nodes (Eq. 10–13).

Father types bridge the target type and the leaf types, so FreeHGC keeps the
father nodes with the largest influence on the (condensed) target nodes.
Influence is measured with personalised PageRank over the symmetric-
normalised bipartite graph induced by every meta-path from the target type
to the father type (Eq. 11), aggregated across meta-paths (Eq. 12), and the
top-k father nodes by total received influence are selected (Eq. 13).

The PPR matrix inverse of Eq. 11 is approximated with power iteration (the
standard approximate-PPR technique the paper cites for scalability); degree
centrality is available as the drop-in alternative mentioned in the paper
("NIM can be replaced by other node importance evaluation algorithms").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.coverage_kernels import PackedAdjacency
from repro.core.metapaths import MetaPath, compose_packed, metapaths_to_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.context import CondensationContext
from repro.errors import BudgetError
from repro.hetero.graph import HeteroGraph

__all__ = [
    "FatherSelectionResult",
    "NeighborInfluenceMaximizer",
    "bipartite_pagerank",
]


def _inverse_sqrt(degrees: np.ndarray) -> np.ndarray:
    degrees = degrees.astype(np.float64)
    inv = np.zeros_like(degrees)
    positive = degrees > 0
    inv[positive] = 1.0 / np.sqrt(degrees[positive])
    return inv


def _scaled_adjacency(adjacency: PackedAdjacency) -> sp.csr_matrix:
    """The target→father block of the symmetric-normalised bipartite graph.

    Eq. 11 normalises the block matrix ``[[0, A], [Aᵀ, 0]]`` of a unit-weight
    target→father adjacency ``A``: entry ``(i, j)`` becomes
    ``r_inv[i] · c_inv[j]`` with ``r_inv``/``c_inv`` the inverse square
    roots of the row/column entry counts.  That scaling of ``A``, built on
    the index pattern ``A``'s packed form keeps and sharing its arrays, is
    the whole operator: its transpose (a CSC view of the same arrays) is the
    father→target block, and no unit-valued CSR is built.  It depends only
    on the pattern, so :func:`bipartite_pagerank` builds it through
    :meth:`PackedAdjacency.derived` and re-anchored PPR runs pay only the
    iterations.
    """
    indptr, indices = adjacency.pattern()
    row_counts = np.diff(indptr)
    col_counts = np.bincount(indices, minlength=adjacency.shape[1])
    row_inv, col_inv = _inverse_sqrt(row_counts), _inverse_sqrt(col_counts)
    return sp.csr_matrix(
        (np.repeat(row_inv, row_counts) * col_inv[indices], indices, indptr),
        shape=adjacency.shape,
    )


def bipartite_pagerank(
    adjacency: PackedAdjacency,
    anchor: np.ndarray,
    *,
    alpha: float = 0.15,
    iterations: int = 30,
    tolerance: float = 1e-8,
) -> tuple[np.ndarray, int]:
    """Father scores of PPR on a target→father bipartite graph (Eq. 11).

    Power iteration approximates ``α (I − (1 − α) Â)⁻¹ r``, with ``Â`` the
    symmetric-normalised block matrix ``[[0, S], [Sᵀ, 0]]`` and the restart
    ``r = [r_T, r_F]`` the ``anchor`` over the targets and zero over the
    fathers, renormalised to sum to one (uniform over both halves when it
    sums to zero).  ``Â`` maps each half of an iterate to the other half, so
    the father half after ``iterations`` steps depends on one chain only:
    ``F = α r_F + (1 − α) (Sᵀ @ T)`` after ``T = α r_T + (1 − α) (S @ F)``,
    started at ``F_0 = r_F`` for an even count and at ``T_0 = r_T`` for an
    odd one.  Just that chain runs, one SpMV per step.  With an anchor
    ``F_0 = 0``, so ``T_1`` is the teleport term and 30 steps take 29
    SpMVs.  The chain stops early once ``‖F_k − F_{k−2}‖₁ < tolerance``.
    Unless a stop fires, the scores are bit for bit the father half of the
    block-matrix iteration, which ran both chains side by side and tested
    the change of the whole iterate.  ``S`` is built on the index pattern
    of the packed ``adjacency`` (:meth:`PackedAdjacency.pattern`), with no
    unit-valued CSR, and kept by it.

    Returns the father scores and the chain steps run (``iterations``
    unless the stop fired).

    Examples
    --------
    Two targets, anchored on the first; the middle father is shared:

    >>> import numpy as np
    >>> import scipy.sparse as sp
    >>> links = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]))
    >>> scores, steps = bipartite_pagerank(PackedAdjacency.from_csr(links), np.array([1.0, 0.0]))
    >>> scores.round(3), steps
    (array([0.232, 0.228, 0.091]), 30)
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    n_target = adjacency.shape[0]
    restart = np.concatenate(
        [np.asarray(anchor, dtype=np.float64), np.zeros(adjacency.shape[1])]
    )
    total = restart.sum()
    if total <= 0:
        restart = np.full(restart.size, 1.0 / restart.size)
    else:
        restart = restart / total
    teleport = alpha * restart  # constant across steps; hoisted
    to_target, to_father = teleport[:n_target], teleport[n_target:]
    damping = 1.0 - alpha
    scaled = adjacency.derived(_scaled_adjacency)
    transposed = scaled.T

    step = iterations % 2  # an odd count's chain starts at T_0
    if step:
        father = to_father + damping * (transposed @ restart[:n_target])
    else:
        father = restart[n_target:]
    while step < iterations:
        if step == 0 and not father.any():
            target = to_target  # S @ 0 = 0
        else:
            target = to_target + damping * (scaled @ father)
        updated = to_father + damping * (transposed @ target)
        step += 2
        if np.abs(updated - father).sum() < tolerance:
            return updated, step
        father = updated
    return father, step


@dataclass
class FatherSelectionResult:
    """Outcome of father-type selection for one node type."""

    node_type: str
    selected: np.ndarray
    influence: np.ndarray
    metapaths: list[MetaPath]


class NeighborInfluenceMaximizer:
    """Selects father-type nodes by aggregated meta-path influence."""

    def __init__(
        self,
        *,
        max_hops: int = 2,
        max_paths: int = 16,
        alpha: float = 0.15,
        iterations: int = 30,
        importance: str = "ppr",
    ) -> None:
        if importance not in ("ppr", "degree"):
            raise ValueError(f"importance must be 'ppr' or 'degree', got {importance!r}")
        self.max_hops = max_hops
        self.max_paths = max_paths
        self.alpha = alpha
        self.iterations = iterations
        self.importance = importance

    # ------------------------------------------------------------------ #
    def select(
        self,
        graph: HeteroGraph,
        node_type: str,
        budget: int,
        *,
        anchor_nodes: np.ndarray | None = None,
        context: "CondensationContext | None" = None,
    ) -> FatherSelectionResult:
        """Select ``budget`` nodes of father type ``node_type`` (Eq. 13).

        ``anchor_nodes`` restricts the influence computation to the already
        selected (condensed) target nodes, so the kept father nodes are the
        ones most relevant to the condensed graph.  A matching
        :class:`~repro.core.context.CondensationContext` serves the
        meta-path enumeration and adjacencies from its cache.
        """
        if budget < 1:
            raise BudgetError(f"father budget must be >= 1, got {budget}")
        target = graph.schema.target_type
        if node_type == target:
            raise ValueError("father selection does not apply to the target type")
        n_father = graph.num_nodes[node_type]
        budget = min(budget, n_father)

        use_context = context is not None and context.matches(
            graph, max_hops=self.max_hops, max_paths=self.max_paths
        )
        if use_context:
            metapaths = context.metapaths_to(node_type)
        else:
            metapaths = metapaths_to_type(
                graph.schema, target, node_type, self.max_hops, max_paths=self.max_paths
            )
        if not metapaths:
            # Fall back to the direct typed adjacency even if the schema walk
            # found no path (can happen with max_hops=1 on reverse-only links).
            metapaths = [MetaPath((target, node_type))]

        influence = np.zeros(n_father, dtype=np.float64)
        n_target = graph.num_nodes[target]
        if anchor_nodes is None:
            anchor_mask = np.ones(n_target, dtype=np.float64)
        else:
            anchor_mask = np.zeros(n_target, dtype=np.float64)
            anchor_mask[np.asarray(anchor_nodes, dtype=np.int64)] = 1.0

        products: dict = {}
        for metapath in metapaths:
            if use_context:
                packed = context.packed_receptive_field(metapath)
            else:
                packed = compose_packed(graph, metapath, products)
            if packed.nnz == 0:
                continue
            if self.importance == "degree":
                weighted = packed.to_csr().T @ anchor_mask
                influence += np.asarray(weighted).ravel()
                continue
            with obs.span("core.ppr", path=str(metapath), nnz=int(packed.nnz)) as span:
                scores, steps = bipartite_pagerank(
                    packed, anchor_mask, alpha=self.alpha, iterations=self.iterations
                )
                if span is not None:
                    span.attrs["iterations"] = steps
            influence += scores

        order = np.argsort(-influence, kind="stable")
        selected = order[:budget]
        return FatherSelectionResult(
            node_type=node_type,
            selected=np.asarray(selected, dtype=np.int64),
            influence=influence,
            metapaths=metapaths,
        )
