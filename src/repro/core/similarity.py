"""Meta-path similarity minimisation (Section IV-B, Eq. 4–7).

Two meta-paths can expose a node to almost the same region of the graph
(Fig. 4: PAP vs PFP for a hub paper).  To reward nodes whose meta-paths look
at *different* regions, FreeHGC computes, for every node and every meta-path,
the average Jaccard similarity between the node's neighbour set under that
meta-path and its neighbour sets under all other related meta-paths
(Eq. 5–6); the selection criterion then adds the complement ``1 − Ĵ`` as a
diversity bonus (Eq. 8).

Neighbour sets are packed receptive fields
(:class:`~repro.core.coverage_kernels.PackedAdjacency`), so a row's
intersection is ``popcount(w_a & w_b)`` over its words and its size the
popcount of its own words.  Sizes, intersections and unions are exact
integers, so Ĵ does not depend on how they are counted.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.coverage_kernels import PackedAdjacency, bit_count

__all__ = [
    "jaccard_between_sets",
    "metapath_similarity_scores",
    "pairwise_jaccard",
    "row_jaccard",
]


def jaccard_between_sets(first: set[int], second: set[int]) -> float:
    """Plain Jaccard index between two index sets (Eq. 4)."""
    union = len(first | second)
    if union == 0:
        return 1.0
    return len(first & second) / union


def row_jaccard(
    a: PackedAdjacency, b: PackedAdjacency, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row intersection counts and Jaccard of two packed adjacencies.

    Restricted to ``rows`` when given (the streaming memo recounts only the
    rows a delta changed).  Rows with an empty union have similarity 1.
    """
    if rows is None:
        words_a, words_b = a.words, b.words
        size_a, size_b = a.sizes(), b.sizes()
    else:
        words_a, words_b = a.words[rows], b.words[rows]
        size_a, size_b = a.sizes()[rows], b.sizes()[rows]
    intersection = bit_count(words_a & words_b).sum(axis=1, dtype=np.int64)
    union = size_a + size_b - intersection
    similarity = np.ones(union.size, dtype=np.float64)
    nonzero = union > 0
    similarity[nonzero] = intersection[nonzero] / union[nonzero]
    return intersection, similarity


def pairwise_jaccard(
    adjacency_a: PackedAdjacency | sp.spmatrix, adjacency_b: PackedAdjacency | sp.spmatrix
) -> np.ndarray:
    """Per-row Jaccard similarity between two boolean adjacency matrices.

    Row ``v`` of the result is ``J(N_a(v), N_b(v))`` (Eq. 5 evaluated per
    node).  Rows with an empty union are defined to have similarity 1, as in
    the paper ("we say J = 1 if the union is empty").  Stored entries count
    as set members whatever their value.
    """
    if adjacency_a.shape != adjacency_b.shape:
        raise ValueError(
            f"adjacency shapes differ: {adjacency_a.shape} vs {adjacency_b.shape}"
        )
    return row_jaccard(
        PackedAdjacency.from_csr(adjacency_a), PackedAdjacency.from_csr(adjacency_b)
    )[1]


def metapath_similarity_scores(
    adjacencies: list[PackedAdjacency | sp.spmatrix],
) -> np.ndarray:
    """Per-node, per-meta-path normalised similarity ``Ĵ`` (Eq. 6).

    Every unordered pair is counted once — ``J`` is symmetric, so the pair's
    similarity feeds both columns.

    Parameters
    ----------
    adjacencies:
        Boolean meta-path adjacencies (packed, or sparse matrices that are
        packed here) that share the same row space (the target-type nodes)
        and the same column space (the source type).

    Returns
    -------
    numpy.ndarray
        Array of shape ``(num_target_nodes, num_metapaths)`` where entry
        ``(v, i)`` is the average Jaccard similarity of node ``v``'s
        neighbourhood under meta-path ``i`` against all other meta-paths.
        With a single meta-path the similarity is defined as zero (there is
        nothing to be redundant with).
    """
    num_paths = len(adjacencies)
    if num_paths == 0:
        raise ValueError("at least one meta-path adjacency is required")
    num_nodes = adjacencies[0].shape[0]
    if num_paths == 1:
        return np.zeros((num_nodes, 1), dtype=np.float64)
    for adjacency in adjacencies[1:]:
        if adjacency.shape != adjacencies[0].shape:
            raise ValueError(
                f"adjacency shapes differ: {adjacencies[0].shape} vs {adjacency.shape}"
            )
    packed = [PackedAdjacency.from_csr(adjacency) for adjacency in adjacencies]
    scores = np.zeros((num_nodes, num_paths), dtype=np.float64)
    for i in range(num_paths):
        for j in range(i + 1, num_paths):
            similarity = row_jaccard(packed[i], packed[j])[1]
            scores[:, i] += similarity
            scores[:, j] += similarity
    scores /= num_paths - 1
    return scores
