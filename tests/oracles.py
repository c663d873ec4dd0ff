"""Reference implementations the fast kernels are checked against.

Each oracle is the straightforward form a kernel replaced, kept out of
``src/`` so the library has one implementation of each computation.  The
property tests and ``benchmarks/bench_perf_hotpaths.py`` compare the
production kernels with these bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.neighbor_influence import personalized_pagerank
from repro.hetero.sparse import boolean_csr


def compose_matmul(graph, metapath) -> sp.csr_matrix:
    """Boolean meta-path adjacency as a chain of float sparse products.

    Canonicalised (sorted, duplicate-free) with every stored value 1.0.
    """
    result = None
    for src, dst in metapath.hops():
        hop = boolean_csr(graph.typed_adjacency(src, dst))
        result = hop if result is None else (result @ hop).tocsr()
    result = result.copy()
    result.sum_duplicates()
    if result.nnz:
        result.data = np.ones_like(result.data)
    return result


def csr_row_jaccard(a: sp.csr_matrix, b: sp.csr_matrix) -> np.ndarray:
    """Per-row Jaccard through an elementwise CSR product (empty union: 1)."""
    a, b = boolean_csr(a), boolean_csr(b)
    intersection = np.asarray(a.multiply(b).sum(axis=1)).ravel()
    union = (
        np.asarray(a.sum(axis=1)).ravel() + np.asarray(b.sum(axis=1)).ravel() - intersection
    )
    result = np.ones(a.shape[0], dtype=np.float64)
    nonzero = union > 0
    result[nonzero] = intersection[nonzero] / union[nonzero]
    return result


def normalized_block(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric-normalised ``[[0, A], [Aᵀ, 0]]`` of a unit-weight canonical ``A``.

    Entry values are ``inv[i] * inv[j]`` over the concatenated degree
    vector, rows in ascending column order.
    """
    n_target, n_father = adjacency.shape
    csc = adjacency.tocsc()
    degrees = np.concatenate([np.diff(adjacency.indptr), np.diff(csc.indptr)]).astype(
        np.float64
    )
    inv = np.zeros_like(degrees)
    positive = degrees > 0
    inv[positive] = 1.0 / np.sqrt(degrees[positive])
    indptr = np.concatenate([adjacency.indptr, adjacency.indptr[-1] + csc.indptr[1:]])
    indices = np.concatenate(
        [adjacency.indices.astype(np.int64) + n_target, csc.indices.astype(np.int64)]
    )
    data = np.repeat(inv, np.diff(indptr)) * inv[indices]
    size = n_target + n_father
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def block_pagerank(
    adjacency: sp.csr_matrix,
    anchor: np.ndarray,
    *,
    alpha: float = 0.15,
    iterations: int = 30,
) -> np.ndarray:
    """NIM's PPR as one SpMV per iteration over the normalised block matrix."""
    restart = np.concatenate([np.asarray(anchor, dtype=np.float64), np.zeros(adjacency.shape[1])])
    return personalized_pagerank(
        normalized_block(adjacency),
        restart,
        alpha=alpha,
        iterations=iterations,
        prenormalized=True,
    )
