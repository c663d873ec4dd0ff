"""Sparse-matrix helpers used throughout the library.

All adjacency matrices are stored as ``scipy.sparse.csr_matrix`` with float
data.  These helpers centralise the normalisations the paper relies on:

* row normalisation (Eq. 1, one hop of feature propagation),
* boolean reachability products used by the receptive-field machinery.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "to_csr",
    "row_normalize",
    "boolean_csr",
    "degree_vector",
    "sparse_storage_bytes",
    "coo_from_edges",
    "matrix_fingerprint",
]


def to_csr(matrix: sp.spmatrix | np.ndarray) -> sp.csr_matrix:
    """Coerce ``matrix`` to a float CSR matrix."""
    if sp.issparse(matrix):
        return matrix.tocsr().astype(np.float64)
    return sp.csr_matrix(np.asarray(matrix, dtype=np.float64))


def coo_from_edges(
    src: np.ndarray, dst: np.ndarray, shape: tuple[int, int], weights: np.ndarray | None = None
) -> sp.csr_matrix:
    """Build a CSR adjacency from parallel source/destination index arrays.

    Duplicate edges are merged by summation and the result is binarised so
    that every edge has unit weight unless explicit ``weights`` are given.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if src.shape != dst.shape:
        raise ValueError("src and dst must have the same shape")
    if weights is None:
        data = np.ones(src.shape[0], dtype=np.float64)
    else:
        data = np.asarray(weights, dtype=np.float64)
        if data.shape != src.shape:
            raise ValueError("weights must match the number of edges")
    matrix = sp.coo_matrix((data, (src, dst)), shape=shape).tocsr()
    matrix.sum_duplicates()
    if weights is None and matrix.nnz:
        matrix.data = np.ones_like(matrix.data)
    return matrix


def row_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Row-normalise ``matrix`` so that every non-empty row sums to one."""
    matrix = to_csr(matrix)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    inv = np.zeros_like(row_sums)
    nonzero = row_sums > 0
    inv[nonzero] = 1.0 / row_sums[nonzero]
    return sp.diags(inv) @ matrix


def matrix_fingerprint(matrix: sp.spmatrix) -> tuple:
    """Cheap structural fingerprint of a compressed sparse matrix.

    Captures the shape, the stored-entry count and the *identity* of the
    three index/data buffers.  It keys the memo of
    :meth:`~repro.hetero.graph.HeteroGraph.typed_adjacency`, the one cache
    over user-owned matrices.  Every structural mutation scipy performs
    (``setdiag``, ``eliminate_zeros``, ``sum_duplicates``, in-place ``+=``,
    assigning a new ``data`` array, ...) reallocates at least one buffer, so
    a changed fingerprint reliably signals that a memoized entry is stale.
    The one mutation it cannot see is an element-wise write *into* the
    existing ``data`` buffer (``m.data[k] = v``) — callers doing that must
    rebind the buffer (``m.data = m.data.copy()``).
    """
    return (
        matrix.shape,
        int(matrix.nnz),
        id(matrix.data),
        id(matrix.indices) if hasattr(matrix, "indices") else None,
        id(matrix.indptr) if hasattr(matrix, "indptr") else None,
    )


def boolean_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Binarise ``matrix`` (all stored entries become 1.0).

    Already-binarised float CSR inputs are returned *as-is* (no copy);
    anything else is converted to a fresh float CSR with unit values.
    """
    if (
        sp.issparse(matrix)
        and matrix.format == "csr"
        and matrix.dtype == np.float64
        and (matrix.nnz == 0 or bool((matrix.data == 1.0).all()))
    ):
        return matrix
    result = to_csr(matrix).copy()
    if result.nnz:
        result.data = np.ones_like(result.data)
    return result


def degree_vector(matrix: sp.spmatrix, axis: int = 1) -> np.ndarray:
    """Return the degree of every row (axis=1) or column (axis=0)."""
    matrix = to_csr(matrix)
    return np.asarray(matrix.sum(axis=axis)).ravel()


def sparse_storage_bytes(matrix: sp.spmatrix) -> int:
    """Approximate in-memory footprint of a CSR matrix in bytes."""
    matrix = to_csr(matrix)
    return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
