"""Tests for repro.hetero.sparse."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.hetero.sparse import (
    boolean_csr,
    coo_from_edges,
    degree_vector,
    row_normalize,
    sparse_storage_bytes,
    to_csr,
)
from tests.oracles import symmetric_normalize


class TestToCsr:
    def test_from_dense(self):
        result = to_csr(np.eye(3))
        assert sp.issparse(result) and result.shape == (3, 3)

    def test_from_sparse(self):
        result = to_csr(sp.coo_matrix(np.eye(2)))
        assert isinstance(result, sp.csr_matrix)

    def test_dtype_float(self):
        assert to_csr(np.eye(2, dtype=int)).dtype == np.float64


class TestCooFromEdges:
    def test_basic(self):
        matrix = coo_from_edges(np.array([0, 1]), np.array([1, 0]), (2, 2))
        assert matrix.nnz == 2

    def test_duplicates_binarised(self):
        matrix = coo_from_edges(np.array([0, 0]), np.array([1, 1]), (2, 2))
        assert matrix[0, 1] == 1.0

    def test_weights_kept(self):
        matrix = coo_from_edges(
            np.array([0]), np.array([1]), (2, 2), weights=np.array([2.5])
        )
        assert matrix[0, 1] == 2.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            coo_from_edges(np.array([0, 1]), np.array([1]), (2, 2))

    def test_empty(self):
        matrix = coo_from_edges(np.empty(0, int), np.empty(0, int), (3, 4))
        assert matrix.shape == (3, 4) and matrix.nnz == 0


class TestRowNormalize:
    def test_rows_sum_to_one(self):
        matrix = row_normalize(np.array([[1.0, 1.0], [2.0, 0.0]]))
        sums = np.asarray(matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, [1.0, 1.0])

    def test_empty_rows_stay_zero(self):
        matrix = row_normalize(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert np.asarray(matrix.sum(axis=1)).ravel()[0] == 0.0

    def test_rectangular(self):
        matrix = row_normalize(np.ones((2, 5)))
        assert np.allclose(np.asarray(matrix.sum(axis=1)).ravel(), 1.0)


class TestSymmetricNormalize:
    def test_symmetric_square(self):
        adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
        result = symmetric_normalize(adjacency).toarray()
        assert np.allclose(result, adjacency)  # degree-1 nodes keep weight 1

    def test_rectangular_supported(self):
        result = symmetric_normalize(np.ones((2, 3)))
        assert result.shape == (2, 3)
        assert np.all(result.toarray() > 0)

    def test_zero_rows_handled(self):
        result = symmetric_normalize(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert np.isfinite(result.toarray()).all()


class TestBooleanCsr:
    def test_binarises(self):
        result = boolean_csr(np.array([[0.0, 5.0], [0.3, 0.0]]))
        assert set(np.unique(result.toarray())) <= {0.0, 1.0}

    def test_preserves_pattern(self):
        original = np.array([[0.0, 2.0], [0.0, 0.0]])
        assert boolean_csr(original).nnz == 1


class TestCacheStaleness:
    """In-place mutation is never hidden: boolean_csr caches nothing, and
    matrix_fingerprint (the typed-adjacency memo key) sees buffer rebinds."""

    def _weighted(self):
        matrix = sp.csr_matrix(np.array([[0.0, 2.0, 3.0], [4.0, 0.0, 0.0]]))
        matrix.sum_duplicates()
        return matrix

    def test_setdiag_invalidates(self):
        matrix = sp.csr_matrix(2.0 * np.eye(3))
        stale = boolean_csr(matrix)
        assert stale.nnz == 3 and stale is not matrix
        matrix.setdiag(0.0)
        matrix.eliminate_zeros()
        fresh = boolean_csr(matrix)
        assert fresh.nnz == 0
        assert fresh is not stale

    def test_data_rebind_invalidates(self):
        matrix = self._weighted()
        boolean_csr(matrix)
        matrix.data = np.zeros_like(matrix.data)
        matrix.eliminate_zeros()
        assert boolean_csr(matrix).nnz == 0

    def test_structural_add_invalidates(self):
        matrix = self._weighted()
        stale = boolean_csr(matrix)
        grown = matrix + sp.csr_matrix(
            (np.ones(1), (np.array([1]), np.array([2]))), shape=matrix.shape
        )
        # a new object never sees the old cache; mutating in place does
        matrix.indptr, matrix.indices, matrix.data = (
            grown.indptr, grown.indices, grown.data,
        )
        fresh = boolean_csr(matrix)
        assert fresh.nnz == stale.nnz + 1

    def test_fingerprint_components(self):
        from repro.hetero.sparse import matrix_fingerprint

        matrix = self._weighted()
        token = matrix_fingerprint(matrix)
        assert token == matrix_fingerprint(matrix)
        other = matrix.copy()
        assert token != matrix_fingerprint(other)  # distinct buffers


class TestDegreeAndStorage:
    def test_degree_rows(self):
        degrees = degree_vector(np.array([[1.0, 1.0], [0.0, 0.0]]), axis=1)
        assert np.allclose(degrees, [2.0, 0.0])

    def test_degree_cols(self):
        degrees = degree_vector(np.array([[1.0, 1.0], [0.0, 1.0]]), axis=0)
        assert np.allclose(degrees, [1.0, 2.0])

    def test_storage_positive(self):
        assert sparse_storage_bytes(sp.eye(10, format="csr")) > 0

    def test_storage_grows_with_nnz(self):
        small = sparse_storage_bytes(sp.eye(10, format="csr"))
        large = sparse_storage_bytes(sp.csr_matrix(np.ones((10, 10))))
        assert large > small
