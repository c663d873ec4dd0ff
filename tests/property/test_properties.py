"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines.herding import herding_select
from repro.baselines.kcenter import kcenter_select
from repro.core.coverage_kernels import (
    PackedAdjacency,
    greedy_max_coverage_decremental,
    greedy_max_coverage_packed,
    greedy_max_coverage_reference,
)
from repro.core.receptive_field import greedy_max_coverage, receptive_field_size
from repro.core.similarity import metapath_similarity_scores, pairwise_jaccard
from repro.hetero.sparse import boolean_csr, row_normalize
from repro.nn.autograd import Tensor


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
@st.composite
def boolean_matrices(draw, max_rows=12, max_cols=15):
    rows = draw(st.integers(2, max_rows))
    cols = draw(st.integers(2, max_cols))
    data = draw(
        arrays(np.int8, (rows, cols), elements=st.integers(0, 1))
    )
    return sp.csr_matrix(data.astype(float))


small_floats = st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32)


# --------------------------------------------------------------------------- #
# Sparse helpers
# --------------------------------------------------------------------------- #
class TestSparseProperties:
    @given(boolean_matrices())
    @settings(max_examples=30, deadline=None)
    def test_row_normalize_rows_sum_to_one_or_zero(self, matrix):
        normalized = row_normalize(matrix)
        sums = np.asarray(normalized.sum(axis=1)).ravel()
        assert np.all((np.abs(sums - 1.0) < 1e-9) | (np.abs(sums) < 1e-12))

    @given(boolean_matrices())
    @settings(max_examples=30, deadline=None)
    def test_boolean_csr_idempotent(self, matrix):
        once = boolean_csr(matrix)
        twice = boolean_csr(once)
        assert (once != twice).nnz == 0


# --------------------------------------------------------------------------- #
# Jaccard similarity
# --------------------------------------------------------------------------- #
class TestJaccardProperties:
    @given(boolean_matrices())
    @settings(max_examples=30, deadline=None)
    def test_self_similarity_is_one(self, matrix):
        values = pairwise_jaccard(matrix, matrix)
        assert np.allclose(values, 1.0)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetry_and_range(self, seed):
        rng = np.random.default_rng(seed)
        a = sp.csr_matrix((rng.random((8, 12)) < 0.3).astype(float))
        b = sp.csr_matrix((rng.random((8, 12)) < 0.3).astype(float))
        ab = pairwise_jaccard(a, b)
        ba = pairwise_jaccard(b, a)
        assert np.allclose(ab, ba)
        assert np.all(ab >= 0.0) and np.all(ab <= 1.0)


# --------------------------------------------------------------------------- #
# Submodularity of the receptive-field coverage function
# --------------------------------------------------------------------------- #
class TestCoverageProperties:
    @given(boolean_matrices(max_rows=10, max_cols=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_monotonicity(self, matrix, seed):
        """|RF(S ∪ {v})| >= |RF(S)| — coverage never decreases."""
        rng = np.random.default_rng(seed)
        nodes = rng.permutation(matrix.shape[0])
        sizes = [receptive_field_size(matrix, nodes[:k]) for k in range(len(nodes) + 1)]
        assert all(sizes[i] <= sizes[i + 1] for i in range(len(sizes) - 1))

    @given(boolean_matrices(max_rows=10, max_cols=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_diminishing_returns(self, matrix, seed):
        """f(S + v) - f(S) >= f(W + v) - f(W) for S ⊆ W (submodularity)."""
        rng = np.random.default_rng(seed)
        nodes = rng.permutation(matrix.shape[0])
        v = int(nodes[-1])
        small = nodes[:2]
        large = nodes[: max(3, matrix.shape[0] // 2)]
        gain_small = receptive_field_size(matrix, np.append(small, v)) - receptive_field_size(
            matrix, small
        )
        gain_large = receptive_field_size(matrix, np.append(large, v)) - receptive_field_size(
            matrix, large
        )
        assert gain_small >= gain_large

    @given(boolean_matrices(max_rows=10, max_cols=12), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_greedy_gains_sorted_and_budget_respected(self, matrix, budget):
        result = greedy_max_coverage(matrix, np.arange(matrix.shape[0]), budget)
        assert result.selected.size <= budget
        gains = result.gains
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))
        assert result.covered <= matrix.shape[1]

    @given(boolean_matrices(max_rows=10, max_cols=12), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_greedy_achieves_at_least_best_single_node(self, matrix, budget):
        """Greedy coverage with budget >= 1 is at least the best single node."""
        result = greedy_max_coverage(matrix, np.arange(matrix.shape[0]), budget)
        best_single = max(
            receptive_field_size(matrix, np.array([node]))
            for node in range(matrix.shape[0])
        )
        assert result.covered >= best_single


# --------------------------------------------------------------------------- #
# Kernel equivalence: decremental == batched CELF == both reference branches
# --------------------------------------------------------------------------- #
class TestCoverageKernelEquivalence:
    """Every coverage strategy must return the byte-identical greedy run."""

    @given(
        boolean_matrices(max_rows=16, max_cols=40),
        st.integers(1, 10),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_strategies_identical(self, matrix, budget, seed):
        rng = np.random.default_rng(seed)
        pool_size = int(rng.integers(1, matrix.shape[0] + 1))
        pool = rng.choice(matrix.shape[0], size=pool_size, replace=bool(rng.integers(2)))
        packed = PackedAdjacency.from_csr(matrix)
        kernels = [
            greedy_max_coverage_decremental(packed, pool, budget),
            greedy_max_coverage_packed(packed, pool, budget, batch_size=2),
            greedy_max_coverage_packed(packed, pool, budget),
            greedy_max_coverage(matrix, pool, budget),
        ]
        for lazy in (True, False):
            reference = greedy_max_coverage_reference(matrix, pool, budget, lazy=lazy)
            for result in kernels:
                np.testing.assert_array_equal(result.selected, reference.selected)
                np.testing.assert_array_equal(result.gains, reference.gains)
                assert result.covered == reference.covered

    @given(boolean_matrices(max_rows=14, max_cols=30), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_packed_union_matches_csr_union(self, matrix, seed):
        rng = np.random.default_rng(seed)
        nodes = rng.choice(matrix.shape[0], size=int(rng.integers(0, matrix.shape[0] + 1)))
        packed = PackedAdjacency.from_csr(matrix)
        assert receptive_field_size(packed, nodes) == receptive_field_size(matrix, nodes)

    @given(boolean_matrices(max_rows=12, max_cols=20), st.integers(2, 4))
    @settings(max_examples=25, deadline=None)
    def test_similarity_scores_symmetric_pair_rewrite(self, matrix, copies):
        """The single-multiply-per-pair rewrite equals the naive double loop."""
        rng = np.random.default_rng(matrix.nnz)
        adjacencies = [matrix]
        for _ in range(copies - 1):
            perm = rng.permutation(matrix.shape[0])
            adjacencies.append(matrix[perm])
        scores = metapath_similarity_scores(adjacencies)
        naive = np.zeros_like(scores)
        for i in range(copies):
            for j in range(copies):
                if i != j:
                    naive[:, i] += pairwise_jaccard(adjacencies[i], adjacencies[j])
        naive /= copies - 1
        np.testing.assert_allclose(scores, naive)


# --------------------------------------------------------------------------- #
# Coreset selection primitives
# --------------------------------------------------------------------------- #
class TestSelectionProperties:
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 25),
        st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_herding_unique_and_bounded(self, seed, count, budget):
        points = np.random.default_rng(seed).standard_normal((count, 4))
        chosen = herding_select(points, budget)
        assert len(chosen) == min(budget, count)
        assert len(set(chosen.tolist())) == len(chosen)
        assert chosen.max(initial=-1) < count

    @given(
        st.integers(0, 2**31 - 1),
        st.integers(2, 25),
        st.integers(1, 10),
    )
    @settings(max_examples=25, deadline=None)
    def test_kcenter_unique_and_bounded(self, seed, count, budget):
        rng = np.random.default_rng(seed)
        points = rng.standard_normal((count, 3))
        chosen = kcenter_select(points, budget, rng)
        assert len(chosen) == min(budget, count)
        assert len(set(chosen.tolist())) == len(chosen)


# --------------------------------------------------------------------------- #
# Autograd engine
# --------------------------------------------------------------------------- #
class TestAutogradProperties:
    @given(
        arrays(np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False)),
        arrays(np.float64, (4, 3), elements=st.floats(-5, 5, allow_nan=False)),
    )
    @settings(max_examples=30, deadline=None)
    def test_addition_gradient_is_ones(self, a, b):
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        (ta + tb).sum().backward()
        assert np.allclose(ta.grad, 1.0)
        assert np.allclose(tb.grad, 1.0)

    @given(arrays(np.float64, (3, 4), elements=st.floats(-5, 5, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_mul_gradient_matches_operand(self, a):
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(a.copy() + 1.0, requires_grad=True)
        (ta * tb).sum().backward()
        assert np.allclose(ta.grad, tb.data)
        assert np.allclose(tb.grad, ta.data)

    @given(arrays(np.float64, (5, 3), elements=st.floats(-8, 8, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_are_distributions(self, logits):
        probs = Tensor(logits).softmax(axis=-1).numpy()
        assert np.all(probs >= 0)
        assert np.allclose(probs.sum(axis=-1), 1.0)

    @given(arrays(np.float64, (6,), elements=st.floats(-3, 3, allow_nan=False)))
    @settings(max_examples=30, deadline=None)
    def test_relu_gradient_zero_one(self, values):
        tensor = Tensor(values, requires_grad=True)
        tensor.relu().sum().backward()
        assert set(np.unique(tensor.grad)).issubset({0.0, 1.0})
