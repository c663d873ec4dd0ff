"""Tests for the packed-bitset / decremental coverage kernels."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CondensationContext, TargetNodeSelector
from repro.core.coverage_kernels import (
    PackedAdjacency,
    bit_count,
    greedy_max_coverage_decremental,
    greedy_max_coverage_packed,
    greedy_max_coverage_reference,
)
from repro.core.receptive_field import greedy_max_coverage, receptive_field_size


def random_boolean_csr(seed: int, n_rows: int = 30, n_cols: int = 80, density: float = 0.15):
    rng = np.random.default_rng(seed)
    return sp.csr_matrix((rng.random((n_rows, n_cols)) < density).astype(float))


def reference_branches(matrix, pool, budget):
    """Both branches of the scalar oracle: lazy CELF heap and eager loop."""
    return [
        greedy_max_coverage_reference(matrix, pool, budget, lazy=True),
        greedy_max_coverage_reference(matrix, pool, budget, lazy=False),
    ]


def kernel_results(matrix, pool, budget):
    """Each fast kernel, called directly: decremental and batched CELF."""
    return [
        greedy_max_coverage_decremental(PackedAdjacency.from_csr(matrix), pool, budget),
        greedy_max_coverage_packed(PackedAdjacency.from_csr(matrix), pool, budget),
    ]


class TestBitCount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 2**63, 2**64 - 1], dtype=np.uint64)
        np.testing.assert_array_equal(bit_count(words).astype(int), [0, 1, 2, 1, 64])

    def test_lut_fallback_matches_bit_count(self):
        """The NumPy<2 byte-LUT fallback must agree with the active popcount
        (np.bitwise_count on NumPy>=2) on random words and edge values."""
        from repro.core.coverage_kernels import _bit_count_lut

        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=(7, 13), dtype=np.uint64)
        words[0, 0], words[-1, -1] = np.uint64(0), np.uint64(2**64 - 1)
        np.testing.assert_array_equal(
            _bit_count_lut(words).astype(np.int64), bit_count(words).astype(np.int64)
        )


class TestPackedAdjacency:
    def test_roundtrip(self):
        matrix = random_boolean_csr(0)
        packed = PackedAdjacency.from_csr(matrix)
        np.testing.assert_array_equal(packed.unpack(), matrix.toarray().astype(bool))

    def test_shape_and_word_count(self):
        packed = PackedAdjacency.from_csr(sp.csr_matrix((5, 130)))
        assert packed.shape == (5, 130)
        assert packed.num_words == 3  # ceil(130 / 64)

    def test_row_sizes_match_nnz(self):
        matrix = random_boolean_csr(1)
        packed = PackedAdjacency.from_csr(matrix)
        rows = np.arange(matrix.shape[0])
        np.testing.assert_array_equal(packed.row_sizes(rows), np.diff(matrix.indptr))

    def test_marginal_gains_against_sets(self):
        matrix = random_boolean_csr(2)
        packed = PackedAdjacency.from_csr(matrix)
        covered = packed.empty_cover()
        packed.add_to_cover(0, covered)
        packed.add_to_cover(3, covered)
        covered_cols = set(matrix[0].indices) | set(matrix[3].indices)
        rows = np.arange(matrix.shape[0])
        expected = [
            len(set(matrix[r].indices) - covered_cols) for r in rows
        ]
        np.testing.assert_array_equal(packed.marginal_gains(rows, covered), expected)

    def test_union_count_matches_receptive_field_size(self):
        matrix = random_boolean_csr(3)
        packed = PackedAdjacency.from_csr(matrix)
        nodes = np.array([1, 4, 7, 7, 2])
        assert packed.union_count(nodes) == receptive_field_size(matrix, nodes)
        assert receptive_field_size(packed, nodes) == receptive_field_size(matrix, nodes)

    def test_source_retained(self):
        matrix = random_boolean_csr(4)
        packed = PackedAdjacency.from_csr(matrix)
        assert packed.to_csr() is matrix
        indptr, indices = packed.kept_pattern  # the source's own index arrays
        assert indptr is matrix.indptr and indices is matrix.indices

    def test_empty_matrix(self):
        packed = PackedAdjacency.from_csr(sp.csr_matrix((3, 0)))
        assert packed.union_count(np.array([0, 1])) == 0


class TestPackedOwner:
    """A PackedAdjacency owns its words and every form derived from them."""

    def test_words_are_read_only(self):
        packed = PackedAdjacency.from_csr(random_boolean_csr(30))
        with pytest.raises(ValueError):
            packed.words[0, 0] = np.uint64(1)

    def test_duplicate_entry_csr_is_canonicalised(self):
        from repro.core.neighbor_influence import bipartite_pagerank

        canonical = random_boolean_csr(31)
        # Store every entry of row 0 twice (in reversed order).
        row = canonical.indices[canonical.indptr[0] : canonical.indptr[1]]
        indices = np.concatenate([row, row[::-1], canonical.indices[canonical.indptr[1] :]])
        indptr = canonical.indptr + row.size
        indptr[0] = 0
        duplicated = sp.csr_matrix(
            (np.ones(indices.size), indices, indptr), shape=canonical.shape
        )
        assert not duplicated.has_canonical_format

        csr = PackedAdjacency.from_csr(duplicated).to_csr()
        assert csr is not duplicated and csr.has_canonical_format
        np.testing.assert_array_equal(csr.indptr, canonical.indptr)
        np.testing.assert_array_equal(csr.indices, canonical.indices)
        np.testing.assert_array_equal(csr.data, canonical.data)
        anchor = (np.arange(canonical.shape[0]) % 3 == 0).astype(np.float64)
        fast, _ = bipartite_pagerank(PackedAdjacency.from_csr(duplicated), anchor)
        expected, _ = bipartite_pagerank(PackedAdjacency.from_csr(canonical), anchor)
        assert fast.tobytes() == expected.tobytes()

    def test_column_pattern_is_the_csc_index_without_values(self):
        matrix = random_boolean_csr(32)
        packed = PackedAdjacency(PackedAdjacency.from_csr(matrix).words, matrix.shape)
        greedy_max_coverage_decremental(packed, np.arange(10), 3)
        csc = matrix.tocsc()
        for got, want in zip(packed.column_pattern(), (csc.indptr, csc.indices)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        # No form the kernel left on the adjacency holds values.
        forms = packed.derived_forms().values()
        assert all(array.dtype.kind == "i" for form in forms for array in form)


def assert_same_result(result, reference):
    np.testing.assert_array_equal(result.selected, reference.selected)
    np.testing.assert_array_equal(result.gains, reference.gains)
    assert result.covered == reference.covered


class TestKernelEquivalence:
    """All strategies must return byte-identical selections."""

    @pytest.mark.parametrize("seed", range(8))
    def test_all_strategies_agree(self, seed):
        matrix = random_boolean_csr(seed)
        rng = np.random.default_rng(seed)
        pool = rng.choice(matrix.shape[0], size=20, replace=False)
        budget = int(rng.integers(1, 12))
        packed = PackedAdjacency.from_csr(matrix)
        for reference in reference_branches(matrix, pool, budget):
            for result in [
                greedy_max_coverage_decremental(packed, pool, budget),
                greedy_max_coverage_packed(packed, pool, budget),
                greedy_max_coverage(matrix, pool, budget),
                greedy_max_coverage(packed, pool, budget),
            ]:
                assert_same_result(result, reference)

    @pytest.mark.parametrize("batch_size", [1, 2, 7, 1024])
    def test_celf_batch_size_invariant(self, batch_size):
        matrix = random_boolean_csr(11)
        packed = PackedAdjacency.from_csr(matrix)
        pool = np.arange(matrix.shape[0])
        reference = greedy_max_coverage_reference(matrix, pool, 10)
        result = greedy_max_coverage_packed(packed, pool, 10, batch_size=batch_size)
        assert_same_result(result, reference)

    def test_tie_breaking_lowest_node_id(self):
        # Rows 1 and 3 are identical; both orders of evaluation must pick 1.
        dense = np.zeros((5, 8))
        dense[1, [0, 1, 2]] = 1.0
        dense[3, [0, 1, 2]] = 1.0
        dense[4, [5]] = 1.0
        matrix = sp.csr_matrix(dense)
        for result in kernel_results(matrix, np.arange(5), 2):
            assert result.selected.tolist() == [1, 4]

    def test_eager_branch_deterministic_ties(self):
        # Regression: the eager reference used Python set iteration order.
        dense = np.zeros((6, 4))
        for row in (5, 2, 4):
            dense[row, :2] = 1.0
        matrix = sp.csr_matrix(dense)
        eager = greedy_max_coverage_reference(matrix, np.arange(6), 1, lazy=False)
        lazy = greedy_max_coverage_reference(matrix, np.arange(6), 1, lazy=True)
        assert eager.selected.tolist() == lazy.selected.tolist() == [2]

    def test_duplicate_pool_entries(self):
        matrix = random_boolean_csr(5)
        pool = np.array([3, 3, 1, 7, 1])
        reference = greedy_max_coverage_reference(matrix, pool, 4)
        assert_same_result(greedy_max_coverage(matrix, pool, 4), reference)

    def test_zero_budget_and_empty_pool(self):
        matrix = random_boolean_csr(6)
        for pool, budget in [(np.arange(5), 0), (np.empty(0, dtype=np.int64), 3)]:
            result = greedy_max_coverage(matrix, pool, budget)
            assert result.selected.size == 0
            assert result.covered == 0

    def test_all_zero_gain_selects_single_node(self):
        matrix = sp.csr_matrix((4, 6))
        reference = greedy_max_coverage_reference(matrix, np.arange(4), 3)
        for result in kernel_results(matrix, np.arange(4), 3):
            assert_same_result(result, reference)
        assert reference.selected.tolist() == [0]

    def test_non_canonical_input_not_mutated_and_set_semantics(self):
        # Duplicate stored entry: col 2 appears twice in row 0.
        matrix = sp.csr_matrix(
            (np.ones(3), np.array([2, 2, 3]), np.array([0, 2, 3])), shape=(2, 5)
        )
        data_before = matrix.data.copy()
        result = greedy_max_coverage_decremental(
            PackedAdjacency.from_csr(matrix), np.arange(2), 2
        )
        np.testing.assert_array_equal(matrix.data, data_before)  # caller untouched
        assert matrix.nnz == 3
        # Set semantics: the duplicate counts once, like the packed kernels.
        packed = greedy_max_coverage_packed(
            PackedAdjacency.from_csr(matrix), np.arange(2), 2
        )
        assert_same_result(result, packed)

    def test_decremental_requires_source(self):
        # The decremental kernel reads an index pattern and its CSC.  The
        # dispatcher picks it only where the pattern exists; without one it
        # runs batched CELF and expands nothing from the words.
        matrix = random_boolean_csr(8, n_cols=640, density=0.02)
        pool = np.arange(10)
        reference = greedy_max_coverage_reference(matrix, pool, 4)
        bare = PackedAdjacency(PackedAdjacency.from_csr(matrix).words, matrix.shape)
        assert_same_result(greedy_max_coverage(bare, pool, 4), reference)
        assert bare.kept_pattern is None and not bare.derived_forms()
        kept = PackedAdjacency.from_csr(matrix)
        assert_same_result(greedy_max_coverage(kept, pool, 4), reference)
        assert kept.to_csr() is matrix and kept.derived_forms()  # the CSC it walked

    @pytest.mark.parametrize(
        "n_cols, density, decremental",
        [
            (640, 0.02, True),  # ~13 entries per row, ~1.3 set bits per word
            (80, 0.15, False),  # ~6 set bits per word
            (6400, 0.01, False),  # ~64 entries per row
        ],
    )
    def test_dispatch_follows_cost(self, n_cols, density, decremental):
        matrix = random_boolean_csr(9, n_cols=n_cols, density=density)
        packed = PackedAdjacency.from_csr(matrix)
        pool = np.arange(matrix.shape[0])
        reference = greedy_max_coverage_reference(matrix, pool, 5)
        assert_same_result(greedy_max_coverage(packed, pool, 5), reference)
        assert bool(packed.derived_forms()) == decremental


class TestKernelCacheStaleness:
    """Kernel indexes live on the packed owner: a matrix mutated in place
    and packed again never sees an index built for its old pattern."""

    def test_packed_cache_refreshes_after_mutation(self):
        matrix = random_boolean_csr(20)
        stale = PackedAdjacency.from_csr(matrix)
        emptied = sp.csr_matrix(matrix.shape)
        matrix.indptr, matrix.indices, matrix.data = (
            emptied.indptr, emptied.indices, emptied.data.astype(matrix.data.dtype),
        )
        fresh = PackedAdjacency.from_csr(matrix)
        assert fresh is not stale
        assert fresh.words.sum() == 0

    def test_decremental_csc_refreshes_after_mutation(self):
        matrix = random_boolean_csr(21)
        pool = np.arange(matrix.shape[0])
        greedy_max_coverage_decremental(PackedAdjacency.from_csr(matrix), pool, 5)
        dense = matrix.toarray()
        dense[:, :] = 0.0
        dense[0, 0] = 1.0
        replacement = sp.csr_matrix(dense)
        matrix.indptr, matrix.indices, matrix.data = (
            replacement.indptr, replacement.indices, replacement.data,
        )
        result = greedy_max_coverage_decremental(PackedAdjacency.from_csr(matrix), pool, 5)
        reference = greedy_max_coverage_reference(replacement, pool, 5)
        np.testing.assert_array_equal(result.selected, reference.selected)
        assert result.covered == reference.covered == 1

    def test_unmutated_matrix_keeps_caches(self):
        matrix = random_boolean_csr(22)
        packed = PackedAdjacency.from_csr(matrix)
        greedy_max_coverage_decremental(packed, np.arange(5), 2)
        csc = packed.column_pattern()
        greedy_max_coverage_decremental(packed, np.arange(5), 2)
        assert packed.column_pattern() is csc
        assert packed.to_csr() is matrix


class TestContextPackedCache:
    def test_packed_receptive_field_memoized(self, toy_graph):
        context = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        path = context.metapaths()[0]
        packed = context.packed_receptive_field(path)
        assert context.packed_receptive_field(path) is packed
        assert context.stats["packed_builds"] == 1
        assert context.stats["packed_hits"] == 1
        np.testing.assert_array_equal(
            packed.unpack(), context.receptive_field(path).toarray().astype(bool)
        )

    def test_clear_drops_packed(self, toy_graph):
        context = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        path = context.metapaths()[0]
        first = context.packed_receptive_field(path)
        builds = context.stats["packed_builds"]
        context.clear()
        # The context-level memo is gone (a fresh lookup is a build, not a
        # hit); the words themselves may be served from the graph-level
        # caches when the underlying adjacency is unchanged — either way
        # they must be identical.
        again = context.packed_receptive_field(path)
        assert context.stats["packed_builds"] == builds + 1
        np.testing.assert_array_equal(again.words, first.words)

    def test_criterion_scores_unchanged_by_context_hoist(self, toy_graph):
        """Per-class criterion scores are identical with and without the
        context-level adjacency hoist."""
        selector = TargetNodeSelector(max_hops=2, max_paths=8)
        context = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        cold = selector.select(toy_graph, 8)
        warm = selector.select(toy_graph, 8, context=context)
        np.testing.assert_array_equal(cold.selected, warm.selected)
        np.testing.assert_array_equal(cold.scores, warm.scores)
        for cls in cold.per_class:
            np.testing.assert_array_equal(cold.per_class[cls], warm.per_class[cls])

    def test_criterion_selector_reuses_kernel_indices(self, toy_graph):
        """The greedy kernels read indexes their packed owner memoizes, so
        repeated select() calls rebuild nothing."""
        selector = TargetNodeSelector(max_hops=2, max_paths=8)
        context = CondensationContext(toy_graph, max_hops=2, max_paths=8)
        selector.select(toy_graph, 8, context=context)

        def kernel_index(path):
            packed = context.packed_receptive_field(path)
            return [packed, packed.kept_pattern, *packed.derived_forms().values()]

        cached = [kernel_index(path) for path in context.metapaths()]
        assert any(len(index) > 2 for index in cached)  # a CSC was built
        selector.select(toy_graph, 8, context=context)
        for path, index in zip(context.metapaths(), cached):
            again = kernel_index(path)
            assert len(again) == len(index)
            assert all(a is b for a, b in zip(again, index))
