"""Packed composition, popcount Jaccard and the father-chain PPR against their oracles."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.coverage_kernels as kernels_module
import repro.core.metapaths as metapaths_module
from repro import obs
from repro.core import CondensationContext, FreeHGC
from repro.core.coverage_kernels import PackedAdjacency, _csc
from repro.core.metapaths import (
    MetaPath,
    compose_packed,
    compose_packed_rows,
    enumerate_metapaths,
)
from repro.core.neighbor_influence import _scaled_adjacency, bipartite_pagerank
from repro.core.similarity import metapath_similarity_scores, row_jaccard
from repro.datasets import load_dataset
from repro.hetero import HeteroGraphBuilder, HeteroSchema, Relation
from tests.oracles import (
    block_pagerank,
    compose_matmul,
    csr_row_jaccard,
    scaled_adjacency_dense,
)


def random_hin(seed: int, *, n_author: int = 65, empty_relation: bool = False):
    """Random paper/author/term graph with a paper-cite-paper relation.

    Every type keeps some nodes without neighbours; ``empty_relation``
    leaves ``mentions`` without a single edge.
    """
    rng = np.random.default_rng(seed)
    schema = HeteroSchema(
        node_types=("paper", "author", "term"),
        relations=(
            Relation("writes", "author", "paper"),
            Relation("mentions", "paper", "term"),
            Relation("cites", "paper", "paper"),
        ),
        target_type="paper",
        num_classes=2,
        name="random",
    )
    counts = {"paper": int(rng.integers(20, 90)), "author": n_author, "term": 64}
    builder = HeteroGraphBuilder(schema)
    for node_type, count in counts.items():
        builder.add_nodes(node_type, count, rng.standard_normal((count, 3)))

    def edges(src_type, dst_type, density):
        # The last node of each side stays isolated.
        n_src, n_dst = counts[src_type] - 1, counts[dst_type] - 1
        mask = rng.random((n_src, n_dst)) < density
        return np.nonzero(mask)

    builder.add_edges("writes", *edges("author", "paper", rng.uniform(0.01, 0.2)))
    if not empty_relation:
        builder.add_edges("mentions", *edges("paper", "term", rng.uniform(0.01, 0.3)))
    builder.add_edges("cites", *edges("paper", "paper", rng.uniform(0.01, 0.1)))
    labels = np.arange(counts["paper"]) % 2
    builder.set_labels(labels)
    order = rng.permutation(counts["paper"])
    builder.set_splits(order[:10], order[10:14], order[14:])
    return builder.build()


def assert_same_pattern(packed: PackedAdjacency, expected: sp.csr_matrix) -> None:
    reference = PackedAdjacency.from_csr(expected)
    np.testing.assert_array_equal(packed.words, reference.words)
    csr = packed.to_csr()
    assert csr.shape == expected.shape
    np.testing.assert_array_equal(csr.indptr, expected.indptr)
    np.testing.assert_array_equal(csr.indices, expected.indices)
    np.testing.assert_array_equal(csr.data, expected.data)


def mixed_rows(rng, n_cols: int) -> np.ndarray:
    """A boolean matrix of dense, sparse (about 0.3 set bits per word) and empty rows."""
    n_rows = int(rng.integers(1, 30))
    density = rng.choice([0.0, 0.005, 0.6], size=(n_rows, 1))
    return rng.random((n_rows, n_cols)) < density


def words_only(dense: np.ndarray) -> PackedAdjacency:
    """The packed words of ``dense`` without a source CSR, so the pattern is expanded."""
    packed = PackedAdjacency.from_csr(sp.csr_matrix(dense.astype(float)))
    return PackedAdjacency(packed.words, packed.shape)


def assert_pattern_is_nonzero(packed: PackedAdjacency, dtype) -> None:
    """``packed.pattern()`` is ``np.nonzero(packed.unpack())`` in CSR form."""
    indptr, indices = packed.pattern()
    rows, cols = np.nonzero(packed.unpack())
    assert indptr.dtype == indices.dtype == dtype
    assert indptr[0] == 0
    np.testing.assert_array_equal(np.repeat(np.arange(packed.shape[0]), np.diff(indptr)), rows)
    np.testing.assert_array_equal(indices, cols)


def all_paths(graph, max_hops=3):
    return enumerate_metapaths(
        graph.schema, graph.schema.target_type, max_hops, max_paths=64
    )


class TestPackedComposition:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([63, 64, 65]))
    @settings(max_examples=20, deadline=None)
    def test_matches_matmul_composition(self, seed, n_author):
        graph = random_hin(seed, n_author=n_author)
        products: dict = {}
        for path in all_paths(graph):
            assert_same_pattern(compose_packed(graph, path, products), compose_matmul(graph, path))

    def test_hop_with_zero_edges(self):
        graph = random_hin(3, empty_relation=True)
        for path in all_paths(graph):
            packed = compose_packed(graph, path)
            expected = compose_matmul(graph, path)
            assert_same_pattern(packed, expected)
            if "term" in path.node_types:
                assert packed.nnz == 0

    def test_rows_without_neighbours_stay_empty(self):
        graph = random_hin(4)
        path = MetaPath(("paper", "author", "paper"))
        packed = compose_packed(graph, path)
        assert packed.sizes()[-1] == 0  # the isolated last paper
        assert_same_pattern(packed, compose_matmul(graph, path))

    def test_row_block_boundaries(self, monkeypatch):
        # One word row per gathered block, one row per unpacked block: every
        # row crosses a block boundary.
        monkeypatch.setattr(metapaths_module, "_GATHER_BLOCK_BYTES", 8)
        monkeypatch.setattr(kernels_module, "_UNPACK_BLOCK_BYTES", 1)
        for seed in range(4):
            graph = random_hin(seed)
            for path in all_paths(graph):
                assert_same_pattern(compose_packed(graph, path), compose_matmul(graph, path))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 200), st.sampled_from([1, 2, 3, 7, 0]))
    @settings(max_examples=40, deadline=None)
    def test_dense_and_sparse_expansion_agree(self, seed, n_cols, rows_per_block):
        # Dense (whole-row unpack), sparse (non-zero words only) and empty
        # rows side by side, expanded ``rows_per_block`` rows at a time (0:
        # one block), so both branches meet block boundaries in every mix.
        packed = words_only(mixed_rows(np.random.default_rng(seed), n_cols))
        block_bytes = rows_per_block * 64 * packed.num_words or 1 << 30
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels_module, "_UNPACK_BLOCK_BYTES", block_bytes)
            assert_pattern_is_nonzero(packed, np.int32)

    @pytest.mark.parametrize("headroom, dtype", [(0, np.int32), (-1, np.int64)])
    def test_expansion_switches_to_int64_indices(self, monkeypatch, headroom, dtype):
        # SciPy's rule: int32 until the shape or the entry count passes the
        # int32 limit, here lowered to the largest of them.
        packed = words_only(mixed_rows(np.random.default_rng(3), 640))
        largest = max(*packed.shape, packed.nnz)
        monkeypatch.setattr(kernels_module, "_INT32_MAX", largest + headroom)
        monkeypatch.setattr(kernels_module, "_UNPACK_BLOCK_BYTES", 2 * 64 * packed.num_words)
        assert_pattern_is_nonzero(packed, dtype)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_row_subset_matches_full_composition(self, seed):
        graph = random_hin(seed)
        rng = np.random.default_rng(seed)
        n_paper = graph.num_nodes["paper"]
        # Any sorted subset, including none and the isolated last paper.
        rows = np.flatnonzero(rng.random(n_paper) < rng.uniform(0, 0.5))
        for subset in (rows, np.empty(0, dtype=np.int64), np.array([n_paper - 1])):
            for path in all_paths(graph):
                np.testing.assert_array_equal(
                    compose_packed_rows(graph, path, subset),
                    compose_packed(graph, path).words[subset],
                )

    def test_suffix_products_are_shared(self):
        graph = random_hin(6)
        products: dict = {}
        long = compose_packed(graph, MetaPath(("paper", "paper", "author")), products)
        assert ("paper", "author") in products
        short = compose_packed(graph, MetaPath(("paper", "author")), products)
        assert products[("paper", "author")] is short
        assert long is products[("paper", "paper", "author")]

    def test_words_to_csr_is_canonical(self):
        graph = random_hin(7)
        csr = compose_packed(graph, MetaPath(("paper", "author", "paper"))).to_csr()
        assert csr.has_canonical_format
        assert PackedAdjacency.from_csr(csr).to_csr() is csr


class TestPopcountJaccard:
    @given(st.integers(0, 2**31 - 1), st.integers(1, 130))
    @settings(max_examples=40, deadline=None)
    def test_matches_csr_oracle_bit_for_bit(self, seed, n_cols):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(1, 40))
        density_a, density_b = rng.uniform(0, 0.5, size=2)
        dense_a = rng.random((n_rows, n_cols)) < density_a
        dense_b = rng.random((n_rows, n_cols)) < density_b
        dense_a[0] = dense_b[0] = False  # an empty union
        a = sp.csr_matrix(dense_a.astype(float))
        b = sp.csr_matrix(dense_b.astype(float))
        intersection, similarity = row_jaccard(
            PackedAdjacency.from_csr(a), PackedAdjacency.from_csr(b)
        )
        expected = csr_row_jaccard(a, b)
        assert similarity.tobytes() == expected.tobytes()
        assert similarity[0] == 1.0
        np.testing.assert_array_equal(
            intersection, np.asarray(a.multiply(b).sum(axis=1)).ravel()
        )
        rows = np.flatnonzero(rng.random(n_rows) < 0.5)
        subset = row_jaccard(PackedAdjacency.from_csr(a), PackedAdjacency.from_csr(b), rows)
        assert subset[1].tobytes() == expected[rows].tobytes()

    def test_group_scores_match_oracle(self):
        graph = random_hin(8)
        paths = [p for p in all_paths(graph) if p.end == "author"]
        packed = [compose_packed(graph, p) for p in paths]
        scores = metapath_similarity_scores(packed)
        expected = np.zeros_like(scores)
        csrs = [compose_matmul(graph, p) for p in paths]
        for i in range(len(paths)):
            for j in range(i + 1, len(paths)):
                pair = csr_row_jaccard(csrs[i], csrs[j])
                expected[:, i] += pair
                expected[:, j] += pair
        expected /= len(paths) - 1
        assert scores.tobytes() == expected.tobytes()


def father_paths(graph):
    """Every 1- and 2-hop meta-path from the papers to another type."""
    return [path for path in all_paths(graph, max_hops=2) if path.end != "paper"]


def assert_father_chain_matches(adjacency, anchor, *, alpha=0.15, iterations=30):
    """The father chain equals the block-matrix oracle's father half, bit for bit."""
    fast, steps = bipartite_pagerank(
        PackedAdjacency.from_csr(adjacency), anchor, alpha=alpha, iterations=iterations
    )
    reference = block_pagerank(adjacency, anchor, alpha=alpha, iterations=iterations)
    assert fast.tobytes() == reference[adjacency.shape[0] :].tobytes()
    return steps


class TestFatherChainPagerank:
    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.15, 0.3]))
    @example(seed=13752154, alpha=0.15)  # no anchored paper reaches a father on two paths
    @settings(max_examples=25, deadline=None)
    def test_matches_block_matrix_bit_for_bit(self, seed, alpha):
        graph = random_hin(seed)
        rng = np.random.default_rng(seed)
        anchor = (rng.random(graph.num_nodes["paper"]) < 0.3).astype(np.float64)
        for path in father_paths(graph):
            adjacency = compose_matmul(graph, path)
            # When no anchored row has a neighbour on the path, the chain is
            # exactly zero from step 2 and stops there (the rule
            # test_anchor_only_on_isolated_targets pins); else it runs all 30.
            unreached = anchor.any() and adjacency[anchor > 0].nnz == 0
            expected = 2 if unreached else 30
            assert assert_father_chain_matches(adjacency, anchor, alpha=alpha) == expected

    @pytest.mark.parametrize("iterations", [0, 1, 2, 29, 30, 50])
    def test_every_iteration_count(self, iterations):
        # Odd counts end on the chain that starts at the target half.
        for seed in range(3):
            graph = random_hin(seed)
            anchor = (np.arange(graph.num_nodes["paper"]) % 4 == 0).astype(np.float64)
            for path in father_paths(graph):
                adjacency = compose_matmul(graph, path)
                for restart in (anchor, np.zeros_like(anchor)):
                    steps = assert_father_chain_matches(
                        adjacency, restart, iterations=iterations
                    )
                    assert steps == iterations

    def test_isolated_nodes_and_zero_anchor(self):
        adjacency = sp.csr_matrix(
            np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        )
        for anchor in (np.zeros(3), np.array([0.0, 1.0, 1.0]), np.array([0.0, 1.0, 0.0])):
            assert_father_chain_matches(adjacency, anchor, iterations=16)
        packed = PackedAdjacency.from_csr(adjacency)
        uniform, steps = bipartite_pagerank(packed, np.zeros(3), iterations=0)
        np.testing.assert_allclose(uniform, np.full(4, 1.0 / 7))
        assert steps == 0
        # On this 4-node path the uniform restart's chain stops at step 20,
        # before the oracle's whole-iterate test fires.
        stopped, steps = bipartite_pagerank(packed, np.zeros(3), iterations=50)
        reference = block_pagerank(adjacency, np.zeros(3), iterations=50)[3:]
        assert steps == 20
        assert np.abs(stopped - reference).sum() < 1e-8

    def test_anchor_only_on_isolated_targets(self):
        # The last paper has no neighbours on any relation: no father is
        # reached, the chain is exactly zero from step 2 on and stops there.
        graph = random_hin(5)
        anchor = np.zeros(graph.num_nodes["paper"])
        anchor[-1] = 1.0
        for path in father_paths(graph):
            adjacency = compose_matmul(graph, path)
            assert assert_father_chain_matches(adjacency, anchor) == 2

    @pytest.mark.parametrize("alpha", [0.5, 0.9])
    def test_early_stop_agrees_within_tolerance(self, alpha):
        # Where a stop fires the chain tests ||F_k - F_{k-2}||_1 and the
        # oracle the change of the whole iterate, so they stop at different
        # steps; the scores still agree to within the tolerance in L1.
        for seed in range(6):
            graph = random_hin(seed)
            rng = np.random.default_rng(seed)
            anchor = (rng.random(graph.num_nodes["paper"]) < 0.3).astype(np.float64)
            for path in father_paths(graph):
                adjacency = compose_matmul(graph, path)
                fast, steps = bipartite_pagerank(
                    PackedAdjacency.from_csr(adjacency), anchor, alpha=alpha
                )
                reference = block_pagerank(adjacency, anchor, alpha=alpha)
                assert steps < 30
                assert np.abs(fast - reference[adjacency.shape[0] :]).sum() < 1e-8

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            bipartite_pagerank(
                PackedAdjacency.from_csr(sp.csr_matrix((2, 2))), np.ones(2), alpha=1.0
            )

    def test_rejects_negative_iterations(self):
        with pytest.raises(ValueError):
            bipartite_pagerank(
                PackedAdjacency.from_csr(sp.csr_matrix((2, 2))), np.ones(2), iterations=-1
            )

    @pytest.mark.parametrize("dataset", ["acm", "dblp", "imdb"])
    def test_default_condense_runs_every_chain_to_the_cap(self, dataset):
        # Byte identity with the oracle at the default alpha rests on the
        # stop never firing: every NIM meta-path runs all 30 steps.
        graph = load_dataset(dataset, scale=0.1, seed=0)
        with obs.tracing(f"ppr-{dataset}") as tracer:
            FreeHGC().condense(graph, ratio=0.05, seed=0)
            spans = [span for span in tracer.drain_spans() if span.name == "core.ppr"]
        assert spans
        assert {span.attrs["iterations"] for span in spans} == {30}


def held_arrays(packed: PackedAdjacency) -> list[np.ndarray]:
    """Every array ``packed`` holds, through its slots, containers and matrices."""
    stack, arrays = [packed], []
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            arrays.append(item)
        elif isinstance(item, (PackedAdjacency, dict, tuple, list)) or sp.issparse(item):
            stack.extend(gc.get_referents(item))
    return arrays


def assert_no_unit_data(packed: PackedAdjacency, key) -> set:
    """No all-ones float array is reachable from ``packed``; returns its derived builders."""
    unit = [
        array for array in held_arrays(packed)
        if array.dtype == np.float64 and array.size and (array == 1.0).all()
    ]
    assert not unit, key
    return set(packed.derived_forms())


def assert_same_bytes(matrix: sp.csr_matrix, expected: sp.csr_matrix) -> None:
    for name in ("data", "indices", "indptr"):
        got, want = getattr(matrix, name), getattr(expected, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name


class TestScaledOperator:
    """NIM's operator ``S`` is built on the kept index pattern, no unit CSR."""

    @pytest.mark.parametrize("dataset", ["acm", "dblp", "imdb"])
    def test_every_nim_path_matches_the_dense_oracle(self, dataset):
        condenser = FreeHGC(max_hops=3)
        condenser.condense(load_dataset(dataset, scale=1), ratio=0.024, seed=0)
        context = condenser.last_context
        checked = 0
        for father in context.hierarchy.fathers:
            for path in context.metapaths_to(father):
                packed = context.packed_receptive_field(path)
                if packed.nnz:
                    expected = scaled_adjacency_dense(packed.unpack())
                    assert_same_bytes(packed.derived(_scaled_adjacency), expected)
                    checked += 1
        assert checked

    @pytest.mark.parametrize("expand_first", [False, True])
    def test_cold_condense_keeps_no_unit_csr_on_multi_hop_paths(self, expand_first):
        # ``expand_first`` serves every path's unit CSR before the condense,
        # as a traced perfbench replay does: multi-hop coverage paths then
        # hold a pattern and take the decremental kernel and its CSC index.
        graph = load_dataset("acm", scale=1)
        condenser = FreeHGC(max_hops=3)
        context = CondensationContext(graph, max_hops=3, max_paths=condenser.max_paths)
        if expand_first:
            for path in context.metapaths():
                context.receptive_field(path)
        condenser.condense(graph, ratio=0.024, seed=0, context=context)
        forms = set()
        for key in context.cached_path_keys():
            if len(key) > 2:  # a 1-hop path's source CSR is the graph's own
                forms |= assert_no_unit_data(context.cached_packed(key), key)
        assert _scaled_adjacency in forms
        assert (_csc in forms) == expand_first
