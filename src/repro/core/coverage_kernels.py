"""Packed-bitset coverage kernels: the vectorized hot path of Eq. 2–3.

The greedy receptive-field maximiser evaluates marginal coverage gains
``|RF(S ∪ {v})| − |RF(S)|`` thousands of times per condensation run.  The
original implementation walked CSR index slices in Python, one candidate at
a time.  This module replaces that walk with a *packed-bitset* kernel:

* every row of a boolean meta-path adjacency is stored as 64-bit words
  (:class:`PackedAdjacency`, the form meta-paths are composed in), so a
  receptive field of 5 000 source nodes is 79 machine words instead of a
  Python set;
* a marginal gain is ``popcount(row & ~covered)`` — a handful of vectorized
  word operations via :func:`bit_count`;
* whole candidate batches are evaluated in one NumPy call
  (:meth:`PackedAdjacency.marginal_gains`), which is what makes the batched
  CELF loop in :func:`greedy_max_coverage_packed` fast.

Selection semantics are *identical* to the classic lazy CELF heap: at every
round the candidate with the highest current marginal gain is selected, ties
broken by the lowest node id.  :func:`greedy_max_coverage_reference` keeps
the original heap/loop implementation as the correctness oracle — the
property suite and the ``perf-smoke`` CI gate assert that reference and
packed kernels return byte-identical selections.

All kernels treat a receptive field as a *set* of columns.  Equivalence
with the scalar reference therefore assumes canonical CSR input (sorted,
duplicate-free — everything this library produces): a duplicate stored
entry counts once here but is double-counted by the reference's
``count_nonzero`` walk.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro import obs

__all__ = [
    "CoverageResult",
    "PackedAdjacency",
    "bit_count",
    "greedy_max_coverage_decremental",
    "greedy_max_coverage_packed",
    "greedy_max_coverage_reference",
]

#: stale heap entries re-evaluated per vectorized pass of the batched CELF
DEFAULT_BATCH_SIZE = 64


# --------------------------------------------------------------------------- #
# Popcount
# --------------------------------------------------------------------------- #
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _bit_count_lut(words: np.ndarray) -> np.ndarray:
    """Per-element population count via a byte lookup table.

    The NumPy < 2 fallback (no ``np.bitwise_count``).  Defined — and unit
    tested against :func:`bit_count` — on every NumPy version, so the
    fallback cannot rot between runs of the CI ``numpy<2`` matrix leg.
    """
    words = np.ascontiguousarray(words)
    as_bytes = words.view(np.uint8).reshape(words.shape + (words.dtype.itemsize,))
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1, dtype=np.uint8)


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0

    def bit_count(words: np.ndarray) -> np.ndarray:
        """Per-element population count of an unsigned integer array."""
        return np.bitwise_count(words)

else:  # pragma: no cover - exercised on the NumPy < 2.0 CI leg
    bit_count = _bit_count_lut


@dataclass
class CoverageResult:
    """Outcome of one greedy max-coverage run."""

    selected: np.ndarray
    #: marginal coverage gain of each selected node, aligned with ``selected``
    gains: np.ndarray
    #: total number of distinct source nodes covered by the selection
    covered: int
    #: number of candidate evaluations performed (lazy-greedy bookkeeping)
    evaluations: int = field(default=0)


def _empty_result() -> CoverageResult:
    return CoverageResult(np.empty(0, dtype=np.int64), np.empty(0), 0, 0)


# --------------------------------------------------------------------------- #
# Packed representation
# --------------------------------------------------------------------------- #
#: temporary bytes one row block of a words->pattern expansion may unpack;
#: a constant, so peak memory stays bounded however dense a path gets
_UNPACK_BLOCK_BYTES = 1 << 22
#: the largest index SciPy stores in int32 CSR index arrays
_INT32_MAX = int(np.iinfo(np.int32).max)


def _index_dtype(shape: tuple[int, int], nnz: int) -> type:
    """The index dtype SciPy gives a CSR of ``shape`` with ``nnz`` entries."""
    return np.int32 if max(*shape, nnz) <= _INT32_MAX else np.int64


def _expand_pattern(
    words: np.ndarray, sizes: np.ndarray, n_cols: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR index pattern ``(indptr, indices)`` of the set bits of ``words``.

    Row-major bit order is sorted CSR order, so no sort runs.  Rows are
    expanded in blocks of at most ``_UNPACK_BLOCK_BYTES`` unpacked bits,
    straight into the index array: a block holding at least half a set
    bit per word is unpacked whole and each set bit's flat position minus
    its row's offset is its column; a sparser block unpacks only its
    non-zero words.
    """
    n_rows, n_words = words.shape
    dtype = _index_dtype((n_rows, n_cols), int(sizes.sum()))
    indptr = np.zeros(n_rows + 1, dtype=dtype)
    np.cumsum(sizes, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=dtype)
    stride = 64 * n_words
    block = max(1, _UNPACK_BLOCK_BYTES // stride)
    for start in range(0, n_rows, block):
        chunk = np.ascontiguousarray(words[start : start + block])
        out = indices[indptr[start] : indptr[start + chunk.shape[0]]]
        if 2 * out.size >= chunk.size:
            bits = np.unpackbits(chunk.view(np.uint8), axis=1, bitorder="little")
            offsets = np.repeat(
                np.arange(0, chunk.shape[0] * stride, stride), sizes[start : start + block]
            )
            np.subtract(np.flatnonzero(bits.view(bool)), offsets, out=out, casting="unsafe")
        else:
            nonzero = chunk != 0
            bits = np.unpackbits(chunk[nonzero].view(np.uint8), bitorder="little")
            bits = np.flatnonzero(bits.view(bool))
            word_cols = np.nonzero(nonzero)[1]
            np.bitwise_or(word_cols[bits >> 6] << 6, bits & 63, out=out, casting="unsafe")
    return indptr, indices


def _csc(packed: "PackedAdjacency") -> tuple[np.ndarray, np.ndarray]:
    """The CSC index pattern ``(indptr, indices)`` of a packed pattern.

    SciPy's counting-sort transpose, run over placeholder boolean values
    that are dropped: only the inverted column->row index is kept.
    """
    indptr, indices = packed.pattern()
    flags = np.ones(indices.size, dtype=bool)
    csc = sp.csr_matrix((flags, indices, indptr), shape=packed.shape).tocsc()
    return csc.indptr, csc.indices


class PackedAdjacency:
    """Bit-packed boolean adjacency: row ``i``'s receptive field as uint64 words.

    ``words`` has shape ``(n_rows, ceil(n_cols / 64))``; bit ``j`` of the
    row is bit ``j % 64`` of word ``j // 64`` (little-endian bit order, the
    layout ``np.packbits(..., bitorder="little")`` would produce), and the
    padding bits past ``n_cols`` are zero.  This is the form in which
    meta-paths are composed (:func:`repro.core.metapaths.compose_packed`).

    The object owns every form derived from its bit pattern.  The words are
    read-only.  The one index form it keeps is the CSR index pattern
    (:meth:`pattern`): the source CSR's arrays when it was packed from a
    canonical CSR, otherwise expanded from the words on first use.  The
    unit-valued CSR (:meth:`to_csr`) wraps that pattern for the callers that
    read values and is not kept.  The CSC index pattern
    (:meth:`column_pattern`) and any other form built through
    :meth:`derived` (NIM's Eq. 11 operator) are built on first use and kept
    for the object's lifetime, so a derived form dies with its pattern and
    never goes stale.  Patching builds a new object.

    Examples
    --------
    >>> import numpy as np
    >>> import scipy.sparse as sp
    >>> csr = sp.csr_matrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
    >>> packed = PackedAdjacency.from_csr(csr)
    >>> packed.words.flags.writeable        # the words are read-only
    False
    >>> packed.to_csr() is csr              # a canonical CSR is kept as is
    True
    >>> packed.pattern()[1] is csr.indices  # ... and its indices are the pattern
    True
    >>> packed.column_pattern() is packed.column_pattern()  # built once, then kept
    True
    """

    __slots__ = ("shape", "words", "_csr", "_pattern", "_sizes", "_derived")

    def __init__(
        self,
        words: np.ndarray,
        shape: tuple[int, int],
        csr: sp.csr_matrix | None = None,
        pattern: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> None:
        words.setflags(write=False)
        self.words = words
        self.shape = (int(shape[0]), int(shape[1]))
        #: the canonical unit-valued CSR of the same pattern, when the caller has one
        self._csr = csr
        self._pattern = pattern if csr is None else (csr.indptr, csr.indices)
        self._sizes: np.ndarray | None = None
        self._derived: dict = {}

    @classmethod
    def from_csr(
        cls, matrix: "sp.spmatrix | np.ndarray | PackedAdjacency"
    ) -> "PackedAdjacency":
        """Pack the sparsity pattern of ``matrix`` (stored entries = set bits).

        A :class:`PackedAdjacency` is returned as is.  The bits of one word
        are consecutive entries of a row in sorted CSR order, so one
        ``np.bitwise_or.reduceat`` over those runs packs the whole matrix;
        unsorted input is ordered first.  ``matrix`` is kept as the CSR form
        only when it is canonical with unit values; otherwise :meth:`pattern`
        expands the index pattern from the words.
        """
        if isinstance(matrix, cls):
            return matrix
        csr = matrix.tocsr() if sp.issparse(matrix) else sp.csr_matrix(np.asarray(matrix))
        n_rows, n_cols = csr.shape
        n_words = max(1, (n_cols + 63) // 64)
        words = np.zeros((n_rows, n_words), dtype=np.uint64)
        if csr.nnz:
            columns = csr.indices.astype(np.int64)
            rows = np.repeat(
                np.arange(n_rows, dtype=np.int64), np.diff(csr.indptr).astype(np.int64)
            )
            flat = rows * n_words + (columns >> 6)
            bits = np.left_shift(np.uint64(1), (columns & 63).astype(np.uint64))
            if (flat[1:] < flat[:-1]).any():
                order = np.argsort(flat, kind="stable")
                flat, bits = flat[order], bits[order]
            runs = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
            words.reshape(-1)[flat[runs]] = np.bitwise_or.reduceat(bits, runs)
        canonical = csr.has_canonical_format and bool((csr.data == 1).all())
        return cls(words, (n_rows, n_cols), csr if canonical else None)

    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSR index pattern ``(indptr, indices)`` of the set bits, kept.

        Sorted and duplicate-free, in the index dtype SciPy would pick.
        Taken from the source CSR when there is one, otherwise expanded from
        the words once (span ``core.csr``).
        """
        if self._pattern is None:
            with obs.span("core.csr", rows=self.shape[0], nnz=self.nnz):
                self._pattern = _expand_pattern(self.words, self.sizes(), self.shape[1])
        return self._pattern

    @property
    def kept_pattern(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The index pattern if it has been taken or expanded, else None (never builds)."""
        return self._pattern

    def to_csr(self) -> sp.csr_matrix:
        """The canonical unit-valued CSR of the set bits.

        The source CSR when there is one; otherwise :meth:`pattern` wrapped
        with fresh unit data, which is not kept.  For callers that read
        values (degree importance, analyses).
        """
        if self._csr is not None:
            return self._csr
        indptr, indices = self.pattern()
        csr = sp.csr_matrix((np.ones(indices.size), indices, indptr), shape=self.shape)
        csr.has_canonical_format = True
        return csr

    def column_pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSC index pattern (inverted column->row index), built once."""
        return self.derived(_csc)

    def derived(self, build: Callable[["PackedAdjacency"], object]):
        """``build(self)``, built on first use and kept.

        ``build`` is a module-level function of the packed object and the
        memo key, so each derived form is built once per pattern.
        """
        form = self._derived.get(build)
        if form is None:
            form = self._derived[build] = build(self)
        return form

    def derived_forms(self) -> dict:
        """Every form built through :meth:`derived` so far, by builder."""
        return dict(self._derived)

    @property
    def num_words(self) -> int:
        """Words per packed row."""
        return self.words.shape[1]

    @property
    def nnz(self) -> int:
        """Number of set bits (stored entries of the CSR form)."""
        return int(self.sizes().sum())

    def sizes(self) -> np.ndarray:
        """Receptive-field size of every row (popcount), computed once."""
        if self._sizes is None:
            self._sizes = bit_count(self.words).sum(axis=1, dtype=np.int64)
        return self._sizes

    def empty_cover(self) -> np.ndarray:
        """A fresh all-zero cover vector (one uint64 word row)."""
        return np.zeros(self.num_words, dtype=np.uint64)

    def row_sizes(self, rows: np.ndarray) -> np.ndarray:
        """Receptive-field size of each row in ``rows``."""
        return self.sizes()[rows]

    def marginal_gains(self, rows: np.ndarray, covered: np.ndarray) -> np.ndarray:
        """``popcount(row & ~covered)`` for every row in ``rows`` at once."""
        free = self.words[rows] & ~covered
        return bit_count(free).sum(axis=1, dtype=np.int64)

    def add_to_cover(self, row: int, covered: np.ndarray) -> None:
        """OR row ``row`` into ``covered`` in place."""
        np.bitwise_or(covered, self.words[row], out=covered)

    def union_words(self, rows: np.ndarray) -> np.ndarray:
        """OR-reduction of the packed rows (the cover of the set ``rows``)."""
        return np.bitwise_or.reduce(self.words[rows], axis=0)

    def union_count(self, rows: np.ndarray) -> int:
        """|RF(rows)|: distinct columns covered by the union of ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return 0
        return int(bit_count(self.union_words(rows)).sum(dtype=np.int64))

    def unpack(self) -> np.ndarray:
        """Dense boolean matrix (tests / debugging; allocates n_rows×n_cols)."""
        bits = np.unpackbits(
            np.ascontiguousarray(self.words).view(np.uint8), axis=1, bitorder="little"
        )
        return bits[:, : self.shape[1]].astype(bool)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PackedAdjacency(shape={self.shape}, words={self.words.shape})"


# --------------------------------------------------------------------------- #
# Batched-CELF greedy maximisation
# --------------------------------------------------------------------------- #
def greedy_max_coverage_packed(
    packed: PackedAdjacency,
    pool: np.ndarray,
    budget: int,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> CoverageResult:
    """Greedy max coverage over ``pool`` on a packed adjacency (Eq. 3).

    The *batched CELF* strategy: cached gains are upper bounds (coverage is
    submodular, so gains only shrink), and each round the top-``batch_size``
    stale bounds that could still beat the best fresh candidate are
    re-evaluated in one vectorized pass.  Returns the exact greedy
    selection with deterministic tie-breaking (highest current gain, then
    lowest node id).
    """
    pool = np.asarray(pool, dtype=np.int64)
    budget = int(min(budget, pool.size))
    if budget <= 0:
        return _empty_result()

    # Candidates sorted ascending: np.argmax then breaks ties by lowest id.
    candidates = np.unique(pool)
    covered = packed.empty_cover()
    upper = packed.marginal_gains(candidates, covered)
    return _packed_greedy_loop(
        packed,
        candidates,
        upper,
        np.ones(candidates.size, dtype=bool),
        covered,
        [],
        [],
        budget,
        batch_size=batch_size,
        evaluations=int(candidates.size),
        round_id=0,
    )


def _packed_greedy_loop(
    packed: PackedAdjacency,
    candidates: np.ndarray,
    upper: np.ndarray,
    alive: np.ndarray,
    covered: np.ndarray,
    selected: list[int],
    gains: list[float],
    budget: int,
    *,
    batch_size: int,
    evaluations: int,
    round_id: int,
) -> CoverageResult:
    """Run the batched-CELF greedy loop from an arbitrary state.

    ``candidates`` must be sorted ascending (lowest-id tie-breaking relies
    on it) and ``upper`` must hold valid gain upper bounds — exact gains at
    ``round_id == 0``, any submodular upper bound afterwards.  The streaming
    warm start (:mod:`repro.streaming.warmstart`) resumes this loop after
    replaying a verified selection prefix; ``greedy_max_coverage_packed``
    calls it with the empty initial state.  Selections are byte-identical
    either way because the loop body is the single shared implementation.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    while len(selected) < budget and alive.any():
        if round_id == 0:
            # All bounds exact: plain argmax.
            remaining = np.flatnonzero(alive)
            best_pos = int(remaining[np.argmax(upper[remaining])])
            best_gain = int(upper[best_pos])
        else:
            # Batched CELF round: cached bounds are stale; re-evaluate the
            # top-``batch_size`` bounds per vectorized pass, pruning every
            # candidate whose bound can no longer win the round (lower than
            # the best fresh gain, or equal with a higher node id).
            best_pos, best_gain = -1, -1
            stale = np.flatnonzero(alive)
            while stale.size:
                bounds = upper[stale]
                if best_pos >= 0:
                    possible = (bounds > best_gain) | (
                        (bounds == best_gain) & (stale < best_pos)
                    )
                    stale = stale[possible]
                    bounds = bounds[possible]
                    if stale.size == 0:
                        break
                if stale.size > batch_size:
                    top = np.argpartition(-bounds, batch_size - 1)[:batch_size]
                    batch = stale[top]
                    rest = np.ones(stale.size, dtype=bool)
                    rest[top] = False
                    stale = stale[rest]
                else:
                    batch, stale = stale, stale[:0]
                fresh_gains = packed.marginal_gains(candidates[batch], covered)
                upper[batch] = fresh_gains
                evaluations += int(batch.size)
                batch_best = int(fresh_gains.max())
                if batch_best > best_gain:
                    best_gain = batch_best
                    best_pos = int(batch[fresh_gains == batch_best].min())
                elif batch_best == best_gain:
                    tied = int(batch[fresh_gains == batch_best].min())
                    best_pos = min(best_pos, tied)

        if best_pos < 0 or (best_gain <= 0 and selected):
            break
        node = int(candidates[best_pos])
        selected.append(node)
        gains.append(float(best_gain))
        packed.add_to_cover(node, covered)
        alive[best_pos] = False
        round_id += 1

    return CoverageResult(
        selected=np.asarray(selected, dtype=np.int64),
        gains=np.asarray(gains, dtype=np.float64),
        covered=int(bit_count(covered).sum(dtype=np.int64)),
        evaluations=evaluations,
    )


# --------------------------------------------------------------------------- #
# Decremental exact greedy (inverted-index kernel)
# --------------------------------------------------------------------------- #
def greedy_max_coverage_decremental(
    packed: PackedAdjacency,
    pool: np.ndarray,
    budget: int,
) -> CoverageResult:
    """Exact greedy max coverage with decrementally maintained gains.

    Instead of re-evaluating stale gain bounds (CELF), this kernel keeps
    every candidate's marginal gain *exact* at all times: when a node is
    selected, each newly covered column looks up the rows that contain it
    through an inverted column→row index (the CSC form of the adjacency)
    and those rows' gains are decremented with one ``np.bincount``.  A
    (row, column) pair is touched at most once over the entire run — the
    column is covered exactly once — so gain maintenance is amortized
    ``O(nnz)`` and each round reduces to a single ``argmax``.  This is the
    fastest strategy for the condensation workload (large pools, small
    budgets) and returns the identical selection: highest current gain,
    ties broken by the lowest node id.

    It reads the row and column index patterns that ``packed`` builds
    once and keeps, so per-class greedy runs over the same meta-path share
    them.
    """
    pool = np.asarray(pool, dtype=np.int64)
    budget = int(min(budget, pool.size))
    if budget <= 0:
        return _empty_result()

    n_rows, n_cols = packed.shape
    (indptr, indices), (col_indptr, col_rows) = packed.pattern(), packed.column_pattern()
    if pool.size > 1 and bool(np.all(pool[1:] > pool[:-1])):
        candidates = pool  # already sorted and duplicate-free
    else:
        candidates = np.unique(pool)
    # Exact initial gains of every candidate: its receptive-field size.
    # Selected / non-candidate entries are parked at -1, so the per-round
    # argmax needs no mask; first-max ties resolve to the lowest node id
    # because ``candidates`` is sorted ascending.
    cand_gain = np.diff(indptr).astype(np.int64)[candidates]
    # Non-candidate rows map to a spill bin (index ``candidates.size``) so
    # the per-round bincount needs no filtering pass.
    position_of_row = np.full(n_rows, candidates.size, dtype=np.int64)
    position_of_row[candidates] = np.arange(candidates.size, dtype=np.int64)
    evaluations = int(candidates.size)
    n_alive = int(candidates.size)
    covered_cols = np.zeros(n_cols, dtype=bool)
    covered_count = 0
    selected: list[int] = []
    gains: list[float] = []

    col_indptr = col_indptr.astype(np.int64)

    while len(selected) < budget and n_alive:
        best_pos = int(np.argmax(cand_gain))
        best_gain = int(cand_gain[best_pos])
        if best_gain <= 0 and selected:
            break
        node = int(candidates[best_pos])
        selected.append(node)
        gains.append(float(best_gain))
        cand_gain[best_pos] = -1  # dead: decrements keep it negative
        n_alive -= 1

        row_cols = indices[indptr[node] : indptr[node + 1]]
        new_cols = row_cols[~covered_cols[row_cols]]
        if new_cols.size:
            covered_cols[new_cols] = True
            covered_count += int(new_cols.size)
            # Gather the rows of every newly covered column in one shot
            # (vectorized multi-slice indexing into the CSC index array).
            starts = col_indptr[new_cols]
            lengths = col_indptr[new_cols + 1] - starts
            total = int(lengths.sum())
            if total:
                offsets = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
                affected = position_of_row[col_rows[offsets + np.arange(total, dtype=np.int64)]]
                cand_gain -= np.bincount(affected, minlength=cand_gain.size + 1)[:-1]
                evaluations += total

    return CoverageResult(
        selected=np.asarray(selected, dtype=np.int64),
        gains=np.asarray(gains, dtype=np.float64),
        covered=covered_count,
        evaluations=evaluations,
    )


# --------------------------------------------------------------------------- #
# Reference implementation (correctness oracle)
# --------------------------------------------------------------------------- #
def greedy_max_coverage_reference(
    adjacency: sp.csr_matrix,
    pool: np.ndarray,
    budget: int,
    *,
    lazy: bool = True,
) -> CoverageResult:
    """Scalar CELF / eager greedy over CSR index slices.

    The pre-kernel implementation, kept as the oracle the vectorized kernels
    are verified against (property tests and the CI ``perf-smoke`` gate).
    Both branches break gain ties by the lowest node id, matching
    :func:`greedy_max_coverage_packed` exactly.
    """
    pool = np.asarray(pool, dtype=np.int64)
    budget = int(min(budget, pool.size))
    if budget <= 0:
        return _empty_result()

    indptr, indices = adjacency.indptr, adjacency.indices
    covered = np.zeros(adjacency.shape[1], dtype=bool)
    selected: list[int] = []
    gains: list[float] = []
    evaluations = 0

    def marginal_gain(node: int) -> int:
        start, stop = indptr[node], indptr[node + 1]
        neighbors = indices[start:stop]
        return int(np.count_nonzero(~covered[neighbors]))

    if lazy:
        # CELF priority queue of (negative gain, staleness round, node).
        heap: list[tuple[float, int, int]] = []
        for node in pool:
            evaluations += 1
            heapq.heappush(heap, (-float(marginal_gain(int(node))), 0, int(node)))
        round_id = 0
        while heap and len(selected) < budget:
            neg_gain, stamp, node = heapq.heappop(heap)
            if stamp == round_id:
                gain = -neg_gain
                if gain <= 0 and selected:
                    break
                selected.append(node)
                gains.append(gain)
                start, stop = indptr[node], indptr[node + 1]
                covered[indices[start:stop]] = True
                round_id += 1
            else:
                evaluations += 1
                heapq.heappush(heap, (-float(marginal_gain(node)), round_id, node))
    else:
        # Ascending iteration keeps tie-breaking deterministic (lowest id
        # wins), identical to the lazy branch.
        remaining = np.unique(pool).tolist()
        while remaining and len(selected) < budget:
            best_node, best_gain = -1, -1
            for node in remaining:
                evaluations += 1
                gain = marginal_gain(node)
                if gain > best_gain:
                    best_node, best_gain = node, gain
            if best_node < 0 or (best_gain <= 0 and selected):
                break
            selected.append(best_node)
            gains.append(float(best_gain))
            remaining.remove(best_node)
            start, stop = indptr[best_node], indptr[best_node + 1]
            covered[indices[start:stop]] = True

    return CoverageResult(
        selected=np.asarray(selected, dtype=np.int64),
        gains=np.asarray(gains, dtype=np.float64),
        covered=int(covered.sum()),
        evaluations=evaluations,
    )
