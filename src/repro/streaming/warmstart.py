"""Warm-started greedy coverage and the per-selection memo.

The expensive inner loop of the unified criterion is one exact greedy
max-coverage run per (meta-path, class).  After a small graph delta most of
those runs see *exactly* the inputs they saw last time — and the rest see an
adjacency in which only a few rows changed.  This module exploits both:

* :class:`SelectionMemo` caches each meta-path's per-class coverage results,
  score vector and each similarity group's scores, keyed by the *identity*
  of the adjacency objects served by the shared
  :class:`~repro.core.context.CondensationContext`.  Because the context's
  invalidation is precise (only touched paths are rebuilt), identity is an
  exact staleness signal.
* :func:`warm_start_coverage` re-derives a greedy selection on a rebuilt
  adjacency by **replaying the previous selection**: a round's winner is
  provably unchanged while every previously selected node and the round
  winner are *clean* (rows unchanged by the delta) and no *dirty* candidate
  — re-evaluated exactly, through the packed words — can beat the recorded
  gain under the (gain, lowest-id) order.  At the first round where that
  certificate fails, the replay hands the exact mid-run state to the shared
  batched-CELF loop (:func:`~repro.core.coverage_kernels._packed_greedy_loop`).

Both paths return selections **byte-identical** to a from-scratch
:func:`~repro.core.receptive_field.greedy_max_coverage` — the replay only
skips work whose outcome is forced, and the continuation runs the very same
kernel loop.  The property suite verifies this on randomly perturbed graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.coverage_kernels import (
    DEFAULT_BATCH_SIZE,
    CoverageResult,
    PackedAdjacency,
    _packed_greedy_loop,
)
from repro.core.metapaths import MetaPath
from repro.core.receptive_field import greedy_max_coverage
from repro.core.similarity import row_jaccard

__all__ = ["SelectionMemo", "changed_rows", "warm_start_coverage"]


def changed_rows(
    old: PackedAdjacency | sp.spmatrix, new: PackedAdjacency | sp.spmatrix
) -> np.ndarray:
    """Rows whose sparsity pattern differs between ``old`` and ``new``.

    Supports row growth (new rows are reported as changed); the column count
    may also grow — a column present in neither pattern cannot affect
    equality.  Patterns are compared as packed words (set semantics), so
    sparse inputs need not be canonical.
    """
    old_words = PackedAdjacency.from_csr(old).words
    new_words = PackedAdjacency.from_csr(new).words
    width = max(old_words.shape[1], new_words.shape[1])
    n_common = min(old_words.shape[0], new_words.shape[0])
    old_words = _widen(old_words[:n_common], width)
    differ = (old_words != _widen(new_words[:n_common], width)).any(axis=1)
    return np.concatenate(
        [np.flatnonzero(differ), np.arange(n_common, new_words.shape[0], dtype=np.int64)]
    )


def _widen(words: np.ndarray, width: int) -> np.ndarray:
    if words.shape[1] == width:
        return words
    return np.pad(words, ((0, 0), (0, width - words.shape[1])))


@obs.traced("stream.warm_start_coverage")
def warm_start_coverage(
    adjacency: PackedAdjacency | sp.csr_matrix,
    pool: np.ndarray,
    budget: int,
    previous: CoverageResult,
    dirty: np.ndarray,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> CoverageResult:
    """Greedy max coverage on ``adjacency``, warm-started from ``previous``.

    ``previous`` must be the exact greedy result for the *same pool and
    budget* on an earlier version of the adjacency, and ``dirty`` a superset
    of the rows whose receptive field changed since.  The result is
    byte-identical to ``greedy_max_coverage(adjacency, pool, budget)``.
    """
    pool = np.asarray(pool, dtype=np.int64)
    budget = int(min(budget, pool.size))
    if budget <= 0:
        return CoverageResult(np.empty(0, dtype=np.int64), np.empty(0), 0, 0)
    candidates = np.unique(pool)
    dirty = np.asarray(dirty, dtype=np.int64)
    dirty_candidates = np.intersect1d(dirty, candidates)
    if dirty_candidates.size == 0 and previous.selected.size and not np.isin(
        previous.selected, dirty
    ).any():
        # No candidate's receptive field changed: the greedy trajectory is
        # untouched, unless the previous run stopped early on exhausted
        # gains and the budget is not yet met (then clean gains are still
        # exhausted — selection cannot grow either).  Reuse wholesale.
        return previous

    packed = PackedAdjacency.from_csr(adjacency)
    dirty_set = set(int(node) for node in dirty_candidates)
    dirty_alive = dirty_candidates.copy()
    covered = packed.empty_cover()
    selected: list[int] = []
    gains: list[float] = []
    evaluations = 0
    diverged = False

    # Exact initial gains of the dirty candidates; afterwards maintained as
    # upper bounds (coverage is submodular, gains only shrink), CELF-style:
    # a dirty candidate is only re-evaluated when its bound could still win
    # the round under the (gain, lowest-id) order.
    if dirty_alive.size:
        dirty_bounds = packed.marginal_gains(dirty_alive, covered)
        evaluations += int(dirty_alive.size)
    else:
        dirty_bounds = np.empty(0, dtype=np.int64)

    for position in range(previous.selected.size):
        if len(selected) == budget:
            break
        winner = int(previous.selected[position])
        winner_gain = int(previous.gains[position])
        if winner in dirty_set:
            diverged = True
            break
        contenders = np.flatnonzero(
            (dirty_bounds > winner_gain)
            | ((dirty_bounds == winner_gain) & (dirty_alive < winner))
        )
        if contenders.size:
            fresh = packed.marginal_gains(dirty_alive[contenders], covered)
            evaluations += int(contenders.size)
            dirty_bounds[contenders] = fresh
            best = int(fresh.max())
            if best > winner_gain or (
                best == winner_gain
                and int(dirty_alive[contenders][fresh == best].min()) < winner
            ):
                diverged = True
                break
        selected.append(winner)
        gains.append(float(winner_gain))
        packed.add_to_cover(winner, covered)

    if not diverged and len(selected) == budget:
        # Full replay: identical trajectory.  Every selected row is clean,
        # so the union of their receptive fields — previous.covered — is
        # unchanged too.
        return CoverageResult(
            selected=previous.selected.copy(),
            gains=previous.gains.copy(),
            covered=previous.covered,
            evaluations=evaluations,
        )

    # Continuation: exact gains for every remaining candidate, then the
    # shared batched-CELF loop finishes the selection.
    alive = ~np.isin(candidates, np.asarray(selected, dtype=np.int64))
    upper = np.full(candidates.size, -1, dtype=np.int64)
    remaining = np.flatnonzero(alive)
    if remaining.size:
        upper[remaining] = packed.marginal_gains(candidates[remaining], covered)
        evaluations += int(remaining.size)
    return _packed_greedy_loop(
        packed,
        candidates,
        upper,
        alive,
        covered,
        selected,
        gains,
        budget,
        batch_size=batch_size,
        evaluations=evaluations,
        round_id=len(selected),
    )


# --------------------------------------------------------------------------- #
# Selection memo (installed on the shared context by IncrementalCondenser)
# --------------------------------------------------------------------------- #
@dataclass
class _PathSlot:
    """Cached coverage state of one meta-path."""

    adjacency: PackedAdjacency
    class_pools: dict[int, np.ndarray]
    budgets: tuple[tuple[int, int], ...]
    normalizer: float
    n_target: int
    scores: np.ndarray
    evaluations: int
    per_class: dict[int, CoverageResult] = field(default_factory=dict)


@dataclass
class _GroupSlot:
    """Cached similarity state of one meta-path group.

    ``pair_sims`` maps a position pair ``(i, j)`` to its intersection-count
    and Jaccard vectors.  Sizes, intersections and unions are exact small
    integers, so a pair whose dirty rows are known can be *patched* — only
    the dirty entries are recounted — and still match a full recomputation
    bit-for-bit.
    """

    adjacencies: list[PackedAdjacency]
    scores: np.ndarray
    pair_sims: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )


class SelectionMemo:
    """Per-(meta-path, class) coverage and per-group similarity cache.

    Installed as ``context.selection_memo`` by the incremental condenser;
    :meth:`~repro.core.criterion.TargetNodeSelector.select` consults it when
    present.  Three outcomes per meta-path, counted in :attr:`stats`:

    ``hits``
        The adjacency object and the class pools/budgets are unchanged —
        the cached score vector is returned as-is.
    ``warm_starts``
        The adjacency was rebuilt (context invalidation) but pools/budgets
        match — each class's greedy run is replayed from its previous
        result via :func:`warm_start_coverage` against the changed rows.
    ``misses``
        Pools or budgets changed (labels/splits delta, new budget) — the
        coverage runs from scratch, exactly as the memo-less criterion.
    """

    def __init__(self) -> None:
        self._paths: dict[tuple[str, ...], _PathSlot] = {}
        self._groups: dict[str, _GroupSlot] = {}
        self.stats = {
            "hits": 0,
            "warm_starts": 0,
            "misses": 0,
            "group_hits": 0,
            "pair_hits": 0,
        }
        #: (old, new) object pairs -> changed rows, shared by the coverage
        #: warm start and the pair-Jaccard patching within one step; it pins
        #: replaced adjacencies, so :meth:`end_step` empties it
        self._dirty_cache: dict[tuple[int, int], tuple[object, object, np.ndarray]] = {}

    # ------------------------------------------------------------------ #
    @staticmethod
    def _pools_match(slot: _PathSlot, class_pools, budgets) -> bool:
        if slot.budgets != budgets or set(slot.class_pools) != set(class_pools):
            return False
        return all(
            np.array_equal(slot.class_pools[cls], class_pools[cls])
            for cls in class_pools
        )

    def path_coverage(
        self,
        metapath: MetaPath,
        adjacency: PackedAdjacency,
        class_pools: dict[int, np.ndarray],
        class_budgets: dict[int, int],
        normalizer: float,
        n_target: int,
    ) -> tuple[np.ndarray, int]:
        """Coverage score vector of one meta-path (cached / warm / fresh).

        Mirrors the criterion's inner loop bit-for-bit: the returned vector
        is ``sum over classes of scores[selected] += gains / normalizer``.
        """
        key = metapath.node_types
        budgets = tuple(sorted((int(c), int(b)) for c, b in class_budgets.items()))
        slot = self._paths.get(key)
        if (
            slot is not None
            and slot.adjacency is adjacency
            and slot.normalizer == normalizer
            and slot.n_target == n_target
            and self._pools_match(slot, class_pools, budgets)
        ):
            self.stats["hits"] += 1
            return slot.scores, slot.evaluations

        warm = (
            slot is not None
            and slot.adjacency is not adjacency
            and slot.n_target == n_target
            and slot.normalizer == normalizer
            and self._pools_match(slot, class_pools, budgets)
        )
        dirty = self._changed_rows_cached(slot.adjacency, adjacency) if warm else None

        scores = np.zeros(n_target, dtype=np.float64)
        evaluations = 0
        per_class: dict[int, CoverageResult] = {}
        for cls, cls_budget in class_budgets.items():
            cls_pool = class_pools[cls]
            if cls_pool.size == 0:
                continue
            previous = slot.per_class.get(cls) if warm else None
            if previous is not None:
                result = warm_start_coverage(
                    adjacency, cls_pool, cls_budget, previous, dirty
                )
            else:
                result = greedy_max_coverage(adjacency, cls_pool, cls_budget)
            per_class[cls] = result
            evaluations += result.evaluations
            if result.selected.size:
                scores[result.selected] += result.gains / normalizer
        self.stats["warm_starts" if warm else "misses"] += 1
        self._paths[key] = _PathSlot(
            adjacency=adjacency,
            class_pools={cls: pool.copy() for cls, pool in class_pools.items()},
            budgets=budgets,
            normalizer=normalizer,
            n_target=n_target,
            scores=scores,
            evaluations=evaluations,
            per_class=per_class,
        )
        return scores, evaluations

    # ------------------------------------------------------------------ #
    def _changed_rows_cached(self, old: PackedAdjacency, new: PackedAdjacency):
        """Memoized :func:`changed_rows` keyed by the object pair."""
        key = (id(old), id(new))
        hit = self._dirty_cache.get(key)
        if hit is not None and hit[0] is old and hit[1] is new:
            return hit[2]
        rows = changed_rows(old, new)
        self._dirty_cache[key] = (old, new, rows)
        return rows

    def end_step(self) -> None:
        """Forget this step's row diffs, releasing the adjacencies they pin."""
        self._dirty_cache.clear()

    def group_similarity(
        self, end_type: str, adjacencies: list[PackedAdjacency]
    ) -> np.ndarray:
        """Ĵ scores of one similarity group, reusing unchanged pairs.

        Bit-for-bit equal to
        :func:`~repro.core.similarity.metapath_similarity_scores` on the
        same adjacencies: an unchanged pair is served from the memo and a
        pair with known dirty rows is patched — only the dirty entries are
        recounted by the same :func:`~repro.core.similarity.row_jaccard`
        kernel — before the identical accumulation.
        """
        slot = self._groups.get(end_type)
        if (
            slot is not None
            and len(slot.adjacencies) == len(adjacencies)
            and all(a is b for a, b in zip(slot.adjacencies, adjacencies))
        ):
            self.stats["group_hits"] += 1
            return slot.scores

        num_paths = len(adjacencies)
        num_nodes = adjacencies[0].shape[0]
        patchable = (
            slot is not None
            and len(slot.adjacencies) == num_paths
            and all(a.shape == b.shape for a, b in zip(slot.adjacencies, adjacencies))
        )
        dirty: list[np.ndarray | None] = [None] * num_paths
        if patchable:
            for position, (old, new) in enumerate(zip(slot.adjacencies, adjacencies)):
                if old is not new:
                    dirty[position] = self._changed_rows_cached(old, new)

        scores = np.zeros((num_nodes, num_paths), dtype=np.float64)
        pair_sims: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for i in range(num_paths):
            for j in range(i + 1, num_paths):
                previous = slot.pair_sims.get((i, j)) if patchable else None
                if previous is not None and dirty[i] is None and dirty[j] is None:
                    intersection, similarity = previous
                    self.stats["pair_hits"] += 1
                elif previous is not None:
                    rows = np.union1d(
                        dirty[i] if dirty[i] is not None else np.empty(0, np.int64),
                        dirty[j] if dirty[j] is not None else np.empty(0, np.int64),
                    ).astype(np.int64)
                    intersection, similarity = previous[0].copy(), previous[1].copy()
                    if rows.size:
                        intersection[rows], similarity[rows] = row_jaccard(
                            adjacencies[i], adjacencies[j], rows
                        )
                    self.stats["pair_hits"] += 1
                else:
                    intersection, similarity = row_jaccard(adjacencies[i], adjacencies[j])
                pair_sims[(i, j)] = (intersection, similarity)
                scores[:, i] += similarity
                scores[:, j] += similarity
        if num_paths > 1:
            scores /= num_paths - 1
        self._groups[end_type] = _GroupSlot(list(adjacencies), scores, pair_sims)
        return scores

    def clear(self) -> None:
        """Drop everything (used by the full-recondense fallback)."""
        self._paths.clear()
        self._groups.clear()
        self._dirty_cache.clear()
