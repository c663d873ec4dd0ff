"""Row-level patching of composed meta-path adjacencies.

A graph delta usually changes the receptive fields of a handful of target
rows, yet re-composing a k-hop meta-path adjacency from scratch composes
every row.  The streaming applier recomputes **only the dirty rows** — the
rows whose receptive field can have changed — and splices them into the
previously composed words:

* :func:`~repro.core.metapaths.compose_packed_rows` composes the packed
  words of the dirty rows alone (rows of a product equal the product of
  the row slice, so the patched pattern is *identical* to a full
  re-composition);
* :func:`patch_rows` narrows the dirty rows to the truly changed ones and
  splices them into copies of the previous words and, when one was
  kept, of the previous CSR index pattern.

Dirty rows are over-approximated by :func:`propagate_dirty`: the changed
node sets of a hop are walked back to the anchor type through the union of
the pre- and post-delta hop adjacencies, so every row that gained or lost a
walk through a changed edge is marked.  Over-approximation is safe (a clean
row recomputes to its identical pattern); under-approximation would break
byte-identity, which the property suite guards.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.coverage_kernels import PackedAdjacency, _index_dtype
from repro.core.metapaths import MetaPath

__all__ = ["patch_rows", "propagate_dirty"]


def patch_rows(
    old: PackedAdjacency, rows: np.ndarray, block: np.ndarray
) -> PackedAdjacency | None:
    """``old`` with the words of ``rows`` replaced by ``block``, or None.

    Dirty-row propagation over-approximates: a removed hop edge often
    leaves a composed receptive field unchanged (other walks still connect
    the same endpoints).  Only rows whose words differ are spliced in, which
    keeps the selection memos' own row-diffs small — and when no row
    changed, None tells the caller to keep the old **object**, so every
    identity-keyed memo downstream keeps hitting.  An index pattern kept
    by ``old`` is spliced alongside, so NIM rebuilds its operator without
    re-expanding the words; otherwise it is expanded on demand.
    """
    rows = np.asarray(rows, dtype=np.int64)
    changed = np.flatnonzero((block != old.words[rows]).any(axis=1))
    if changed.size == 0:
        return None
    rows, block = rows[changed], block[changed]
    words = old.words.copy()
    words[rows] = block
    pattern = old.kept_pattern
    if pattern is not None:
        block_pattern = PackedAdjacency(block, (rows.size, old.shape[1])).pattern()
        pattern = _splice_rows(pattern, rows, block_pattern, old.shape)
    return PackedAdjacency(words, old.shape, pattern=pattern)


def _splice_rows(
    old: tuple[np.ndarray, np.ndarray],
    rows: np.ndarray,
    block: tuple[np.ndarray, np.ndarray],
    shape: tuple[int, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Index pattern ``old`` with its sorted ``rows`` replaced by ``block``'s rows.

    One concatenation of the untouched runs and the new rows: a copy of
    the index array, no sort.  The result has the index dtype a fresh
    expansion of the same pattern would have.
    """
    (indptr, indices), (block_indptr, block_indices) = old, block
    indptr = indptr.astype(np.int64)
    counts = np.diff(indptr)
    counts[rows] = np.diff(block_indptr)
    pieces, previous = [], 0
    for position, row in enumerate(rows.tolist()):
        pieces.append(indices[indptr[previous] : indptr[row]])
        pieces.append(block_indices[block_indptr[position] : block_indptr[position + 1]])
        previous = row + 1
    pieces.append(indices[indptr[previous] :])
    dtype = _index_dtype(shape, int(counts.sum()))
    new_indptr = np.zeros(counts.size + 1, dtype=dtype)
    np.cumsum(counts, out=new_indptr[1:])
    return new_indptr, np.concatenate(pieces).astype(dtype, copy=False)


def _rows_reaching(matrix: sp.csr_matrix, columns: np.ndarray) -> np.ndarray:
    """Row ids of ``matrix`` with at least one stored entry in ``columns``."""
    if columns.size == 0:
        return np.empty(0, dtype=np.int64)
    indicator = np.zeros(matrix.shape[1], dtype=np.float64)
    indicator[columns] = 1.0
    return np.flatnonzero(np.asarray(matrix @ indicator).ravel() > 0)


def propagate_dirty(
    metapath: MetaPath,
    changed: dict[frozenset, dict[str, np.ndarray]],
    typed_old: "dict[tuple[str, str], sp.csr_matrix]",
    typed_new: "dict[tuple[str, str], sp.csr_matrix]",
) -> np.ndarray | None:
    """Anchor-type rows whose composed receptive field may have changed.

    ``changed`` maps an (unordered) touched type pair to the changed node
    ids per side type; ``typed_old`` / ``typed_new`` provide the pre- and
    post-delta typed adjacency of every hop the propagation needs (keyed by
    the ordered hop ``(src, dst)``).  Returns ``None`` when no hop of the
    path is touched (the cached adjacency is exactly valid), otherwise the
    sorted dirty row ids (possibly empty).

    A node of the hop's *source* side seeds dirtiness at that level; the
    seed sets are walked back to level 0 through the union of old and new
    hop patterns, so rows that lost *or* gained a walk are both caught.
    """
    hops = metapath.hops()
    touched_levels = [
        level for level, hop in enumerate(hops) if frozenset(hop) in changed
    ]
    if not touched_levels:
        return None
    dirty_parts: list[np.ndarray] = []
    for level in touched_levels:
        src, _dst = hops[level]
        seeds = changed[frozenset(hops[level])].get(src)
        if seeds is None or seeds.size == 0:
            continue
        current = np.asarray(seeds, dtype=np.int64)
        # Walk back through hops level-1 .. 0.
        for back in range(level - 1, -1, -1):
            hop = hops[back]
            reach = _rows_reaching(typed_new[hop], current)
            if frozenset(hop) in changed:
                reach = np.union1d(reach, _rows_reaching(typed_old[hop], current))
            current = reach
            if current.size == 0:
                break
        if current.size:
            dirty_parts.append(current)
    if not dirty_parts:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(dirty_parts))
