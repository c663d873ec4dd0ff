"""General meta-path generation (Section IV-A, Eq. 1).

Instead of relying on expert-defined meta-paths (as HAN does), FreeHGC
enumerates *all* meta-paths up to a maximum hop count.  Eq. 1 defines a
path's adjacency as the product of the row-normalised per-hop adjacencies:

    Â_{o_t, ..., o_s} = Â_{o_t, o_1} Â_{o_1, o_2} ... Â_{o_{k-1}, o_s}     (Eq. 1)

This module provides the :class:`MetaPath` value object, enumeration over a
schema's type-connectivity graph, and boolean composition for a concrete
:class:`~repro.hetero.graph.HeteroGraph`.  The normalised product itself is
never built: feature propagation multiplies the features through one
normalised hop at a time
(:func:`repro.models.propagation.metapath_feature_blocks`).

Boolean reachability — the receptive fields of Section IV-B — is composed
in packed form (:func:`compose_packed`): one bit per column in uint64
words, each hop a bit-parallel OR of the next hop's rows.  That is the
library's one full boolean composition; the CSR index pattern is expanded
from the words on demand (``compose_packed(graph, path).pattern()``, or
``.to_csr()`` with unit values).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.coverage_kernels import PackedAdjacency
from repro.errors import SchemaError
from repro.hetero.graph import HeteroGraph
from repro.hetero.schema import HeteroSchema

__all__ = [
    "MetaPath",
    "compose_packed",
    "compose_packed_rows",
    "enumerate_metapaths",
    "metapaths_to_type",
]

#: temporary bytes one row block of a packed hop product may gather; a
#: constant, so peak memory stays bounded however dense a path gets
_GATHER_BLOCK_BYTES = 1 << 25


@dataclass(frozen=True)
class MetaPath:
    """A meta-path as an ordered sequence of node types.

    ``node_types[0]`` is the anchor (usually the target type) and
    ``node_types[-1]`` is the source type whose information flows back to the
    anchor, matching the paper's ``o_t ← ... ← o_s`` notation.
    """

    node_types: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.node_types) < 2:
            raise SchemaError("a meta-path needs at least two node types")

    @property
    def length(self) -> int:
        """Number of hops."""
        return len(self.node_types) - 1

    @property
    def start(self) -> str:
        """Anchor node type."""
        return self.node_types[0]

    @property
    def end(self) -> str:
        """Source node type at the far end of the path."""
        return self.node_types[-1]

    @property
    def abbreviation(self) -> str:
        """Compact name built from type initials, e.g. ``PAP``."""
        return "".join(t[0].upper() for t in self.node_types)

    def __str__(self) -> str:
        return "-".join(self.node_types)

    def hops(self) -> list[tuple[str, str]]:
        """Consecutive ``(src, dst)`` type pairs along the path."""
        return list(zip(self.node_types[:-1], self.node_types[1:]))


def _type_neighbors(schema: HeteroSchema) -> dict[str, tuple[str, ...]]:
    """Undirected type-level connectivity derived from the schema relations."""
    return {node_type: schema.neighbor_types(node_type) for node_type in schema.node_types}


def enumerate_metapaths(
    schema: HeteroSchema,
    start_type: str,
    max_hops: int,
    *,
    allow_revisit: bool = True,
    max_paths: int = 64,
) -> list[MetaPath]:
    """Enumerate meta-paths anchored at ``start_type`` with up to ``max_hops`` hops.

    Parameters
    ----------
    schema:
        Schema whose type-connectivity graph is walked.
    start_type:
        Anchor node type (the paper anchors at the target type).
    max_hops:
        Maximum number of hops (``K`` in the paper; Table of hyper-parameters
        uses K between 1 and 5 depending on dataset).
    allow_revisit:
        Whether a path may revisit a node type (needed for the classic
        ``PAP`` / ``PSP`` patterns); self-loops within a single hop are
        allowed only when the schema declares a same-type relation.
    max_paths:
        Safety cap on the number of returned paths (schemas such as Freebase
        otherwise explode combinatorially).
    """
    if start_type not in schema.node_types:
        raise SchemaError(f"unknown start type {start_type!r}")
    if max_hops < 1:
        raise ValueError(f"max_hops must be >= 1, got {max_hops}")
    neighbors = _type_neighbors(schema)
    self_loop_types = {
        rel.src for rel in schema.relations if rel.src == rel.dst
    }

    results: list[MetaPath] = []
    frontier: list[tuple[str, ...]] = [(start_type,)]
    for _hop in range(max_hops):
        next_frontier: list[tuple[str, ...]] = []
        for path in frontier:
            current = path[-1]
            candidates = list(neighbors[current])
            if current in self_loop_types:
                candidates.append(current)
            for nxt in candidates:
                if not allow_revisit and nxt in path:
                    continue
                extended = path + (nxt,)
                results.append(MetaPath(extended))
                next_frontier.append(extended)
                if len(results) >= max_paths:
                    return results
        frontier = next_frontier
    return results


def metapaths_to_type(
    schema: HeteroSchema,
    start_type: str,
    end_type: str,
    max_hops: int,
    *,
    max_paths: int = 64,
) -> list[MetaPath]:
    """Meta-paths anchored at ``start_type`` that terminate at ``end_type``.

    Used by the neighbour-influence-maximisation stage, which scores the
    nodes of one *father* type through every meta-path that reaches it.
    """
    return [
        path
        for path in enumerate_metapaths(schema, start_type, max_hops, max_paths=max_paths)
        if path.end == end_type
    ]


def _or_neighbor_rows(
    indptr: np.ndarray, indices: np.ndarray, suffix: np.ndarray
) -> np.ndarray:
    """Bit-parallel boolean product: row ``i`` is the OR of the ``suffix``
    rows of ``i``'s neighbours ``indices[indptr[i]:indptr[i + 1]]``.

    The neighbours' rows are gathered in row blocks of at most
    ``_GATHER_BLOCK_BYTES`` (a row with more neighbours forms a block of
    its own) and OR-reduced per row with one ``np.bitwise_or.reduceat``.
    ``reduceat`` returns the next element for an empty segment, so rows
    without neighbours are skipped and stay zero.
    """
    n_rows, n_words = indptr.size - 1, suffix.shape[1]
    words = np.zeros((n_rows, n_words), dtype=np.uint64)
    indptr = indptr.astype(np.int64)
    per_block = max(1, _GATHER_BLOCK_BYTES // (8 * n_words))
    start = 0
    while start < n_rows:
        stop = int(np.searchsorted(indptr, indptr[start] + per_block, side="right")) - 1
        stop = min(max(stop, start + 1), n_rows)
        low, high = indptr[start], indptr[stop]
        if high > low:
            rows = start + np.flatnonzero(np.diff(indptr[start : stop + 1]))
            gathered = suffix[indices[low:high]]
            words[rows] = np.bitwise_or.reduceat(gathered, indptr[rows] - low, axis=0)
        start = stop
    return words


def compose_packed(
    graph: HeteroGraph,
    metapath: MetaPath,
    products: dict[tuple[str, ...], PackedAdjacency] | None = None,
) -> PackedAdjacency:
    """Boolean reachability of ``metapath`` on ``graph``, as packed words.

    Composed right to left: row ``i`` of ``RF(t0…tk)`` is the OR of the
    ``RF(t1…tk)`` rows of ``i``'s ``t0→t1`` neighbours, so a hop costs its
    own entry count times the end type's word count.  The last hop is
    packed directly from its typed adjacency, whose arrays it keeps as the
    path's index pattern when that is canonical.

    ``products`` caches every composed chain, keyed by its node types:
    pass one dict across calls to share suffix products between paths (the
    words of ``paper-author`` are the suffix of ``paper-paper-author`` and
    ``subject-paper-author``).  Every entry must be current for ``graph``.
    """
    chain = metapath.node_types
    cached = None if products is None else products.get(chain)
    if cached is not None:
        return cached
    hop = graph.typed_adjacency(chain[0], chain[1])
    if len(chain) == 2:
        with obs.span("core.compose", path=str(metapath)):
            packed = PackedAdjacency.from_csr(hop)
    else:
        suffix = compose_packed(graph, MetaPath(chain[1:]), products)
        with obs.span("core.compose", path=str(metapath)):
            packed = PackedAdjacency(
                _or_neighbor_rows(hop.indptr, hop.indices, suffix.words),
                (hop.shape[0], suffix.shape[1]),
            )
    if products is not None:
        products[chain] = packed
    return packed


def compose_packed_rows(
    graph: HeteroGraph, metapath: MetaPath, rows: np.ndarray
) -> np.ndarray:
    """Words of rows ``rows`` of ``compose_packed(graph, metapath)``.

    Each hop composes only the rows the previous hop reaches, so patching
    a delta's dirty rows never pays a full composition.
    """
    chain = metapath.node_types
    hop = graph.typed_adjacency(chain[0], chain[1])
    block = hop[np.asarray(rows, dtype=np.int64)]
    if len(chain) == 2:
        return PackedAdjacency.from_csr(block).words
    reached = np.unique(block.indices)
    suffix = compose_packed_rows(graph, MetaPath(chain[1:]), reached)
    return _or_neighbor_rows(block.indptr, np.searchsorted(reached, block.indices), suffix)

