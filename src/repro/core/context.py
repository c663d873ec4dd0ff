"""Shared condensation context: lazily computed, memoized per-graph artifacts.

Every stage of FreeHGC — the unified target criterion, neighbour-influence
maximisation for father types, the synthesis stage, and the coreset-style
embedding helpers — consumes the same expensive intermediate products:

* the enumerated meta-paths anchored at the target type,
* the composed meta-path adjacencies: boolean reachability (receptive
  fields / Jaccard similarity) composed as packed words, with every
  composed suffix product shared between the paths that end in it,
* the CSR index pattern of a receptive field, expanded from its words only
  for the consumers that read column indices,
* the root / father / leaf type hierarchy,
* the propagated meta-path feature blocks (pushed through the hops one at
  a time, never through a composed matrix) and the derived embeddings.

Before this module existed each stage recomputed those products from
scratch, so a single ``FreeHGC.condense`` call could compose the same
meta-path adjacency several times.  A :class:`CondensationContext` is
created once per ``condense()`` call (or shared explicitly across calls on
the same graph) and hands every stage the memoized artifact instead.

The context is keyed by ``(graph, max_hops, max_paths)``: all artifacts are
deterministic functions of those three inputs, so cached and uncached
results are identical — ``cache=False`` exists purely to measure the
speedup and to double-check that invariant in tests.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.core.coverage_kernels import PackedAdjacency
from repro.core.metapaths import MetaPath, compose_packed, enumerate_metapaths
from repro.core.topology import TypeHierarchy, classify_node_types
from repro.hetero.graph import HeteroGraph
from repro.models.propagation import metapath_feature_blocks, standardize_features

__all__ = ["CondensationContext"]


def _sparse_arrays(form: sp.spmatrix | tuple[np.ndarray, ...]) -> list[np.ndarray]:
    if isinstance(form, tuple):  # an index pattern
        return list(form)
    return [form.data, form.indices, form.indptr]


class CondensationContext:
    """Memoized per-``(graph, max_hops, max_paths)`` condensation artifacts.

    Parameters
    ----------
    graph:
        The heterogeneous graph being condensed.
    max_hops:
        Maximum meta-path length ``K`` shared by every stage.
    max_paths:
        Cap on the number of enumerated meta-paths.
    cache:
        When False every accessor recomputes from scratch (used by the
        efficiency benchmark and the cache-equivalence tests).

    Attributes
    ----------
    stats:
        Counters of cache behaviour: ``metapath_enumerations``,
        ``adjacency_builds`` / ``adjacency_hits`` (a receptive field's CSR
        derived or served), ``packed_builds`` / ``packed_hits``
        (receptive-field words), ``embedding_builds`` / ``embedding_hits``
        (feature blocks and per-type embeddings), and the streaming
        counters ``invalidated_adjacencies`` / ``patched_adjacencies``.
        Useful in tests and benchmarks.

    Examples
    --------
    >>> from repro.core import CondensationContext
    >>> from repro.datasets import load_acm
    >>> context = CondensationContext(load_acm(scale=0.1, seed=0), max_hops=2)
    >>> paths = context.metapaths()
    >>> paths is context.metapaths()        # enumerated once, memoized
    True
    >>> context.stats["metapath_enumerations"]
    1
    """

    def __init__(
        self,
        graph: HeteroGraph,
        *,
        max_hops: int = 2,
        max_paths: int = 16,
        cache: bool = True,
    ) -> None:
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        if max_paths < 1:
            raise ValueError(f"max_paths must be >= 1, got {max_paths}")
        self.graph = graph
        self.max_hops = int(max_hops)
        self.max_paths = int(max_paths)
        self.cache_enabled = bool(cache)
        self.stats: dict[str, int] = {
            "metapath_enumerations": 0,
            "adjacency_builds": 0,
            "adjacency_hits": 0,
            "packed_builds": 0,
            "packed_hits": 0,
            "embedding_builds": 0,
            "embedding_hits": 0,
            "invalidated_adjacencies": 0,
            "patched_adjacencies": 0,
        }
        #: optional per-selection memo consulted by the unified criterion
        #: (duck-typed; the streaming subsystem installs a
        #: :class:`repro.streaming.warmstart.SelectionMemo` here).  ``None``
        #: (the default) leaves the criterion's behaviour untouched.
        self.selection_memo = None
        self._hierarchy: TypeHierarchy | None = None
        self._metapaths: list[MetaPath] | None = None
        self._metapaths_to: dict[str, list[MetaPath]] = {}
        #: packed words of every composed chain: the meta-paths (anchored at
        #: the target type) and the intermediate suffix products behind them
        self._packed: dict[tuple[str, ...], PackedAdjacency] = {}
        self._feature_blocks: dict[str, np.ndarray] | None = None
        self._target_embeddings: np.ndarray | None = None
        self._other_embeddings: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ #
    # Schema-level artifacts
    # ------------------------------------------------------------------ #
    @property
    def target_type(self) -> str:
        """The labelled node type the condensation is anchored on."""
        return self.graph.schema.target_type

    @property
    def hierarchy(self) -> TypeHierarchy:
        """Root / father / leaf classification of the schema (Fig. 5)."""
        if self._hierarchy is None or not self.cache_enabled:
            self._hierarchy = classify_node_types(self.graph.schema)
        return self._hierarchy

    def metapaths(self) -> list[MetaPath]:
        """All meta-paths anchored at the target type (memoized)."""
        if self._metapaths is None or not self.cache_enabled:
            self.stats["metapath_enumerations"] += 1
            self._metapaths = enumerate_metapaths(
                self.graph.schema,
                self.target_type,
                self.max_hops,
                max_paths=self.max_paths,
            )
        return self._metapaths

    def metapaths_to(self, end_type: str) -> list[MetaPath]:
        """Meta-paths from the target type that terminate at ``end_type``."""
        cached = self._metapaths_to.get(end_type)
        if cached is None or not self.cache_enabled:
            cached = [path for path in self.metapaths() if path.end == end_type]
            self._metapaths_to[end_type] = cached
        return cached

    # ------------------------------------------------------------------ #
    # Graph-level artifacts
    # ------------------------------------------------------------------ #
    def receptive_field(self, metapath: MetaPath) -> sp.csr_matrix:
        """Boolean reachability matrix: row ``i`` is node ``i``'s receptive field.

        The canonical unit-valued CSR of :meth:`packed_receptive_field`: its
        kept index pattern (expanded once) wrapped with unit data — for
        consumers that read column indices or values.
        """
        cached = self._packed.get(metapath.node_types)
        if cached is None or cached.kept_pattern is None or not self.cache_enabled:
            self.stats["adjacency_builds"] += 1
        else:
            self.stats["adjacency_hits"] += 1
        return self.packed_receptive_field(metapath).to_csr()

    def packed_receptive_field(self, metapath: MetaPath) -> PackedAdjacency:
        """Bit-packed receptive fields of ``metapath``, memoized per path.

        Words are the composed form (:func:`~repro.core.metapaths.compose_packed`);
        every suffix product composed on the way is kept, so paths sharing
        a suffix compose it once.  The packed form feeds the coverage
        kernels and the Jaccard popcounts directly.
        """
        key = metapath.node_types
        cached = self._packed.get(key)
        if cached is None or not self.cache_enabled:
            self.stats["packed_builds"] += 1
            cached = compose_packed(
                self.graph, metapath, self._packed if self.cache_enabled else None
            )
        else:
            self.stats["packed_hits"] += 1
        return cached

    # ------------------------------------------------------------------ #
    # Feature / embedding artifacts
    # ------------------------------------------------------------------ #
    def target_feature_blocks(self) -> dict[str, np.ndarray]:
        """Propagated meta-path feature blocks of every target-type node.

        :func:`~repro.models.propagation.metapath_feature_blocks` over
        :meth:`metapaths`, ``self`` block included.  The returned mapping
        is the live cache: the arrays are marked read-only — copy before
        mutating.
        """
        if self._feature_blocks is None or not self.cache_enabled:
            self.stats["embedding_builds"] += 1
            blocks = metapath_feature_blocks(self.graph, self.metapaths())
            for block in blocks.values():
                block.setflags(write=False)
            self._feature_blocks = blocks
        else:
            self.stats["embedding_hits"] += 1
        return self._feature_blocks

    def target_embeddings(self) -> np.ndarray:
        """Standardised, concatenated meta-path embedding of target nodes."""
        if self._target_embeddings is None or not self.cache_enabled:
            features = standardize_features(self.target_feature_blocks())
            blocks = [features[key] for key in sorted(features)]
            self._target_embeddings = np.concatenate(blocks, axis=1)
            self._target_embeddings.setflags(write=False)
        return self._target_embeddings

    def other_type_embeddings(self, node_type: str) -> np.ndarray:
        """Feature + normalised-degree embedding of a non-target type."""
        cached = self._other_embeddings.get(node_type)
        if cached is None or not self.cache_enabled:
            # Local import: baselines.embeddings is higher in the layering.
            from repro.baselines.embeddings import other_type_embeddings

            self.stats["embedding_builds"] += 1
            cached = other_type_embeddings(self.graph, node_type)
            cached.setflags(write=False)
            self._other_embeddings[node_type] = cached
        else:
            self.stats["embedding_hits"] += 1
        return cached

    # ------------------------------------------------------------------ #
    # Streaming patch hooks
    # ------------------------------------------------------------------ #
    def cached_path_keys(self) -> list[tuple[str, ...]]:
        """Path keys whose receptive fields are memoized."""
        return [key for key in self._packed if key[0] == self.target_type]

    def cached_packed(self, node_types: tuple[str, ...]) -> PackedAdjacency | None:
        """The memoized receptive-field words of a path key, or None."""
        return self._packed.get(tuple(node_types))

    def install_adjacency(
        self, node_types: tuple[str, ...], packed: PackedAdjacency
    ) -> None:
        """Replace the receptive fields of one path with patched ones.

        Used by the streaming delta applier after row-level patching: the
        patched words (and CSR, when present) must equal what
        :meth:`packed_receptive_field` would compose from the mutated
        graph.  The intermediate suffix products and the aggregate
        feature/embedding blocks are dropped.
        """
        self._packed[tuple(node_types)] = packed
        self._drop_suffix_products()
        self._feature_blocks = None
        self._target_embeddings = None
        self.stats["patched_adjacencies"] += 1

    def invalidate_type_embeddings(self, node_types: "Iterable[str]") -> None:
        """Drop per-type and aggregate embeddings of the given types.

        Called after every delta, so it also drops the intermediate suffix
        products, which are never patched.
        """
        self._drop_suffix_products()
        touched = False
        for node_type in node_types:
            self._other_embeddings.pop(node_type, None)
            touched = True
        if touched:
            self._feature_blocks = None
            self._target_embeddings = None

    # ------------------------------------------------------------------ #
    # Partial invalidation (streaming deltas)
    # ------------------------------------------------------------------ #
    def _drop_suffix_products(self) -> None:
        """Drop every intermediate suffix product (a chain not anchored at
        the target type).

        Paths are patched or dropped precisely by the delta applier;
        intermediate products are not, so every invalidation entry point
        drops all of them and the next composition rebuilds what it needs
        from the current graph.
        """
        for key in [key for key in self._packed if key[0] != self.target_type]:
            del self._packed[key]

    def _drop_paths(self, is_affected) -> list[tuple[str, ...]]:
        """Drop every memoized receptive field whose path matches.

        ``is_affected`` maps a path's ``node_types`` tuple to bool.  Returns
        the path keys dropped.  Feature blocks and target embeddings are
        propagated along *every* enumerated meta-path, so they are dropped
        whenever one of those paths matches, memoized or not.  Intermediate
        suffix products are always dropped.
        """
        self._drop_suffix_products()
        dropped = [key for key in self._packed if is_affected(key)]
        for key in dropped:
            del self._packed[key]
        self.stats["invalidated_adjacencies"] += len(dropped)
        if dropped or any(is_affected(path.node_types) for path in self._metapaths or ()):
            self._feature_blocks = None
            self._target_embeddings = None
        return dropped

    def invalidate_paths(
        self, keys: "Iterable[tuple[str, ...]]"
    ) -> list[tuple[str, ...]]:
        """Drop the memoized receptive fields of specific path keys."""
        key_set = {tuple(key) for key in keys}
        if not key_set:
            return []
        return self._drop_paths(lambda node_types: node_types in key_set)

    def invalidate_nodes(self, node_types: "Iterable[str]") -> list[tuple[str, ...]]:
        """Invalidate artifacts that depend on the node sets of ``node_types``.

        Used after node insertion/removal: every meta-path visiting an
        affected type changes shape (or content), so its receptive fields
        and the aggregate feature/embedding blocks are dropped, as are
        the per-type embeddings of the affected types.  The schema-level
        artifacts (hierarchy, enumerated meta-paths) only depend on the
        static schema and survive.  Returns the dropped path keys.
        """
        affected = set(node_types)
        if not affected:
            return []

        def is_affected(path_types: tuple[str, ...]) -> bool:
            return bool(affected.intersection(path_types))

        dropped = self._drop_paths(is_affected)
        for node_type in affected:
            self._other_embeddings.pop(node_type, None)
        if self.target_type in affected:
            self._feature_blocks = None
            self._target_embeddings = None
        return dropped

    # ------------------------------------------------------------------ #
    def cache_bytes(self) -> dict[str, int]:
        """Bytes held by each cache family, plus their ``total``.

        Families: receptive-field ``words`` (suffix products included),
        their CSR index ``pattern``, ``csc`` and ``nim`` operator, and the
        ``features`` blocks and embeddings.  A buffer shared between forms
        (the NIM operator reuses the pattern's index arrays) is counted
        once, in the first family that holds it.  Inspects what is cached;
        builds nothing.
        """
        from repro.core.coverage_kernels import _csc
        from repro.core.neighbor_influence import _scaled_adjacency

        families: dict[str, list[np.ndarray]] = {
            "words": [], "pattern": [], "csc": [], "nim": [], "features": [],
        }
        names = {_csc: "csc", _scaled_adjacency: "nim"}
        for packed in self._packed.values():
            families["words"].append(packed.words)
            families["pattern"] += packed.kept_pattern or ()
            for build, form in packed.derived_forms().items():
                family = names.get(build, build.__name__)
                families.setdefault(family, []).extend(_sparse_arrays(form))
        families["features"] += list((self._feature_blocks or {}).values())
        families["features"] += list(self._other_embeddings.values())
        if self._target_embeddings is not None:
            families["features"].append(self._target_embeddings)
        seen: set[tuple[int, int]] = set()
        sizes: dict[str, int] = {}
        for family, arrays in families.items():
            sizes[family] = 0
            for array in arrays:
                key = (array.__array_interface__["data"][0], array.nbytes)
                if key not in seen:
                    seen.add(key)
                    sizes[family] += int(array.nbytes)
        sizes["total"] = sum(sizes.values())
        return sizes

    def clear(self) -> None:
        """Drop every memoized artifact (keeps the stats counters)."""
        self._hierarchy = None
        self._metapaths = None
        self._metapaths_to.clear()
        self._packed.clear()
        self._feature_blocks = None
        self._target_embeddings = None
        self._other_embeddings.clear()

    def compatible_with(self, *, max_hops: int, max_paths: int) -> bool:
        """Whether this context's artifacts match the given hop settings."""
        return self.max_hops == int(max_hops) and self.max_paths == int(max_paths)

    def matches(
        self,
        graph: HeteroGraph,
        *,
        max_hops: int | None = None,
        max_paths: int | None = None,
    ) -> bool:
        """Whether this context can serve artifacts for ``graph``.

        The single compatibility predicate every context-aware helper uses:
        the context must have been built for the *same* graph object and,
        when hop settings are given, with the same ``max_hops``/``max_paths``.
        """
        if self.graph is not graph:
            return False
        if max_hops is not None and self.max_hops != int(max_hops):
            return False
        if max_paths is not None and self.max_paths != int(max_paths):
            return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CondensationContext(graph={self.graph.schema.name!r}, "
            f"max_hops={self.max_hops}, max_paths={self.max_paths}, "
            f"cached_paths={len(self.cached_path_keys())})"
        )
