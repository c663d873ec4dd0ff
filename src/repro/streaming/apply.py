"""Applying a :class:`~repro.streaming.delta.GraphDelta` to a live graph.

:class:`DeltaApplier` mutates a :class:`~repro.hetero.graph.HeteroGraph` *in
place* (the dict entries are replaced with fresh objects, never edited
buffer-wise) and, when handed the :class:`~repro.core.context.CondensationContext`
that serves artifacts for that graph, invalidates **exactly** the memos the
delta touches:

* a meta-path's receptive fields (packed words plus the index pattern,
  CSC and NIM caches derived from them, which die with the replaced
  object) are row-patched or dropped iff the delta edits an edge on one
  of the path's hops or changes the node count of a type on the path;
  intermediate suffix products are always dropped;
* per-type embeddings are dropped only for the touched types, and the
  propagated target feature blocks whenever any type is touched (they are
  recomputed hop by hop from the mutated graph);
* schema-level artifacts (hierarchy, enumerated meta-paths) always survive.

Everything else in the context keeps serving cache hits, which is what makes
warm-started re-condensation cheap for small deltas.

Adjacency matrices are treated as **unit-weight** edge sets (the convention
everywhere in this library): applying a delta unions/differences sparsity
patterns, and duplicate insertions are idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.core.context import CondensationContext
from repro.core.metapaths import MetaPath, compose_packed_rows
from repro.hetero.graph import HeteroGraph, NodeSplits, combine_typed_adjacency
from repro.streaming.delta import GraphDelta
from repro.streaming.patch import patch_rows, propagate_dirty

__all__ = ["ApplyReport", "DeltaApplier"]

#: dirty-row fraction above which patching a composed adjacency is dropped
#: in favour of re-composing it from scratch
PATCH_ROW_FRACTION = 0.5


@dataclass
class ApplyReport:
    """What one :meth:`DeltaApplier.apply` call actually changed."""

    step: int
    edges_added: int = 0
    edges_removed: int = 0
    nodes_added: int = 0
    nodes_removed: int = 0
    touched_relations: set[str] = field(default_factory=set)
    touched_type_pairs: set[tuple[str, str]] = field(default_factory=set)
    touched_node_types: set[str] = field(default_factory=set)
    #: meta-path keys dropped from the shared context (empty without one)
    invalidated_paths: list[tuple[str, ...]] = field(default_factory=list)
    #: meta-path keys whose composed adjacency was row-patched in place
    patched_paths: list[tuple[str, ...]] = field(default_factory=list)
    #: target-type node ids whose propagated features may have changed, or
    #: ``None`` when unknown (no shared context was refreshed).  This is the
    #: **dirty set** the serving layer's prediction-cache invalidation is
    #: driven by: conservative (a superset of the truly changed rows, via
    #: ``max_hops``-bounded reachability from every touched node on both the
    #: pre- and post-delta graph) but sound — a target id absent from the
    #: set is guaranteed to have byte-identical propagated features.
    dirty_targets: np.ndarray | None = None


def _pair_matrix(
    src: np.ndarray, dst: np.ndarray, shape: tuple[int, int]
) -> sp.csr_matrix:
    """Unit-weight CSR with one stored entry per distinct (src, dst) pair."""
    matrix = sp.coo_matrix(
        (np.ones(src.size, dtype=np.float64), (src, dst)), shape=shape
    ).tocsr()
    matrix.sum_duplicates()
    if matrix.nnz:
        matrix.data = np.ones_like(matrix.data)
    return matrix


def _with_shape(matrix: sp.csr_matrix, shape: tuple[int, int]) -> sp.csr_matrix:
    """A new CSR object over ``matrix``'s entries with a (grown) shape."""
    extra_rows = shape[0] - matrix.shape[0]
    indptr = matrix.indptr
    if extra_rows > 0:
        indptr = np.concatenate(
            [indptr, np.full(extra_rows, indptr[-1], dtype=indptr.dtype)]
        )
    return sp.csr_matrix((matrix.data, matrix.indices, indptr), shape=shape)


class DeltaApplier:
    """Applies deltas to a graph, keeping a shared context precisely warm."""

    def apply(
        self,
        graph: HeteroGraph,
        delta: GraphDelta,
        *,
        context: CondensationContext | None = None,
    ) -> ApplyReport:
        """Apply ``delta`` to ``graph`` in place and invalidate stale memos.

        Order of operations: node insertions (edge endpoints may reference
        the new ids), edge insertions, edge removals, node removals
        (tombstoning also removes every incident edge).  The mutated graph
        is re-validated before the method returns.
        """
        with obs.span("stream.apply_delta", step=int(delta.step)):
            return self._apply(graph, delta, context=context)

    def _apply(
        self,
        graph: HeteroGraph,
        delta: GraphDelta,
        *,
        context: CondensationContext | None,
    ) -> ApplyReport:
        delta.validate_against(graph)
        report = ApplyReport(
            step=delta.step,
            touched_relations=delta.touched_relations(),
            touched_type_pairs=delta.touched_type_pairs(graph),
            touched_node_types=delta.touched_node_types(),
        )
        keep_warm = context is not None and context.matches(graph)
        old_adjacency = dict(graph.adjacency) if keep_warm else None
        old_num_nodes = dict(graph.num_nodes) if keep_warm else None
        changed = self._changed_node_sets(graph, delta) if keep_warm else None

        self._add_nodes(graph, delta, report)
        self._edit_edges(graph, delta, report)
        self._remove_nodes(graph, delta, report)
        graph.validate()

        if keep_warm:
            self._refresh_context(
                graph, delta, context, report, old_adjacency, old_num_nodes, changed
            )
            report.dirty_targets = self._dirty_targets(
                graph, delta, context.max_hops, old_adjacency, old_num_nodes, changed
            )
        return report

    # ------------------------------------------------------------------ #
    # Dirty-set computation (serving-cache invalidation)
    # ------------------------------------------------------------------ #
    def _dirty_targets(
        self,
        graph: HeteroGraph,
        delta: GraphDelta,
        max_hops: int,
        old_adjacency: dict[str, sp.csr_matrix],
        old_num_nodes: dict[str, int],
        changed: dict[frozenset, dict[str, np.ndarray]],
    ) -> np.ndarray:
        """Target ids whose propagated features may differ after ``delta``.

        Propagated features are products of *row-normalised* hop matrices,
        so a target's row can change in **value** even when its boolean
        receptive pattern survives (an intermediate node's degree shifted).
        The sound over-approximation is reachability: a target's features
        can only change if it reaches a touched node within ``max_hops``
        hops on the pre-delta graph (removed contributions) or on the
        post-delta graph (added contributions).  Both sides are walked and
        the union returned; the pre-delta side uses the adjacency snapshot
        taken before mutation.
        """
        seeds: dict[str, list[np.ndarray]] = {}

        def seed(node_type: str, ids: np.ndarray) -> None:
            if ids.size:
                seeds.setdefault(node_type, []).append(
                    np.asarray(ids, dtype=np.int64)
                )

        for per_type in changed.values():
            for node_type, ids in per_type.items():
                seed(node_type, ids)
        for node_type, ids in delta.remove_nodes.items():
            seed(node_type, ids)
        for node_type, feats in delta.add_nodes.items():
            count = int(feats.shape[0])
            if count:
                total = graph.num_nodes[node_type]
                seed(node_type, np.arange(total - count, total, dtype=np.int64))
        merged = {
            node_type: np.unique(np.concatenate(parts))
            for node_type, parts in seeds.items()
        }
        if not merged:
            return np.empty(0, dtype=np.int64)

        pre_cache: dict[tuple[str, str], sp.csr_matrix] = {}

        def post_hop(src: str, dst: str) -> sp.csr_matrix:
            return graph.typed_adjacency(src, dst)

        def pre_hop(src: str, dst: str) -> sp.csr_matrix:
            hop = pre_cache.get((src, dst))
            if hop is None:
                if frozenset((src, dst)) not in changed and all(
                    old_num_nodes[t] == graph.num_nodes[t] for t in (src, dst)
                ):
                    # No relation between the pair was edited: the
                    # pre-delta view is the memoized current one.
                    hop = post_hop(src, dst)
                else:
                    hop = combine_typed_adjacency(
                        graph.schema, old_num_nodes, old_adjacency, src, dst
                    )
                pre_cache[(src, dst)] = hop
            return hop

        post = self._reach_targets(graph, graph.num_nodes, post_hop, merged, max_hops)
        pre = self._reach_targets(graph, old_num_nodes, pre_hop, merged, max_hops)
        return np.union1d(pre, post)

    @staticmethod
    def _reach_targets(
        graph: HeteroGraph,
        num_nodes: dict[str, int],
        hop_matrix,
        seeds: dict[str, np.ndarray],
        max_hops: int,
    ) -> np.ndarray:
        """Target ids within ``max_hops`` typed hops of any seeded node."""
        schema = graph.schema
        pairs = {
            (rel.src, rel.dst) for rel in schema.relations
        } | {(rel.dst, rel.src) for rel in schema.relations}
        marks = {
            node_type: np.zeros(num_nodes[node_type], dtype=bool)
            for node_type in schema.node_types
        }
        for node_type, ids in seeds.items():
            valid = ids[(ids >= 0) & (ids < num_nodes[node_type])]
            marks[node_type][valid] = True
        for _ in range(int(max_hops)):
            reached = {t: m.copy() for t, m in marks.items()}
            for src, dst in pairs:
                if not marks[dst].any():
                    continue
                hop = hop_matrix(src, dst)
                reached[src] |= (hop @ marks[dst].astype(np.float64)) > 0
            marks = reached
        return np.nonzero(marks[schema.target_type])[0].astype(np.int64)

    # ------------------------------------------------------------------ #
    # Context refresh: patch what can be patched, drop the rest
    # ------------------------------------------------------------------ #
    @staticmethod
    def _changed_node_sets(
        graph: HeteroGraph, delta: GraphDelta
    ) -> dict[frozenset, dict[str, np.ndarray]]:
        """Changed node ids per touched type pair, per side type.

        Collected on the **pre-mutation** graph: edge-delta endpoints plus,
        for tombstoned nodes, the node itself and its old neighbours on the
        other side (their rows/columns in the combined adjacency change
        too).  These sets seed the dirty-row propagation of
        :func:`~repro.streaming.patch.propagate_dirty`.
        """
        collected: dict[frozenset, dict[str, list[np.ndarray]]] = {}

        def note(pair: frozenset, node_type: str, ids: np.ndarray) -> None:
            if ids.size:
                collected.setdefault(pair, {}).setdefault(node_type, []).append(
                    np.asarray(ids, dtype=np.int64)
                )

        for edits in (delta.add_edges, delta.remove_edges):
            for name, (src, dst) in edits.items():
                rel = graph.schema.relation(name)
                pair = frozenset((rel.src, rel.dst))
                note(pair, rel.src, src)
                note(pair, rel.dst, dst)
        for node_type, ids in delta.remove_nodes.items():
            if ids.size == 0:
                continue
            # Ids added by this same delta do not exist in the pre-mutation
            # matrices (and contribute no old neighbours).
            existing = ids[ids < graph.num_nodes[node_type]]
            for name, matrix in graph.adjacency.items():
                rel = graph.schema.relation(name)
                if node_type not in (rel.src, rel.dst):
                    continue
                pair = frozenset((rel.src, rel.dst))
                note(pair, node_type, ids)
                if rel.src == node_type and existing.size:
                    csr = matrix.tocsr()
                    starts, stops = csr.indptr[existing], csr.indptr[existing + 1]
                    note(pair, rel.dst, np.concatenate(
                        [csr.indices[a:b] for a, b in zip(starts, stops)]
                        or [np.empty(0, dtype=np.int64)]
                    ))
                if rel.dst == node_type and existing.size:
                    csc = matrix.tocsc()
                    starts, stops = csc.indptr[existing], csc.indptr[existing + 1]
                    note(pair, rel.src, np.concatenate(
                        [csc.indices[a:b] for a, b in zip(starts, stops)]
                        or [np.empty(0, dtype=np.int64)]
                    ))
        return {
            pair: {
                node_type: np.unique(np.concatenate(parts))
                for node_type, parts in per_type.items()
            }
            for pair, per_type in collected.items()
        }

    def _refresh_context(
        self,
        graph: HeteroGraph,
        delta: GraphDelta,
        context: CondensationContext,
        report: ApplyReport,
        old_adjacency: dict[str, sp.csr_matrix],
        old_num_nodes: dict[str, int],
        changed: dict[frozenset, dict[str, np.ndarray]],
    ) -> None:
        # Paths visiting a type whose id space grew cannot be row-patched
        # (every shape changes) — drop them outright.
        added_types = {t for t, feats in delta.add_nodes.items() if feats.shape[0]}
        if added_types:
            report.invalidated_paths.extend(context.invalidate_nodes(added_types))

        new_typed: dict[tuple[str, str], sp.csr_matrix] = {}
        old_typed: dict[tuple[str, str], sp.csr_matrix] = {}

        def typed_new(src: str, dst: str) -> sp.csr_matrix:
            hop = new_typed.get((src, dst))
            if hop is None:
                hop = graph.typed_adjacency(src, dst)
                new_typed[(src, dst)] = hop
            return hop

        def typed_old(src: str, dst: str) -> sp.csr_matrix:
            hop = old_typed.get((src, dst))
            if hop is None:
                hop = combine_typed_adjacency(
                    graph.schema, old_num_nodes, old_adjacency, src, dst
                )
                old_typed[(src, dst)] = hop
            return hop

        for key in context.cached_path_keys():
            metapath = MetaPath(key)
            for hop in metapath.hops():
                typed_new(*hop)
                if frozenset(hop) in changed:
                    typed_old(*hop)
            dirty = propagate_dirty(metapath, changed, old_typed, new_typed)
            if dirty is None or dirty.size == 0:
                continue  # pattern provably unchanged: keep serving the memo
            old = context.cached_packed(key)
            if dirty.size > PATCH_ROW_FRACTION * max(old.shape[0], 1):
                report.invalidated_paths.extend(context.invalidate_paths([key]))
                continue
            block = compose_packed_rows(graph, metapath, dirty)
            patched = patch_rows(old, dirty, block)
            if patched is None:
                # Over-approximated dirtiness: every recomposed row came out
                # pattern-identical.  Keep the old *object* so every
                # identity-keyed memo downstream keeps hitting.
                continue
            context.install_adjacency(key, patched)
            report.patched_paths.append(key)

        touched_types = {t for pair in report.touched_type_pairs for t in pair}
        touched_types |= report.touched_node_types
        if touched_types:
            context.invalidate_type_embeddings(touched_types)

    # ------------------------------------------------------------------ #
    def _add_nodes(self, graph: HeteroGraph, delta: GraphDelta, report: ApplyReport) -> None:
        target = graph.schema.target_type
        for node_type, feats in delta.add_nodes.items():
            count = int(feats.shape[0])
            if count == 0:
                continue
            old_count = graph.num_nodes[node_type]
            graph.features[node_type] = np.vstack([graph.features[node_type], feats])
            graph.num_nodes[node_type] = old_count + count
            report.nodes_added += count
            for name, matrix in list(graph.adjacency.items()):
                rel = graph.schema.relation(name)
                if node_type in (rel.src, rel.dst):
                    shape = (graph.num_nodes[rel.src], graph.num_nodes[rel.dst])
                    graph.adjacency[name] = _with_shape(matrix, shape)
            if node_type == target:
                new_ids = np.arange(old_count, old_count + count, dtype=np.int64)
                graph.labels = np.concatenate([graph.labels, delta.add_labels])
                splits = {
                    "train": graph.splits.train,
                    "val": graph.splits.val,
                    "test": graph.splits.test,
                }
                splits[delta.add_split] = np.concatenate(
                    [splits[delta.add_split], new_ids]
                )
                graph.splits = NodeSplits(**splits)

    def _edit_edges(self, graph: HeteroGraph, delta: GraphDelta, report: ApplyReport) -> None:
        for name, (src, dst) in delta.add_edges.items():
            if src.size == 0:
                continue
            matrix = graph.relation_matrix(name)
            union = matrix + _pair_matrix(src, dst, matrix.shape)
            union.data = np.minimum(union.data, 1.0)
            report.edges_added += int(union.nnz - matrix.nnz)
            graph.adjacency[name] = union
        for name, (src, dst) in delta.remove_edges.items():
            if src.size == 0:
                continue
            matrix = graph.relation_matrix(name)
            keep = matrix - matrix.multiply(_pair_matrix(src, dst, matrix.shape))
            keep.eliminate_zeros()
            report.edges_removed += int(matrix.nnz - keep.nnz)
            graph.adjacency[name] = keep.tocsr()

    def _remove_nodes(self, graph: HeteroGraph, delta: GraphDelta, report: ApplyReport) -> None:
        target = graph.schema.target_type
        for node_type, ids in delta.remove_nodes.items():
            if ids.size == 0:
                continue
            report.nodes_removed += int(ids.size)
            for name, matrix in list(graph.adjacency.items()):
                rel = graph.schema.relation(name)
                if node_type not in (rel.src, rel.dst):
                    continue
                coo = matrix.tocoo()
                mask = np.ones(coo.nnz, dtype=bool)
                if rel.src == node_type:
                    mask &= ~np.isin(coo.row, ids)
                if rel.dst == node_type:
                    mask &= ~np.isin(coo.col, ids)
                dropped = int(coo.nnz - mask.sum())
                if dropped == 0:
                    continue
                report.edges_removed += dropped
                graph.adjacency[name] = sp.coo_matrix(
                    (coo.data[mask], (coo.row[mask], coo.col[mask])), shape=matrix.shape
                ).tocsr()
            features = graph.features[node_type].copy()
            features[ids] = 0.0
            graph.features[node_type] = features
            if node_type == target:
                labels = graph.labels.copy()
                labels[ids] = -1
                graph.labels = labels
                graph.splits = NodeSplits(
                    train=graph.splits.train[~np.isin(graph.splits.train, ids)],
                    val=graph.splits.val[~np.isin(graph.splits.val, ids)],
                    test=graph.splits.test[~np.isin(graph.splits.test, ids)],
                )
