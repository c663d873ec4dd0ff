"""Coarsening-HG — variation-neighborhoods-style graph coarsening.

Adapts the "scaling up GNNs via graph coarsening" approach (Huang et al.,
KDD 2021) to heterogeneous graphs, as the paper's Coarsening-HG baseline
does: target-type nodes are grouped into super-nodes by repeatedly merging
strongly-connected neighbourhoods of the meta-path projection graph
(heavy-edge matching, the contraction primitive behind variation
neighbourhoods), super-node features are member means and labels are the
majority vote of member training labels; other node types are reduced by
keeping the highest-degree nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import GraphCondenser, per_type_budgets
from repro.core.metapaths import compose_packed, enumerate_metapaths
from repro.hetero.graph import HeteroGraph, NodeSplits
from repro.hetero.sparse import boolean_csr

__all__ = ["CoarseningHG", "heavy_edge_matching"]


def _target_projection(graph: HeteroGraph, max_hops: int) -> sp.csr_matrix:
    """Weighted target-target similarity graph from short meta-paths."""
    target = graph.schema.target_type
    n_target = graph.num_nodes[target]
    projection = sp.csr_matrix((n_target, n_target))
    for metapath in enumerate_metapaths(graph.schema, target, max_hops, max_paths=32):
        if metapath.end != target:
            continue
        projection = projection + compose_packed(graph, metapath).to_csr()
    projection = (projection + projection.T).tolil()
    projection.setdiag(0)
    return projection.tocsr()


def heavy_edge_matching(
    similarity: sp.csr_matrix, budget: int, rng: np.random.Generator, *, max_passes: int = 30
) -> np.ndarray:
    """Cluster assignment via repeated heavy-edge matching contraction.

    Returns a compact cluster id (``0 .. k-1``) for every node with ``k``
    no larger than ``budget``; if matching alone cannot reach the budget the
    smallest clusters are merged pairwise until it does.
    """
    count = similarity.shape[0]
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    clusters = np.arange(count, dtype=np.int64)
    if budget >= count:
        return clusters

    matrix = similarity.tocsr().copy()
    for _ in range(max_passes):
        num_clusters = matrix.shape[0]
        if num_clusters <= budget:
            break
        merge_into = np.arange(num_clusters, dtype=np.int64)
        matched = np.zeros(num_clusters, dtype=bool)
        progress = False
        for node in rng.permutation(num_clusters):
            if matched[node]:
                continue
            start, stop = matrix.indptr[node], matrix.indptr[node + 1]
            neighbors = matrix.indices[start:stop]
            weights = matrix.data[start:stop]
            best, best_weight = -1, 0.0
            for neighbor, weight in zip(neighbors, weights):
                if neighbor != node and not matched[neighbor] and weight > best_weight:
                    best, best_weight = int(neighbor), float(weight)
            if best >= 0:
                matched[node] = matched[best] = True
                merge_into[best] = node
                progress = True
        if not progress:
            break
        unique_roots = np.unique(merge_into)
        relabel = {int(root): index for index, root in enumerate(unique_roots)}
        old_to_new = np.array([relabel[int(root)] for root in merge_into], dtype=np.int64)
        clusters = old_to_new[clusters]
        assign = sp.csr_matrix(
            (np.ones(num_clusters), (np.arange(num_clusters), old_to_new)),
            shape=(num_clusters, unique_roots.size),
        )
        matrix = (assign.T @ matrix @ assign).tolil()
        matrix.setdiag(0)
        matrix = matrix.tocsr()

    # Force the budget by merging the smallest clusters together.
    unique, sizes = np.unique(clusters, return_counts=True)
    while unique.size > budget:
        order = np.argsort(sizes)
        smallest, second = unique[order[0]], unique[order[1]]
        clusters[clusters == smallest] = second
        unique, sizes = np.unique(clusters, return_counts=True)
    relabel = {int(old): new for new, old in enumerate(np.unique(clusters))}
    return np.array([relabel[int(c)] for c in clusters], dtype=np.int64)


class CoarseningHG(GraphCondenser):
    """Variation-neighborhoods-style coarsening for heterogeneous graphs."""

    name = "Coarsening-HG"

    def __init__(self, *, max_hops: int = 2) -> None:
        self.max_hops = max_hops

    def condense(
        self,
        graph: HeteroGraph,
        ratio: float,
        *,
        seed: int | np.random.Generator | None = None,
    ) -> HeteroGraph:
        ratio = self._validate_ratio(graph, ratio)
        rng = self._rng(seed)
        budgets = per_type_budgets(graph, ratio)
        target = graph.schema.target_type
        n_target = graph.num_nodes[target]

        projection = _target_projection(graph, self.max_hops)
        clusters = heavy_edge_matching(projection, budgets[target], rng)
        num_clusters = int(clusters.max()) + 1
        assignment = sp.csr_matrix(
            (np.ones(n_target), (np.arange(n_target), clusters)),
            shape=(n_target, num_clusters),
        )

        # Super-node features: member mean.  Labels: majority over train members.
        member_counts = np.asarray(assignment.sum(axis=0)).ravel()
        target_features = np.asarray(assignment.T @ graph.features[target])
        target_features = target_features / np.maximum(member_counts[:, None], 1.0)
        labels = np.full(num_clusters, -1, dtype=np.int64)
        train_mask = np.zeros(n_target, dtype=bool)
        train_mask[graph.splits.train] = True
        for cluster in range(num_clusters):
            members = np.flatnonzero(clusters == cluster)
            train_members = members[train_mask[members]]
            voters = train_members if train_members.size else members
            voter_labels = graph.labels[voters]
            voter_labels = voter_labels[voter_labels >= 0]
            if voter_labels.size:
                labels[cluster] = int(np.bincount(voter_labels).argmax())

        # Other node types: keep the highest-degree nodes.
        kept_other: dict[str, np.ndarray] = {}
        for node_type in graph.schema.other_types():
            degrees = np.zeros(graph.num_nodes[node_type])
            for name, matrix in graph.adjacency.items():
                rel = graph.schema.relation(name)
                if rel.src == node_type:
                    degrees += np.asarray(matrix.sum(axis=1)).ravel()
                if rel.dst == node_type:
                    degrees += np.asarray(matrix.sum(axis=0)).ravel()
            take = min(budgets[node_type], degrees.shape[0])
            kept_other[node_type] = np.argsort(-degrees)[:take]

        new_counts = {
            node_type: len(kept_other[node_type]) for node_type in kept_other
        }
        new_counts[target] = num_clusters
        new_features = {
            node_type: graph.features[node_type][kept_other[node_type]]
            for node_type in kept_other
        }
        new_features[target] = target_features

        new_adjacency: dict[str, sp.csr_matrix] = {}
        for name, matrix in graph.adjacency.items():
            rel = graph.schema.relation(name)
            block = matrix
            if rel.src == target:
                block = assignment.T @ block
            elif rel.src in kept_other:
                block = block[kept_other[rel.src], :]
            if rel.dst == target:
                block = block @ assignment
            elif rel.dst in kept_other:
                block = block[:, kept_other[rel.dst]]
            new_adjacency[name] = boolean_csr(block)

        labeled_clusters = np.flatnonzero(labels >= 0)
        splits = NodeSplits(
            train=labeled_clusters,
            val=np.empty(0, dtype=np.int64),
            test=np.empty(0, dtype=np.int64),
        )
        return HeteroGraph(
            schema=graph.schema,
            num_nodes=new_counts,
            adjacency=new_adjacency,
            features=new_features,
            labels=labels,
            splits=splits,
            metadata={"method": self.name, "ratio": ratio},
        )
