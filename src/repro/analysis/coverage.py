"""Receptive-field coverage analysis behind Fig. 9 (method interpretability).

Given a set of selected target nodes, computes which nodes of the graph they
"capture" within ``k`` hops along meta-paths, and summary statistics that
explain *why* FreeHGC's criterion works: more nodes activated (the R(S) term)
and activated nodes spread across the embedding space (the 1 − J(S) term).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.embedding import pca
from repro.core.metapaths import compose_packed, enumerate_metapaths
from repro.hetero.graph import HeteroGraph

__all__ = ["CoverageReport", "captured_nodes", "coverage_report"]


@dataclass(frozen=True)
class CoverageReport:
    """Summary of what a selected target set captures."""

    method: str
    num_selected: int
    captured_per_type: dict[str, int]
    total_captured: int
    coverage_fraction: float
    dispersion: float

    def as_row(self) -> dict[str, object]:
        """Flatten into a report row."""
        return {
            "method": self.method,
            "selected": self.num_selected,
            "captured": self.total_captured,
            "coverage_%": round(100.0 * self.coverage_fraction, 2),
            "dispersion": round(self.dispersion, 3),
        }


def captured_nodes(
    graph: HeteroGraph,
    selected: np.ndarray,
    *,
    max_hops: int = 3,
    max_paths: int = 16,
) -> dict[str, np.ndarray]:
    """Nodes of every type reachable from ``selected`` within ``max_hops``.

    The target type itself is included (a selected node captures itself and
    any target node reachable through e.g. a PAP path).
    """
    selected = np.asarray(selected, dtype=np.int64)
    target = graph.schema.target_type
    captured: dict[str, set[int]] = {t: set() for t in graph.schema.node_types}
    captured[target].update(int(v) for v in selected)
    for metapath in enumerate_metapaths(graph.schema, target, max_hops, max_paths=max_paths):
        adjacency = compose_packed(graph, metapath).to_csr()
        if selected.size == 0:
            continue
        reached = np.unique(adjacency[selected].nonzero()[1])
        captured[metapath.end].update(int(v) for v in reached)
    return {t: np.array(sorted(nodes), dtype=np.int64) for t, nodes in captured.items()}


def coverage_report(
    graph: HeteroGraph,
    selected: np.ndarray,
    *,
    method: str = "selection",
    max_hops: int = 3,
    max_paths: int = 16,
) -> CoverageReport:
    """Compute the Fig. 9 statistics for one selection."""
    captured = captured_nodes(graph, selected, max_hops=max_hops, max_paths=max_paths)
    per_type = {t: int(nodes.size) for t, nodes in captured.items()}
    total = int(sum(per_type.values()))
    fraction = total / max(graph.total_nodes, 1)

    # Dispersion: mean pairwise distance of the captured target nodes in the
    # 2-D PCA embedding of target features — the quantity the 1 − J(S) term
    # is meant to increase (captured nodes scattered across the dataset).
    target = graph.schema.target_type
    target_captured = captured[target]
    if target_captured.size >= 2:
        embedded = pca(graph.features[target], 2)[target_captured]
        diffs = embedded[:, None, :] - embedded[None, :, :]
        dispersion = float(np.sqrt((diffs**2).sum(axis=-1)).mean())
    else:
        dispersion = 0.0
    return CoverageReport(
        method=method,
        num_selected=int(np.asarray(selected).size),
        captured_per_type=per_type,
        total_captured=total,
        coverage_fraction=fraction,
        dispersion=dispersion,
    )
