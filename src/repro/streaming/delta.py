"""The :class:`GraphDelta` value object: one batched update to an evolving graph.

A delta describes, per relation and per node type, what changed between two
observations of a production graph: edges appeared or disappeared, nodes
arrived (new papers, actors, products) or left.  Deltas are *plain data* —
applying one is the job of :class:`repro.streaming.apply.DeltaApplier` — so
a timestamped sequence of deltas (a *schedule*) can be generated, stored and
replayed deterministically.

Node-id semantics are chosen so that ids remain stable across deltas, which
is what lets the incremental condenser compare selections between steps:

* **inserted nodes** are appended after the existing ids of their type (a
  delta adding ``k`` nodes of a type with ``n`` nodes creates ids
  ``n .. n+k-1``);
* **removed nodes** become *tombstones*: every incident edge is deleted and
  their features zeroed, but the id slot survives (re-indexing every
  adjacency on each departure would invalidate all downstream state).
  Removed target nodes additionally leave the train/val/test splits and
  have their label cleared to ``-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.hetero.graph import HeteroGraph

__all__ = ["GraphDelta", "DeltaValidationError"]


class DeltaValidationError(ReproError, ValueError):
    """A :class:`GraphDelta` is inconsistent with the graph it targets."""


def _as_edge_pairs(value) -> tuple[np.ndarray, np.ndarray]:
    src, dst = value
    src = np.asarray(src, dtype=np.int64).ravel()
    dst = np.asarray(dst, dtype=np.int64).ravel()
    if src.shape != dst.shape:
        raise DeltaValidationError("edge src/dst arrays must have the same length")
    return src, dst


@dataclass(frozen=True)
class GraphDelta:
    """A batched set of node/edge insertions and removals.

    Attributes
    ----------
    add_edges / remove_edges:
        Mapping ``relation name -> (src ids, dst ids)``.  Additions that
        already exist and removals that do not are ignored (idempotent
        set semantics, matching the unit-weight adjacencies this library
        uses everywhere).
    add_nodes:
        Mapping ``node type -> feature matrix`` of shape ``(k, feature_dim)``;
        the ``k`` new nodes are appended after the existing ids.
    add_labels:
        Labels of newly added *target-type* nodes (required exactly when the
        target type appears in ``add_nodes``).
    add_split:
        Which split newly added target nodes join (``"train"``, ``"val"``,
        ``"test"``); production streams usually feed ``"test"``.
    remove_nodes:
        Mapping ``node type -> node ids`` to tombstone (see module docs).
    step:
        Optional timestamp/sequence number carried through reports.
    metadata:
        Free-form JSON-compatible annotations (source system, ingest batch
        id, operator notes).  Never interpreted by the applier; carried
        through :meth:`to_payload` only when non-empty so payloads written
        by older producers keep their exact shape.
    """

    add_edges: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    remove_edges: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    add_nodes: dict[str, np.ndarray] = field(default_factory=dict)
    add_labels: np.ndarray | None = None
    add_split: str = "test"
    remove_nodes: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.metadata, dict):
            raise DeltaValidationError("metadata must be a JSON object (dict)")
        object.__setattr__(
            self, "add_edges", {name: _as_edge_pairs(v) for name, v in self.add_edges.items()}
        )
        object.__setattr__(
            self,
            "remove_edges",
            {name: _as_edge_pairs(v) for name, v in self.remove_edges.items()},
        )
        object.__setattr__(
            self,
            "add_nodes",
            {
                t: np.asarray(feats, dtype=np.float64)
                for t, feats in self.add_nodes.items()
            },
        )
        object.__setattr__(
            self,
            "remove_nodes",
            {
                t: np.unique(np.asarray(ids, dtype=np.int64))
                for t, ids in self.remove_nodes.items()
            },
        )
        if self.add_labels is not None:
            object.__setattr__(
                self, "add_labels", np.asarray(self.add_labels, dtype=np.int64)
            )
        if self.add_split not in ("train", "val", "test"):
            raise DeltaValidationError(
                f"add_split must be 'train', 'val' or 'test', got {self.add_split!r}"
            )
        for node_type, feats in self.add_nodes.items():
            if feats.ndim != 2:
                raise DeltaValidationError(
                    f"add_nodes[{node_type!r}] must be a 2-D feature matrix"
                )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_empty(self) -> bool:
        """True when the delta changes nothing."""
        return not (
            any(src.size for src, _ in self.add_edges.values())
            or any(src.size for src, _ in self.remove_edges.values())
            or any(feats.shape[0] for feats in self.add_nodes.values())
            or any(ids.size for ids in self.remove_nodes.values())
        )

    def num_edge_changes(self, graph: HeteroGraph) -> int:
        """Edges this delta touches: explicit adds/removes plus the incident
        edges of every removed node (which all disappear).

        An incident edge is counted once even when both its endpoints are
        removed (a same-type relation, a self-loop, or removals on both
        sides of a relation).
        """
        total = sum(int(src.size) for src, _ in self.add_edges.values())
        total += sum(int(src.size) for src, _ in self.remove_edges.values())
        # Ids added by this same delta (validate_against permits them) have
        # no incident edges in the current matrices.
        removed = {
            node_type: ids[ids < graph.num_nodes[node_type]]
            for node_type, ids in self.remove_nodes.items()
        }
        removed = {node_type: ids for node_type, ids in removed.items() if ids.size}
        if not removed:
            return total
        empty = np.empty(0, dtype=np.int64)
        for name, matrix in graph.adjacency.items():
            rel = graph.schema.relation(name)
            if rel.src not in removed and rel.dst not in removed:
                continue
            matrix = matrix.tocsr()
            rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
            incident = np.isin(rows, removed.get(rel.src, empty)) | np.isin(
                matrix.indices, removed.get(rel.dst, empty)
            )
            total += int(np.count_nonzero(incident))
        return total

    def edge_fraction(self, graph: HeteroGraph) -> float:
        """Touched edges as a fraction of the graph's current edge count."""
        total = graph.total_edges
        if total == 0:
            return 1.0 if not self.is_empty else 0.0
        return self.num_edge_changes(graph) / total

    def touched_relations(self) -> set[str]:
        """Relation names whose adjacency this delta edits directly."""
        return set(self.add_edges) | set(self.remove_edges)

    def touched_type_pairs(self, graph: HeteroGraph) -> set[tuple[str, str]]:
        """``(src, dst)`` node-type pairs whose combined adjacency changes."""
        pairs: set[tuple[str, str]] = set()
        for name in self.touched_relations():
            rel = graph.schema.relation(name)
            pairs.add((rel.src, rel.dst))
        for node_type, ids in self.remove_nodes.items():
            if ids.size == 0:
                continue
            for rel in graph.schema.relations:
                if node_type in (rel.src, rel.dst):
                    pairs.add((rel.src, rel.dst))
        return pairs

    def touched_node_types(self) -> set[str]:
        """Node types whose id space or feature matrix changes."""
        touched = {t for t, feats in self.add_nodes.items() if feats.shape[0]}
        touched |= {t for t, ids in self.remove_nodes.items() if ids.size}
        return touched

    # ------------------------------------------------------------------ #
    def validate_against(self, graph: HeteroGraph) -> None:
        """Raise :class:`DeltaValidationError` if the delta cannot apply to ``graph``.

        Edge endpoints may reference nodes *added by this same delta*
        (``id < current count + added count``), which is how a new paper
        arrives together with its authorship edges.
        """
        schema = graph.schema
        added = {t: feats.shape[0] for t, feats in self.add_nodes.items()}
        bounds = {
            t: graph.num_nodes[t] + added.get(t, 0) for t in schema.node_types
        }
        for label, edits in (("add_edges", self.add_edges), ("remove_edges", self.remove_edges)):
            for name, (src, dst) in edits.items():
                rel = schema.relation(name)  # raises SchemaError on unknown names
                for side, ids, bound in (
                    ("src", src, bounds[rel.src]),
                    ("dst", dst, bounds[rel.dst]),
                ):
                    if ids.size and (ids.min() < 0 or ids.max() >= bound):
                        raise DeltaValidationError(
                            f"{label}[{name!r}] {side} ids out of range "
                            f"(bound {bound})"
                        )
        for node_type, feats in self.add_nodes.items():
            if node_type not in schema.node_types:
                raise DeltaValidationError(f"unknown node type {node_type!r}")
            expected = graph.features[node_type].shape[1]
            if feats.shape[1] != expected:
                raise DeltaValidationError(
                    f"add_nodes[{node_type!r}] features have dim {feats.shape[1]}, "
                    f"graph has {expected}"
                )
        target = schema.target_type
        new_targets = added.get(target, 0)
        if new_targets:
            if self.add_labels is None or self.add_labels.shape != (new_targets,):
                raise DeltaValidationError(
                    f"adding {new_targets} target nodes requires add_labels of "
                    "matching length"
                )
            valid = self.add_labels[self.add_labels >= 0]
            if valid.size and valid.max() >= schema.num_classes:
                raise DeltaValidationError("add_labels out of class range")
        elif self.add_labels is not None and self.add_labels.size:
            raise DeltaValidationError("add_labels given without added target nodes")
        for node_type, ids in self.remove_nodes.items():
            if node_type not in schema.node_types:
                raise DeltaValidationError(f"unknown node type {node_type!r}")
            if ids.size and (ids.min() < 0 or ids.max() >= bounds[node_type]):
                raise DeltaValidationError(
                    f"remove_nodes[{node_type!r}] ids out of range"
                )

    # ------------------------------------------------------------------ #
    # JSON wire format (the serving server's ``POST /delta`` body)
    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """Plain-JSON representation (lists instead of arrays).

        Round-trips exactly through :meth:`from_payload`; used by the
        serving server, the replicated tier's write-ahead log, and tooling
        that stores delta schedules as JSONL.
        """
        payload = {
            "step": int(self.step),
            "add_edges": {
                name: [src.tolist(), dst.tolist()]
                for name, (src, dst) in self.add_edges.items()
            },
            "remove_edges": {
                name: [src.tolist(), dst.tolist()]
                for name, (src, dst) in self.remove_edges.items()
            },
            "add_nodes": {
                # A (0, d) matrix serialises as [] — the feature dimension is
                # unrecoverable, so from_payload drops such entries.  Omit
                # them here too: absent and zero-row mean the same thing to
                # the applier, and the payload round-trips exactly.
                t: feats.tolist()
                for t, feats in self.add_nodes.items()
                if feats.shape[0]
            },
            "add_labels": None if self.add_labels is None else self.add_labels.tolist(),
            "add_split": self.add_split,
            "remove_nodes": {t: ids.tolist() for t, ids in self.remove_nodes.items()},
        }
        if self.metadata:
            payload["metadata"] = dict(self.metadata)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_payload` output (or hand-written JSON)."""
        if not isinstance(payload, dict):
            raise DeltaValidationError("delta payload must be a JSON object")
        add_nodes = {
            t: np.asarray(feats, dtype=np.float64)
            for t, feats in dict(payload.get("add_nodes", {})).items()
            if len(feats)  # empty additions carry no feature dimension: drop
        }
        labels = payload.get("add_labels")
        return cls(
            add_edges={
                name: (np.asarray(pair[0]), np.asarray(pair[1]))
                for name, pair in dict(payload.get("add_edges", {})).items()
            },
            remove_edges={
                name: (np.asarray(pair[0]), np.asarray(pair[1]))
                for name, pair in dict(payload.get("remove_edges", {})).items()
            },
            add_nodes=add_nodes,
            add_labels=None if labels is None else np.asarray(labels, dtype=np.int64),
            add_split=str(payload.get("add_split", "test")),
            remove_nodes={
                t: np.asarray(ids, dtype=np.int64)
                for t, ids in dict(payload.get("remove_nodes", {})).items()
            },
            step=int(payload.get("step", 0)),
            metadata=dict(payload.get("metadata", {})),
        )

    def summary(self) -> str:
        """One-line human-readable description."""
        adds = sum(int(s.size) for s, _ in self.add_edges.values())
        removes = sum(int(s.size) for s, _ in self.remove_edges.values())
        node_adds = sum(int(f.shape[0]) for f in self.add_nodes.values())
        node_removes = sum(int(i.size) for i in self.remove_nodes.values())
        return (
            f"GraphDelta(step={self.step}, +{adds}/-{removes} edges, "
            f"+{node_adds}/-{node_removes} nodes)"
        )
