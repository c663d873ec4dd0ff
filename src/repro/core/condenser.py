"""The FreeHGC condenser — public facade of the paper's contribution.

Ties together the three stages of the method (Fig. 3):

1. **Condense the target type** with the unified data-selection criterion
   (receptive-field maximisation + meta-path similarity minimisation,
   Algorithm 1).
2. **Condense father types** with neighbour-influence maximisation
   (personalised PageRank over meta-path bipartite graphs, Eq. 10–13).
3. **Condense leaf types** with information-loss-minimising synthesis
   (mean-aggregated hyper-nodes with reverse-edge repair, Eq. 14–16).

The condensed pieces are assembled into a new
:class:`~repro.hetero.graph.HeteroGraph` that any HGNN can train on — the
whole procedure is training-free and model-agnostic.

Every stage is a pluggable strategy resolved through
:mod:`repro.registry` (``target_stages`` / ``other_stages``), so the
ablation study of Table VIII (Variants #1–#6) — and any third-party
strategy — can be driven from the same class.  All stages share one
:class:`~repro.core.context.CondensationContext`, so expensive meta-path
products are computed at most once per :meth:`FreeHGC.condense` call.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro import obs
from repro.baselines.base import GraphCondenser, per_type_budgets
from repro.core.context import CondensationContext
from repro.core.criterion import TargetSelectionResult
from repro.core.stages import OtherTypeStage, Providers, TargetStage
from repro.core.synthesis import SyntheticLeafNodes
from repro.errors import CondensationError
from repro.hetero.graph import HeteroGraph, NodeSplits
from repro.hetero.sparse import boolean_csr
from repro.registry import other_stages, target_stages

__all__ = ["FreeHGC", "assemble_condensed_graph", "run_condensation_pipeline"]


class FreeHGC(GraphCondenser):
    """Training-free heterogeneous graph condensation via data selection.

    Parameters
    ----------
    max_hops:
        Maximum meta-path length ``K`` (per-dataset hyper-parameter in the
        paper: 3 for ACM, 4 for DBLP, 5 for IMDB, 2 for Freebase, ...).
    max_paths:
        Cap on the number of enumerated meta-paths.
    use_receptive_field / use_similarity:
        Toggles for the two terms of the unified criterion (ablation
        Variants #1 and #2).
    target_strategy:
        ``"criterion"`` (default) or ``"herding"`` (Variant #3) — any name
        registered in :data:`repro.registry.target_stages`.
    father_strategy:
        ``"nim"`` (default), ``"ilm"`` or ``"herding"`` (Variants #4–#6) —
        any name registered in :data:`repro.registry.other_stages`.
    leaf_strategy:
        ``"ilm"`` (default), ``"nim"`` or ``"herding"`` (Variants #4–#6).
    importance:
        Node-importance function for NIM: ``"ppr"`` or ``"degree"``.
    alpha:
        PPR restart probability.
    anchor_on_selected:
        Personalise the PPR on the condensed target nodes (default) rather
        than on all target nodes.
    add_reverse_edges:
        Keep the Eq. 15 reverse edges when synthesising hyper-nodes.

    Examples
    --------
    >>> from repro.core import FreeHGC
    >>> from repro.datasets import load_acm
    >>> graph = load_acm(scale=0.1, seed=0)
    >>> condensed = FreeHGC(max_hops=2).condense(graph, ratio=0.2, seed=0)
    >>> condensed.total_nodes < graph.total_nodes
    True
    """

    name = "FreeHGC"

    def __init__(
        self,
        *,
        max_hops: int = 2,
        max_paths: int = 16,
        use_receptive_field: bool = True,
        use_similarity: bool = True,
        target_strategy: str = "criterion",
        father_strategy: str = "nim",
        leaf_strategy: str = "ilm",
        importance: str = "ppr",
        alpha: float = 0.15,
        anchor_on_selected: bool = True,
        add_reverse_edges: bool = True,
    ) -> None:
        # Registry resolution doubles as validation: unknown strategy names
        # raise RegistryError, which is a ValueError.
        self.target_strategy = target_stages.canonical(target_strategy)
        self.father_strategy = other_stages.canonical(father_strategy)
        self.leaf_strategy = other_stages.canonical(leaf_strategy)
        if importance not in ("ppr", "degree"):
            raise ValueError(f"importance must be 'ppr' or 'degree', got {importance!r}")
        self.max_hops = max_hops
        self.max_paths = max_paths
        self.use_receptive_field = use_receptive_field
        self.use_similarity = use_similarity
        self.importance = importance
        self.alpha = alpha
        self.anchor_on_selected = anchor_on_selected
        self.add_reverse_edges = add_reverse_edges
        #: diagnostics of the most recent :meth:`condense` call
        self.last_target_selection: TargetSelectionResult | None = None
        #: shared context of the most recent :meth:`condense` call
        self.last_context: CondensationContext | None = None

    # ------------------------------------------------------------------ #
    def stage_options(self) -> dict[str, object]:
        """The flat option bag every stage draws its constructor kwargs from."""
        return {
            "use_receptive_field": self.use_receptive_field,
            "use_similarity": self.use_similarity,
            "alpha": self.alpha,
            "importance": self.importance,
            "add_reverse_edges": self.add_reverse_edges,
        }

    def build_stages(self) -> tuple[TargetStage, OtherTypeStage, OtherTypeStage]:
        """Instantiate the configured (target, father, leaf) stage triple."""
        options = self.stage_options()
        target_stage = target_stages.get(self.target_strategy).from_options(options)
        father_stage = other_stages.get(self.father_strategy).from_options(options)
        leaf_stage = other_stages.get(self.leaf_strategy).from_options(options)
        return target_stage, father_stage, leaf_stage

    # ------------------------------------------------------------------ #
    def condense(
        self,
        graph: HeteroGraph,
        ratio: float,
        *,
        seed: int | np.random.Generator | None = None,
        context: CondensationContext | None = None,
        stage_memo=None,
    ) -> HeteroGraph:
        """Condense ``graph`` down to ``ratio`` of its target nodes.

        ``stage_memo`` is an advanced hook used by the streaming subsystem
        (:class:`repro.streaming.IncrementalCondenser`): an object that may
        serve cached father/leaf stage results when a stage's inputs are
        unchanged (see :func:`run_condensation_pipeline`).  With the
        default ``None`` every stage runs from scratch.
        """
        ratio = self._validate_ratio(graph, ratio)
        budgets = per_type_budgets(graph, ratio)
        if context is None:
            context = CondensationContext(
                graph, max_hops=self.max_hops, max_paths=self.max_paths
            )
        elif not context.matches(graph, max_hops=self.max_hops, max_paths=self.max_paths):
            raise CondensationError(
                "the supplied CondensationContext was built for a different "
                "graph or with different hop settings"
            )
        self.last_context = context
        # Reset before running: if the pipeline raises, diagnostics must not
        # expose a previous run's stale selection.
        self.last_target_selection = None
        condensed, outcome = run_condensation_pipeline(
            context,
            budgets,
            self.build_stages(),
            stage_memo=stage_memo,
            anchor_on_selected=self.anchor_on_selected,
            metadata={
                "method": self.name,
                "ratio": ratio,
                "structure": context.hierarchy.structure,
                "target_strategy": self.target_strategy,
                "father_strategy": self.father_strategy,
                "leaf_strategy": self.leaf_strategy,
            },
        )
        self.last_target_selection = (
            outcome if isinstance(outcome, TargetSelectionResult) else None
        )
        return condensed


@obs.traced("condense.pipeline")
def run_condensation_pipeline(
    context: CondensationContext,
    budgets: dict[str, int],
    stages: "tuple[TargetStage, OtherTypeStage, OtherTypeStage]",
    *,
    anchor_on_selected: bool = True,
    metadata: dict[str, object] | None = None,
    stage_memo=None,
) -> "tuple[HeteroGraph, TargetSelectionResult | np.ndarray]":
    """Run the three-stage condensation pipeline over ``context.graph``.

    This is the single implementation behind both :meth:`FreeHGC.condense`
    (``stage_memo=None``) and the streaming
    :class:`~repro.streaming.incremental.IncrementalCondenser`, which passes
    a *stage memo* — an object with ``condense_type(stage, context, role,
    node_type, budget, anchor=..., providers=...)`` that may serve a
    previously computed father or leaf stage result when the stage's inputs
    are unchanged, and otherwise must delegate to the stage.  The target
    stage always runs.  Because stages are deterministic functions of their
    inputs, memoized and fresh runs produce byte-identical condensed graphs.

    Returns the condensed graph and the raw target-stage outcome.
    """
    graph = context.graph
    hierarchy = context.hierarchy
    target = hierarchy.root
    target_stage, father_stage, leaf_stage = stages

    selected: dict[str, np.ndarray] = {}
    synthetic: dict[str, SyntheticLeafNodes] = {}

    # ------------------------------------------------------------------
    # Stage 1: target-type nodes.
    # ------------------------------------------------------------------
    with obs.span("condense.target_selection", stage=target_stage.name, budget=int(budgets[target])):
        outcome = target_stage.select_target(context, budgets[target])
    if isinstance(outcome, TargetSelectionResult):
        selected[target] = outcome.selected
    else:
        selected[target] = np.asarray(outcome, dtype=np.int64)
    if selected[target].size == 0:
        raise CondensationError("target selection produced no nodes")
    anchor = selected[target] if anchor_on_selected else None

    def condense_type(stage, role: str, node_type: str, providers: Providers):
        with obs.span(f"condense.{role}", stage=stage.name, node_type=node_type):
            if stage_memo is None:
                return stage.condense_type(
                    context,
                    node_type,
                    budgets[node_type],
                    anchor=anchor,
                    providers=providers,
                )
            return stage_memo.condense_type(
                stage,
                context,
                role,
                node_type,
                budgets[node_type],
                anchor=anchor,
                providers=providers,
            )

    # ------------------------------------------------------------------
    # Stage 2: father-type nodes.
    # ------------------------------------------------------------------
    target_providers: Providers = {target: selected[target]}
    for father in hierarchy.fathers:
        result = condense_type(father_stage, "father", father, target_providers)
        if result.synthetic is not None:
            synthetic[father] = result.synthetic
        else:
            selected[father] = result.selected

    # Leaf synthesis draws its providers from every condensed father —
    # selected or synthesised alike (synthesised father hyper-nodes seed
    # the synthesis through their merged member sets).
    father_providers: dict[str, np.ndarray | SyntheticLeafNodes] = {}
    for father in hierarchy.fathers:
        if father in selected:
            father_providers[father] = selected[father]
        else:
            father_providers[father] = synthetic[father]
    if not father_providers:
        father_providers = {target: selected[target]}

    # ------------------------------------------------------------------
    # Stage 3: leaf-type nodes.
    # ------------------------------------------------------------------
    for leaf in hierarchy.leaves:
        result = condense_type(leaf_stage, "leaf", leaf, father_providers)
        if result.synthetic is not None:
            synthetic[leaf] = result.synthetic
        else:
            selected[leaf] = result.selected

    with obs.span("condense.assemble"):
        condensed = assemble_condensed_graph(
            graph,
            selected,
            synthetic,
            metadata=metadata,
        )
    if obs.active() is not None:
        obs.event("context.cache_bytes", **context.cache_bytes())
    return condensed, outcome


# ---------------------------------------------------------------------- #
# Condensed graph assembly
# ---------------------------------------------------------------------- #
def assemble_condensed_graph(
    graph: HeteroGraph,
    selected: dict[str, np.ndarray],
    synthetic: dict[str, SyntheticLeafNodes],
    *,
    metadata: dict[str, object] | None = None,
) -> HeteroGraph:
    """Assemble selected nodes and synthesised hyper-nodes into a graph.

    Parameters
    ----------
    graph:
        The original graph (source of features, labels and adjacency).
    selected:
        Original node indices kept per node type.
    synthetic:
        Synthesised hyper-nodes per node type (types appearing here must not
        also appear in ``selected``).
    metadata:
        Extra metadata recorded on the condensed graph.
    """
    overlap = set(selected) & set(synthetic)
    if overlap:
        raise CondensationError(f"types {sorted(overlap)} are both selected and synthesised")
    target = graph.schema.target_type
    if target not in selected:
        raise CondensationError("the target type must be selected, not synthesised")

    kept: dict[str, np.ndarray] = {
        node_type: np.unique(np.asarray(indices, dtype=np.int64))
        for node_type, indices in selected.items()
    }
    mappings = {
        node_type: {int(old): new for new, old in enumerate(kept[node_type])}
        for node_type in kept
    }

    num_nodes: dict[str, int] = {}
    features: dict[str, np.ndarray] = {}
    for node_type in graph.schema.node_types:
        if node_type in kept:
            num_nodes[node_type] = int(kept[node_type].size)
            features[node_type] = graph.features[node_type][kept[node_type]]
        elif node_type in synthetic:
            num_nodes[node_type] = synthetic[node_type].num_nodes
            features[node_type] = synthetic[node_type].features
        else:
            raise CondensationError(f"node type {node_type!r} received no condensation strategy")

    adjacency: dict[str, sp.csr_matrix] = {}
    for name, matrix in graph.adjacency.items():
        rel = graph.schema.relation(name)
        shape = (num_nodes[rel.src], num_nodes[rel.dst])
        if rel.src in kept and rel.dst in kept:
            block = matrix[kept[rel.src], :][:, kept[rel.dst]]
            adjacency[name] = boolean_csr(block)
        elif rel.src in kept and rel.dst in synthetic:
            pairs = synthetic[rel.dst].edges.get(rel.src, [])
            if pairs:
                adjacency[name] = _edges_to_matrix(
                    pairs, mappings[rel.src], shape, transpose=False
                )
            else:
                # No recorded edges (rel.src was not a provider): recover the
                # connectivity by projecting the hyper-nodes' member sets
                # onto the original relation.
                adjacency[name] = _member_projection_matrix(
                    matrix, synthetic[rel.dst].members, kept[rel.src], synthetic_on_rows=False
                )
        elif rel.src in synthetic and rel.dst in kept:
            pairs = synthetic[rel.src].edges.get(rel.dst, [])
            if pairs:
                adjacency[name] = _edges_to_matrix(
                    pairs, mappings[rel.dst], shape, transpose=True
                )
            else:
                adjacency[name] = _member_projection_matrix(
                    matrix, synthetic[rel.src].members, kept[rel.dst], synthetic_on_rows=True
                )
        else:
            # Both endpoints synthesised (father_strategy="ilm" with leaf
            # synthesis): the leaf-side hyper-nodes record their father
            # connections directly in hyper-node index space.
            adjacency[name] = _hyper_pair_matrix(synthetic, rel.src, rel.dst, shape)

    labels = graph.labels[kept[target]]
    train_mask = np.zeros(graph.num_nodes[target], dtype=bool)
    val_mask = np.zeros_like(train_mask)
    test_mask = np.zeros_like(train_mask)
    train_mask[graph.splits.train] = True
    val_mask[graph.splits.val] = True
    test_mask[graph.splits.test] = True
    new_target = kept[target]
    splits = NodeSplits(
        train=np.flatnonzero(train_mask[new_target]),
        val=np.flatnonzero(val_mask[new_target]),
        test=np.flatnonzero(test_mask[new_target]),
    )

    merged_metadata = dict(graph.metadata)
    merged_metadata.update(metadata or {})
    return HeteroGraph(
        schema=graph.schema,
        num_nodes=num_nodes,
        adjacency=adjacency,
        features=features,
        labels=labels,
        splits=splits,
        metadata=merged_metadata,
    )


def _edges_to_matrix(
    edges: list[tuple[int, int]],
    selected_mapping: dict[int, int] | None,
    shape: tuple[int, int],
    *,
    transpose: bool,
) -> sp.csr_matrix:
    """Build a relation block from (father_index, hyper_index) edge pairs.

    ``selected_mapping`` maps original father indices to condensed ones;
    pass None when the father indices are already in condensed (hyper-node)
    space.  When ``transpose`` is False the father type is the source
    (rows); otherwise it is the destination (columns).  Edges whose father
    index cannot be mapped (or is out of range) are dropped.
    """
    rows: list[int] = []
    cols: list[int] = []
    father_bound = shape[1] if transpose else shape[0]
    for father_index, hyper_index in edges:
        if selected_mapping is None:
            mapped = int(father_index)
            if not 0 <= mapped < father_bound:
                continue
        else:
            mapped = selected_mapping.get(int(father_index))
            if mapped is None:
                continue
        if transpose:
            rows.append(int(hyper_index))
            cols.append(mapped)
        else:
            rows.append(mapped)
            cols.append(int(hyper_index))
    if not rows:
        return sp.csr_matrix(shape)
    data = np.ones(len(rows), dtype=np.float64)
    return sp.coo_matrix((data, (rows, cols)), shape=shape).tocsr()


def _member_projection_matrix(
    matrix: sp.spmatrix,
    members: list[np.ndarray],
    kept_indices: np.ndarray,
    *,
    synthetic_on_rows: bool,
) -> sp.csr_matrix:
    """Project an original relation onto (hyper-node, kept-node) space.

    A hyper-node connects to a kept node iff any of its original members
    did.  ``synthetic_on_rows`` says which side of ``matrix`` the
    synthesised type sits on (rows when it is the relation's source).
    """
    original_count = matrix.shape[0] if synthetic_on_rows else matrix.shape[1]
    sizes = [np.asarray(block).size for block in members]
    if sum(sizes) == 0:
        n_hyper = len(members)
        shape = (
            (n_hyper, kept_indices.size) if synthetic_on_rows else (kept_indices.size, n_hyper)
        )
        return sp.csr_matrix(shape)
    hyper_ids = np.concatenate(
        [np.full(size, index, dtype=np.int64) for index, size in enumerate(sizes)]
    )
    member_ids = np.concatenate([np.asarray(block, dtype=np.int64) for block in members])
    indicator = sp.coo_matrix(
        (np.ones(member_ids.size), (hyper_ids, member_ids)),
        shape=(len(members), original_count),
    ).tocsr()
    if synthetic_on_rows:
        block = indicator @ matrix.tocsr()[:, kept_indices]
    else:
        block = matrix.tocsr()[kept_indices, :] @ indicator.T
    return boolean_csr(block.tocsr())


def _hyper_pair_matrix(
    synthetic: dict[str, SyntheticLeafNodes],
    src: str,
    dst: str,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """Relation block between two synthesised types.

    The later-synthesised side (the leaf) records edges keyed by the other
    type; they are only usable when that other type was a *hyper* provider
    (``hyper_provider_types``), i.e. both endpoints are hyper-node indices.
    Original-index edges against a type that was nevertheless synthesised
    cannot be mapped and yield an empty block (the seed behaviour for
    synthetic–synthetic relations).
    """
    if src in synthetic[dst].hyper_provider_types:
        pairs, transpose = synthetic[dst].edges.get(src, []), False
    elif dst in synthetic[src].hyper_provider_types:
        pairs, transpose = synthetic[src].edges.get(dst, []), True
    else:
        return sp.csr_matrix(shape)
    return _edges_to_matrix(pairs, None, shape, transpose=transpose)
