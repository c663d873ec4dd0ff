"""Pre-computed meta-path feature propagation.

Following the scalable-HGNN design the paper builds on (NARS, SeHGNN), the
expensive neighbour aggregation is moved to a pre-processing step: for every
meta-path ``P = (t0, …, tk)`` anchored at the target type we compute

    H_P = Â_P  X_{tk}

with ``Â_P`` the product of the row-normalised hops of Eq. 1.  That product
is never built.  The features are pushed through the hops right to left,

    H(t0…tk) = row_normalize(A[t0, t1]) @ H(t1…tk),    H((tk,)) = X_tk,

so a hop costs its entry count times the feature width.  One call
normalises each hop once and computes each suffix chain once: the block of
``paper-author`` is the operand of ``paper-paper-author``, the way
:func:`~repro.core.metapaths.compose_packed` shares suffixes for the
boolean form.  A CSR-by-dense product computes each row from that row's
entries alone, so a target whose neighbourhood is untouched keeps
byte-identical features across a streaming delta.

Each HGNN in :mod:`repro.models` is then a (differently-structured)
classifier over the bag ``{H_P}`` plus the raw target features, which is
exactly the behavioural split the paper exploits: *semantic* fusion differs
per architecture while *neighbour* aggregation is a shared mean aggregator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import obs
from repro.core.metapaths import MetaPath, enumerate_metapaths
from repro.hetero.graph import HeteroGraph
from repro.hetero.sparse import row_normalize

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    import scipy.sparse as sp

    from repro.core.context import CondensationContext

__all__ = [
    "SELF_FEATURE_KEY",
    "metapath_feature_blocks",
    "propagate_metapath_features",
    "standardize_features",
    "row_normalize_features",
]

SELF_FEATURE_KEY = "self"


def metapath_feature_blocks(
    graph: HeteroGraph, metapaths: list[MetaPath]
) -> dict[str, np.ndarray]:
    """Feature block ``Â_P X`` of every path in ``metapaths``, hop by hop.

    Keys are ``"self"`` (a copy of the raw target features) and then
    ``str(path)`` in ``metapaths`` order.  Every array is fresh.  The work
    runs under a ``models.propagate`` span whose ``products`` attribute
    counts the hop products computed.
    """
    features = {SELF_FEATURE_KEY: graph.features[graph.schema.target_type].copy()}
    hops: dict[tuple[str, ...], sp.csr_matrix] = {}
    products: dict[tuple[str, ...], np.ndarray] = {}
    with obs.span("models.propagate", paths=len(metapaths)) as span:
        for metapath in metapaths:
            chain = metapath.node_types
            for start in range(len(chain) - 2, -1, -1):
                suffix = chain[start:]
                if suffix in products:
                    continue
                hop = suffix[:2]
                if hop not in hops:
                    hops[hop] = row_normalize(graph.typed_adjacency(*hop))
                operand = products[suffix[1:]] if len(suffix) > 2 else graph.features[hop[1]]
                products[suffix] = np.asarray(hops[hop] @ operand)
            features[str(metapath)] = products[chain]
        if span is not None:
            span.attrs["products"] = len(products)
    return features


def propagate_metapath_features(
    graph: HeteroGraph,
    *,
    max_hops: int = 2,
    max_paths: int = 16,
    include_self: bool = True,
    context: "CondensationContext | None" = None,
) -> dict[str, np.ndarray]:
    """Compute meta-path aggregated features for every target-type node.

    Returns a mapping from meta-path name (``"paper-author"`` style, plus the
    special ``"self"`` key for raw target features) to a dense feature matrix
    with one row per target node.  The key set depends only on the schema and
    ``max_hops``, so features computed on a condensed graph and on the full
    graph are directly comparable — which is what lets a model trained on the
    condensed graph be evaluated on the original graph.

    A matching :class:`~repro.core.context.CondensationContext` short-cuts
    the computation with its memoized feature blocks: the returned dict is
    new, but its arrays are the memo's own and are read-only.

    Examples
    --------
    Author 0 wrote papers 0 and 1, author 1 wrote paper 1, and paper 2 has
    no author, so its propagated rows are zero:

    >>> import numpy as np
    >>> from repro.hetero import HeteroGraphBuilder, HeteroSchema, Relation
    >>> schema = HeteroSchema(
    ...     node_types=("paper", "author"),
    ...     relations=(Relation("writes", "author", "paper"),),
    ...     target_type="paper", num_classes=2,
    ... )
    >>> builder = HeteroGraphBuilder(schema)
    >>> builder.add_nodes("paper", 3, np.eye(3))
    >>> builder.add_nodes("author", 2, np.array([[2.0, 0.0], [0.0, 4.0]]))
    >>> builder.add_edges("writes", [0, 0, 1], [0, 1, 1])
    >>> builder.set_labels([0, 1, 0])
    >>> features = propagate_metapath_features(builder.build(), max_hops=2)
    >>> list(features)
    ['self', 'paper-author', 'paper-author-paper']
    >>> features["paper-author"]
    array([[2., 0.],
           [1., 2.],
           [0., 0.]])
    >>> features["paper-author-paper"]
    array([[0.5 , 0.5 , 0.  ],
           [0.25, 0.75, 0.  ],
           [0.  , 0.  , 0.  ]])
    """
    if context is not None and context.matches(graph, max_hops=max_hops, max_paths=max_paths):
        # A new dict (include_self=False must not delete from the memo)
        # over the memo's read-only arrays: an in-place write raises.
        blocks = dict(context.target_feature_blocks())
    else:
        metapaths = enumerate_metapaths(
            graph.schema, graph.schema.target_type, max_hops, max_paths=max_paths
        )
        blocks = metapath_feature_blocks(graph, metapaths)
    if not include_self:
        del blocks[SELF_FEATURE_KEY]
    return blocks


def standardize_features(features: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Per-feature z-score standardisation of every meta-path feature block.

    Standardising each block independently keeps the semantic-fusion modules
    well conditioned.  Because the statistics are computed on the graph at
    hand, this is only appropriate when train and evaluation features come
    from the *same* graph (e.g. the coreset embeddings or the gradient-
    matching baselines); the HGNN classifiers use
    :func:`row_normalize_features` instead so that features computed on a
    tiny condensed graph remain directly comparable to features computed on
    the full graph.
    """
    standardized: dict[str, np.ndarray] = {}
    for key, block in features.items():
        mean = block.mean(axis=0, keepdims=True)
        std = block.std(axis=0, keepdims=True)
        std = np.where(std < 1e-8, 1.0, std)
        standardized[key] = (block - mean) / std
    return standardized


def row_normalize_features(features: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """L2-normalise every row of every meta-path feature block.

    Row-wise normalisation is independent of how many nodes the graph has,
    which makes the feature spaces of a condensed graph and of the original
    graph directly comparable — a requirement of the paper's protocol (train
    on the condensed graph, test on the full graph).

    All-zero rows — e.g. nodes isolated by a streaming delta removal, whose
    propagated features vanish — are divided by 1 instead of their zero
    norm: **zero rows stay exactly zero**, they never become NaN.
    """
    normalized: dict[str, np.ndarray] = {}
    for key, block in features.items():
        norms = np.linalg.norm(block, axis=1, keepdims=True)
        norms = np.where(norms < 1e-10, 1.0, norms)
        normalized[key] = block / norms
    return normalized
