"""Schema-driven synthetic heterogeneous-graph generator.

Given a :class:`~repro.datasets.base.SyntheticHINConfig`, :func:`generate_hin`
produces a :class:`~repro.hetero.graph.HeteroGraph` with:

* **planted topics** — every node of every type carries a latent topic drawn
  from the same ``num_classes`` topics; target-type topics *are* the labels;
* **assortative, skewed edges** — each relation connects same-topic nodes
  with probability ``affinity`` and destination popularity follows a Pareto
  distribution, reproducing the power-law degree skew the paper's
  receptive-field argument relies on (Section IV-B);
* **class-conditional features** — each node type has per-topic Gaussian
  feature means, so meta-path aggregated features are predictive of the
  target label, as in real academic/knowledge graphs;
* **HGB-style splits** — 24% / 6% / 70% train/val/test over target nodes by
  default.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.datasets.base import RelationSpec, SyntheticHINConfig
from repro.hetero.builder import HeteroGraphBuilder
from repro.hetero.schema import HeteroSchema, Relation
from repro.utils.rng import ensure_rng

__all__ = ["generate_hin", "schema_from_config", "generate_delta_schedule"]


def schema_from_config(config: SyntheticHINConfig) -> HeteroSchema:
    """Build the :class:`HeteroSchema` described by ``config``."""
    return HeteroSchema(
        node_types=tuple(spec.name for spec in config.node_types),
        relations=tuple(Relation(rel.name, rel.src, rel.dst) for rel in config.relations),
        target_type=config.target_type,
        num_classes=config.num_classes,
        name=config.name,
    )


def _assign_topics(count: int, num_topics: int, rng: np.random.Generator) -> np.ndarray:
    """Roughly balanced topic assignment for ``count`` nodes."""
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    base = np.tile(np.arange(num_topics), count // num_topics + 1)[:count]
    rng.shuffle(base)
    return base.astype(np.int64)


def _popularity_weights(count: int, skew: float, rng: np.random.Generator) -> np.ndarray:
    """Pareto-distributed popularity weights normalised to sum to one."""
    if count == 0:
        return np.empty(0, dtype=np.float64)
    weights = rng.pareto(skew, size=count) + 1.0
    return weights / weights.sum()


def _sample_relation_edges(
    rel: RelationSpec,
    src_topics: np.ndarray,
    dst_topics: np.ndarray,
    num_topics: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample edge endpoints for one relation.

    Every source node draws ``Poisson(avg_degree) + 1`` destinations.  With
    probability ``affinity`` the destination is drawn from the same-topic
    pool (weighted by popularity); otherwise from the full destination set.

    The RNG sees the same calls in the same order as one ``rng.choice(members,
    size=n_same, p=probs)`` per row, the loop ``tests/oracles.py`` keeps, so
    datasets are byte-identical to it.  Each pool's CDF is built once, and
    ``choice``'s checks of ``probs`` run once, by a draw-free ``choice(size=0)``;
    a pool that fails them raises at its first same-topic draw, as ``choice`` does.
    """
    n_src = src_topics.shape[0]
    n_dst = dst_topics.shape[0]
    if n_src == 0 or n_dst == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    popularity = _popularity_weights(n_dst, rel.degree_skew, rng)
    all_dst = np.arange(n_dst)
    pools: list[tuple[np.ndarray, np.ndarray | None, ValueError | None]] = []
    for topic in range(num_topics):
        members = all_dst[dst_topics == topic]
        cdf = error = None
        if members.size:
            probs = popularity[members]
            probs = probs / probs.sum()
            try:
                rng.choice(members, size=0, p=probs)
            except ValueError as exc:
                error = exc
            cdf = probs.cumsum()
            cdf /= cdf[-1]
        pools.append((members, cdf, error))

    degrees = rng.poisson(rel.avg_degree, size=n_src) + 1
    dst = np.empty(int(degrees.sum()), dtype=np.int64)
    start = 0
    for deg, topic in zip(degrees.tolist(), (src_topics % num_topics).tolist()):
        n_same = np.count_nonzero(rng.random(deg) < rel.affinity)
        members, cdf, error = pools[topic]
        if n_same and members.size:
            if error is not None:
                raise error
            same = cdf.searchsorted(rng.random(n_same), side="right")
            dst[start : start + n_same] = members[same]
        else:
            n_same = 0
        n_rest = deg - n_same
        if n_rest:
            # Background (cross-topic) edges are uniform rather than
            # popularity-weighted, so hub nodes stay topic-pure — the property
            # of real academic/knowledge graphs that makes receptive-field
            # maximisation a sensible selection signal.
            dst[start + n_same : start + deg] = rng.integers(0, n_dst, size=n_rest)
        start += deg
    return np.repeat(np.arange(n_src, dtype=np.int64), degrees), dst


def _topic_features(
    topics: np.ndarray,
    feature_dim: int,
    noise: float,
    signal: float,
    num_topics: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Class-conditional Gaussian features: ``x = signal * mu_topic + noise``."""
    means = rng.standard_normal((num_topics, feature_dim))
    # Orthogonalise topic means so classes are separable but not trivially so.
    q, _ = np.linalg.qr(means.T)
    means = q.T[:num_topics] if q.shape[1] >= num_topics else means
    features = signal * means[topics % num_topics]
    features = features + noise * rng.standard_normal((topics.shape[0], feature_dim))
    return features


def generate_hin(
    config: SyntheticHINConfig,
    *,
    scale: float = 1.0,
    seed: int | np.random.Generator | None = 0,
) -> "HeteroGraph":
    """Generate a synthetic heterogeneous graph from ``config``.

    Parameters
    ----------
    config:
        Dataset description (node types, relations, class count, splits).
    scale:
        Multiplier applied to every node-type count; benchmarks use small
        scales so the full pipeline runs in seconds.
    seed:
        Seed or generator for reproducibility.

    Returns
    -------
    HeteroGraph
        Graph with features, labels on the target type and HGB-style splits.
    """
    from repro.hetero.graph import HeteroGraph  # local import to avoid cycles

    rng = ensure_rng(seed)
    schema = schema_from_config(config)
    counts = config.scaled_counts(scale)
    num_topics = config.num_classes

    with obs.span("datasets.generate", dataset=config.name, scale=float(scale)) as span:
        topics: dict[str, np.ndarray] = {
            spec.name: _assign_topics(counts[spec.name], num_topics, rng)
            for spec in config.node_types
        }

        builder = HeteroGraphBuilder(schema)
        for spec in config.node_types:
            features = _topic_features(
                topics[spec.name],
                spec.feature_dim,
                spec.feature_noise,
                config.feature_signal,
                num_topics,
                rng,
            )
            builder.add_nodes(spec.name, counts[spec.name], features)

        for rel in config.relations:
            src, dst = _sample_relation_edges(
                rel, topics[rel.src], topics[rel.dst], num_topics, rng
            )
            builder.add_edges(rel.name, src, dst)

        target_topics = topics[config.target_type]
        builder.set_labels(target_topics)

        n_target = counts[config.target_type]
        order = rng.permutation(n_target)
        n_train = max(1, int(round(config.train_fraction * n_target)))
        n_val = max(1, int(round(config.val_fraction * n_target)))
        builder.set_splits(
            train=order[:n_train],
            val=order[n_train : n_train + n_val],
            test=order[n_train + n_val :],
        )
        builder.set_metadata(name=config.name, scale=scale, **dict(config.metadata))

        graph: HeteroGraph = builder.build()
        if span is not None:
            span.attrs.update(nodes=graph.total_nodes, edges=graph.total_edges)
    return graph


# --------------------------------------------------------------------------- #
# Evolving-graph schedules
# --------------------------------------------------------------------------- #
def generate_delta_schedule(
    graph: "HeteroGraph",
    *,
    steps: int,
    seed: int | np.random.Generator | None = 0,
    edge_churn: float = 0.002,
    relations: tuple[str, ...] | None = None,
    node_arrival_every: int = 0,
    arrival_count: int = 4,
    arrival_types: tuple[str, ...] | None = None,
    removal_every: int = 0,
    removal_count: int = 2,
    regime: str = "steady",
    regime_params: dict | None = None,
) -> "list":
    """Generate a deterministic, timestamped delta schedule for ``graph``.

    Models the production pattern the streaming subsystem targets: a steady
    trickle of edge churn (new/retracted links, e.g. tags attaching to
    papers) with occasional node arrivals and departures.  Passing
    ``regime`` other than ``"steady"`` instead delegates to the adversarial
    regime library (:mod:`repro.datasets.adversarial`) — hostile schedules
    engineered to maximize dirty sets, delete hubs, burst arrivals or skew
    type distributions — tuned by ``regime_params``; the steady keyword
    arguments below are then ignored.

    Parameters
    ----------
    graph:
        The starting graph.  It is **not** mutated: schedule generation
        replays the deltas on a private copy so that removals always name
        existing edges and arrivals extend the correct id ranges.
    steps:
        Number of deltas to generate (their ``step`` fields are 1-based).
    seed:
        RNG seed; the same seed reproduces the same schedule.
    edge_churn:
        Per-step fraction of each churned relation's edges that is removed
        and (approximately) re-added elsewhere, keeping density stable.
    relations:
        Relation names to churn (default: every relation).
    node_arrival_every / arrival_count / arrival_types:
        Every ``node_arrival_every``-th step additionally inserts
        ``arrival_count`` nodes per arrival type (default: every non-target
        type), with features resampled from the type's empirical mean/std
        and edges wired like the surrounding graph; target-type arrivals
        carry labels drawn from the empirical label distribution and join
        the test split.  ``0`` disables arrivals.
    removal_every / removal_count:
        Every ``removal_every``-th step tombstones ``removal_count`` random
        nodes per arrival type.  ``0`` disables departures.

    Returns
    -------
    list of repro.streaming.GraphDelta
        One delta per step, in replay order.
    """
    if regime != "steady":
        from repro.datasets.adversarial import generate_adversarial_schedule

        return generate_adversarial_schedule(
            graph, regime=regime, steps=steps, seed=seed, params=regime_params
        )
    if regime_params:
        # Steady accepts its tuning through regime_params too, so callers
        # driving every regime through one (regime, regime_params) pair —
        # the scenario matrix — hit the same code path as keyword callers.
        merged = {
            "edge_churn": edge_churn,
            "relations": relations,
            "node_arrival_every": node_arrival_every,
            "arrival_count": arrival_count,
            "arrival_types": arrival_types,
            "removal_every": removal_every,
            "removal_count": removal_count,
            **regime_params,
        }
        return generate_delta_schedule(graph, steps=steps, seed=seed, **merged)

    # Local import: repro.streaming sits above the datasets layer.
    from repro.streaming.apply import DeltaApplier
    from repro.streaming.delta import GraphDelta

    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 <= edge_churn <= 1.0:
        raise ValueError(f"edge_churn must be in [0, 1], got {edge_churn}")
    rng = ensure_rng(seed)
    state = graph.copy()
    applier = DeltaApplier()
    churned = tuple(relations) if relations is not None else tuple(state.adjacency)
    for name in churned:
        state.schema.relation(name)  # raises on unknown relation names
    if arrival_types is None:
        arrival_types = tuple(
            t for t in state.schema.node_types if t != state.schema.target_type
        )

    schedule = []
    for step in range(1, steps + 1):
        add_edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        remove_edges: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in churned:
            matrix = state.adjacency[name]
            # churn 0 means no churn; any positive churn moves >= 1 edge
            count = max(1, int(round(edge_churn * matrix.nnz))) if edge_churn > 0 else 0
            if count == 0:
                continue
            if matrix.nnz:
                coo = matrix.tocoo()
                picked = rng.choice(coo.nnz, size=min(count, coo.nnz), replace=False)
                remove_edges[name] = (coo.row[picked], coo.col[picked])
            rel = state.schema.relation(name)
            add_edges[name] = (
                rng.integers(0, state.num_nodes[rel.src], size=count),
                rng.integers(0, state.num_nodes[rel.dst], size=count),
            )

        add_nodes: dict[str, np.ndarray] = {}
        add_labels = None
        if node_arrival_every and step % node_arrival_every == 0:
            for node_type in arrival_types:
                base = state.features[node_type]
                mean = base.mean(axis=0)
                std = base.std(axis=0) + 1e-6
                add_nodes[node_type] = mean + std * rng.standard_normal(
                    (arrival_count, base.shape[1])
                )
            if state.schema.target_type in add_nodes:
                labeled = state.labels[state.labels >= 0]
                population = labeled if labeled.size else np.zeros(1, dtype=np.int64)
                add_labels = rng.choice(population, size=arrival_count)
            # Wire the arrivals into the graph: every relation touching an
            # arrival type gets a few edges incident to the new ids (mean
            # degree ~= the relation's existing mean out-degree, >= 1).
            for name in state.adjacency:
                rel = state.schema.relation(name)
                new_src = add_nodes.get(rel.src)
                new_dst = add_nodes.get(rel.dst)
                pieces_src: list[np.ndarray] = []
                pieces_dst: list[np.ndarray] = []
                mean_degree = max(
                    1, int(state.adjacency[name].nnz / max(state.num_nodes[rel.src], 1))
                )
                if new_src is not None:
                    first = state.num_nodes[rel.src]
                    ids = np.repeat(
                        np.arange(first, first + new_src.shape[0]), mean_degree
                    )
                    pieces_src.append(ids)
                    pieces_dst.append(
                        rng.integers(0, state.num_nodes[rel.dst], size=ids.size)
                    )
                if new_dst is not None:
                    first = state.num_nodes[rel.dst]
                    ids = np.repeat(
                        np.arange(first, first + new_dst.shape[0]), mean_degree
                    )
                    pieces_dst.append(ids)
                    pieces_src.append(
                        rng.integers(0, state.num_nodes[rel.src], size=ids.size)
                    )
                if pieces_src:
                    base_src, base_dst = add_edges.get(
                        name, (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
                    )
                    add_edges[name] = (
                        np.concatenate([base_src] + pieces_src),
                        np.concatenate([base_dst] + pieces_dst),
                    )

        remove_nodes: dict[str, np.ndarray] = {}
        if removal_every and step % removal_every == 0:
            for node_type in arrival_types:
                count = min(removal_count, state.num_nodes[node_type] - 1)
                if count > 0:
                    remove_nodes[node_type] = rng.choice(
                        state.num_nodes[node_type], size=count, replace=False
                    )

        delta = GraphDelta(
            add_edges=add_edges,
            remove_edges=remove_edges,
            add_nodes=add_nodes,
            add_labels=add_labels,
            remove_nodes=remove_nodes,
            step=step,
        )
        applier.apply(state, delta)
        schedule.append(delta)
    return schedule
