"""Reference implementations the fast kernels are checked against.

Each oracle is the straightforward form a kernel replaced, kept out of
``src/`` so the library has one implementation of each computation.  The
property tests and ``benchmarks/bench_perf_hotpaths.py`` compare the
production kernels with these bit for bit.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.datasets.base import RelationSpec
from repro.datasets.generators import _popularity_weights
from repro.hetero.sparse import boolean_csr, row_normalize, to_csr
from repro.nn.autograd import Tensor, no_grad
from repro.nn.losses import cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.trainer import TrainConfig, TrainResult


def compose_matmul(graph, metapath) -> sp.csr_matrix:
    """Boolean meta-path adjacency as a chain of float sparse products.

    Canonicalised (sorted, duplicate-free) with every stored value 1.0.
    """
    result = None
    for src, dst in metapath.hops():
        hop = boolean_csr(graph.typed_adjacency(src, dst))
        result = hop if result is None else (result @ hop).tocsr()
    result = result.copy()
    result.sum_duplicates()
    if result.nnz:
        result.data = np.ones_like(result.data)
    return result


def composed_metapath_features(graph, metapaths) -> dict:
    """Meta-path feature blocks through the composed normalised adjacency.

    Eq. 1 term by term: normalise each hop, multiply the hop matrices into
    the vertex-vertex ``Â_P``, then multiply ``Â_P`` by the end type's
    features.  Keys and their order match
    :func:`repro.models.propagation.metapath_feature_blocks`.
    """
    features = {"self": graph.features[graph.schema.target_type].copy()}
    for metapath in metapaths:
        result = None
        for src, dst in metapath.hops():
            hop = row_normalize(graph.typed_adjacency(src, dst))
            result = hop if result is None else (result @ hop).tocsr()
        features[str(metapath)] = np.asarray(result @ graph.features[metapath.end])
    return features


def csr_row_jaccard(a: sp.csr_matrix, b: sp.csr_matrix) -> np.ndarray:
    """Per-row Jaccard through an elementwise CSR product (empty union: 1)."""
    a, b = boolean_csr(a), boolean_csr(b)
    intersection = np.asarray(a.multiply(b).sum(axis=1)).ravel()
    union = (
        np.asarray(a.sum(axis=1)).ravel() + np.asarray(b.sum(axis=1)).ravel() - intersection
    )
    result = np.ones(a.shape[0], dtype=np.float64)
    nonzero = union > 0
    result[nonzero] = intersection[nonzero] / union[nonzero]
    return result


def symmetric_normalize(matrix: sp.spmatrix) -> sp.csr_matrix:
    """Symmetrically normalise ``matrix``: ``D^-1/2 A D^-1/2``.

    For rectangular (bipartite) matrices the row and column degree vectors
    are used on their respective sides, matching the treatment of meta-path
    adjacency matrices in Eq. 11.
    """
    matrix = to_csr(matrix)
    row_deg = np.asarray(matrix.sum(axis=1)).ravel()
    col_deg = np.asarray(matrix.sum(axis=0)).ravel()
    row_inv = np.zeros_like(row_deg)
    col_inv = np.zeros_like(col_deg)
    row_nz = row_deg > 0
    col_nz = col_deg > 0
    row_inv[row_nz] = 1.0 / np.sqrt(row_deg[row_nz])
    col_inv[col_nz] = 1.0 / np.sqrt(col_deg[col_nz])
    return sp.diags(row_inv) @ matrix @ sp.diags(col_inv)


def personalized_pagerank(
    adjacency: sp.csr_matrix,
    restart: np.ndarray,
    *,
    alpha: float = 0.15,
    iterations: int = 30,
    tolerance: float = 1e-8,
    prenormalized: bool = False,
) -> np.ndarray:
    """Approximate personalised PageRank on a square symmetric-normalised graph.

    Solves ``p = alpha * restart + (1 - alpha) * Â p`` by power iteration,
    the approximation of ``alpha (I - (1 - alpha) Â)^{-1} restart`` (Eq. 11),
    and stops once the L1 change of the whole iterate falls below
    ``tolerance``.  ``adjacency`` is symmetric-normalised first unless
    ``prenormalized``; ``restart`` is renormalised to sum to one (uniform
    when it sums to zero).  On a bipartite block matrix each step updates
    both halves from the previous iterate: two independent chains side by
    side.
    """
    if adjacency.shape[0] != adjacency.shape[1]:
        raise ValueError("personalised PageRank requires a square adjacency matrix")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    normalized = adjacency if prenormalized else symmetric_normalize(adjacency)
    restart = np.asarray(restart, dtype=np.float64)
    total = restart.sum()
    if total <= 0:
        restart = np.full(restart.size, 1.0 / restart.size)
    else:
        restart = restart / total
    scores = restart.copy()
    teleport = alpha * restart  # constant across iterations; hoisted
    damping = 1.0 - alpha
    for _ in range(iterations):
        updated = teleport + damping * (normalized @ scores)
        if np.abs(updated - scores).sum() < tolerance:
            scores = updated
            break
        scores = updated
    return scores


def normalized_block(adjacency: sp.csr_matrix) -> sp.csr_matrix:
    """Symmetric-normalised ``[[0, A], [Aᵀ, 0]]`` of a unit-weight canonical ``A``.

    Entry values are ``inv[i] * inv[j]`` over the concatenated degree
    vector, rows in ascending column order.
    """
    n_target, n_father = adjacency.shape
    csc = adjacency.tocsc()
    degrees = np.concatenate([np.diff(adjacency.indptr), np.diff(csc.indptr)]).astype(
        np.float64
    )
    inv = np.zeros_like(degrees)
    positive = degrees > 0
    inv[positive] = 1.0 / np.sqrt(degrees[positive])
    indptr = np.concatenate([adjacency.indptr, adjacency.indptr[-1] + csc.indptr[1:]])
    indices = np.concatenate(
        [adjacency.indices.astype(np.int64) + n_target, csc.indices.astype(np.int64)]
    )
    data = np.repeat(inv, np.diff(indptr)) * inv[indices]
    size = n_target + n_father
    return sp.csr_matrix((data, indices, indptr), shape=(size, size))


def scaled_adjacency_dense(dense: np.ndarray) -> sp.csr_matrix:
    """NIM's Eq. 11 operator ``S`` from a dense boolean matrix, entry by entry.

    Over ``rows, cols = np.nonzero(dense)``, entry ``(i, j)`` is
    ``r_inv[i] * c_inv[j]``: one multiply of the inverse square roots of
    row ``i``'s and column ``j``'s entry counts.
    """
    rows, cols = np.nonzero(dense)
    row_counts, col_counts = dense.sum(axis=1), dense.sum(axis=0)
    r_inv = np.zeros(row_counts.size)
    c_inv = np.zeros(col_counts.size)
    r_inv[row_counts > 0] = 1.0 / np.sqrt(row_counts[row_counts > 0])
    c_inv[col_counts > 0] = 1.0 / np.sqrt(col_counts[col_counts > 0])
    indptr = np.concatenate([[0], np.cumsum(row_counts)])
    return sp.csr_matrix((r_inv[rows] * c_inv[cols], cols, indptr), shape=dense.shape)


def block_pagerank(
    adjacency: sp.csr_matrix,
    anchor: np.ndarray,
    *,
    alpha: float = 0.15,
    iterations: int = 30,
    tolerance: float = 1e-8,
) -> np.ndarray:
    """NIM's PPR, ``[target, father]``, as one SpMV per step over the block matrix.

    Both chains run side by side and the stop tests the whole iterate; NIM's
    :func:`~repro.core.neighbor_influence.bipartite_pagerank` iterates only
    the chain that ends in the father half.
    """
    restart = np.concatenate([np.asarray(anchor, dtype=np.float64), np.zeros(adjacency.shape[1])])
    return personalized_pagerank(
        normalized_block(adjacency),
        restart,
        alpha=alpha,
        iterations=iterations,
        tolerance=tolerance,
        prenormalized=True,
    )


class ReferenceAdam(Optimizer):
    """Adam stepping each parameter on its own, ten NumPy calls apiece.

    :class:`repro.nn.optim.Adam` fuses this update over one flat buffer.
    """

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 0.001,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        self._step += 1
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[index] = self.beta1 * self._m[index] + (1 - self.beta1) * grad
            self._v[index] = self.beta2 * self._v[index] + (1 - self.beta2) * grad**2
            m_hat = self._m[index] / (1 - self.beta1**self._step)
            v_hat = self._v[index] / (1 - self.beta2**self._step)
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def eager_fit(
    model: Module,
    inputs: object,
    labels: np.ndarray,
    train_idx: np.ndarray,
    val_idx: np.ndarray | None = None,
    config: TrainConfig | None = None,
) -> TrainResult:
    """``Trainer.fit`` as a plain eager loop, stepped by :class:`ReferenceAdam`.

    Every epoch builds a fresh graph, runs ``loss.backward()`` and a second,
    ``no_grad`` eval-mode forward — what ``Trainer.fit`` replays from two
    recorded tapes.
    """
    config = config or TrainConfig()
    labels = np.asarray(labels, dtype=np.int64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64) if val_idx is not None else None
    optimizer = ReferenceAdam(model.parameters(), lr=config.lr, weight_decay=config.weight_decay)
    best_val = -np.inf
    best_accuracy = 0.0
    best_state = model.state_dict()
    best_epoch = 0
    patience_left = config.patience
    history: list[dict[str, float]] = []
    start = time.perf_counter()
    epoch = 0
    for epoch in range(1, config.epochs + 1):
        model.train()
        optimizer.zero_grad()
        logits = model(inputs)
        loss = cross_entropy(logits.take_rows(train_idx), labels[train_idx])
        loss.backward()
        optimizer.step()

        model.eval()
        with no_grad():
            predictions = np.argmax(model(inputs).numpy(), axis=-1)
        has_val = val_idx is not None and val_idx.size > 0
        if has_val:
            val_acc = accuracy(predictions[val_idx], labels[val_idx])
            monitor = val_acc - 1e-3 * loss.item()
        else:
            val_acc = accuracy(predictions[train_idx], labels[train_idx])
            monitor = -loss.item()
        history.append({"epoch": epoch, "loss": loss.item(), "val_accuracy": val_acc})
        if monitor > best_val:
            best_val = monitor
            best_accuracy = val_acc
            best_state = model.state_dict()
            best_epoch = epoch
            patience_left = config.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                break
    model.load_state_dict(best_state)
    return TrainResult(
        best_val_accuracy=float(best_accuracy),
        best_epoch=best_epoch,
        epochs_run=epoch,
        train_seconds=time.perf_counter() - start,
        history=history,
    )


def sample_relation_edges_reference(
    rel: RelationSpec,
    src_topics: np.ndarray,
    dst_topics: np.ndarray,
    num_topics: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample edge endpoints for one relation, one ``rng.choice`` per source row.

    :func:`repro.datasets.generators._sample_relation_edges` makes the same
    draws in the same order from a CDF built once per topic pool.

    Every source node draws ``Poisson(avg_degree) + 1`` destinations.  With
    probability ``affinity`` the destination is drawn from the same-topic
    pool (weighted by popularity); otherwise from the full destination set.
    """
    n_src = src_topics.shape[0]
    n_dst = dst_topics.shape[0]
    if n_src == 0 or n_dst == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    popularity = _popularity_weights(n_dst, rel.degree_skew, rng)
    all_dst = np.arange(n_dst)
    per_topic_nodes: list[np.ndarray] = []
    per_topic_probs: list[np.ndarray] = []
    for topic in range(num_topics):
        members = all_dst[dst_topics == topic]
        per_topic_nodes.append(members)
        if members.size:
            probs = popularity[members]
            per_topic_probs.append(probs / probs.sum())
        else:
            per_topic_probs.append(np.empty(0))

    degrees = rng.poisson(rel.avg_degree, size=n_src) + 1
    src_out: list[np.ndarray] = []
    dst_out: list[np.ndarray] = []
    for src_node in range(n_src):
        deg = int(degrees[src_node])
        topic = int(src_topics[src_node]) % num_topics
        same_topic = rng.random(deg) < rel.affinity
        n_same = int(same_topic.sum())
        chosen = np.empty(deg, dtype=np.int64)
        members = per_topic_nodes[topic]
        if n_same and members.size:
            chosen[:n_same] = rng.choice(members, size=n_same, p=per_topic_probs[topic])
        else:
            n_same = 0
        n_rest = deg - n_same
        if n_rest:
            # Background (cross-topic) edges are uniform rather than
            # popularity-weighted, so hub nodes stay topic-pure — the property
            # of real academic/knowledge graphs that makes receptive-field
            # maximisation a sensible selection signal.
            chosen[n_same:] = rng.integers(0, n_dst, size=n_rest)
        src_out.append(np.full(deg, src_node, dtype=np.int64))
        dst_out.append(chosen)
    return np.concatenate(src_out), np.concatenate(dst_out)
