"""The micro-batched prediction engine.

:class:`InferenceSession` is an **immutable snapshot** of one deployable
model epoch: at construction it pre-computes the propagated meta-path
features of every target node exactly once (the expensive sparse matmuls a
naive server would redo per request) and runs one full-batch forward pass —
the same full-batch forward training and evaluation use — caching the
resulting logits.  Serving a request is then a vectorised row-gather +
``argmax`` over the cached logits, which makes batched prediction
**byte-identical** to one-at-a-time prediction by construction: both paths
read the same pre-computed rows, there is no per-batch floating-point
re-association to worry about.

On top sits a small LRU label cache (:class:`LRUCache`): hot nodes skip
even the gather.  Because a session is immutable, the cache can be *carried
across hot-swaps*: when the controller proves the model unchanged, only the
entries in the delta's dirty set are invalidated (see
:mod:`repro.serving.hotswap` for the exact contract).

Sessions are cheap to throw away — the hot-swap path builds a fresh one per
delta and atomically replaces the reference.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.errors import ServingError

if TYPE_CHECKING:
    from repro.hetero.graph import HeteroGraph
    from repro.models.base import HGNNClassifier

__all__ = ["LRUCache", "InferenceSession"]


class LRUCache:
    """Thread-safe least-recently-used ``node id -> label`` cache.

    ``capacity <= 0`` disables the cache entirely (every lookup misses),
    which the benchmarks use to measure the uncached engine.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised lookup: ``(labels, found_mask)`` aligned with ``ids``.

        Missing ids get label ``-1`` and ``found_mask`` False.
        """
        labels = np.full(ids.shape, -1, dtype=np.int64)
        found = np.zeros(ids.shape, dtype=bool)
        if self.capacity <= 0:
            self.misses += int(ids.size)
            return labels, found
        with self._lock:
            entries = self._entries
            for position, node in enumerate(ids.tolist()):
                value = entries.get(node)
                if value is not None:
                    entries.move_to_end(node)
                    labels[position] = value
                    found[position] = True
        hit_count = int(found.sum())
        self.hits += hit_count
        self.misses += int(ids.size) - hit_count
        return labels, found

    def store(self, ids: np.ndarray, labels: np.ndarray) -> None:
        """Insert ``id -> label`` pairs, evicting least-recently-used."""
        if self.capacity <= 0:
            return
        with self._lock:
            entries = self._entries
            for node, label in zip(ids.tolist(), labels.tolist()):
                entries[node] = int(label)
                entries.move_to_end(node)
            while len(entries) > self.capacity:
                entries.popitem(last=False)

    def invalidate(self, ids: Iterable[int]) -> int:
        """Drop the given node ids; returns how many entries were removed."""
        removed = 0
        with self._lock:
            for node in ids:
                if self._entries.pop(int(node), None) is not None:
                    removed += 1
        return removed

    def adopt(self, other: "LRUCache", *, drop: np.ndarray | None = None) -> int:
        """Copy ``other``'s entries (minus ``drop``) into this empty cache.

        Used by the hot-swap path to carry a warm cache across sessions.
        Returns the number of entries carried over.
        """
        if self.capacity <= 0:
            return 0
        dropped = set(np.asarray(drop, dtype=np.int64).tolist()) if drop is not None else set()
        with other._lock:
            snapshot = list(other._entries.items())
        with self._lock:
            for node, label in snapshot:
                if node not in dropped:
                    self._entries[node] = label
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> dict[str, int]:
        """Hit/miss/size counters."""
        return {"hits": self.hits, "misses": self.misses, "size": len(self._entries)}


class InferenceSession:
    """One immutable model epoch: pre-computed features + logits + cache.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.base.HGNNClassifier`.
    graph:
        The graph predictions are answered on (typically the live *full*
        graph, per the paper's train-on-condensed / serve-on-full protocol).
    version:
        Monotonic epoch counter stamped on every response.
    cache_size:
        LRU label-cache capacity (``0`` disables it).
    context:
        Optional :class:`~repro.core.context.CondensationContext` matching
        ``graph``; when compatible, feature propagation reuses its memoized
        blocks instead of recomputing the sparse matmuls.
    """

    def __init__(
        self,
        model: HGNNClassifier,
        graph: HeteroGraph,
        *,
        version: int = 0,
        cache_size: int = 4096,
        context=None,
    ) -> None:
        # Only a session built from a model needs the model stack; replicated
        # workers build theirs from published logits and never import it.
        from repro.nn.autograd import no_grad

        self.model = model
        self.graph = graph
        self.version = int(version)
        self.cache = LRUCache(cache_size)
        module = model._require_fitted()
        start = perf_counter()
        features = model.prepare_features(graph, context=context)
        inputs = model._to_tensors(features)
        module.eval()
        with no_grad():
            logits = module(inputs).numpy()
        self.precompute_seconds = perf_counter() - start
        logits = np.ascontiguousarray(logits)
        logits.setflags(write=False)
        self._logits = logits
        self.requests = 0
        self.batches = 0

    # ------------------------------------------------------------------ #
    @classmethod
    def from_logits(
        cls,
        logits: np.ndarray,
        *,
        version: int = 0,
        cache_size: int = 4096,
    ) -> "InferenceSession":
        """Build a session directly from pre-computed logits.

        This is how replicated worker processes serve: the coordinator runs
        the forward pass once, publishes the logits as a raw ``.npy``, and
        every worker opens them with ``np.load(..., mmap_mode="r")`` — the
        returned session answers :meth:`predict` from those rows without
        ever holding a model or graph.  A read-only ``np.memmap`` is kept
        as-is (the kernel shares its pages across the pool); any other
        array is copied to a contiguous read-only buffer.
        """
        logits = np.asanyarray(logits)
        if logits.ndim != 2:
            raise ServingError(
                f"logits must be a (targets, classes) matrix, got shape {logits.shape}"
            )
        session = cls.__new__(cls)
        session.model = None
        session.graph = None
        session.version = int(version)
        session.cache = LRUCache(cache_size)
        session.precompute_seconds = 0.0
        if not isinstance(logits, np.memmap):
            logits = np.ascontiguousarray(logits)
            logits.setflags(write=False)
        session._logits = logits
        session.requests = 0
        session.batches = 0
        return session

    @property
    def num_targets(self) -> int:
        """How many target nodes this session can answer for."""
        return int(self._logits.shape[0])

    @property
    def num_classes(self) -> int:
        """Number of classes in the cached logits."""
        return int(self._logits.shape[1])

    def logits(self, node_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Raw logit rows for ``node_ids`` (copy; for verification/debug)."""
        return self._logits[self._validated(node_ids)].copy()

    def _validated(self, node_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        ids = np.asarray(node_ids, dtype=np.int64).ravel()
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_targets):
            raise ServingError(
                f"node id out of range: valid ids are 0..{self.num_targets - 1}"
            )
        return ids

    # ------------------------------------------------------------------ #
    def predict(self, node_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Predicted class label per requested node (vectorised).

        A batch of ``k`` ids costs one cache lookup, one row-gather and one
        ``argmax`` over the missing rows — identical results to ``k``
        single-id calls (the byte-identity gate of
        ``benchmarks/bench_serving.py`` asserts exactly that).
        """
        ids = self._validated(node_ids)
        self.requests += int(ids.size)
        self.batches += 1
        labels, found = self.cache.lookup(ids)
        if not found.all():
            miss = ~found
            miss_ids = ids[miss]
            computed = np.argmax(self._logits[miss_ids], axis=-1).astype(np.int64)
            labels[miss] = computed
            self.cache.store(miss_ids, computed)
        return labels

    def predict_one(self, node_id: int) -> int:
        """Single-node convenience wrapper around :meth:`predict`."""
        return int(self.predict(np.asarray([node_id]))[0])

    def argmax_labels(self, node_ids: Sequence[int] | np.ndarray) -> np.ndarray:
        """Labels straight from the logit rows, bypassing the LRU cache.

        The canary evaluator compares candidate and previous sessions with
        this: it must not warm (or trust) either session's cache, because a
        canary probe is a *side-channel* read — the serving stats and cache
        contents should be indistinguishable from a canary-less deploy.
        """
        ids = self._validated(node_ids)
        return np.argmax(self._logits[ids], axis=-1).astype(np.int64)

    @property
    def stats(self) -> dict[str, object]:
        """Counters for the ``/stats`` endpoint and the benchmarks."""
        return {
            "version": self.version,
            "targets": self.num_targets,
            "requests": self.requests,
            "batches": self.batches,
            "precompute_seconds": round(self.precompute_seconds, 6),
            "cache": self.cache.stats,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InferenceSession(version={self.version}, targets={self.num_targets}, "
            f"classes={self.num_classes})"
        )
