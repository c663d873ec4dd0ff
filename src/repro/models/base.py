"""Shared HGNN classifier interface.

Every HGNN in this package follows the evaluation protocol of the paper:

1. ``fit(condensed_graph)`` — pre-compute meta-path features on the training
   graph and train the architecture-specific semantic-fusion module;
2. ``predict(full_graph)`` / ``evaluate(full_graph)`` — pre-compute the same
   meta-path features on the evaluation graph (typically the original,
   uncondensed graph) and report test-split accuracy.

Subclasses only implement :meth:`HGNNClassifier._build_module`, which returns
a :class:`~repro.nn.module.Module` mapping the dict of per-meta-path feature
tensors to class logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.hetero.graph import HeteroGraph
from repro.nn.autograd import Tensor, no_grad
from repro.nn.metrics import accuracy, macro_f1, micro_f1
from repro.nn.module import Module
from repro.nn.trainer import TrainConfig, Trainer, TrainResult
from repro.models.propagation import propagate_metapath_features, row_normalize_features
from repro.utils.rng import ensure_rng

__all__ = ["HGNNConfig", "HGNNClassifier"]


@dataclass(frozen=True)
class HGNNConfig:
    """Hyper-parameters shared by every HGNN classifier.

    Defaults follow Section V-B of the paper: learning rate ``0.001``,
    dropout ``0.5``, hidden dimension ``128`` (scaled down to 64 by most
    benchmark scripts for speed).
    """

    hidden_dim: int = 64
    dropout: float = 0.5
    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 150
    patience: int = 25
    max_hops: int = 2
    max_paths: int = 16
    seed: int = 0


class HGNNClassifier:
    """Base class implementing the fit / predict / evaluate protocol."""

    name = "hgnn"

    def __init__(self, config: HGNNConfig | None = None, **overrides: object) -> None:
        base = config or HGNNConfig()
        if overrides:
            base = HGNNConfig(**{**base.__dict__, **overrides})
        self.config = base
        self._module: Module | None = None
        self._feature_keys: list[str] | None = None
        self._feature_dims: dict[str, int] | None = None
        self._num_classes: int | None = None
        self.train_result: TrainResult | None = None

    # ------------------------------------------------------------------ #
    # Subclass hook
    # ------------------------------------------------------------------ #
    def _build_module(
        self, feature_dims: dict[str, int], num_classes: int, rng: np.random.Generator
    ) -> Module:
        raise NotImplementedError

    def _select_feature_keys(self, all_keys: list[str]) -> list[str]:
        """Which meta-path feature blocks this architecture consumes.

        The default keeps everything; meta-path-free architectures (HGB,
        RGCN) override this to restrict themselves to short paths.
        """
        return all_keys

    # ------------------------------------------------------------------ #
    # Public protocol
    # ------------------------------------------------------------------ #
    def fit(self, graph: HeteroGraph) -> TrainResult:
        """Train on ``graph`` (usually a condensed graph) and return the result."""
        if graph.splits.train.size == 0:
            raise ModelError("training graph has an empty train split")
        return self._fit(
            self._prepare_features(graph),
            graph.labels,
            graph.schema.num_classes,
            graph.splits.train,
            graph.splits.val,
        )

    def fit_from_features(
        self,
        features: dict[str, np.ndarray],
        labels: np.ndarray,
        num_classes: int,
        *,
        train_idx: np.ndarray | None = None,
        val_idx: np.ndarray | None = None,
    ) -> TrainResult:
        """Train directly on pre-computed meta-path features.

        Used by the optimisation-based condensers (GCond, HGCond), whose
        output is a synthetic :class:`~repro.baselines.base.CondensedFeatureSet`
        rather than a graph.  The feature keys must match what
        :func:`~repro.models.propagation.propagate_metapath_features` produces
        on the evaluation graph, so that :meth:`predict` works unchanged.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if not features:
            raise ModelError("fit_from_features requires at least one feature block")
        if train_idx is None:
            train_idx = np.arange(labels.shape[0], dtype=np.int64)
        return self._fit(features, labels, int(num_classes), train_idx, val_idx)

    def _fit(
        self,
        features: dict[str, np.ndarray],
        labels: np.ndarray,
        num_classes: int,
        train_idx: np.ndarray,
        val_idx: np.ndarray | None,
    ) -> TrainResult:
        """Build a fresh module over ``features`` and train it."""
        self._feature_keys = self._select_feature_keys(sorted(features))
        if not self._feature_keys:
            raise ModelError("no feature blocks usable by this architecture")
        self._feature_dims = {key: features[key].shape[1] for key in self._feature_keys}
        self._num_classes = num_classes
        rng = ensure_rng(self.config.seed)
        self._module = self._build_module(self._feature_dims, num_classes, rng)
        trainer = Trainer(
            self._module,
            TrainConfig(
                lr=self.config.lr,
                weight_decay=self.config.weight_decay,
                epochs=self.config.epochs,
                patience=self.config.patience,
            ),
        )
        self.train_result = trainer.fit(self._to_tensors(features), labels, train_idx, val_idx)
        return self.train_result

    def predict(self, graph: HeteroGraph) -> np.ndarray:
        """Predict a class for every target-type node of ``graph``."""
        module = self._require_fitted()
        features = self._prepare_features(graph)
        inputs = self._to_tensors(features)
        module.eval()
        with no_grad():
            logits = module(inputs)
        return np.argmax(logits.numpy(), axis=-1)

    # ------------------------------------------------------------------ #
    # Persistence protocol (serving bundles)
    # ------------------------------------------------------------------ #
    def export_propagation_state(self) -> dict[str, object]:
        """JSON-safe description of the fitted propagation interface.

        Everything :meth:`restore_state` needs besides the raw weights: the
        hyper-parameter config, which meta-path feature blocks the module
        consumes and with which dimensionality, and the class count.  This
        is the "propagation state" of a serving bundle — it pins the exact
        feature interface the weights were trained against, so a restored
        model refuses graphs whose schema drifted.
        """
        self._require_fitted()
        assert self._feature_keys is not None and self._feature_dims is not None
        return {
            "config": dict(self.config.__dict__),
            "feature_keys": list(self._feature_keys),
            "feature_dims": {key: int(dim) for key, dim in self._feature_dims.items()},
            "num_classes": int(self._num_classes or 0),
        }

    def restore_state(
        self, state: dict[str, object], weights: dict[str, np.ndarray]
    ) -> "HGNNClassifier":
        """Rebuild the fitted module from :meth:`export_propagation_state` output.

        The module is reconstructed deterministically from the stored
        propagation state and the ``weights`` are loaded strictly
        (:class:`~repro.errors.StateDictError` on any mismatch), so a
        restored classifier predicts byte-identically to the one that was
        exported.
        """
        feature_keys = [str(key) for key in state["feature_keys"]]
        feature_dims = {
            str(key): int(dim) for key, dim in dict(state["feature_dims"]).items()
        }
        num_classes = int(state["num_classes"])
        rng = ensure_rng(self.config.seed)
        module = self._build_module(feature_dims, num_classes, rng)
        # All-or-nothing: a StateDictError must leave this classifier
        # unfitted rather than looking fitted with random-init weights.
        module.load_state_dict(weights, strict=True)
        module.eval()
        self._feature_keys = feature_keys
        self._feature_dims = feature_dims
        self._num_classes = num_classes
        self._module = module
        return self

    def evaluate(self, graph: HeteroGraph, indices: np.ndarray | None = None) -> float:
        """Accuracy on ``graph`` (test split by default)."""
        indices = graph.splits.test if indices is None else np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise ModelError("evaluation split is empty")
        predictions = self.predict(graph)
        return accuracy(predictions[indices], graph.labels[indices])

    def evaluate_metrics(
        self, graph: HeteroGraph, indices: np.ndarray | None = None
    ) -> dict[str, float]:
        """Accuracy, micro-F1 and macro-F1 on ``graph``."""
        indices = graph.splits.test if indices is None else np.asarray(indices, dtype=np.int64)
        predictions = self.predict(graph)
        labels = graph.labels[indices]
        preds = predictions[indices]
        classes = graph.schema.num_classes
        return {
            "accuracy": accuracy(preds, labels),
            "micro_f1": micro_f1(preds, labels, classes),
            "macro_f1": macro_f1(preds, labels, classes),
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def prepare_features(self, graph: HeteroGraph, *, context=None) -> dict[str, np.ndarray]:
        """The exact (normalised) feature blocks :meth:`predict` consumes.

        Exposed for the serving engine, which pre-computes these once per
        model epoch instead of on every request.  A matching
        :class:`~repro.core.context.CondensationContext` (the incremental
        condenser's live context) short-cuts the propagation with its
        memoized blocks — the same arrays the condensation stages use.
        """
        features = propagate_metapath_features(
            graph,
            max_hops=self.config.max_hops,
            max_paths=self.config.max_paths,
            context=context,
        )
        return row_normalize_features(features)

    def _prepare_features(self, graph: HeteroGraph) -> dict[str, np.ndarray]:
        return self.prepare_features(graph)

    def _to_tensors(self, features: dict[str, np.ndarray]) -> dict[str, Tensor]:
        assert self._feature_keys is not None and self._feature_dims is not None
        inputs: dict[str, Tensor] = {}
        for key in self._feature_keys:
            if key not in features:
                raise ModelError(
                    f"feature block {key!r} missing on evaluation graph; "
                    "train and evaluation graphs must share a schema"
                )
            block = features[key]
            if block.shape[1] != self._feature_dims[key]:
                raise ModelError(
                    f"feature block {key!r} has dimension {block.shape[1]}, "
                    f"expected {self._feature_dims[key]}"
                )
            inputs[key] = Tensor(block)
        return inputs

    def _require_fitted(self) -> Module:
        if self._module is None:
            raise ModelError(f"{type(self).__name__} must be fitted before prediction")
        return self._module

    @property
    def num_parameters(self) -> int:
        """Number of trainable parameters (0 before fitting)."""
        return self._module.num_parameters() if self._module is not None else 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(hidden={self.config.hidden_dim})"
