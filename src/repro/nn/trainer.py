"""Generic full-batch training loop with early stopping.

All HGNN models in :mod:`repro.models` produce logits for every target-type
node from pre-computed inputs, so training is a simple full-batch loop:
forward → cross-entropy on the train split → Adam step, with early stopping
on validation accuracy.  The trainer is model-agnostic: anything with a
``forward(inputs) -> Tensor`` method and parameters works.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.nn.autograd import Tape, Tensor, no_grad
from repro.nn.losses import cross_entropy
from repro.nn.metrics import accuracy
from repro.nn.module import Module
from repro.nn.optim import Adam

__all__ = ["TrainConfig", "TrainResult", "Trainer"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of the training loop (paper defaults)."""

    lr: float = 0.01
    weight_decay: float = 5e-4
    epochs: int = 200
    patience: int = 30
    verbose: bool = False


@dataclass
class TrainResult:
    """Outcome of one training run."""

    best_val_accuracy: float
    best_epoch: int
    epochs_run: int
    train_seconds: float
    history: list[dict[str, float]] = field(default_factory=list)


class Trainer:
    """Full-batch trainer with validation-accuracy early stopping."""

    def __init__(self, model: Module, config: TrainConfig | None = None) -> None:
        self.model = model
        self.config = config or TrainConfig()

    def fit(
        self,
        inputs: object,
        labels: np.ndarray,
        train_idx: np.ndarray,
        val_idx: np.ndarray | None = None,
    ) -> TrainResult:
        """Train ``self.model`` and restore the best-validation parameters."""
        labels = np.asarray(labels, dtype=np.int64)
        train_idx = np.asarray(train_idx, dtype=np.int64)
        if train_idx.size == 0:
            raise ValueError("cannot train with an empty train split")
        val_idx = np.asarray(val_idx, dtype=np.int64) if val_idx is not None else None
        with obs.span("nn.fit") as span:
            result, tape_ops = self._fit(inputs, labels, train_idx, val_idx)
            if span is not None:
                span.attrs["epochs"] = result.epochs_run
                span.attrs["tape_ops"] = tape_ops
        return result

    def _fit(
        self,
        inputs: object,
        labels: np.ndarray,
        train_idx: np.ndarray,
        val_idx: np.ndarray | None,
    ) -> tuple[TrainResult, int]:
        optimizer = Adam(
            self.model.parameters(), lr=self.config.lr, weight_decay=self.config.weight_decay
        )
        best_val = -np.inf
        best_accuracy = 0.0
        best_state = optimizer.snapshot()
        best_epoch = 0
        patience_left = self.config.patience
        history: list[dict[str, float]] = []
        # Epoch 1 records the training graph (forward + loss) and the
        # eval-mode forward; every later epoch replays both in place.
        train_tape: Tape | None = None
        eval_tape: Tape | None = None
        start = time.perf_counter()
        epoch = 0
        for epoch in range(1, self.config.epochs + 1):
            optimizer.zero_grad()
            if train_tape is None:
                self.model.train()
                train_tape = Tape.record(self._loss, inputs, labels[train_idx], train_idx)
            else:
                train_tape.forward()
            loss = train_tape.output
            train_tape.backward()
            optimizer.step()

            if eval_tape is None:
                self.model.eval()  # and stays there once training ends
                eval_tape = Tape.record(self.model, inputs)
            else:
                eval_tape.forward()
            predictions = np.argmax(eval_tape.output.data, axis=-1)
            # Early-stopping monitor: validation accuracy when a validation
            # split exists; otherwise the (negative) training loss.  Tiny
            # condensed graphs have no validation nodes and reach 100% train
            # accuracy immediately, so accuracy alone would stop training at
            # the first epoch with a near-random model.
            has_val = val_idx is not None and val_idx.size > 0
            if has_val:
                val_acc = accuracy(predictions[val_idx], labels[val_idx])
                # Tiny validation splits saturate at 100% immediately; the
                # small loss term breaks ties in favour of better-trained
                # states without ever outweighing a real accuracy difference.
                monitor = val_acc - 1e-3 * loss.item()
            else:
                val_acc = accuracy(predictions[train_idx], labels[train_idx])
                monitor = -loss.item()
            history.append({"epoch": epoch, "loss": loss.item(), "val_accuracy": val_acc})
            if monitor > best_val:
                best_val = monitor
                best_accuracy = val_acc
                best_state = optimizer.snapshot()
                best_epoch = epoch
                patience_left = self.config.patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    break
        elapsed = time.perf_counter() - start
        optimizer.restore(best_state)
        result = TrainResult(
            best_val_accuracy=float(best_accuracy),
            best_epoch=best_epoch,
            epochs_run=epoch,
            train_seconds=elapsed,
            history=history,
        )
        return result, sum(len(tape) for tape in (train_tape, eval_tape) if tape is not None)

    def _loss(self, inputs: object, train_labels: np.ndarray, train_idx: np.ndarray) -> Tensor:
        logits = self.model(inputs)
        return cross_entropy(logits.take_rows(train_idx), train_labels)

    def predict(self, inputs: object) -> np.ndarray:
        """Class predictions for every node described by ``inputs``."""
        self.model.eval()
        with no_grad():
            logits = self.model(inputs)
        return np.argmax(logits.numpy(), axis=-1)
