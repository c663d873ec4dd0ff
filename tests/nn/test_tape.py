"""The recorded tape, the fused Adam and ``Trainer.fit`` against their oracles.

``Trainer.fit`` records the training graph and the eval forward once and
replays them; :class:`repro.nn.optim.Adam` steps one flat buffer.  Both must
reproduce the eager loop and the per-parameter Adam of ``tests/oracles.py``
byte for byte.
"""

import gc

import numpy as np
import pytest

from repro import obs
from repro.core.condenser import FreeHGC
from repro.models import MODEL_REGISTRY, get_model
from repro.nn import MLP, Linear, Module, Tensor, TrainConfig, Trainer, concat, stack
from repro.nn.autograd import Tape, no_grad
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam
from repro.utils.rng import ensure_rng
from tests.oracles import ReferenceAdam, eager_fit

FAST = dict(hidden_dim=16, max_hops=2, max_paths=8)


def _module_and_inputs(name: str, graph):
    """A fresh module of model ``name`` plus its input tensors on ``graph``."""
    model = get_model(name, **FAST)
    features = model.prepare_features(graph)
    keys = model._select_feature_keys(sorted(features))
    dims = {key: features[key].shape[1] for key in keys}
    module = model._build_module(dims, graph.schema.num_classes, ensure_rng(0))
    return module, {key: Tensor(features[key]) for key in keys}


def _same_state(a: Module, b: Module) -> bool:
    left, right = a.state_dict(), b.state_dict()
    return left.keys() == right.keys() and all(
        left[key].tobytes() == right[key].tobytes() for key in left
    )


@pytest.fixture(scope="module")
def condensed_acm(tiny_acm):
    return FreeHGC(max_hops=2).condense(tiny_acm, ratio=0.1, seed=0)


# (graph fixture, use the validation split, config)
CASES = {
    "val": ("toy_graph", True, TrainConfig(epochs=40, patience=40)),
    "no-val": ("toy_graph", False, TrainConfig(epochs=40, patience=40)),
    "early-stop": ("toy_graph", True, TrainConfig(lr=0.5, epochs=60, patience=2)),
    "condensed": ("condensed_acm", True, TrainConfig(epochs=30, patience=30)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_fit_equals_eager_oracle(request, name, case):
    fixture, use_val, config = CASES[case]
    graph = request.getfixturevalue(fixture)
    val = graph.splits.val if use_val else None
    taped, inputs = _module_and_inputs(name, graph)
    eager, _ = _module_and_inputs(name, graph)
    got = Trainer(taped, config).fit(inputs, graph.labels, graph.splits.train, val)
    want = eager_fit(eager, inputs, graph.labels, graph.splits.train, val, config)
    assert _same_state(taped, eager)
    assert got.history == want.history
    assert (got.best_epoch, got.epochs_run) == (want.best_epoch, want.epochs_run)
    assert got.best_val_accuracy == want.best_val_accuracy
    assert not taped.training  # left in eval mode, as the eager loop leaves it
    if case == "early-stop":
        assert got.epochs_run < config.epochs


class TestFusedAdam:
    SHAPES = [(4, 3), (3,), (), (2, 2, 2), (1,), (5, 1)]

    def _pair(self, **kwargs):
        rng = np.random.default_rng(0)
        values = [rng.standard_normal(shape) for shape in self.SHAPES]
        fused = [Tensor(value.copy(), requires_grad=True) for value in values]
        reference = [Tensor(value.copy(), requires_grad=True) for value in values]
        return Adam(fused, **kwargs), ReferenceAdam(reference, **kwargs), fused, reference

    @staticmethod
    def _step(optimizers, params, grads):
        for optimizer, group in zip(optimizers, params):
            for param, grad in zip(group, grads):
                param.grad = None if grad is None else grad.copy()
            optimizer.step()

    @pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
    def test_matches_per_parameter_adam(self, weight_decay):
        fused_opt, ref_opt, fused, reference = self._pair(lr=0.01, weight_decay=weight_decay)
        rng = np.random.default_rng(1)
        for step in range(12):
            grads = [rng.standard_normal(shape) for shape in self.SHAPES]
            # Parameters without a gradient split the flat buffer into runs.
            if step % 3 == 0:
                grads[1] = None
            if step % 4 == 1:
                grads[0] = grads[-1] = None
            self._step((fused_opt, ref_opt), (fused, reference), grads)
            for a, b in zip(fused, reference):
                assert a.data.tobytes() == b.data.tobytes()

    def test_rebound_parameter_is_still_updated(self):
        fused_opt, ref_opt, fused, reference = self._pair(lr=0.05)
        rng = np.random.default_rng(2)
        replacement = rng.standard_normal(self.SHAPES[0])
        fused[0].data = replacement.copy()
        reference[0].data = replacement.copy()
        grads = [rng.standard_normal(shape) for shape in self.SHAPES]
        self._step((fused_opt, ref_opt), (fused, reference), grads)
        for a, b in zip(fused, reference):
            assert a.data.tobytes() == b.data.tobytes()
        assert np.shares_memory(fused[0].data, fused_opt._flat)

    def test_rebound_to_another_shape_rejected(self):
        fused_opt, _, fused, _ = self._pair()
        fused[0].data = np.zeros((2, 2))
        fused[0].grad = np.zeros((2, 2))
        with pytest.raises(ValueError):
            fused_opt.step()

    def test_snapshot_and_restore(self):
        fused_opt, _, fused, _ = self._pair(lr=0.05)
        rng = np.random.default_rng(3)
        fused[1].data = rng.standard_normal(self.SHAPES[1])  # rebound: still saved
        saved = [param.data.copy() for param in fused]
        state = fused_opt.snapshot()
        self._step((fused_opt,), (fused,), [rng.standard_normal(s) for s in self.SHAPES])
        assert fused[0].data.tobytes() != saved[0].tobytes()
        fused[2].data = np.zeros(self.SHAPES[2])  # rebound: restored anyway
        fused_opt.restore(state)
        for param, value in zip(fused, saved):
            assert param.data.tobytes() == value.tobytes()
            assert np.shares_memory(param.data, fused_opt._flat)
        assert not np.shares_memory(state, fused_opt._flat)


class DropoutModel(Module):
    """Dropout on a non-gradient input and in the hidden layer."""

    def __init__(self) -> None:
        super().__init__()
        self.rng = np.random.default_rng(7)
        self.mlp = MLP(4, 8, 3, dropout=0.3, rng=0)

    def forward(self, inputs):
        noisy = inputs.dropout(0.2, self.rng, training=self.training)
        return self.mlp(noisy)


class TestTape:
    def test_replay_matches_eager_with_dropout(self):
        features = np.random.default_rng(0).standard_normal((10, 4))
        labels = np.arange(10) % 3
        inputs = Tensor(features)
        taped, eager = DropoutModel(), DropoutModel()
        loss_fn = lambda model: cross_entropy(model(inputs), labels)  # noqa: E731
        tape = Tape.record(loss_fn, taped)
        for step in range(4):
            if step:
                tape.forward()
            for param in taped.parameters():
                param.zero_grad()
            tape.backward()
            eager_loss = loss_fn(eager)
            eager_loss.backward()
            assert tape.output.data.tobytes() == eager_loss.data.tobytes()
            for a, b in zip(taped.parameters(), eager.parameters()):
                assert a.grad.tobytes() == b.grad.tobytes()
                a.data = a.data - 0.1 * a.grad  # rebinding is read at replay
                b.data = b.data - 0.1 * b.grad
                b.zero_grad()

    def test_backward_accumulates_shared_weights_in_eager_order(self):
        rng = np.random.default_rng(0)
        shared = Linear(3, 3, rng=0)
        blocks = [Tensor(rng.standard_normal((5, 3))) for _ in range(5)]

        def build():
            scores = [shared(block).tanh().sum(axis=0, keepdims=True) for block in blocks]
            return (concat(scores, axis=0).softmax(axis=0) * stack(scores).sum(axis=0)).sum()

        tape = Tape.record(build)
        tape.backward()
        taped = [param.grad.copy() for param in shared.parameters()]
        for param in shared.parameters():
            param.zero_grad()
        build().backward()
        for got, param in zip(taped, shared.parameters()):
            assert got.tobytes() == param.grad.tobytes()

    def test_every_gradient_is_c_contiguous(self):
        """A broadcast or transposed gradient is copied before any backward
        reads it: a matmul's bytes depend on its operands' layout."""
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3)), requires_grad=True)
        w = Tensor(np.random.default_rng(1).standard_normal((3, 2)), requires_grad=True)
        xw = x @ w
        pooled = xw.sum(axis=0, keepdims=True)  # hands xw a broadcast gradient
        xt = x.T  # hands x a transposed gradient
        mixed = xt @ x @ w
        hidden = pooled * mixed
        loss = hidden.mean()  # hands hidden a broadcast gradient
        loss.backward()
        for node in (x, w, xw, pooled, xt, mixed, hidden, loss):
            assert node.grad.flags.c_contiguous

    def test_counts_every_op_and_rejects_nesting(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        tape = Tape.record(lambda: ((x * 2.0) + x).sum())
        assert len(tape) == 3
        with pytest.raises(RuntimeError):
            Tape.record(lambda: Tape.record(lambda: x * 2.0))

    def test_no_grad_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)

        def inference():
            with no_grad():
                return x * 2.0

        assert len(Tape.record(inference)) == 0


class TestNoReferenceCycles:
    """A dropped graph is freed by reference counting: nothing for the collector."""

    def test_fit_leaves_nothing_for_the_collector(self, toy_graph):
        module, inputs = _module_and_inputs("han", toy_graph)
        trainer = Trainer(module, TrainConfig(epochs=5))
        gc.collect()
        gc.disable()
        try:
            trainer.fit(inputs, toy_graph.labels, toy_graph.splits.train, toy_graph.splits.val)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_eager_backward_leaves_nothing_for_the_collector(self):
        model = MLP(4, 8, 3, dropout=0.5, rng=0)
        inputs = Tensor(np.random.default_rng(0).standard_normal((6, 4)))
        gc.collect()
        gc.disable()
        try:
            loss = cross_entropy(model(inputs), np.arange(6) % 3)
            loss.backward()
            del loss
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_fit_span_carries_epochs_and_tape_ops(toy_graph):
    config = TrainConfig(epochs=6, patience=6)
    traced, inputs = _module_and_inputs("sehgnn", toy_graph)
    untraced, _ = _module_and_inputs("sehgnn", toy_graph)
    args = (toy_graph.labels, toy_graph.splits.train, toy_graph.splits.val)
    with obs.tracing("test-nn-fit") as tracer:
        Trainer(traced, config).fit(inputs, *args)
        spans = [span for span in tracer.drain_spans() if span.name == "nn.fit"]
    Trainer(untraced, config).fit(inputs, *args)
    assert len(spans) == 1
    assert spans[0].attrs["epochs"] == 6
    assert spans[0].attrs["tape_ops"] > 0
    assert _same_state(traced, untraced)
