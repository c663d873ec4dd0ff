"""A small reverse-mode automatic-differentiation engine on NumPy arrays.

The HGNN evaluation models (and the gradient-matching baselines GCond /
HGCond) need trainable neural networks, but no deep-learning framework is
available offline.  This module provides a deliberately small but correct
autograd: a :class:`Tensor` wrapping a ``numpy.ndarray`` plus the operations
required by the models in :mod:`repro.models` — matrix multiplication,
broadcasting arithmetic, ReLU/tanh/sigmoid/exp/log, reductions, softmax,
concatenation/stacking and dropout.

Every operation is one :class:`Op`, a pure pair of functions:

* ``forward(arg, *arrays) -> (data, saved)`` computes the output from the
  parents' arrays and the op's static ``arg`` (an axis, an exponent, the
  dropout RNG, ...), plus whatever its backward needs;
* ``backward(grad, saved, parents) -> grads`` returns one gradient per
  parent tensor (``None`` where that parent needs none).

Eager mode applies the pair as each operation runs, and
:meth:`Tensor.backward` walks the graph in reverse DFS post-order.  A
:class:`Tape` records the nodes of one graph and replays the very same
pairs in place, skipping graph construction and the topological sort.  A
node holds its op, its ``arg``, what its forward saved and its parents —
never a reference to itself — so a dropped graph is freed by reference
counting alone.  Numerical-gradient checks in ``tests/nn/test_autograd.py``
validate every operation.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

__all__ = ["Tensor", "Tape", "concat", "stack", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True
#: node list of the tape being recorded, if any (see :meth:`Tape.record`)
_RECORDING: list["Tensor"] | None = None


class no_grad:
    """Context manager disabling graph construction (used for inference)."""

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Whether new operations record gradient information."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after NumPy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Op(NamedTuple):
    """One differentiable operation: a pure forward/backward pair."""

    name: str
    forward: Callable[..., tuple[np.ndarray, object]]
    backward: Callable[[np.ndarray, object, tuple["Tensor", ...]], Sequence]


# --------------------------------------------------------------------------- #
# The op table.  Backwards read a parent's array through ``parents[i].data``
# and compute a gradient only for parents that require one.
# --------------------------------------------------------------------------- #
ADD = Op("add", lambda _, a, b: (a + b, None), lambda g, _, parents: (g, g))
NEG = Op("neg", lambda _, a: (-a, None), lambda g, _, parents: (-g,))
MUL = Op(
    "mul",
    lambda _, a, b: (a * b, None),
    lambda g, _, p: (
        g * p[1].data if p[0].requires_grad else None,
        g * p[0].data if p[1].requires_grad else None,
    ),
)
DIV = Op(
    "div",
    lambda _, a, b: (a / b, None),
    lambda g, _, p: (
        g / p[1].data if p[0].requires_grad else None,
        -g * p[0].data / (p[1].data ** 2) if p[1].requires_grad else None,
    ),
)
POW = Op(
    "pow",
    lambda exponent, a: (np.power(a, exponent), exponent),
    lambda g, exponent, p: (g * exponent * np.power(p[0].data, exponent - 1),),
)
MATMUL = Op(
    "matmul",
    lambda _, a, b: (a @ b, None),
    lambda g, _, p: (
        g @ p[1].data.T if p[0].requires_grad else None,
        p[0].data.T @ g if p[1].requires_grad else None,
    ),
)
MATMUL_SPARSE = Op(
    "matmul_sparse",
    lambda matrix, a: (matrix @ a, matrix),
    lambda g, matrix, _: (matrix.T @ g,),
)


def _relu(_, a):
    mask = a > 0
    return a * mask, mask


def _leaky_relu(slope, a):
    factor = np.where(a > 0, 1.0, slope)
    return a * factor, factor


def _tanh(_, a):
    value = np.tanh(a)
    return value, value


def _sigmoid(_, a):
    value = 1.0 / (1.0 + np.exp(-a))
    return value, value


def _exp(_, a):
    value = np.exp(a)
    return value, value


RELU = Op("relu", _relu, lambda g, mask, _: (g * mask,))
LEAKY_RELU = Op("leaky_relu", _leaky_relu, lambda g, factor, _: (g * factor,))
TANH = Op("tanh", _tanh, lambda g, value, _: (g * (1.0 - value**2),))
SIGMOID = Op("sigmoid", _sigmoid, lambda g, value, _: (g * value * (1.0 - value),))
EXP = Op("exp", _exp, lambda g, value, _: (g * value,))
LOG = Op("log", lambda _, a: (np.log(a), None), lambda g, _, p: (g / p[0].data,))


def _sum(arg, a):
    axis, keepdims = arg
    return a.sum(axis=axis, keepdims=keepdims), (axis, keepdims, a.shape)


def _sum_backward(g, saved, _):
    axis, keepdims, shape = saved
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return (np.broadcast_to(g, shape),)


def _take_rows_backward(g, indices, p):
    grad = np.zeros_like(p[0].data)
    np.add.at(grad, indices, g)
    return (grad,)


def _softmax(axis, a):
    shifted = a - a.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    value = exp / exp.sum(axis=axis, keepdims=True)
    return value, (value, axis)


def _softmax_backward(g, saved, _):
    value, axis = saved
    dot = (g * value).sum(axis=axis, keepdims=True)
    return (value * (g - dot),)


def _log_softmax(axis, a):
    shifted = a - a.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    value = shifted - log_norm
    return value, (np.exp(value), axis)


def _log_softmax_backward(g, saved, _):
    softmax, axis = saved
    total = g.sum(axis=axis, keepdims=True)
    return (g - softmax * total,)


def _dropout(arg, a):
    rate, rng = arg
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    return a * mask, mask


def _concat(axis, *arrays):
    return np.concatenate(arrays, axis=axis), (axis, [array.shape[axis] for array in arrays])


def _concat_backward(g, saved, _):
    axis, sizes = saved
    grads, start = [], 0
    for size in sizes:
        slicer = [slice(None)] * g.ndim
        slicer[axis] = slice(start, start + size)
        grads.append(g[tuple(slicer)])
        start += size
    return grads


SUM = Op("sum", _sum, _sum_backward)
RESHAPE = Op(
    "reshape",
    lambda shape, a: (a.reshape(*shape), a.shape),
    lambda g, original, _: (g.reshape(original),),
)
TRANSPOSE = Op("transpose", lambda _, a: (a.T, None), lambda g, _, parents: (g.T,))
TAKE_ROWS = Op("take_rows", lambda indices, a: (a[indices], indices), _take_rows_backward)
SOFTMAX = Op("softmax", _softmax, _softmax_backward)
LOG_SOFTMAX = Op("log_softmax", _log_softmax, _log_softmax_backward)
DROPOUT = Op("dropout", _dropout, lambda g, mask, _: (g * mask,))
CONCAT = Op("concat", _concat, _concat_backward)
STACK = Op(
    "stack",
    lambda axis, *arrays: (np.stack(arrays, axis=axis), axis),
    lambda g, axis, p: [np.take(g, index, axis=axis) for index in range(len(p))],
)


# --------------------------------------------------------------------------- #
# Graph mechanics shared by eager mode and the tape
# --------------------------------------------------------------------------- #
def _apply(op: Op, arg: object, parents: tuple["Tensor", ...]) -> "Tensor":
    """Run ``op`` forward and link the result into the graph."""
    data, saved = op.forward(arg, *[parent.data for parent in parents])
    out = Tensor(data)
    if _GRAD_ENABLED:
        out.requires_grad = any(parent.requires_grad for parent in parents)
        # A tape replays every op, including those no gradient flows through
        # (a dropout on an input still draws from its RNG).
        if out.requires_grad or _RECORDING is not None:
            out._op, out._arg, out._saved, out._parents = op, arg, saved, parents
            if _RECORDING is not None:
                _RECORDING.append(out)
    return out


def _propagate(node: "Tensor") -> None:
    """Accumulate ``node.grad``'s contributions into its parents, in parent order."""
    grads = node._op.backward(node.grad, node._saved, node._parents)
    for parent, grad in zip(node._parents, grads):
        if grad is None or not parent.requires_grad:
            continue
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != parent.data.shape:
            grad = _unbroadcast(grad, parent.data.shape)
        if parent.grad is None:
            # A leaf gets its own copy.  An op node's gradient is read only by
            # its own backward, so it may alias a C-contiguous array; any other
            # layout is copied, because a matmul's result depends on it.
            aliasable = parent._op is not None and grad.flags.c_contiguous
            parent.grad = grad if aliasable else grad.copy()
        else:
            parent.grad = parent.grad + grad


def _grad_parents(node: "Tensor") -> tuple["Tensor", ...]:
    return node._parents if node.requires_grad else ()


def _backward_order(root: "Tensor") -> list["Tensor"]:
    """Op nodes behind ``root`` in reverse DFS post-order (parents visited in order)."""
    ordered: list[Tensor] = []
    visited: set[int] = set()
    stack = [(root, iter(_grad_parents(root)))]
    seen_on_stack = {id(root)}
    while stack:
        current, parents = stack[-1]
        for parent in parents:
            if id(parent) not in visited and id(parent) not in seen_on_stack:
                stack.append((parent, iter(_grad_parents(parent))))
                seen_on_stack.add(id(parent))
                break
        else:
            stack.pop()
            seen_on_stack.discard(id(current))
            if id(current) not in visited:
                visited.add(id(current))
                ordered.append(current)
    return [node for node in reversed(ordered) if node._op is not None and node.requires_grad]


def _seed_grad(root: "Tensor", grad: np.ndarray | None) -> None:
    if grad is None:
        if root.data.size != 1:
            raise ValueError("backward() without gradient requires a scalar tensor")
        grad = np.ones_like(root.data)
    root.grad = np.asarray(grad, dtype=np.float64).reshape(root.data.shape)


class Tensor:
    """A NumPy array with reverse-mode gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_op", "_arg", "_saved", "_parents")
    __array_priority__ = 100  # so ndarray op Tensor defers to Tensor

    def __init__(
        self,
        data: np.ndarray | float | int | Sequence,
        requires_grad: bool = False,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._op: Op | None = None
        self._arg: object = None
        self._saved: object = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the scalar value of a 0-d / 1-element tensor."""
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset accumulated gradient."""
        self.grad = None

    @staticmethod
    def _ensure(value: "Tensor | np.ndarray | float | int") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return _apply(ADD, None, (self, self._ensure(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply(NEG, None, (self,))

    def __sub__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return self + (-self._ensure(other))

    def __rsub__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return self._ensure(other) + (-self)

    def __mul__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return _apply(MUL, None, (self, self._ensure(other)))

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return _apply(DIV, None, (self, self._ensure(other)))

    def __rtruediv__(self, other: "Tensor | np.ndarray | float") -> "Tensor":
        return self._ensure(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        return _apply(POW, float(exponent), (self,))

    def __matmul__(self, other: "Tensor | np.ndarray") -> "Tensor":
        return _apply(MATMUL, None, (self, self._ensure(other)))

    def matmul_sparse(self, matrix) -> "Tensor":
        """Left-multiply by a (fixed) SciPy sparse matrix: ``matrix @ self``."""
        return _apply(MATMUL_SPARSE, matrix, (self,))

    # ------------------------------------------------------------------ #
    # Non-linearities
    # ------------------------------------------------------------------ #
    def relu(self) -> "Tensor":
        return _apply(RELU, None, (self,))

    def tanh(self) -> "Tensor":
        return _apply(TANH, None, (self,))

    def sigmoid(self) -> "Tensor":
        return _apply(SIGMOID, None, (self,))

    def exp(self) -> "Tensor":
        return _apply(EXP, None, (self,))

    def log(self) -> "Tensor":
        return _apply(LOG, None, (self,))

    def leaky_relu(self, slope: float = 0.2) -> "Tensor":
        return _apply(LEAKY_RELU, slope, (self,))

    # ------------------------------------------------------------------ #
    # Reductions / reshaping
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return _apply(SUM, (axis, keepdims), (self,))

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        return _apply(RESHAPE, shape, (self,))

    def transpose(self) -> "Tensor":
        return _apply(TRANSPOSE, None, (self,))

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirror numpy naming
        return self.transpose()

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row-gather: ``out[i] = self[indices[i]]`` with scatter-add backward."""
        return _apply(TAKE_ROWS, np.asarray(indices, dtype=np.int64), (self,))

    def softmax(self, axis: int = -1) -> "Tensor":
        return _apply(SOFTMAX, axis, (self,))

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return _apply(LOG_SOFTMAX, axis, (self,))

    def dropout(self, rate: float, rng: np.random.Generator, training: bool = True) -> "Tensor":
        """Inverted dropout; identity when ``training`` is False or rate is 0."""
        if not training or rate <= 0.0:
            return self
        if rate >= 1.0:
            raise ValueError("dropout rate must be < 1")
        return _apply(DROPOUT, (rate, rng), (self,))

    # ------------------------------------------------------------------ #
    # Backpropagation
    # ------------------------------------------------------------------ #
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        _seed_grad(self, grad)
        for node in _backward_order(self):
            if node.grad is not None:
                _propagate(node)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def concat(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    return _apply(CONCAT, axis, tensors)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = tuple(tensors)
    if not tensors:
        raise ValueError("stack requires at least one tensor")
    return _apply(STACK, axis, tensors)


class Tape:
    """One recorded graph, replayed in place.

    :meth:`record` runs ``fn`` eagerly and keeps every op node it creates,
    in creation order.  :meth:`forward` then recomputes each node's array
    from its parents' *current* arrays, and :meth:`backward` runs the nodes'
    backwards in the order :meth:`Tensor.backward` would use.  Leaves
    (parameters, inputs, constants made while recording) are read through
    their :class:`Tensor` at replay time, so a parameter updated in place or
    rebound between replays is seen as it is now.

    Contract: the graph ``fn`` builds must depend only on shapes and
    configuration, never on data — no branch on a value, no data-dependent
    shape.  Replays run forwards in creation order, so dropout draws from
    its RNG in the same order as an eager rerun would.  Ops run under
    :class:`no_grad` are not recorded; record an inference forward with
    gradients enabled and never call its :meth:`backward`.
    """

    __slots__ = ("nodes", "output", "_order")

    def __init__(self, nodes: list[Tensor], output: Tensor) -> None:
        self.nodes = nodes
        self.output = output
        self._order: list[Tensor] | None = None

    @classmethod
    def record(cls, fn: Callable[..., Tensor], *args: object) -> "Tape":
        """Run ``fn(*args)`` once, eagerly, and keep its graph for replay."""
        global _RECORDING
        if _RECORDING is not None:
            raise RuntimeError("tapes cannot be recorded inside one another")
        nodes: list[Tensor] = []
        _RECORDING = nodes
        try:
            output = fn(*args)
        finally:
            _RECORDING = None
        return cls(nodes, output)

    def __len__(self) -> int:
        return len(self.nodes)

    def forward(self) -> Tensor:
        """Recompute every node from the current leaves; returns the output."""
        for node in self.nodes:
            data, node._saved = node._op.forward(
                node._arg, *[parent.data for parent in node._parents]
            )
            node.data = np.asarray(data, dtype=np.float64)
        return self.output

    def backward(self) -> None:
        """Backpropagate from the scalar output; leaf gradients accumulate as usual."""
        if self._order is None:
            self._order = _backward_order(self.output)
        for node in self.nodes:
            node.grad = None
        _seed_grad(self.output, None)
        for node in self._order:
            if node.grad is not None:
                _propagate(node)
