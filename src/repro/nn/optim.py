"""Optimisers for the NumPy NN substrate."""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimiser holding a list of parameters."""

    def __init__(self, parameters: list[Tensor], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters = list(parameters)
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: list[Tensor],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                self._velocity[index] = self.momentum * self._velocity[index] + grad
                grad = self._velocity[index]
            param.data = param.data - self.lr * grad


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) stepping one flat buffer.

    Every parameter's ``.data`` becomes a view into one contiguous array, and
    :meth:`step` updates the moments and the weights with sixteen in-place
    NumPy calls over that array instead of ten per parameter.  The
    elementwise operations and their order match the textbook per-parameter
    update exactly, so the weights are bit-for-bit what it would produce.  A
    parameter without a gradient is skipped (the step runs over each
    contiguous run of parameters that have one), and a parameter whose
    ``.data`` was rebound after construction is copied back into its slot
    before the step rather than silently dropped from the update.
    :meth:`snapshot` and :meth:`restore` save and reload all parameters as
    one copy of the buffer.
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
        self._offsets = np.cumsum([0] + [param.data.size for param in self.parameters]).tolist()
        self._flat = np.zeros(self._offsets[-1])
        self._views: list[np.ndarray] = []
        for param, lo, hi in zip(self.parameters, self._offsets, self._offsets[1:]):
            view = self._flat[lo:hi].reshape(param.data.shape)
            view[...] = param.data
            param.data = view
            self._views.append(view)
        self._m = np.zeros_like(self._flat)
        self._v = np.zeros_like(self._flat)
        self._grad = np.zeros_like(self._flat)
        self._scratch = (np.zeros_like(self._flat), np.zeros_like(self._flat))

    def _adopt_rebound(self) -> None:
        """Copy every parameter whose ``.data`` was rebound back into its slot."""
        for param, view in zip(self.parameters, self._views):
            if param.data is not view:
                if param.data.shape != view.shape:
                    raise ValueError(
                        f"a parameter was rebound to shape {param.data.shape}; "
                        f"the optimizer holds {view.shape}"
                    )
                view[...] = param.data
                param.data = view

    def snapshot(self) -> np.ndarray:
        """Every parameter's current values, as one flat copy."""
        self._adopt_rebound()
        return self._flat.copy()

    def restore(self, values: np.ndarray) -> None:
        """Write a :meth:`snapshot` back into the parameters."""
        self._flat[...] = values
        for param, view in zip(self.parameters, self._views):
            param.data = view

    def step(self) -> None:
        self._step += 1
        self._adopt_rebound()
        runs: list[list[int]] = []  # [lo, hi) flat ranges of parameters with a gradient
        for param, lo, hi in zip(self.parameters, self._offsets, self._offsets[1:]):
            if param.grad is None:
                continue
            self._grad[lo:hi] = param.grad.reshape(-1)
            if runs and runs[-1][1] == lo:
                runs[-1][1] = hi
            else:
                runs.append([lo, hi])
        for lo, hi in runs:
            self._update(slice(lo, hi))

    def _update(self, span: slice) -> None:
        """The Adam update over ``span`` of the flat buffers, in place."""
        data, grad, m, v = self._flat[span], self._grad[span], self._m[span], self._v[span]
        first, second = self._scratch[0][span], self._scratch[1][span]
        if self.weight_decay:
            np.multiply(self.weight_decay, data, out=first)
            np.add(grad, first, out=grad)
        np.multiply(self.beta1, m, out=m)
        np.multiply(1 - self.beta1, grad, out=first)
        np.add(m, first, out=m)
        np.multiply(self.beta2, v, out=v)
        np.square(grad, out=first)
        np.multiply(1 - self.beta2, first, out=first)
        np.add(v, first, out=v)
        np.divide(m, 1 - self.beta1**self._step, out=first)  # m_hat
        np.divide(v, 1 - self.beta2**self._step, out=second)  # v_hat
        np.sqrt(second, out=second)
        np.add(second, self.eps, out=second)
        np.multiply(self.lr, first, out=first)
        np.divide(first, second, out=first)
        np.subtract(data, first, out=data)
