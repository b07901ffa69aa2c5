"""ADAM optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .autograd import GraphStateError, Tensor


class Adam:
    """Standard ADAM over a named parameter dict, as one update of one flat vector.

    At construction every parameter's array becomes a view into one flat
    buffer, and the moments `m[name]` and `v[name]`, shaped like the
    parameter, views into two more; the parameters must share one dtype.
    `step` counts completed updates.  It gathers the gradients into one
    vector and runs the operations of the textbook formula once over the
    whole of it, in its order; ADAM is elementwise, so the result is
    bit-identical to a per-parameter update.  A step allocates two
    parameter-sized vectors, the gradients and one scratch, and keeps neither.

    Every parameter needs a gradient at each step: one whose ``.grad`` is None
    raises GraphStateError.  Writing into a parameter's array (`restore_params`
    copies into it) is seen by the next step; replacing the array, as
    `Layer.cast` does, detaches that parameter from the optimizer.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        dtypes = {p.data.dtype for p in self.params.values()}
        if len(dtypes) > 1:
            raise TypeError(f"parameters of several dtypes: {sorted(map(str, dtypes))}")
        self.flat = np.concatenate([p.data.reshape(-1) for p in self.params.values()])
        self.flat_m, self.flat_v = np.zeros_like(self.flat), np.zeros_like(self.flat)
        self.m, self.v = {}, {}
        lo = 0
        for name, p in self.params.items():
            hi, shape = lo + p.data.size, p.data.shape
            p.data = self.flat[lo:hi].reshape(shape)
            self.m[name] = self.flat_m[lo:hi].reshape(shape)
            self.v[name] = self.flat_v[lo:hi].reshape(shape)
            lo = hi

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        for name, p in self.params.items():
            if p.grad is None:
                raise GraphStateError(f"parameter {name!r} has no gradient to step on")
        self.step_count += 1
        t = self.step_count
        m, v = self.flat_m, self.flat_v
        g = np.concatenate([p.grad.reshape(-1) for p in self.params.values()])
        # m = beta1 * m + (1 - beta1) * g
        scratch = np.multiply(1.0 - self.beta1, g)
        m *= self.beta1
        m += scratch
        # v = beta2 * v + (1 - beta2) * g * g
        np.multiply(1.0 - self.beta2, g, out=scratch)
        scratch *= g
        v *= self.beta2
        v += scratch
        # p -= lr * m_hat / (sqrt(v_hat) + eps), the denominator in g's place
        denom = np.divide(v, 1.0 - self.beta2 ** t, out=g)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(m, 1.0 - self.beta1 ** t, out=scratch)
        scratch *= self.lr
        scratch /= denom
        self.flat -= scratch
