"""ADAM optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


class Adam:
    """Standard ADAM over a named parameter dict.

    Moments are kept per parameter and shaped like it; `step` counts
    completed updates.  Parameters with no accumulated gradient are skipped.
    Moments and parameters are updated in place, through two scratch arrays
    per parameter, with the operations of the textbook formula in its order,
    so the result is bit-identical to it.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = dict(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g, m, v = p.grad, self.m[name], self.v[name]
            # m = beta1 * m + (1 - beta1) * g
            scratch = np.multiply(1.0 - self.beta1, g)
            m *= self.beta1
            m += scratch
            # v = beta2 * v + (1 - beta2) * g * g
            np.multiply(1.0 - self.beta2, g, out=scratch)
            scratch *= g
            v *= self.beta2
            v += scratch
            # p -= lr * m_hat / (sqrt(v_hat) + eps)
            denom = np.divide(v, 1.0 - self.beta2 ** t)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, 1.0 - self.beta1 ** t, out=scratch)
            scratch *= self.lr
            scratch /= denom
            p.data -= scratch

