"""ADAM optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


class Adam:
    """Standard ADAM over a named parameter dict.

    Moments are kept per parameter and shaped like it; `step` counts
    completed updates.  Parameters with no accumulated gradient are skipped.
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
            g = p.grad
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / (1.0 - self.beta1 ** t)
            v_hat = self.v[name] / (1.0 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

