"""Adam optimizer with bias correction over engine tensors."""

from __future__ import annotations

import logging

import numpy as np

from .tensor import Tensor, _bump

log = logging.getLogger(__name__)


class Adam:
    """Standard Adam: m/v moment estimates, bias correction, eps outside sqrt
    denominator is the conventional `sqrt(v_hat) + eps`.

    A step with any non-finite gradient is skipped entirely (no parameter or
    moment update) and counted; training code decides how to react.
    """

    # The moments' decay rates and the denominator's eps, the usual ones.
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float = 5e-4):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> bool:
        """Apply one update; returns False when skipped due to NaN/inf grads."""
        grads = []
        for p in self.params:
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ValueError(f"adam: grad shape {g.shape} does not match param {p.data.shape}")
            grads.append(g)
        if any(not np.all(np.isfinite(g)) for g in grads):
            _bump("adam_nan_skips", 1)
            log.warning("adam: non-finite gradient, step %d skipped", self.t + 1)
            return False

        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
        return True
