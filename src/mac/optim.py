"""Parameter updates: gradient-norm clipping and decoupled-weight-decay Adam.

Both operate on a name->Tensor mapping and touch parameters in sorted-name
order; AdamW updates ``.data`` in place, which keeps training runs
bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def global_grad_norm(params: dict[str, Tensor]) -> float:
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        if g is not None:
            total += float((g.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_grad_norm(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    norm = global_grad_norm(params)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for name in sorted(params):
            p = params[name]
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


class AdamW:
    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.95),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = dict(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self._v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name in sorted(self.params):
            p = self.params[name]
            if p.grad is None:
                continue
            g = p.grad
            m = self._m[name]
            v = self._v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= self.lr * update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

