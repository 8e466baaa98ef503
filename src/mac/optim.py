"""Parameter updates: gradient-norm clipping and decoupled-weight-decay Adam.

Gradients are values: both take a name->array mapping, as ``train_step``
builds it from what ``Tensor.backward`` returns, and read it in sorted-name
order. Clipping returns new arrays and leaves its argument as it was; AdamW
updates each parameter's ``.data`` in place and never writes a gradient,
which keeps training runs bit-reproducible.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for name in sorted(grads):
        total += float((grads[name].astype(np.float64, copy=False) ** 2).sum())
    return float(np.sqrt(total))


def clip_grad_norm(grads: dict[str, np.ndarray],
                   max_norm: float) -> tuple[dict[str, np.ndarray], float]:
    """-> (gradients scaled so their global L2 norm is at most max_norm, the
    norm before scaling). Unscaled, the argument itself comes back."""
    norm = global_grad_norm(grads)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        grads = {name: grads[name] * scale for name in sorted(grads)}
    return grads, norm


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

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update from ``grads`` by parameter name; a parameter with no
        entry keeps its weight and moments."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name in sorted(self.params):
            g = grads.get(name)
            if g is None:
                continue
            p = self.params[name]
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
