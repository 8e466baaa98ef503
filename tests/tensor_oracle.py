"""Composed-``Tensor`` ops: the test oracle of ``mac.tensor``'s fused kernels.

``rms_norm`` is the normalization ``mac.tensor`` ran before its one-node
kernel with a closed-form adjoint, kept verbatim together with the
``power`` and ``tmean`` primitives it is built from, so its outputs and
gradients come from the generic autograd tape alone.
"""

from __future__ import annotations

import numpy as np

from mac import tensor as tz
from mac.tensor import Tensor


def power(a, exponent: float) -> Tensor:
    a = tz._ensure(a)
    e = float(exponent)
    out = a.data**e
    return tz._node(out, [(a, lambda g: g * e * a.data ** (e - 1.0))])


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = tz._ensure(a)
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return tz.mul(tz.tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def rms_norm(x, weight, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by weight."""
    x = tz._ensure(x)
    scale = power(tz.add(tmean(tz.mul(x, x), axis=-1, keepdims=True), eps), -0.5)
    return tz.mul(tz.mul(x, scale), weight)
