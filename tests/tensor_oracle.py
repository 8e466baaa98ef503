"""Composed-``Tensor`` ops: the test oracle of ``mac.tensor``'s fused kernels.

``mul``, ``transpose``, ``take`` (basic indexing) and ``where_mask`` are the
generic taped ops the oracles compose with. ``mac`` itself builds its input
sequence as one gather and reads its tied head as a constant, so it records
none of them.

``rms_norm`` is the normalization ``mac.tensor`` ran before its one-node
kernel with a closed-form adjoint, kept verbatim together with the
``power`` and ``tmean`` primitives it is built from, so its outputs and
gradients come from the generic autograd tape alone.

``relu`` is the activation the composed patch encoder of ``frontend_oracle``
applies; the fused ``audio.encode`` takes it in place on arrays.

``gelu`` is the taped tanh-approximation GELU that ``mac.tensor`` kept
before the connector MLP became one node, and ``mlp_forward`` is that MLP
composed of taped matmul, bias and ``gelu`` nodes: the oracle of the fused
``connector.mlp_forward``.

``conv1d_depthwise_causal`` is the causal conv composed from taped slices,
products and sums, the oracle of ``mac.tensor``'s array kernel of that name
and of its adjoints, which the fused Mamba block runs; ``block_oracle``
applies it.

``tsum``, ``broadcast_to``, ``cast``, ``cumsum`` and ``log`` are taped
primitives that only the tests and the composed scans of ``ssd_oracle`` use:
scalar losses, the oracle's cross-chunk carry and cumulative log decay, and
gradchecks. ``silu``, ``softplus``, ``exp`` and ``neg`` are the activations
the composed block of ``block_oracle`` applies and the composed scans
discretize with; the fused Mamba block computes them inline on arrays.
"""

from __future__ import annotations

import math

import numpy as np

from mac import tensor as tz
from mac.tensor import Tensor


def _record(data: np.ndarray, pairs) -> Tensor:
    """A ``tz.fused`` node from (parent, adjoint) pairs, one adjoint per
    parent; the adjoint of a parent that needs no gradient is not run."""
    return tz.fused(data, [p for p, _ in pairs],
                    lambda g: [f(g) if p.requires_grad else None for p, f in pairs])


def mul(a, b) -> Tensor:
    a, b = tz._operands(a, b)
    return _record(
        a.data * b.data,
        [
            (a, lambda g: tz._unbroadcast(g * b.data, a.shape)),
            (b, lambda g: tz._unbroadcast(g * a.data, b.shape)),
        ],
    )


def transpose(a, axes) -> Tensor:
    a = tz._ensure(a)
    axes = tuple(axes)
    inv = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _record(a.data.transpose(axes), [(a, lambda g: g.transpose(inv))])


def take(a, index) -> Tensor:
    """Basic (slice/integer) indexing with scatter-style gradient. The
    result is a view of ``a``'s data, as tensors are not mutated."""
    a = tz._ensure(a)
    out = np.asarray(a.data[index])  # a full integer index gives a scalar

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        return buf

    return _record(out, [(a, vjp)])


def where_mask(a, keep: np.ndarray, fill: float) -> Tensor:
    """Replace entries where ``keep`` is False by ``fill``; no grad flows there."""
    a = tz._ensure(a)
    keep = np.asarray(keep, dtype=bool)
    out = np.where(keep, a.data, a.data.dtype.type(fill))
    return _record(out, [(a, lambda g: np.where(keep, g, 0.0))])


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = tz._ensure(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy()
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.ndim for ax in axes)
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _record(np.asarray(out), [(a, vjp)])


def broadcast_to(a, shape) -> Tensor:
    a = tz._ensure(a)
    shape = tuple(shape)
    return _record(
        np.broadcast_to(a.data, shape).copy(),
        [(a, lambda g: tz._unbroadcast(g, a.shape))],
    )


def cast(a, dtype) -> Tensor:
    a = tz._ensure(a)
    dtype = np.dtype(dtype)
    src = a.data.dtype
    return _record(a.data.astype(dtype), [(a, lambda g: g.astype(src))])


def cumsum(a, axis: int) -> Tensor:
    a = tz._ensure(a)
    out = np.cumsum(a.data, axis=axis)

    def vjp(g):
        return np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis)

    return _record(out, [(a, vjp)])


def log(a) -> Tensor:
    a = tz._ensure(a)
    return _record(np.log(a.data), [(a, lambda g: g / a.data)])


def neg(a) -> Tensor:
    a = tz._ensure(a)
    return _record(-a.data, [(a, lambda g: -g)])


def exp(a) -> Tensor:
    a = tz._ensure(a)
    out = np.exp(a.data)
    return _record(out, [(a, lambda g: g * out)])


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU: 0.5 x (1 + tanh(c (x + 0.044715 x^3))).

    One tape node. The forward computes the tanh's argument in one scratch
    array, takes the tanh in place and keeps it with x and 0.5 x; the
    adjoint builds its factor in place from them.
    """
    a = tz._ensure(a)
    x = a.data
    t = x * x  # the tanh's argument, then the tanh
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    half = 0.5 * x
    out = t + 1.0
    out *= half

    def vjp(g):
        slope = x * x  # d inner / dx = c (1 + 3 * 0.044715 x^2)
        slope *= 3 * 0.044715
        slope += 1.0
        slope *= _GELU_C
        factor = t * t  # 0.5 x (1 - t^2) d inner / dx + 0.5 (1 + t)
        np.subtract(1.0, factor, out=factor)
        factor *= half
        factor *= slope
        np.add(t, 1.0, out=slope)
        slope *= 0.5
        factor += slope
        return np.multiply(g, factor, out=factor if factor.dtype == g.dtype else None)

    return _record(out, [(a, vjp)])


def mlp_forward(x, mlp) -> Tensor:
    """The connector MLP, linear -> GELU -> linear, as five taped nodes."""
    h = gelu(tz.add(tz.matmul(x, mlp.w1), mlp.b1))
    return tz.add(tz.matmul(h, mlp.w2), mlp.b2)


def relu(a) -> Tensor:
    a = tz._ensure(a)
    out = np.maximum(a.data, 0.0)
    return _record(out, [(a, lambda g: g * (a.data > 0))])


def softplus(a) -> Tensor:
    a = tz._ensure(a)
    slope = tz._sigmoid(a.data)
    return _record(tz._softplus(a.data), [(a, lambda g: g * slope)])


def silu(a) -> Tensor:
    a = tz._ensure(a)
    s = tz._sigmoid(a.data)
    return _record(a.data * s, [(a, lambda g: g * s * (1.0 + a.data * (1.0 - s)))])


def power(a, exponent: float) -> Tensor:
    a = tz._ensure(a)
    e = float(exponent)
    out = a.data**e
    return _record(out, [(a, lambda g: g * e * a.data ** (e - 1.0))])


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = tz._ensure(a)
    if axis is None:
        n = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def rms_norm(x, weight, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by weight."""
    x = tz._ensure(x)
    scale = power(tz.add(tmean(mul(x, x), axis=-1, keepdims=True), eps), -0.5)
    return mul(mul(x, scale), weight)


def conv1d_depthwise_causal(x, weight, bias, prefix) -> tuple[Tensor, Tensor]:
    """x [..., T, C], weight [K, C], bias [C] or None, prefix [..., K-1, C]
    -> (output [..., T, C], tail [..., K-1, C]): one product per tap over
    [prefix, x], and the last K-1 rows of [prefix, x]."""
    weight = tz._ensure(weight)
    xp = tz.concat([prefix, x], axis=-2)
    k, t = weight.shape[0], x.shape[-2]
    out = mul(take(xp, np.s_[..., :t, :]), take(weight, 0))
    for i in range(1, k):
        out = tz.add(out, mul(take(xp, np.s_[..., i : i + t, :]), take(weight, i)))
    if bias is not None:
        out = tz.add(out, bias)
    return out, take(xp, np.s_[..., t:, :])
