"""Dense tensors with tape-based reverse-mode automatic differentiation.

numpy holds the data; this module owns the graph. Each differentiable
primitive records one vector-Jacobian closure per input that needs a
gradient, and ``backward`` on a scalar walks the tape once in reverse
topological order, accumulating into ``.grad``. The one multi-gradient op,
``fused``, records a kernel whose single adjoint returns every input's
gradient at once (the selective scans of ``mac.ssd``): it runs once per
output gradient and each input's tape entry takes its share.

Two float widths are supported: float64 (the default, used by all oracle,
equivalence and gradient tests) and float32 (training speed). NaN/Inf
detection is gated behind a debug flag so it costs nothing in normal runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand extents disagree; message names both shapes."""


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


_default_dtype = np.float64
_grad_enabled = True
_debug_checks = False


def set_default_dtype(dtype) -> None:
    global _default_dtype
    dtype = np.dtype(dtype)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}; use float32 or float64")
    _default_dtype = dtype.type


def default_dtype():
    return _default_dtype


@contextmanager
def using_dtype(dtype):
    """Temporarily switch the default float width."""
    global _default_dtype
    prev = _default_dtype
    set_default_dtype(dtype)
    try:
        yield
    finally:
        _default_dtype = prev


@contextmanager
def no_grad():
    """Disable tape recording (inference, benchmarks, oracles)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def set_debug_checks(enabled: bool) -> None:
    """Toggle finiteness checking of every op result (debug mode)."""
    global _debug_checks
    _debug_checks = bool(enabled)


def _check_finite(data: np.ndarray, where: str) -> None:
    if _debug_checks and not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by {where}")


class Tensor:
    """N-dimensional real array, optionally tracked on the autograd tape.

    ``data`` is row-major (C-order) numpy storage. Tensors are treated as
    immutable once built; the only sanctioned mutation is the optimizer's
    in-place parameter update between steps.
    """

    __slots__ = ("data", "grad", "requires_grad", "_pairs")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(_default_dtype)
        self.data: np.ndarray = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        # (parent, vjp) pairs; vjp maps the output gradient to the parent's
        self._pairs: tuple = ()
        _check_finite(arr, "Tensor()")

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.item())

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- autograd ----------------------------------------------------------

    def backward(self) -> dict["Tensor", np.ndarray]:
        """Reverse-mode pass from a scalar; returns {leaf: gradient}.

        Gradients accumulate additively across uses and across successive
        ``backward`` calls (clear with ``zero_grad`` between steps).
        """
        if self.shape != ():
            raise ContractError(
                f"backward requires a scalar loss, got shape {self.shape}"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent, _ in node._pairs:
                if id(parent) not in seen:
                    stack.append((parent, False))

        self.grad = np.ones((), dtype=self.data.dtype)
        leaves: dict[Tensor, np.ndarray] = {}
        for node in reversed(topo):
            g = node.grad
            if g is None:
                continue
            for parent, vjp in node._pairs:
                pg = vjp(g)
                parent.grad = pg if parent.grad is None else parent.grad + pg
            if not node._pairs and node.requires_grad:
                leaves[node] = node.grad
            if node is not self and node._pairs:
                node.grad = None  # free intermediate gradients promptly
        return leaves

    # -- indexing ------------------------------------------------------------

    def __getitem__(self, index):
        return take(self, index)


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, pairs: Sequence[tuple[Tensor, Callable]], op: str) -> Tensor:
    """Wrap an op result, recording vjp closures for parents that need them."""
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled:
        live = tuple((p, f) for p, f in pairs if p.requires_grad or p._pairs)
        out._pairs = live
        out.requires_grad = bool(live)
    else:
        out._pairs = ()
        out.requires_grad = False
    return out


def fused(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable, op: str) -> Tensor:
    """Record an op whose one ``vjp(g)`` returns every parent's gradient, in
    ``parents`` order. It runs once per output gradient; each parent's tape
    entry then takes its own share."""
    memo: list = [None, None]

    def share(i):
        def take(g):
            if memo[0] is not g:
                memo[:] = [g, list(vjp(g))]
            grad, memo[1][i] = memo[1][i], None
            return grad
        return take

    return _node(data, [(p, share(i)) for i, p in enumerate(parents)], op)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the broadcast axes of g back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# -- elementwise ----------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    return _node(
        a.data + b.data,
        [(a, lambda g: _unbroadcast(g, a.shape)), (b, lambda g: _unbroadcast(g, b.shape))],
        "add",
    )


def mul(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    return _node(
        a.data * b.data,
        [
            (a, lambda g: _unbroadcast(g * b.data, a.shape)),
            (b, lambda g: _unbroadcast(g * a.data, b.shape)),
        ],
        "mul",
    )


def div(a, b) -> Tensor:
    a, b = _ensure(a), _ensure(b)
    inv = 1.0 / b.data
    return _node(
        a.data * inv,
        [
            (a, lambda g: _unbroadcast(g * inv, a.shape)),
            (b, lambda g: _unbroadcast(-g * a.data * inv * inv, b.shape)),
        ],
        "div",
    )


def neg(a) -> Tensor:
    a = _ensure(a)
    return _node(-a.data, [(a, lambda g: -g)], "neg")


def power(a, exponent: float) -> Tensor:
    a = _ensure(a)
    e = float(exponent)
    out = a.data**e
    return _node(out, [(a, lambda g: g * e * a.data ** (e - 1.0))], "power")


def exp(a) -> Tensor:
    a = _ensure(a)
    out = np.exp(a.data)
    return _node(out, [(a, lambda g: g * out)], "exp")


def log(a) -> Tensor:
    a = _ensure(a)
    return _node(np.log(a.data), [(a, lambda g: g / a.data)], "log")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a) -> Tensor:
    a = _ensure(a)
    s = _sigmoid(a.data)
    return _node(s, [(a, lambda g: g * s * (1.0 - s))], "sigmoid")


def silu(a) -> Tensor:
    a = _ensure(a)
    s = _sigmoid(a.data)
    return _node(
        a.data * s,
        [(a, lambda g: g * s * (1.0 + a.data * (1.0 - s)))],
        "silu",
    )


def relu(a) -> Tensor:
    a = _ensure(a)
    out = np.maximum(a.data, 0.0)
    return _node(out, [(a, lambda g: g * (a.data > 0))], "relu")


def softplus(a) -> Tensor:
    """ln(1 + e^x), evaluated as x + ln(1 + e^-x) for x > 0 to avoid overflow."""
    a = _ensure(a)
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    s = _sigmoid(x)
    return _node(out, [(a, lambda g: g * s)], "softplus")


_GELU_C = np.sqrt(2.0 / np.pi)


def gelu(a) -> Tensor:
    """tanh-approximation GELU: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))."""
    a = _ensure(a)
    x = a.data
    inner = _GELU_C * (x + 0.044715 * x**3)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def vjp(g):
        dinner = _GELU_C * (1.0 + 3 * 0.044715 * x**2)
        return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner)

    return _node(out, [(a, vjp)], "gelu")


def softmax(a, axis: int = -1) -> Tensor:
    a = _ensure(a)
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return s * (g - (g * s).sum(axis=axis, keepdims=True))

    return _node(s, [(a, vjp)], "softmax")


# -- reductions -----------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is None:
            return np.broadcast_to(g, a.shape).copy()
        if not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(ax % a.ndim for ax in axes)
            g = np.expand_dims(g, axes)
        return np.broadcast_to(g, a.shape).copy()

    return _node(np.asarray(out), [(a, vjp)], "sum")


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure(a)
    if axis is None:
        n = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([a.shape[ax] for ax in axes]))
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


# -- shape ops --------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    shape = tuple(shape)
    return _node(a.data.reshape(shape), [(a, lambda g: g.reshape(a.shape))], "reshape")


def transpose(a, axes=None) -> Tensor:
    a = _ensure(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return _node(a.data.transpose(axes), [(a, lambda g: g.transpose(inv))], "transpose")


def broadcast_to(a, shape) -> Tensor:
    a = _ensure(a)
    shape = tuple(shape)
    return _node(
        np.broadcast_to(a.data, shape).copy(),
        [(a, lambda g: _unbroadcast(g, a.shape))],
        "broadcast_to",
    )


def take(a, index) -> Tensor:
    """Basic (slice/integer) indexing with scatter-style gradient."""
    a = _ensure(a)
    out = a.data[index]

    def vjp(g):
        buf = np.zeros_like(a.data)
        buf[index] = g
        return buf

    return _node(np.array(out, copy=True), [(a, vjp)], "take")


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_ensure(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def make_vjp(i):
        lo, hi = offsets[i], offsets[i + 1]

        def vjp(g):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        return vjp

    return _node(data, [(p, make_vjp(i)) for i, p in enumerate(parts)], "concat")


def cast(a, dtype) -> Tensor:
    a = _ensure(a)
    dtype = np.dtype(dtype)
    src = a.data.dtype
    return _node(a.data.astype(dtype), [(a, lambda g: g.astype(src))], "cast")


def where_mask(a, keep: np.ndarray, fill: float) -> Tensor:
    """Replace entries where ``keep`` is False by ``fill``; no grad flows there."""
    a = _ensure(a)
    keep = np.asarray(keep, dtype=bool)
    out = np.where(keep, a.data, a.data.dtype.type(fill))
    return _node(out, [(a, lambda g: np.where(keep, g, 0.0))], "where_mask")


def cumsum(a, axis: int) -> Tensor:
    a = _ensure(a)
    out = np.cumsum(a.data, axis=axis)

    def vjp(g):
        return np.flip(np.cumsum(np.flip(g, axis=axis), axis=axis), axis=axis)

    return _node(out, [(a, vjp)], "cumsum")


# -- contractions ------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product; supports stacked (batched) operands.

    Either both operands carry identical leading batch dims, or ``b`` is a
    plain 2-D matrix shared across ``a``'s leading dims.
    """
    a, b = _ensure(a), _ensure(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    if b.ndim != 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch extents disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def vjp_a(g):
        return np.matmul(g, np.swapaxes(b.data, -1, -2))

    def vjp_b(g):
        if b.ndim == 2:
            k = a.shape[-1]
            n = g.shape[-1]
            return np.matmul(
                a.data.reshape(-1, k).T, g.reshape(-1, n)
            )
        return np.matmul(np.swapaxes(a.data, -1, -2), g)

    return _node(out, [(a, vjp_a), (b, vjp_b)], "matmul")


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row gather from an embedding table; gradient scatter-adds by id."""
    table = _ensure(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = table.data[ids]

    def vjp(g):
        buf = np.zeros_like(table.data)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return buf

    return _node(out, [(table, vjp)], "embedding")


def conv1d_depthwise_causal(x, weight, bias, prefix) -> Tensor:
    """Per-channel causal convolution along the second-to-last axis.

    x: [..., T, C]; weight: [K, C]; bias [C] or None; ``prefix`` [..., K-1, C]
    holds the K-1 inputs before x (zeros for a cold causal start, the carried
    tail when streaming). Output position t sees inputs t-K+1 .. t.
    """
    x, weight, prefix = _ensure(x), _ensure(weight), _ensure(prefix)
    k, c = weight.shape
    if x.shape[-1] != c:
        raise ShapeError(f"conv channels disagree: x {x.shape} vs weight {weight.shape}")
    if prefix.shape != x.shape[:-2] + (k - 1, c):
        raise ShapeError(f"conv prefix shape {prefix.shape} does not match input {x.shape}")
    t = x.shape[-2]
    xp = np.concatenate([prefix.data, x.data], axis=-2)

    out = np.zeros(x.shape, dtype=x.data.dtype)
    for i in range(k):
        out += weight.data[i] * xp[..., i : i + t, :]

    def vjp_xp(g):
        buf = np.zeros_like(xp)
        for i in range(k):
            buf[..., i : i + t, :] += g * weight.data[i]
        return buf

    def vjp_w(g):
        dw = np.empty_like(weight.data)
        flat_axes = tuple(range(g.ndim - 1))
        for i in range(k):
            dw[i] = (g * xp[..., i : i + t, :]).sum(axis=flat_axes)
        return dw

    pairs: list[tuple[Tensor, Callable]] = [
        (x, lambda g: vjp_xp(g)[..., k - 1 :, :]),
        (weight, vjp_w),
        (prefix, lambda g: vjp_xp(g)[..., : k - 1, :]),
    ]
    if bias is not None:
        bias_t = _ensure(bias)
        out = out + bias_t.data

        def vjp_b(g):
            return g.reshape(-1, c).sum(axis=0)

        pairs.append((bias_t, vjp_b))

    return _node(out, pairs, "conv1d")


def cross_entropy(logits, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean next-token cross-entropy over masked positions.

    logits: [..., V]; targets: integer ids with logits' leading shape;
    mask: same leading shape, nonzero where the position contributes.
    """
    logits = _ensure(logits)
    v = logits.shape[-1]
    z = logits.data.reshape(-1, v)
    t = np.asarray(targets, dtype=np.int64).reshape(-1)
    if t.shape[0] != z.shape[0]:
        raise ShapeError(
            f"cross_entropy targets {np.shape(targets)} do not match logits {logits.shape}"
        )
    if mask is None:
        m = np.ones(z.shape[0], dtype=z.dtype)
    else:
        m = np.asarray(mask, dtype=z.dtype).reshape(-1)
    total = m.sum()
    if total <= 0:
        raise ContractError("cross_entropy: mask selects no positions")

    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    lse = np.log(ez.sum(axis=1)) + zmax[:, 0]
    picked = z[np.arange(z.shape[0]), t]
    loss = float((m * (lse - picked)).sum() / total)

    def vjp(g):
        p = ez / ez.sum(axis=1, keepdims=True)
        p[np.arange(z.shape[0]), t] -= 1.0
        p *= (m / total)[:, None]
        return (g * p).reshape(logits.shape)

    return _node(np.asarray(loss, dtype=z.dtype), [(logits, vjp)], "cross_entropy")


def rms_norm(x, weight, eps: float = 1e-5) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by weight."""
    x = _ensure(x)
    scale = power(add(tmean(mul(x, x), axis=-1, keepdims=True), eps), -0.5)
    return mul(mul(x, scale), weight)


# -- constructors -----------------------------------------------------------


def zeros(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype or _default_dtype), requires_grad)


def ones(shape, requires_grad: bool = False, dtype=None) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype or _default_dtype), requires_grad)


def zero_grad(params: Iterable[Tensor]) -> None:
    for p in params:
        p.grad = None
