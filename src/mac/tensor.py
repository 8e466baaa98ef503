"""Dense tensors with tape-based reverse-mode automatic differentiation.

numpy holds the data; this module owns the graph. The tape has one kind
of node: every differentiable op is recorded by ``fused`` with its parents
and one adjoint, which maps the output gradient to the list of every
parent's gradient, None for a parent that needs none. ``backward`` on a
scalar walks the tape once in reverse topological order, calls each node's
adjoint once and returns each leaf's gradient; no tensor keeps one. Besides
the elementwise and shape ops here, the nodes are the Mamba block of
``mac.blocks`` (in_proj, conv, scan of ``mac.ssd`` and out_proj, one node,
the block output), the patch encoder of ``mac.audio``, the connector MLP of
``mac.connector`` and ``embedding``, one gather from several tables (the LM
input of ``mac.pipeline``). A node differentiates only its parents. The
block's are its input and its four LoRA factors, and it reads every frozen
block weight and any carried state as a constant; the encoder's are its
layer weights and biases; the MLP's are its input rows and its two layers'
weights and biases; the gather's are its tables. The array forms of the
activations, norms and the causal conv (``_sigmoid``, ``_softplus``,
``_rms_norm``, ``conv1d_depthwise_causal`` and its input adjoint) are
shared with those kernels; ``rms_norm`` keeps its per-row r and rebuilds
xhat in the adjoint.

Two float widths, float64 and float32, and no global default: an op takes
its width from its inputs, and ``mac.pipeline.Captioner`` casts a model's
parameters and clip rows to ``train.precision``. ``Tensor``, ``zeros`` and
``ones`` make float64 unless given a dtype.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand extents disagree; message names both shapes."""


class ContractError(ValueError):
    """A documented precondition of an operation was violated."""


_grad_enabled = True


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


def grad_enabled() -> bool:
    """Whether ops are recorded on the tape (False inside ``no_grad``)."""
    return _grad_enabled


class Tensor:
    """N-dimensional real array, optionally tracked on the autograd tape.

    ``data`` is row-major (C-order) numpy storage. Tensors are treated as
    immutable once built; the only sanctioned mutation is the optimizer's
    in-place parameter update between steps. A tensor holds no gradient:
    ``backward`` returns them.
    """

    __slots__ = ("data", "requires_grad", "_pairs", "_vjp")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        # ((parent, i), ...) for each parent a gradient reaches, i its place in
        # the list _vjp(output gradient) returns; () and None on a leaf
        self._pairs: tuple = ()
        self._vjp: Callable | None = None

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

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

        Each node the loss reaches has its adjoint called once, and each of
        its recorded parents gets its share, in ``_pairs`` order. A leaf used
        more than once gets the sum of its uses' gradients. The sums are kept
        in a map that lives only for this walk, each node's leaving it as its
        adjoint runs, so every call stands alone.
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

        grads: dict[Tensor, np.ndarray] = {self: np.ones((), dtype=self.data.dtype)}
        leaves: dict[Tensor, np.ndarray] = {}
        for node in reversed(topo):
            g = grads.pop(node, None)
            if g is None:
                continue
            if not node._pairs:
                if node.requires_grad:
                    leaves[node] = g
                continue
            shares = node._vjp(g)
            for parent, i in node._pairs:
                pg = shares[i]  # None: this output gradient does not reach the parent
                if pg is not None:
                    prev = grads.get(parent)
                    grads[parent] = pg if prev is None else prev + pg
        return leaves


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def fused(data: np.ndarray, parents: Sequence[Tensor], vjp: Callable) -> Tensor:
    """Wrap an op result as a tape node: ``vjp(g)`` returns every parent's
    gradient, in ``parents`` order, and should give None for a parent that
    needs none rather than compute it. Only the parents that need a gradient
    are recorded; under ``no_grad``, or when none does, the result is a
    constant."""
    out = Tensor.__new__(Tensor)
    out.data = data
    live = (tuple((p, i) for i, p in enumerate(parents) if p.requires_grad)
            if _grad_enabled else ())
    out._pairs, out._vjp, out.requires_grad = live, vjp if live else None, bool(live)
    return out


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


def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands as Tensors; a Python scalar takes the other's dtype, so
    fp32 stays fp32."""
    if isinstance(a, (int, float)) and isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.dtype)), b
    if isinstance(b, (int, float)) and isinstance(a, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.dtype))
    return _ensure(a), _ensure(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    return fused(a.data + b.data, [a, b],
                 lambda g: [_unbroadcast(g, p.shape) if p.requires_grad else None for p in (a, b)])


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function 1/(1 + e^-x); where e^-x overflows the result is
    the correct limit 0."""
    out = np.negative(x, out=np.empty_like(x))  # an array even for 0-d x
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def _softplus(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x), evaluated as max(x, 0) + ln(1 + e^-|x|) to avoid
    overflow. Its slope is ``_sigmoid(x)``, left to the adjoint that needs it."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# -- shape ops --------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _ensure(a)
    shape = tuple(shape)
    return fused(a.data.reshape(shape), [a], lambda g: [g.reshape(a.shape)])


def concat(parts: Iterable[Tensor], axis: int = 0) -> Tensor:
    parts = [_ensure(p) for p in parts]
    if not parts:
        raise ShapeError("concat of zero tensors")
    data = np.concatenate([p.data for p in parts], axis=axis)
    cuts = np.cumsum([p.shape[axis] for p in parts[:-1]])
    return fused(data, parts, lambda g: np.split(g, cuts, axis=axis))


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

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2)) if a.requires_grad else None
        if not b.requires_grad:
            return [ga, None]
        if b.ndim == 2:
            return [ga, np.matmul(a.data.reshape(-1, a.shape[-1]).T, g.reshape(-1, g.shape[-1]))]
        return [ga, np.matmul(np.swapaxes(a.data, -1, -2), g)]

    return fused(out, [a, b], vjp)


def embedding(tables: Sequence[Tensor], ids: np.ndarray) -> Tensor:
    """Row gather from the tables stacked row-wise (the second table's rows
    follow the first's); the gradient scatter-adds by id, and each table
    takes its own rows of it. One node, whatever the number of tables."""
    tables = [_ensure(t) for t in tables]
    ids = np.asarray(ids, dtype=np.int64)
    stack = np.concatenate([t.data for t in tables]) if len(tables) > 1 else tables[0].data
    shape, dtype = stack.shape, stack.dtype

    def vjp(g):
        buf = np.zeros(shape, dtype)
        np.add.at(buf, ids.reshape(-1), g.reshape(-1, shape[-1]))
        return np.split(buf, np.cumsum([t.shape[0] for t in tables[:-1]]))

    return fused(stack[ids], tables, vjp)


_CONV = "...tkc,kc->...tc"  # window t, tap k, channel c: each row's taps summed in order


def _windows(a: np.ndarray, rows: int, k: int, first: int, step: int) -> np.ndarray:
    """Read-only view [..., rows, K, C] of a C-contiguous a [..., R, C] whose
    window r, tap i is row first + r + step * i of a. Built with the ndarray
    constructor: ``as_strided`` and ``sliding_window_view`` cost more per
    call than a whole one-token conv."""
    s = a.strides
    view = np.ndarray(a.shape[:-2] + (rows, k, a.shape[-1]), a.dtype, a, first * s[-2],
                      s[:-1] + (step * s[-2], s[-1]))
    view.flags.writeable = False
    return view


def conv1d_depthwise_causal(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None,
                            prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel causal convolution along the second-to-last axis, on arrays.

    x: [..., T, C]; weight: [K, C]; bias [C] or None; ``prefix`` [..., K-1, C]
    holds the K-1 inputs before x (zeros for a cold causal start, the carried
    tail when streaming). Output position t sees inputs t-K+1 .. t.

    -> (output [..., T, C] in x's dtype, tail [..., K-1, C]). The output is
    one ``np.einsum`` over a window view of [prefix, x], whose window t holds
    rows t .. t+K-1, for every T; the taps of each row add in order 0..K-1.
    The tail is the last K-1 rows of [prefix, x]: the ``prefix`` of a call on
    the inputs that follow x. It records nothing on the tape: the Mamba
    block's fused node runs it and its adjoint ``_conv1d_input_grad``; the
    weight and bias are frozen there, so no adjoint of theirs exists.
    """
    k, c = weight.shape
    if x.shape[-1] != c:
        raise ShapeError(f"conv channels disagree: x {x.shape} vs weight {weight.shape}")
    if prefix.shape != x.shape[:-2] + (k - 1, c):
        raise ShapeError(f"conv prefix shape {prefix.shape} does not match input {x.shape}")
    t = x.shape[-2]
    xp = np.concatenate([prefix, x], axis=-2)
    out = np.einsum(_CONV, _windows(xp, t, k, 0, 1), weight, out=np.empty(x.shape, x.dtype),
                    casting="same_kind")
    tail = xp[..., t:, :].copy()  # a copy, so the tail does not hold all of xp
    if bias is not None:
        out += bias
    return out, tail


def _conv1d_input_grad(g: np.ndarray, weight: np.ndarray, gx: np.ndarray) -> None:
    """Write the gradient of ``conv1d_depthwise_causal``'s x for output
    gradient g [..., T, C] into gx [..., T, C]; the prefix is a constant.
    Row r of x feeds output row r - i through tap i, so its gradient is one
    ``np.einsum`` over a window view of g padded with K-1 zero rows at its
    end, the window reversed so the taps add in order 0..K-1."""
    k, t = weight.shape[0], g.shape[-2]
    pad = np.zeros(g.shape[:-2] + (k - 1, g.shape[-1]), g.dtype)
    win = _windows(np.concatenate([g, pad], axis=-2), t, k, k - 1, -1)
    np.einsum(_CONV, win, weight, out=gx, casting="same_kind")


def cross_entropy(logits, targets: np.ndarray, mask: np.ndarray) -> Tensor:
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
        return [(g * p).reshape(logits.shape)]

    return fused(np.asarray(loss, dtype=z.dtype), [logits], vjp)


_RMS_EPS = 1e-5


def _mean_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """mean(a * b) over the last axis, kept as an axis of 1, without the
    product array."""
    return np.einsum("...i,...i->...", a, b)[..., None] / a.shape[-1]


def _rms_norm(x: np.ndarray, w: np.ndarray):
    """-> (x r w, r, xhat = x r) with r = 1/sqrt(mean(x^2) + ``_RMS_EPS``)
    over the last axis; r and xhat are what ``_rms_norm_grad`` needs. r has
    one entry per row, so its steps allocate: on small arrays that is
    cheaper than writing in place."""
    r = np.reciprocal(np.sqrt(_mean_last(x, x) + _RMS_EPS))
    xhat = x * r
    return xhat * w, r, xhat


def _rms_norm_grad(g: np.ndarray, w: np.ndarray, r: np.ndarray, xhat: np.ndarray) -> np.ndarray:
    """Gradient of ``_rms_norm``'s input x for output gradient g:
    r (g w - xhat mean(g w xhat))."""
    gw = g * w
    out = xhat * _mean_last(gw, xhat)
    np.subtract(gw, out, out=out)
    out *= r
    return out


def rms_norm(x, weight) -> Tensor:
    """Root-mean-square normalization over the last axis, scaled by weight.

    One tape node with the closed-form adjoint of ``_rms_norm_grad``; the
    weight's gradient is the sum of g xhat. The node keeps r, one entry per
    row, and not xhat: the adjoint rebuilds xhat = x r from the input.
    """
    x, weight = _ensure(x), _ensure(weight)
    out, r, _ = _rms_norm(x.data, weight.data)
    return fused(out, [x, weight], lambda g: [
        _rms_norm_grad(g, weight.data, r, x.data * r) if x.requires_grad else None,
        _unbroadcast(g * (x.data * r), weight.shape) if weight.requires_grad else None])


# -- constructors -----------------------------------------------------------


def zeros(shape, dtype=np.float64) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype))


def ones(shape, dtype=np.float64) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype))
