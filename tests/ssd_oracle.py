"""Composed-``Tensor`` selective scans: the test oracle of ``mac.ssd``,
and the kernel recorded on the tape.

``scan`` and its three modes are the scans ``mac.ssd`` ran before its numpy
kernels with hand-written adjoints: every step is a taped ``Tensor`` op, so
their outputs and gradients come from the generic autograd tape alone.

``mac.ssd`` itself is arrays in, arrays out, and only the Mamba block
records it on the tape. ``taped_scan`` records ``ssd.kernel`` the same way
for the tests that differentiate a scan on its own: two ``tz.fused`` nodes,
y and the final state, whose adjoint is the kernel's. Their parents are dt,
B, C, x and the initial state: the kernel reads ``a`` as a constant.

Both take ``TapedParams``, the ``SelectiveParams`` fields as tensors with
their batch axis, and an optional initial state tensor [nb, H, P, N], and
return ``(y, h)`` tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mac import ssd
from mac import tensor as tz
from mac.ssd import DEFAULT_CHUNK, SelectiveParams
from mac.tensor import ContractError, Tensor

from tensor_oracle import cast, cumsum, exp, mul, neg, take, transpose, tsum, where_mask

# Finite stand-in for -inf in masked log-decay entries: exp() underflows to
# exactly 0.0 without tripping the debug finiteness checks.
_MASK_FILL = -1e9


def discretize_zoh(dt: Tensor, a: Tensor, B: Tensor):
    """The Mamba-2 discretization of (a, B) with step sizes dt.

    Returns (abar, bbar) where abar = exp(dt*a) has dt's shape [.., T, H] and
    bbar = dt * B [.., T, H, N] couples inputs into the state.
    """
    dt, a, B = tz._ensure(dt), tz._ensure(a), tz._ensure(B)
    return exp(mul(dt, a)), _expand_groups(dt, B)


def _expand_groups(coef: Tensor, B: Tensor) -> Tensor:
    """coef [.., T, H] times group rows B [.., T, G, N] -> per-head [.., T, H, N]."""
    off = coef.ndim - 2
    t, h = coef.shape[off], coef.shape[off + 1]
    g, n = B.shape[off + 1], B.shape[off + 2]
    lead = coef.shape[:off]
    c = tz.reshape(coef, lead + (t, g, h // g, 1))
    b = tz.reshape(B, lead + (t, g, 1, n))
    return tz.reshape(mul(c, b), lead + (t, h, n))


@dataclass
class TapedParams:
    """``SelectiveParams`` with tensors for fields, so a loss can reach them."""

    dt: Tensor
    a: Tensor
    B: Tensor
    C: Tensor
    x: Tensor

    def arrays(self) -> SelectiveParams:
        return SelectiveParams(dt=self.dt.data, a=self.a.data, B=self.B.data,
                               C=self.C.data, x=self.x.data)


def taped_scan(params: TapedParams, mode: str = "chunked", chunk_len: int = DEFAULT_CHUNK,
               initial: Tensor | None = None):
    """``ssd.kernel`` on the tape, recorded as two fused nodes, y and the
    final state, that share the kernel's adjoint."""
    y, h_final, vjp = ssd.kernel(params.arrays(), mode, chunk_len,
                                 None if initial is None else initial.data)
    parents = [params.dt, params.B, params.C, params.x]
    if initial is not None:
        parents.append(initial)

    def grads(gy, gh):
        return [gv.astype(p.dtype, copy=False) for gv, p in zip(vjp(gy, gh), parents)]

    return (tz.fused(y, parents, lambda g: grads(g, None)),
            tz.fused(h_final, parents, lambda g: grads(None, g)))


def scan(params: TapedParams, mode: str = "chunked", chunk_len: int = DEFAULT_CHUNK,
         initial: Tensor | None = None):
    """Run the scan of ``mode`` (one of ``MODES``) -> (y, final state h)."""
    if mode == "recurrent":
        return scan_recurrent(params, initial=initial)
    if mode == "chunked":
        return scan_chunked(params, chunk_len=chunk_len, initial=initial)
    if mode == "convolutional":
        return scan_convolutional(params, initial=initial)
    raise ContractError(f"unknown scan mode {mode!r}")


def scan_recurrent(params: TapedParams, initial: Tensor | None = None):
    """Step-by-step evaluation of the recurrence -> (y [nb, T, H, P], h [nb, H, P, N])."""
    bsz, t, h = params.dt.shape
    n = params.B.shape[3]
    p = params.x.shape[3]
    hstate = tz.zeros((bsz, h, p, n), dtype=params.x.dtype) if initial is None else initial

    abar, rb = discretize_zoh(params.dt, params.a, params.B)  # [B,T,H], [B,T,H,N]
    c_head = _expand_groups(tz.ones((bsz, t, h)), params.C)  # [B, T, H, N]

    ys = []
    for step in range(t):
        decay = tz.reshape(take(abar, np.s_[:, step, :]), (bsz, h, 1, 1))
        inject = mul(
            tz.reshape(take(rb, np.s_[:, step, :, :]), (bsz, h, 1, n)),
            tz.reshape(take(params.x, np.s_[:, step, :, :]), (bsz, h, p, 1)),
        )
        hstate = tz.add(mul(decay, hstate), inject)
        y_t = tsum(
            mul(tz.reshape(take(c_head, np.s_[:, step, :, :]), (bsz, h, 1, n)), hstate), axis=-1
        )
        ys.append(tz.reshape(y_t, (bsz, 1, h, p)))
    return tz.concat(ys, axis=1), hstate


def scan_convolutional(params: TapedParams, initial: Tensor | None = None):
    """Whole-sequence evaluation through the semiseparable operator.

    For time-invariant parameters this is convolution by the kernel
    (C bbar, C abar bbar, C abar^2 bbar, ...); with selective parameters the
    kernel generalizes to the lower-triangular operator
    y_t = sum_{s<=t} C_t . (prod_{r=s+1..t} abar_r) bbar_s x_s.
    That operator is one chunk of the chunked algorithm, so this is
    ``scan_chunked`` with ``chunk_len = T``: O(T^2), any initial state.
    """
    return scan_chunked(params, chunk_len=params.dt.shape[1], initial=initial)


def scan_chunked(params: TapedParams, chunk_len: int = DEFAULT_CHUNK,
                 initial: Tensor | None = None):
    """Chunked evaluation: semiseparable matmuls inside each chunk, state
    carried across chunk boundaries by the recurrence.

    The carried state is held in float64 even when inputs are float32 so
    cross-chunk roundoff does not compound. ``chunk_len == 1`` degenerates
    to the recurrent path and is dispatched there.
    """
    if chunk_len < 1:
        raise ContractError(f"chunk_len must be >= 1, got {chunk_len}")
    if chunk_len == 1:
        return scan_recurrent(params, initial=initial)
    bsz, t, h = params.dt.shape
    in_dtype = params.x.dtype
    hstate = initial
    if hstate is None:
        hstate = tz.zeros((bsz, h, params.x.shape[3], params.B.shape[3]), dtype=in_dtype)
    ys = []
    for lo in range(0, t, chunk_len):
        hi = min(lo + chunk_len, t)
        piece = TapedParams(
            dt=take(params.dt, np.s_[:, lo:hi, :]),
            a=params.a,
            B=take(params.B, np.s_[:, lo:hi, :, :]),
            C=take(params.C, np.s_[:, lo:hi, :, :]),
            x=take(params.x, np.s_[:, lo:hi, :, :]),
        )
        y_c, hstate = _semiseparable_block(piece, hstate)
        hstate = cast(hstate, np.float64)  # cross-chunk carry at full width
        if y_c.dtype != in_dtype:
            y_c = cast(y_c, in_dtype)
        ys.append(y_c)
    if hstate.dtype != in_dtype:
        hstate = cast(hstate, in_dtype)
    return tz.concat(ys, axis=1), hstate


def _semiseparable_block(p_: TapedParams, h_in: Tensor):
    """One dense lower-triangular block over a full (sub)sequence.

    p_ is batched: dt [B,L,H], B/C [B,L,G,N], x [B,L,H,P]; h_in [B,H,P,N] is
    the state entering the block. Returns (y [B,L,H,P], h_out [B,H,P,N]).
    """
    bsz, L, h = p_.dt.shape
    g, n = p_.B.shape[2], p_.B.shape[3]
    hpg = h // g

    z = mul(p_.dt, p_.a)  # [B,L,H] log decay per step
    cum = cumsum(z, axis=1)  # [B,L,H] inclusive log decay from block start
    coef_in = p_.dt  # [B,L,H], bbar = dt * B

    # pairwise decay factors: prod_{r=s+1..t} abar_r = exp(cum_t - cum_s), s <= t
    seg = tz.add(
        tz.reshape(cum, (bsz, L, 1, h)), neg(tz.reshape(cum, (bsz, 1, L, h)))
    )  # [B, t, s, H]
    keep = np.tril(np.ones((L, L), dtype=bool)).reshape(1, L, L, 1)
    decay = exp(where_mask(seg, keep, _MASK_FILL))  # 0 above the diagonal

    # readout-coupling grams per group: gram[b,g,t,s] = C_t . B_s
    c_g = transpose(p_.C, (0, 2, 1, 3))  # [B,G,L,N]
    b_g = transpose(p_.B, (0, 2, 3, 1))  # [B,G,N,L]
    gram = tz.matmul(c_g, b_g)  # [B,G,L,L]

    # combine (expanding groups to heads): coef[b,h,t,s]
    decay_h = transpose(decay, (0, 3, 1, 2))  # [B,H,t,s]
    scale_s = tz.reshape(transpose(coef_in, (0, 2, 1)), (bsz, h, 1, L))
    mixed = mul(
        tz.reshape(gram, (bsz, g, 1, L, L)),
        tz.reshape(mul(decay_h, scale_s), (bsz, g, hpg, L, L)),
    )
    coef = tz.reshape(mixed, (bsz, h, L, L))

    x_h = transpose(p_.x, (0, 2, 1, 3))  # [B,H,L,P]
    y = tz.matmul(coef, x_h)  # [B,H,L,P] intra-block contributions

    cum_last = take(cum, np.s_[:, L - 1, :])  # [B,H]

    # y_state[b,h,t,p] = sum_n C_head[b,t,h,n] exp(cum_t) h_in[b,h,p,n]
    expcum = exp(cum)  # [B,L,H], <= 1
    ce = tz.reshape(
        mul(
            tz.reshape(p_.C, (bsz, L, g, 1, n)),
            tz.reshape(expcum, (bsz, L, g, hpg, 1)),
        ),
        (bsz, L, h, n),
    )
    y_state = tz.matmul(
        transpose(ce, (0, 2, 1, 3)),  # [B,H,L,N]
        transpose(h_in, (0, 1, 3, 2)),  # [B,H,N,P]
    )
    y = tz.add(y, y_state)

    # block-final state: h_out = exp(cum_last) h_in + sum_s decay(L-1,s) bbar_s (x) x_s
    tail = exp(
        tz.add(tz.reshape(cum_last, (bsz, 1, h)), neg(cum))
    )  # [B,L,H], prod_{r=s+1..L-1}
    w = tz.reshape(
        mul(
            tz.reshape(p_.B, (bsz, L, g, 1, n)),
            tz.reshape(mul(tail, coef_in), (bsz, L, g, hpg, 1)),
        ),
        (bsz, L, h, n),
    )
    h_out = tz.matmul(
        transpose(p_.x, (0, 2, 3, 1)),  # [B,H,P,L]
        transpose(w, (0, 2, 1, 3)),  # [B,H,L,N]
    )  # [B,H,P,N]
    h_out = tz.add(h_out, mul(tz.reshape(exp(cum_last), (bsz, h, 1, 1)), h_in))

    return transpose(y, (0, 2, 1, 3)), h_out
