"""Composed-``Tensor`` selective scans: the test oracle of ``mac.ssd``.

These are the scans ``mac.ssd`` ran before its numpy kernels with
hand-written adjoints, kept verbatim but for one quotient, now a product with
``power(b, -1)`` from ``tensor_oracle``: every step is a taped ``Tensor`` op, so
their outputs and gradients come from the generic autograd tape alone. They
take and return the same ``SelectiveParams`` / ``ScanState`` as ``mac.ssd``.
"""

from __future__ import annotations

import numpy as np

from mac import tensor as tz
from mac.ssd import DEFAULT_CHUNK, ScanState, SelectiveParams
from mac.tensor import ContractError, ShapeError, Tensor

from tensor_oracle import power

# Finite stand-in for -inf in masked log-decay entries: exp() underflows to
# exactly 0.0 without tripping the debug finiteness checks.
_MASK_FILL = -1e9


def discretize_zoh(dt: Tensor, a: Tensor, B: Tensor, exact: bool = False):
    """Zero-order-hold discretization of (a, B) with step sizes dt.

    Returns (abar, bbar) where abar = exp(dt*a) has dt's shape [.., T, H] and
    bbar [.., T, H, N] couples inputs into the state. The default uses the
    Mamba-2 simplification bbar = dt * B; ``exact=True`` applies the full
    scalar ZOH rule bbar = ((dt*a)^-1 (exp(dt*a) - 1)) * dt * B, with a
    series fallback near dt*a = 0 where the closed form cancels.
    """
    dt, a, B = tz._ensure(dt), tz._ensure(a), tz._ensure(B)
    z = tz.mul(dt, a)
    abar = tz.exp(z)
    coef = _input_coef(dt, z, exact)
    bbar = _expand_groups(coef, B)
    return abar, bbar


def _input_coef(dt: Tensor, z: Tensor, exact: bool) -> Tensor:
    """Per-head scalar multiplying B_t: dt (simplified) or phi(z)*dt (exact ZOH)."""
    if not exact:
        return dt
    zd = z.data
    small = np.abs(zd) < 1e-6
    # phi(z) = (e^z - 1)/z, with a Taylor branch where cancellation bites
    phi_exact = tz.mul(tz.add(tz.exp(tz.where_mask(z, ~small, 1.0)), -1.0),
                       power(tz.where_mask(z, ~small, 1.0), -1.0))
    phi_taylor = tz.add(tz.add(1.0, tz.mul(z, 0.5)), tz.mul(tz.mul(z, z), 1.0 / 6.0))
    keep = Tensor(np.where(small, 0.0, 1.0).astype(zd.dtype))
    phi = tz.add(tz.mul(phi_exact, keep), tz.mul(phi_taylor, tz.add(1.0, tz.neg(keep))))
    return tz.mul(phi, dt)


def _expand_groups(coef: Tensor, B: Tensor) -> Tensor:
    """coef [.., T, H] times group rows B [.., T, G, N] -> per-head [.., T, H, N]."""
    off = coef.ndim - 2
    t, h = coef.shape[off], coef.shape[off + 1]
    g, n = B.shape[off + 1], B.shape[off + 2]
    lead = coef.shape[:off]
    c = tz.reshape(coef, lead + (t, g, h // g, 1))
    b = tz.reshape(B, lead + (t, g, 1, n))
    return tz.reshape(tz.mul(c, b), lead + (t, h, n))


def _lift(params: SelectiveParams, initial: ScanState | None):
    """Validate, then lift one call to the batched form the kernels run on.

    Returns (params with a batch axis, h0 [B, H, P, N], was_batched); h0 is
    zeros when ``initial`` is None. ``_finish`` drops the axis again.
    """
    params.validate()
    was_batched = params.batched
    if not was_batched:
        def lift(v):
            return tz.reshape(v, (1,) + v.shape)

        params = SelectiveParams(dt=lift(params.dt), a=params.a, B=lift(params.B),
                                 C=lift(params.C), x=lift(params.x))
    bsz, _, h = params.dt.shape
    shape = (bsz, h, params.x.shape[3], params.B.shape[3])
    if initial is None:
        return params, tz.zeros(shape, dtype=params.x.dtype), was_batched
    expected = shape if was_batched else shape[1:]
    if initial.h.shape != expected:
        raise ShapeError(f"initial state shape {initial.h.shape}, expected {expected}")
    h0 = initial.h if was_batched else tz.reshape(initial.h, shape)
    return params, h0, was_batched


def _finish(y: Tensor, hstate: Tensor, initial: ScanState | None, was_batched: bool):
    """(y, final ScanState) back in the caller's batching, step counter advanced."""
    start = initial.step_index if initial is not None else 0
    final = ScanState(hstate, start + y.shape[1])
    if not was_batched:
        y = tz.reshape(y, y.shape[1:])
        final.h = tz.reshape(hstate, hstate.shape[1:])
    return y, final


def scan(
    params: SelectiveParams,
    mode: str = "chunked",
    chunk_len: int = DEFAULT_CHUNK,
    initial: ScanState | None = None,
    exact_zoh: bool = False,
):
    """Run the scan of ``mode`` (one of ``MODES``) -> (y, final_state)."""
    if mode == "recurrent":
        return scan_recurrent(params, initial=initial, exact_zoh=exact_zoh)
    if mode == "chunked":
        return scan_chunked(params, chunk_len=chunk_len, initial=initial, exact_zoh=exact_zoh)
    if mode == "convolutional":
        return scan_convolutional(params, initial=initial, exact_zoh=exact_zoh)
    raise ContractError(f"unknown scan mode {mode!r}")


def scan_recurrent(
    params: SelectiveParams,
    initial: ScanState | None = None,
    exact_zoh: bool = False,
):
    """Step-by-step evaluation of the recurrence -> (y [.., T, H, P], final_state)."""
    p_, hstate, was_batched = _lift(params, initial)
    bsz, t, h = p_.dt.shape
    n = p_.B.shape[3]
    p = p_.x.shape[3]

    abar, rb = discretize_zoh(p_.dt, p_.a, p_.B, exact=exact_zoh)  # [B,T,H], [B,T,H,N]
    c_head = _expand_groups(tz.ones((bsz, t, h)), p_.C)  # [B, T, H, N]

    ys = []
    for step in range(t):
        decay = tz.reshape(abar[:, step, :], (bsz, h, 1, 1))
        inject = tz.mul(
            tz.reshape(rb[:, step, :, :], (bsz, h, 1, n)),
            tz.reshape(p_.x[:, step, :, :], (bsz, h, p, 1)),
        )
        hstate = tz.add(tz.mul(decay, hstate), inject)
        y_t = tz.tsum(
            tz.mul(tz.reshape(c_head[:, step, :, :], (bsz, h, 1, n)), hstate), axis=-1
        )
        ys.append(tz.reshape(y_t, (bsz, 1, h, p)))
    return _finish(tz.concat(ys, axis=1), hstate, initial, was_batched)


def scan_convolutional(
    params: SelectiveParams,
    initial: ScanState | None = None,
    exact_zoh: bool = False,
):
    """Whole-sequence evaluation through the semiseparable operator.

    For time-invariant parameters this is convolution by the kernel
    (C bbar, C abar bbar, C abar^2 bbar, ...); with selective parameters the
    kernel generalizes to the lower-triangular operator
    y_t = sum_{s<=t} C_t . (prod_{r=s+1..t} abar_r) bbar_s x_s.
    That operator is one chunk of the chunked algorithm, so this is
    ``scan_chunked`` with ``chunk_len = T``: O(T^2), any initial state.
    """
    return scan_chunked(params, chunk_len=params.dims()[0], initial=initial, exact_zoh=exact_zoh)


def scan_chunked(
    params: SelectiveParams,
    chunk_len: int = DEFAULT_CHUNK,
    initial: ScanState | None = None,
    exact_zoh: bool = False,
):
    """Chunked evaluation: semiseparable matmuls inside each chunk, state
    carried across chunk boundaries by the recurrence.

    The carried state is held in float64 even when inputs are float32 so
    cross-chunk roundoff does not compound. ``chunk_len == 1`` degenerates
    to the recurrent path and is dispatched there.
    """
    if chunk_len < 1:
        raise ContractError(f"chunk_len must be >= 1, got {chunk_len}")
    if chunk_len == 1:
        return scan_recurrent(params, initial=initial, exact_zoh=exact_zoh)
    p_, hstate, was_batched = _lift(params, initial)
    t = p_.dt.shape[1]
    in_dtype = p_.x.dtype
    ys = []
    for lo in range(0, t, chunk_len):
        hi = min(lo + chunk_len, t)
        piece = SelectiveParams(
            dt=p_.dt[:, lo:hi, :],
            a=p_.a,
            B=p_.B[:, lo:hi, :, :],
            C=p_.C[:, lo:hi, :, :],
            x=p_.x[:, lo:hi, :, :],
        )
        y_c, hstate = _semiseparable_block(piece, hstate, exact_zoh=exact_zoh)
        hstate = tz.cast(hstate, np.float64)  # cross-chunk carry at full width
        if y_c.dtype != in_dtype:
            y_c = tz.cast(y_c, in_dtype)
        ys.append(y_c)
    if hstate.dtype != in_dtype:
        hstate = tz.cast(hstate, in_dtype)
    return _finish(tz.concat(ys, axis=1), hstate, initial, was_batched)


def _semiseparable_block(p_: SelectiveParams, h_in: Tensor, exact_zoh: bool):
    """One dense lower-triangular block over a full (sub)sequence.

    p_ is batched: dt [B,L,H], B/C [B,L,G,N], x [B,L,H,P]; h_in [B,H,P,N] is
    the state entering the block. Returns (y [B,L,H,P], h_out [B,H,P,N]).
    """
    bsz, L, h = p_.dt.shape
    g, n = p_.B.shape[2], p_.B.shape[3]
    hpg = h // g

    z = tz.mul(p_.dt, p_.a)  # [B,L,H] log decay per step
    cum = tz.cumsum(z, axis=1)  # [B,L,H] inclusive log decay from block start
    coef_in = _input_coef(p_.dt, z, exact_zoh)  # [B,L,H]

    # pairwise decay factors: prod_{r=s+1..t} abar_r = exp(cum_t - cum_s), s <= t
    seg = tz.add(
        tz.reshape(cum, (bsz, L, 1, h)), tz.neg(tz.reshape(cum, (bsz, 1, L, h)))
    )  # [B, t, s, H]
    keep = np.tril(np.ones((L, L), dtype=bool)).reshape(1, L, L, 1)
    decay = tz.exp(tz.where_mask(seg, keep, _MASK_FILL))  # 0 above the diagonal

    # readout-coupling grams per group: gram[b,g,t,s] = C_t . B_s
    c_g = tz.transpose(p_.C, (0, 2, 1, 3))  # [B,G,L,N]
    b_g = tz.transpose(p_.B, (0, 2, 3, 1))  # [B,G,N,L]
    gram = tz.matmul(c_g, b_g)  # [B,G,L,L]

    # combine (expanding groups to heads): coef[b,h,t,s]
    decay_h = tz.transpose(decay, (0, 3, 1, 2))  # [B,H,t,s]
    scale_s = tz.reshape(tz.transpose(coef_in, (0, 2, 1)), (bsz, h, 1, L))
    mixed = tz.mul(
        tz.reshape(gram, (bsz, g, 1, L, L)),
        tz.reshape(tz.mul(decay_h, scale_s), (bsz, g, hpg, L, L)),
    )
    coef = tz.reshape(mixed, (bsz, h, L, L))

    x_h = tz.transpose(p_.x, (0, 2, 1, 3))  # [B,H,L,P]
    y = tz.matmul(coef, x_h)  # [B,H,L,P] intra-block contributions

    cum_last = cum[:, L - 1, :]  # [B,H]

    # y_state[b,h,t,p] = sum_n C_head[b,t,h,n] exp(cum_t) h_in[b,h,p,n]
    expcum = tz.exp(cum)  # [B,L,H], <= 1
    ce = tz.reshape(
        tz.mul(
            tz.reshape(p_.C, (bsz, L, g, 1, n)),
            tz.reshape(expcum, (bsz, L, g, hpg, 1)),
        ),
        (bsz, L, h, n),
    )
    y_state = tz.matmul(
        tz.transpose(ce, (0, 2, 1, 3)),  # [B,H,L,N]
        tz.transpose(h_in, (0, 1, 3, 2)),  # [B,H,N,P]
    )
    y = tz.add(y, y_state)

    # block-final state: h_out = exp(cum_last) h_in + sum_s decay(L-1,s) bbar_s (x) x_s
    tail = tz.exp(
        tz.add(tz.reshape(cum_last, (bsz, 1, h)), tz.neg(cum))
    )  # [B,L,H], prod_{r=s+1..L-1}
    w = tz.reshape(
        tz.mul(
            tz.reshape(p_.B, (bsz, L, g, 1, n)),
            tz.reshape(tz.mul(tail, coef_in), (bsz, L, g, hpg, 1)),
        ),
        (bsz, L, h, n),
    )
    h_out = tz.matmul(
        tz.transpose(p_.x, (0, 2, 3, 1)),  # [B,H,P,L]
        tz.transpose(w, (0, 2, 1, 3)),  # [B,H,L,N]
    )  # [B,H,P,N]
    h_out = tz.add(h_out, tz.mul(tz.reshape(tz.exp(cum_last), (bsz, h, 1, 1)), h_in))

    return tz.transpose(y, (0, 2, 1, 3)), h_out
