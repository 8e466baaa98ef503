"""Selective state-space kernels: discretization and two scan algorithms.

The underlying transform, per head, is the linear recurrence

    h_t = abar_t * h_{t-1} + bbar_t (x) x_t        (outer product over N x P)
    y_t = C_t . h_t

with per-token step sizes ``dt`` (positive), a per-head negative decay rate
``a`` (scalar-times-identity state matrix), and input-dependent coupling
rows B_t / readout rows C_t shared across heads within a group.

Two algorithms compute it, under three mode names (``MODES``) that produce
identical outputs and final states:

- ``scan_recurrent``      step-by-step recurrence
- ``scan_chunked``        semiseparable matmul inside fixed-length chunks,
                          recurrence across chunk boundaries
- ``scan_convolutional``  the chunked algorithm with one chunk of length T:
                          the full lower-triangular semiseparable operator

All three share one contract, ``(params, ..., initial, exact_zoh) ->
(y, ScanState)``, and ``scan`` dispatches on the mode name. Every mode takes
an ``initial`` state; none means a zero state. Feeding the returned state
back as ``initial`` of a later call equals one uninterrupted scan
(streaming contract).

Each algorithm is one numpy forward plus one hand-written adjoint that
returns the gradients of dt, a, B, C, x and the initial state together. A
call records two tape nodes, y and the final state (``tz.fused``); the
adjoint of the chunked scan has the forward's chunk structure, with the
cross-chunk carry run in reverse, and the adjoint of the recurrence is the
recurrence run backwards. The scans composed from taped ``Tensor`` ops that
these kernels replaced are kept in the test suite as their oracle.

Shapes are written unbatched ([T, ...]) below; every function also accepts
one extra leading batch axis. The kernels themselves are batched only: an
unbatched call is lifted once on entry (``_lift``) and dropped once on exit
(``_finish``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import ContractError, ShapeError, Tensor

DEFAULT_CHUNK = 16
MODES = ("recurrent", "chunked", "convolutional")
# |dt*a| below this takes the series branch of the exact ZOH rule
_SERIES_BELOW = 1e-6


@dataclass
class SelectiveParams:
    """Per-layer inputs of the selective scan.

    dt: [T, H]     step sizes, strictly positive (softplus output)
    a:  [H]        continuous-time decay rates, strictly negative
    B:  [T, G, N]  input coupling, one row per parameter group
    C:  [T, G, N]  output readout, one row per parameter group
    x:  [T, H, P]  head inputs

    dt, B, C and x may all carry one leading batch axis (``batched``); a is
    shared across the batch.
    """

    dt: Tensor
    a: Tensor
    B: Tensor
    C: Tensor
    x: Tensor

    @property
    def batched(self) -> bool:
        return self.dt.ndim == 3

    def dims(self) -> tuple[int, int, int, int, int]:
        """(T, H, P, G, N) after shape validation."""
        off = 1 if self.batched else 0
        if self.dt.ndim != 2 + off or self.B.ndim != 3 + off or self.x.ndim != 3 + off:
            raise ShapeError(
                f"inconsistent ranks: dt {self.dt.shape}, B {self.B.shape}, x {self.x.shape}"
            )
        t, h = self.dt.shape[off], self.dt.shape[off + 1]
        g, n = self.B.shape[off + 1], self.B.shape[off + 2]
        p = self.x.shape[off + 2]
        if self.a.shape != (h,):
            raise ShapeError(f"a has shape {self.a.shape}, expected ({h},)")
        if self.B.shape[off] != t or self.C.shape != self.B.shape:
            raise ShapeError(f"B/C shapes {self.B.shape}/{self.C.shape} disagree with T={t}")
        if self.x.shape[off] != t or self.x.shape[off + 1] != h:
            raise ShapeError(f"x shape {self.x.shape} disagrees with (T,H)=({t},{h})")
        if h % g != 0:
            raise ShapeError(f"heads {h} not divisible by groups {g}")
        return t, h, p, g, n

    def validate(self) -> None:
        self.dims()
        if np.any(self.dt.data <= 0):
            raise ContractError("dt must be strictly positive")
        if np.any(self.a.data >= 0):
            raise ContractError("a must be strictly negative")


@dataclass
class ScanState:
    """Carried hidden state: h [H, P, N] (or [B, H, P, N]) plus step counter."""

    h: Tensor
    step_index: int = 0


def discretize_zoh(dt: np.ndarray, a: np.ndarray, exact: bool = False):
    """Zero-order-hold discretization of (a, B) with step sizes dt.

    Arrays in, arrays out: dt [.., T, H], a [H]. Returns
    ``(z, coef, dcoef_ddt, dcoef_da)``, each of dt's shape: the log decay
    z = dt*a (abar = exp(z)), the per-head scalar ``coef`` with
    bbar = coef * B (B's group row for the head), and coef's partial
    derivatives in dt and in a. The default uses the Mamba-2 simplification
    coef = dt; ``exact=True`` applies the full scalar ZOH rule
    coef = phi(z) dt with phi(z) = (e^z - 1)/z, switching to the series
    1 + z/2 + z^2/6 near z = 0 where the closed form cancels.
    """
    z = dt * a
    if not exact:
        return z, dt, np.ones_like(dt), np.zeros_like(dt)
    small = np.abs(z) < _SERIES_BELOW
    zs = np.where(small, 1.0, z)
    em1 = np.expm1(zs)
    phi = np.where(small, 1.0 + z * 0.5 + z * z / 6.0, em1 / zs)
    dphi = np.where(small, 0.5 + z / 3.0, (em1 + 1.0 - phi) / zs)
    return z, phi * dt, phi + dphi * z, dphi * dt * dt


def _zoh_grads(gz: np.ndarray, gcoef: np.ndarray, dt: np.ndarray, a: np.ndarray, zoh):
    """Gradients of (dt, a) from those of discretize_zoh's z and coef."""
    _, _, dcoef_ddt, dcoef_da = zoh
    return gz * a + gcoef * dcoef_ddt, (gz * dt + gcoef * dcoef_da).sum(axis=(0, 1))


def _lift(params: SelectiveParams, initial: ScanState | None):
    """Validate, then lift one call to the batched arrays the kernels run on.

    Returns ((dt, a, B, C, x) with a batch axis, h0 [B, H, P, N] or None for
    a zero state, was_batched). ``_finish`` drops the axis again.
    """
    params.validate()
    was_batched = params.batched
    lead = () if was_batched else (1,)
    dt, B, C, x = (v.data.reshape(lead + v.shape)
                   for v in (params.dt, params.B, params.C, params.x))
    arrays = (dt, params.a.data, B, C, x)
    bsz, t, h = dt.shape
    if t == 0:
        raise ShapeError("scan over an empty sequence")
    if initial is None:
        return arrays, None, was_batched
    shape = (bsz, h, x.shape[3], B.shape[3])
    expected = shape if was_batched else shape[1:]
    if initial.h.shape != expected:
        raise ShapeError(f"initial state shape {initial.h.shape}, expected {expected}")
    return arrays, initial.h.data.reshape(shape), was_batched


def _finish(params: SelectiveParams, initial: ScanState | None, y: np.ndarray,
            h_final: np.ndarray, vjp, was_batched: bool):
    """Record y and the final state, both batched arrays, as the call's two
    tape nodes -> (y, final ScanState) in the caller's batching, the step
    counter advanced.

    ``vjp(gy, gh)`` is the kernel's adjoint: batched gradients of
    (dt, a, B, C, x, h0) for output gradients gy and gh, either None.
    """
    parents = [params.dt, params.a, params.B, params.C, params.x]
    if initial is not None:
        parents.append(initial.h)

    def grads(gy, gh):
        return [gv.reshape(p.shape).astype(p.dtype, copy=False)
                for gv, p in zip(vjp(gy, gh), parents)]

    y_shape, h_shape = y.shape, h_final.shape
    if not was_batched:
        y, h_final = y[0], h_final[0]
    dtype = params.x.dtype
    y = tz.fused(y.astype(dtype, copy=False), parents,
                 lambda g: grads(g.reshape(y_shape), None), "scan")
    h_final = tz.fused(h_final.astype(dtype, copy=False), parents,
                       lambda g: grads(None, g.reshape(h_shape)), "scan_state")
    start = initial.step_index if initial is not None else 0
    return y, ScanState(h_final, start + y_shape[1])


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
    arrays, h0, was_batched = _lift(params, initial)
    y, h_final, vjp = _recurrent(*arrays, h0, exact_zoh)
    return _finish(params, initial, y, h_final, vjp, was_batched)


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
    arrays, h0, was_batched = _lift(params, initial)
    y, h_final, vjp = _chunked(*arrays, h0, chunk_len, exact_zoh)
    return _finish(params, initial, y, h_final, vjp, was_batched)


def _recurrent(dt, a, B, C, x, h0, exact):
    """The recurrence over batched arrays -> (y [nb,T,H,P], h_final [nb,H,P,N], vjp).

    Heads are laid out as (group, head in group) so B/C rows broadcast.
    """
    nb, t, h = dt.shape
    g, n = B.shape[2], B.shape[3]
    p, hpg = x.shape[3], h // g
    zoh = discretize_zoh(dt, a, exact)
    abar = np.exp(zoh[0]).reshape(nb, t, g, hpg, 1, 1)
    cx = (x * zoh[1][..., None]).reshape(nb, t, g, hpg, p, 1)
    b_row = B.reshape(nb, t, g, 1, 1, n)
    c_row = C.reshape(nb, t, g, 1, 1, n)
    h_in = None if h0 is None else h0.reshape(nb, g, hpg, p, n)

    hs = cx * b_row  # each step's input, then (in place) the state after the step
    prev = h_in
    for s in range(t):
        if prev is not None:
            hs[:, s] += abar[:, s] * prev
        prev = hs[:, s]
    y = (hs @ c_row.swapaxes(-1, -2)).reshape(nb, t, h, p)

    def vjp(gy, gh):
        if gy is None:
            gs = np.zeros_like(hs)
            gC = np.zeros(C.shape)
        else:
            gs = gy.reshape(nb, t, g, hpg, p, 1) * c_row
            gC = (gy.reshape(nb, t, g, 1, hpg * p) @ hs.reshape(nb, t, g, hpg * p, n))
        if gh is not None:
            gs[:, -1] += gh.reshape(nb, g, hpg, p, n)
        for s in range(t - 1, 0, -1):  # the recurrence in reverse
            gs[:, s - 1] += abar[:, s] * gs[:, s]
        # gs is now each state's total gradient, which is also its input's
        gabar = np.zeros((nb, t, g, hpg))
        gabar[:, 1:] = (gs[:, 1:] * hs[:, :-1]).sum(axis=(-1, -2))
        gh0 = np.zeros((nb, h, p, n))
        if h_in is not None:
            gabar[:, 0] = (gs[:, 0] * h_in).sum(axis=(-1, -2))
            gh0 = (abar[:, 0] * gs[:, 0]).reshape(nb, h, p, n)
        v = (gs @ b_row.swapaxes(-1, -2)).reshape(nb, t, h, p)
        gB = cx.reshape(nb, t, g, 1, hpg * p) @ gs.reshape(nb, t, g, hpg * p, n)
        gz = (gabar * abar[..., 0, 0]).reshape(nb, t, h)
        gdt, ga = _zoh_grads(gz, (v * x).sum(axis=-1), dt, a, zoh)
        return gdt, ga, gB.reshape(B.shape), gC.reshape(C.shape), v * zoh[1][..., None], gh0

    return y, hs[:, -1].reshape(nb, h, p, n), vjp


def _pad_rows(v: np.ndarray, rows: int) -> np.ndarray:
    """v [nb, T, ...] with zero rows appended along T up to ``rows``."""
    extra = rows - v.shape[1]
    if not extra:
        return v
    return np.concatenate([v, np.zeros((v.shape[0], extra) + v.shape[2:], v.dtype)], axis=1)


def _chunked(dt, a, B, C, x, h0, chunk_len, exact):
    """The chunked algorithm over batched arrays -> (y [nb,T,H,P],
    h_final [nb,H,P,N], vjp).

    T is padded to whole chunks with rows of z = coef = B = C = x = 0 (decay
    1, no input), so every chunk is processed at once: per-head arrays are
    [nb, chunk, group, head in group, L, ...] and group rows carry a
    broadcast head axis of 1.
    """
    nb, t, h = dt.shape
    g, n = B.shape[2], B.shape[3]
    p, hpg = x.shape[3], h // g
    L = min(chunk_len, t)
    nc = -(-t // L)
    tp = nc * L
    zoh = discretize_zoh(dt, a, exact)

    def heads(v):  # [nb, T, H, *k] -> [nb, nc, G, hpg, L, *k], contiguous
        k = v.shape[3:]
        v = _pad_rows(v, tp).reshape((nb, nc, L, g, hpg) + k)
        return np.ascontiguousarray(v.transpose((0, 1, 3, 4, 2) + tuple(range(5, 5 + len(k)))))

    def rows(v):  # [nb, T, G, N] -> [nb, nc, G, 1, L, N], contiguous
        v = _pad_rows(v, tp).reshape(nb, nc, L, g, 1, n)
        return np.ascontiguousarray(v.transpose(0, 1, 3, 4, 2, 5))

    def unheads(v):  # inverse of heads, padding dropped
        k = v.shape[5:]
        v = v.transpose((0, 1, 4, 2, 3) + tuple(range(5, 5 + len(k))))
        return v.reshape((nb, tp, h) + k)[:, :t]

    def unrows(v):  # inverse of rows after summing the head axis
        return v[:, :, :, 0].transpose(0, 1, 3, 2, 4).reshape(nb, tp, g, n)[:, :t]

    cum = np.cumsum(heads(zoh[0]), axis=-1)  # log decay from the chunk start
    coef = heads(zoh[1])
    b_c, c_c, x_c = rows(B), rows(C), heads(x)

    # intra-chunk: y_t = sum_{s<=t} C_t.B_s exp(cum_t - cum_s) coef_s x_s
    # (in place on the [.., L, L] arrays: fresh large temporaries cost page faults)
    decay = cum[..., :, None] - cum[..., None, :]
    np.minimum(decay, 0.0, out=decay)  # the masked upper triangle stays finite
    np.exp(decay, out=decay)
    decay *= np.tri(L)
    cb = c_c @ b_c.swapaxes(-1, -2)  # [.., 1, L(t), L(s)]
    mix = cb * decay
    mix *= coef[..., None, :]
    y = mix @ x_c

    # each chunk's own contribution to the state at its end, from zero
    decay_end = np.exp(cum[..., -1:] - cum)  # prod_{r=s+1..L-1} abar_r
    w = decay_end * coef
    xw = x_c * w[..., None]
    local = xw.swapaxes(-1, -2) @ b_c  # [.., P, N]

    # the state entering each chunk, carried in float64
    decay_chunk = np.exp(cum[..., -1])  # [nb, nc, G, hpg]
    states = np.zeros((nb, nc + 1, g, hpg, p, n))
    if h0 is not None:
        states[:, 0] = h0.reshape(nb, g, hpg, p, n)
    for c in range(nc):
        states[:, c + 1] = decay_chunk[:, c, ..., None, None] * states[:, c] + local[:, c]
    decay_in = np.exp(cum)  # prod_{r<=t} abar_r within the chunk
    y_state = c_c @ states[:, :nc].swapaxes(-1, -2)
    y_state *= decay_in[..., None]
    y += y_state
    y = unheads(y)

    def vjp(gy, gh):
        if gy is None:
            gcum, gcoef = np.zeros(cum.shape), np.zeros(coef.shape)
            gx, gB, gC = np.zeros(x_c.shape), np.zeros(b_c.shape), np.zeros(c_c.shape)
            gstates = np.zeros(local.shape)
        else:
            gy_c = heads(gy)
            gcum = (gy_c * y_state).sum(axis=-1)
            # y_state = decay_in * (C @ state^T); gstates reaches each entering state
            g_raw = gy_c * decay_in[..., None]
            gstates = g_raw.swapaxes(-1, -2) @ c_c
            gC = (g_raw @ states[:, :nc]).sum(axis=3, keepdims=True)
            # y_intra = mix @ x with mix = cb * decay * coef_s
            gx = mix.swapaxes(-1, -2) @ gy_c
            gmix = gy_c @ x_c.swapaxes(-1, -2)
            gmix *= decay
            gseg = gmix * coef[..., None, :]
            gcb = gseg.sum(axis=3, keepdims=True)
            gseg *= cb  # d/d(cum_t - cum_s)
            gcum += gseg.sum(axis=-1) - gseg.sum(axis=-2)
            gmix *= cb
            gcoef = gmix.sum(axis=-2)
            gC += gcb @ b_c
            gB = gcb.swapaxes(-1, -2) @ c_c
        # the carry in reverse: glocal[c] is the gradient of the state leaving chunk c
        nxt = np.zeros(local.shape[:1] + local.shape[2:]) if gh is None else \
            gh.reshape(nb, g, hpg, p, n)
        glocal = np.empty(local.shape)
        for c in range(nc - 1, -1, -1):
            glocal[:, c] = nxt
            nxt = decay_chunk[:, c, ..., None, None] * nxt + gstates[:, c]
        gcum[..., -1] += (glocal * states[:, :nc]).sum(axis=(-1, -2)) * decay_chunk
        # local = (x * w)^T @ B with w = decay_end * coef
        gxw = (glocal @ b_c.swapaxes(-1, -2)).swapaxes(-1, -2)  # [.., L, P]
        gB += (xw @ glocal).sum(axis=3, keepdims=True)
        gw = (x_c * gxw).sum(axis=-1)
        gxw *= w[..., None]
        gx += gxw
        gcoef += gw * decay_end
        gwd = gw * w
        gcum[..., -1] += gwd.sum(axis=-1)
        gcum -= gwd
        gz = np.flip(np.cumsum(np.flip(gcum, -1), axis=-1), -1)  # cum = cumsum(z)
        gdt, ga = _zoh_grads(unheads(gz), unheads(gcoef), dt, a, zoh)
        return gdt, ga, unrows(gB), unrows(gC), unheads(gx), nxt.reshape(nb, h, p, n)

    return y, states[:, nc].reshape(nb, h, p, n), vjp


def count_flops(
    t: int,
    n: int,
    h: int,
    p: int,
    mode: str,
    g: int = 1,
    chunk_len: int = DEFAULT_CHUNK,
) -> int:
    """Analytic floating-point operation count of one forward scan.

    Counts multiplies and adds of the dominant terms of each mode as
    implemented above (exp counted as one op). The recurrent count is exactly
    linear in T; the chunked count is linear whenever chunk_len divides T.
    """
    if min(t, n, h, p, g) < 1:
        raise ContractError("dimensions must be positive")
    if mode == "recurrent":
        per_step = 5 * h * p * n + h * n + 2 * h
        return t * per_step
    if mode == "chunked":
        if chunk_len < 1:
            raise ContractError("chunk_len must be >= 1")
        if chunk_len == 1:
            return count_flops(t, n, h, p, "recurrent", g)
        total = 0
        lo = 0
        while lo < t:
            length = min(chunk_len, t - lo)
            total += _block_flops(length, n, h, p, g)
            lo += length
        return total
    if mode == "convolutional":
        return count_flops(t, n, h, p, "chunked", g, chunk_len=t)
    raise ContractError(f"unknown mode {mode!r}")


def _block_flops(length: int, n: int, h: int, p: int, g: int) -> int:
    pairwise = length * length * (2 * g * n + 5 * h + 2 * h * p)
    linear = length * (2 * h + 2 * h * n + 2 * h * n * p)
    state = length * (2 * h * n * p + h * n + 2 * h) + h * p * n + h
    return pairwise + linear + state
