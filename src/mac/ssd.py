"""Selective state-space kernels: discretization and two scan algorithms.

The underlying transform, per head, is the linear recurrence

    h_t = abar_t * h_{t-1} + bbar_t (x) x_t        (outer product over N x P)
    y_t = C_t . h_t

with per-token step sizes ``dt`` (positive), a per-head negative decay rate
``a`` (scalar-times-identity state matrix), and input-dependent coupling
rows B_t / readout rows C_t shared across heads within a group. It is
discretized by the Mamba-2 rule (SSD): abar = exp(dt*a), bbar = dt*B.

Two algorithms compute it, under three mode names (``MODES``) that produce
identical outputs and final states:

- ``scan_recurrent``      step-by-step recurrence
- ``scan_chunked``        semiseparable matmul inside fixed-length chunks,
                          recurrence across chunk boundaries
- ``scan_convolutional``  the chunked algorithm with one chunk of length T:
                          the full lower-triangular semiseparable operator

This module is arrays in, arrays out, over a batch of nb sequences:
``SelectiveParams`` holds numpy arrays with a leading batch axis, the
initial state is an array [nb, H, P, N] or None for a zero state, and
``kernel``, the one entry point, returns arrays. Feeding the returned final
state back as ``initial`` of a later call equals one uninterrupted scan
(streaming contract). ``kernel`` holds the one rule from mode name and T to
algorithm: the chunk length is capped at T, and a chunk length of 1 runs
the recurrence. The three ``scan_*`` wrappers name the modes and return
``(y, h)`` without the adjoint.

The chunked algorithm is one numpy forward plus the one hand-written
adjoint, which returns the gradients of dt, B, C, x and the initial state
together, with the cross-chunk carry run in reverse. ``a`` is a constant
of the scan: the block's ``log_a`` is frozen, so nothing differentiates it.
The forward keeps for the adjoint only what one elementwise pass cannot
rebuild; the adjoint rebuilds the intra-chunk operator and x times the
end-of-chunk weights, and takes each multiply-then-sum reduction as one
``np.einsum`` pass (see ``_chunked``). The recurrence is forward only:
its gradient is the chunked adjoint at chunk length 1, and no training
path reaches it (a training sequence is >= 2 tokens).
Nothing here records on the autograd tape. The Mamba block of
``mac.blocks``, the one caller that differentiates a scan, calls ``kernel``
with the default mode inside its own fused node, so a one-token decode
step runs the recurrence and a longer sequence runs in chunks of
``DEFAULT_CHUNK``. At T = 1 the recurrence is one straight-line update per
head with no loop, and the checks are ndarray reductions, so a decode
step's scan is a fixed handful of numpy calls and builds no adjoint until
one is asked for. The scans composed from taped ``Tensor`` ops that these
kernels replaced are the test suite's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ContractError, ShapeError

DEFAULT_CHUNK = 16
MODES = ("recurrent", "chunked", "convolutional")


@dataclass
class SelectiveParams:
    """Per-layer inputs of the selective scan over a batch of nb sequences.

    dt: [nb, T, H]     step sizes, strictly positive (softplus output)
    a:  [H]            continuous-time decay rates, strictly negative,
                       shared across the batch
    B:  [nb, T, G, N]  input coupling, one row per parameter group
    C:  [nb, T, G, N]  output readout, one row per parameter group
    x:  [nb, T, H, P]  head inputs
    """

    dt: np.ndarray
    a: np.ndarray
    B: np.ndarray
    C: np.ndarray
    x: np.ndarray

    @property
    def batched(self) -> bool:
        """Whether dt, B and x have the ranks above; ``dims`` refuses any other."""
        return self.dt.ndim == 3 and self.B.ndim == 4 and self.x.ndim == 4

    def dims(self) -> tuple[int, int, int, int, int]:
        """(T, H, P, G, N) after shape validation."""
        if not self.batched:
            raise ShapeError(
                f"expected dt [nb, T, H], B [nb, T, G, N] and x [nb, T, H, P], got "
                f"dt {self.dt.shape}, B {self.B.shape}, x {self.x.shape}"
            )
        nb, t, h = self.dt.shape
        g, n = self.B.shape[2:]
        p = self.x.shape[3]
        if self.a.shape != (h,):
            raise ShapeError(f"a has shape {self.a.shape}, expected ({h},)")
        if self.B.shape[:2] != (nb, t) or self.C.shape != self.B.shape:
            raise ShapeError(f"B/C shapes {self.B.shape}/{self.C.shape} disagree with "
                             f"(nb,T)=({nb},{t})")
        if self.x.shape[:3] != (nb, t, h):
            raise ShapeError(f"x shape {self.x.shape} disagrees with (nb,T,H)=({nb},{t},{h})")
        if h % g != 0:
            raise ShapeError(f"heads {h} not divisible by groups {g}")
        return t, h, p, g, n

    def validate(self) -> None:
        self.dims()
        if (self.dt <= 0).any():
            raise ContractError("dt must be strictly positive")
        if (self.a >= 0).any():
            raise ContractError("a must be strictly negative")


def kernel(params: SelectiveParams, mode: str = "chunked", chunk_len: int = DEFAULT_CHUNK,
           initial: np.ndarray | None = None):
    """The one rule from mode name to array kernel: validate the call, then
    run it -> (y [nb, T, H, P], h [nb, H, P, N] in x's dtype, vjp).

    ``initial`` is the state [nb, H, P, N] entering the scan, None for a
    zero state. ``recurrent`` asks for a chunk length of 1, ``chunked`` for
    ``chunk_len`` and ``convolutional`` for T. The chunk length run is that
    one capped at T, and a chunk length of 1 runs the recurrence. So the
    Mamba block of ``mac.blocks``, which always calls the default
    (``chunked``, ``DEFAULT_CHUNK``), runs a one-token decode step as the
    recurrence and a longer sequence in chunks of ``DEFAULT_CHUNK``. The
    other modes serve the wrappers, ``mac bench --mode`` and the tests.
    ``vjp(gy, gh)`` returns the gradients of (dt, B, C, x, h0) for output
    gradients gy and gh, either None. The recurrence's is the chunked
    adjoint at chunk length 1, the same transform, built only when called:
    a decode step does no extra work.
    """
    params.validate()
    dt, a, B, C, x = params.dt, params.a, params.B, params.C, params.x
    nb, t, h = dt.shape
    if t == 0:
        raise ShapeError("scan over an empty sequence")
    shape = (nb, h, x.shape[3], B.shape[3])
    if initial is not None and initial.shape != shape:
        raise ShapeError(f"initial state shape {initial.shape}, expected {shape}")
    step = _chunk_len(mode, chunk_len, t)
    if step > 1:
        y, h_final, vjp = _chunked(dt, a, B, C, x, initial, step)
    else:
        y, h_final = _recurrent(dt, a, B, C, x, initial)

        def vjp(gy, gh):
            return _chunked(dt, a, B, C, x, initial, 1)[2](gy, gh)
    return y, h_final.astype(x.dtype, copy=False), vjp


def _chunk_len(mode: str, chunk_len: int, t: int) -> int:
    """The chunk length a scan of T = ``t`` runs; 1 is the recurrence."""
    if mode not in MODES:
        raise ContractError(f"unknown scan mode {mode!r}")
    if mode == "chunked" and chunk_len < 1:
        raise ContractError(f"chunk_len must be >= 1, got {chunk_len}")
    return min({"recurrent": 1, "chunked": chunk_len, "convolutional": t}[mode], t)


def scan_recurrent(params: SelectiveParams, initial: np.ndarray | None = None):
    """Step-by-step evaluation of the recurrence -> (y [nb, T, H, P], h [nb, H, P, N])."""
    return kernel(params, "recurrent", initial=initial)[:2]


def scan_convolutional(params: SelectiveParams, initial: np.ndarray | None = None):
    """Whole-sequence evaluation through the semiseparable operator.

    For time-invariant parameters this is convolution by the kernel
    (C bbar, C abar bbar, C abar^2 bbar, ...); with selective parameters the
    kernel generalizes to the lower-triangular operator
    y_t = sum_{s<=t} C_t . (prod_{r=s+1..t} abar_r) bbar_s x_s.
    That operator is one chunk of the chunked algorithm, so this is
    ``scan_chunked`` with ``chunk_len = T``: O(T^2), any initial state.
    """
    return kernel(params, "convolutional", initial=initial)[:2]


def scan_chunked(params: SelectiveParams, chunk_len: int = DEFAULT_CHUNK,
                 initial: np.ndarray | None = None):
    """Chunked evaluation: semiseparable matmuls inside each chunk, state
    carried across chunk boundaries by the recurrence.

    The carried state is held in float64 even when inputs are float32 so
    cross-chunk roundoff does not compound. A chunk length of 1, given or
    capped by T = 1, degenerates to the recurrent path and runs it.
    """
    return kernel(params, "chunked", chunk_len, initial)[:2]


def _recurrent(dt, a, B, C, x, h0):
    """The recurrence over batched arrays -> (y [nb,T,H,P], h_final [nb,H,P,N]),
    forward only. Heads are laid out as (group, head in group) so B/C rows
    broadcast.
    """
    nb, t, h = dt.shape
    g, n = B.shape[2], B.shape[3]
    p, hpg = x.shape[3], h // g
    abar = np.exp(dt * a).reshape(nb, t, g, hpg, 1, 1)
    cx = (x * dt[..., None]).reshape(nb, t, g, hpg, p, 1)

    # each step's input, then (in place, through a view) the state after the
    # step; a one-token decode step is the first update alone, with no loop
    hs = cx * B.reshape(nb, t, g, 1, 1, n)
    if h0 is not None:
        first = hs[:, 0]
        first += abar[:, 0] * h0.reshape(nb, g, hpg, p, n)
    for s in range(1, t):
        state = hs[:, s]
        state += abar[:, s] * hs[:, s - 1]
    y = (hs @ C.reshape(nb, t, g, 1, 1, n).swapaxes(-1, -2)).reshape(nb, t, h, p)
    return y, hs[:, -1].reshape(nb, h, p, n)


def _chunked(dt, a, B, C, x, h0, L):
    """The chunked algorithm over batched arrays, in chunks of length
    L <= T -> (y [nb,T,H,P], h_final [nb,H,P,N], vjp).

    T is padded to whole chunks with rows of dt = B = C = x = 0 (decay 1,
    no input), so every chunk is processed at once: per-head arrays are
    [nb, chunk, group, head in group, L, ...] and group rows carry a
    broadcast head axis of 1.

    For ``vjp`` the forward keeps the cumulative log decay and the decays
    taken from it (the masked [L, L] one included), the chunk-layout dt
    (``coef``, as bbar = coef * B), x, B and C, C.B, the end-of-chunk
    weights and the carried states. The adjoint rebuilds from them, by the
    forward's own operations, the intra-chunk operator (``mixer``) and x
    times the weights. Each of its multiply-then-sum reductions is one
    ``np.einsum`` pass; the readout of the entering states reaches cum as
    C times the product that C's own gradient sums, so it is not rebuilt.
    Both cross-chunk carries, of the states forward and of their gradients
    in reverse, run in place on chunk-major arrays.
    """
    nb, t, h = dt.shape
    g, n = B.shape[2], B.shape[3]
    p, hpg = x.shape[3], h // g
    nc, full = -(-t // L), t // L  # chunks, and those with no padding row

    def chunks(v):  # [nb, T, G*m, *k] -> [nb, nc, G, m, L, *k] in one copy
        k = v.shape[3:]
        out = np.empty((nb, nc, g, v.shape[2] // g, L) + k, v.dtype)
        by_row = out.transpose((0, 1, 4, 2, 3) + tuple(range(5, 5 + len(k))))
        by_row[:, :full] = v[:, : full * L].reshape(by_row[:, :full].shape)
        if full < nc:
            last, rest = by_row[:, full], t - full * L
            last[:, :rest] = v[:, full * L :].reshape(last[:, :rest].shape)
            last[:, rest:] = 0
        return out

    def unchunks(v):  # inverse of chunks, padding dropped
        k = v.shape[5:]
        v = v.transpose((0, 1, 4, 2, 3) + tuple(range(5, 5 + len(k))))
        return v.reshape((nb, nc * L, -1) + k)[:, :t]

    cum = np.cumsum(chunks(dt * a), axis=-1)  # log decay from the chunk start
    coef = chunks(dt)
    b_c, c_c, x_c = chunks(B), chunks(C), chunks(x)

    # intra-chunk: y_t = sum_{s<=t} C_t.B_s exp(cum_t - cum_s) coef_s x_s
    # (in place on the [.., L, L] arrays: fresh large temporaries cost page faults)
    decay = cum[..., :, None] - cum[..., None, :]
    np.minimum(decay, 0.0, out=decay)  # the masked upper triangle stays finite
    np.exp(decay, out=decay)
    decay *= np.tri(L)
    cb = c_c @ b_c.swapaxes(-1, -2)  # [.., 1, L(t), L(s)]

    def mixer():  # cb * decay * coef_s, the intra-chunk operator
        mix = cb * decay
        mix *= coef[..., None, :]
        return mix

    y = mixer() @ x_c

    # states[c] enters chunk c, carried in float64 and stored chunk-major so
    # each step of the carry is contiguous: each chunk's own contribution to
    # the state at its end, (x * w)^T @ B from zero, is written in place and
    # the decayed entering state added to it
    decay_end = np.exp(cum[..., -1:] - cum)  # prod_{r=s+1..L-1} abar_r
    w = decay_end * coef
    states = np.empty((nc + 1, nb, g, hpg, p, n))
    states[0] = 0.0 if h0 is None else h0.reshape(nb, g, hpg, p, n)
    np.matmul((x_c * w[..., None]).swapaxes(-1, -2), b_c, out=states[1:].swapaxes(0, 1))
    entering = states[:nc].swapaxes(0, 1)  # [nb, nc, G, hpg, P, N]
    decay_chunk = np.exp(cum[..., -1])  # [nb, nc, G, hpg]
    decay_step = decay_chunk.transpose(1, 0, 2, 3)[..., None, None]  # chunk-major
    for c in range(nc):
        states[c + 1] += decay_step[c] * states[c]
    decay_in = np.exp(cum)  # prod_{r<=t} abar_r within the chunk

    # each position's readout of the state entering its chunk
    y_state = c_c @ entering.swapaxes(-1, -2)
    y_state *= decay_in[..., None]
    y += y_state
    del y_state
    y = unchunks(y)

    def vjp(gy, gh):
        if gy is None:
            gcum, gcoef = np.zeros(cum.shape), np.zeros(coef.shape)
            gx, gB, gC = np.zeros(x_c.shape), np.zeros(b_c.shape), np.zeros(c_c.shape)
            gstates = np.zeros(entering.shape)
        else:
            # each large temporary is dropped once used: a lower peak leaves
            # less fresh heap to be faulted in
            gy_c = chunks(gy)
            # y_state = decay_in * (C @ state^T): g_raw reaches each entering
            # state, C and, through decay_in, cum
            g_raw = gy_c * decay_in[..., None]
            gstates = g_raw.swapaxes(-1, -2) @ c_c
            g_cs = g_raw @ entering  # [.., L, N]
            del g_raw
            gC = g_cs.sum(axis=3, keepdims=True)
            gcum = np.einsum("...ln,...ln->...l", g_cs, c_c)
            del g_cs
            # y_intra = mix @ x with mix = cb * decay * coef_s
            gx = mixer().swapaxes(-1, -2) @ gy_c
            gmix = gy_c @ x_c.swapaxes(-1, -2)
            del gy_c
            gmix *= decay
            gcb = np.einsum("...hts,...hs->...ts", gmix, coef)[:, :, :, None]
            gmix *= cb  # now gcoef's terms; times coef_s, those of d/d(cum_t - cum_s)
            gcoef = np.einsum("...ts->...s", gmix)
            gcum += np.einsum("...ts,...s->...t", gmix, coef)
            del gmix
            gcum -= gcoef * coef
            gC += gcb @ b_c
            gB = gcb.swapaxes(-1, -2) @ c_c
        # the carry in reverse, in place, chunk-major and in the width of its
        # terms: carry[c + 1] becomes the gradient of the state leaving chunk
        # c and carry[0] that of h0
        last = np.float64 if gh is None else gh
        carry = np.empty(states.shape, np.result_type(decay_chunk, gstates, last))
        carry[:nc] = gstates.swapaxes(0, 1)
        carry[nc] = 0.0 if gh is None else gh.reshape(nb, g, hpg, p, n)
        del gstates
        for c in range(nc - 1, -1, -1):
            carry[c] += decay_step[c] * carry[c + 1]
        glocal = carry[1:].swapaxes(0, 1)
        gcum[..., -1] += np.einsum("...pn,...pn->...", glocal, entering) * decay_chunk
        # the state's own term (x * w)^T @ B with w = decay_end * coef
        gxw = b_c @ glocal.swapaxes(-1, -2)  # [.., L, P]
        gB += ((x_c * w[..., None]) @ glocal).sum(axis=3, keepdims=True)
        gw = np.einsum("...lp,...lp->...l", x_c, gxw)
        gxw *= w[..., None]
        gx += gxw
        del gxw
        gcoef += gw * decay_end
        gwd = gw * w
        gcum[..., -1] += gwd.sum(axis=-1)
        gcum -= gwd
        gz = np.flip(np.cumsum(np.flip(gcum, -1), axis=-1), -1)  # cum = cumsum(z)
        gdt = unchunks(gz) * a + unchunks(gcoef)  # z = dt * a, coef = dt
        return gdt, unchunks(gB), unchunks(gC), unchunks(gx), carry[0].reshape(nb, h, p, n)

    return y, states[nc].reshape(nb, h, p, n), vjp


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

    Counts multiplies and adds of the dominant terms of the algorithm
    ``kernel`` runs for ``mode`` at this T (exp counted as one op), by the
    same rule: a chunk length capped at T, and 1 for the recurrence. The
    recurrent count is exactly linear in T; the chunked count is linear
    whenever chunk_len divides T.
    """
    if min(t, n, h, p, g) < 1:
        raise ContractError("dimensions must be positive")
    step = _chunk_len(mode, chunk_len, t)
    if step == 1:
        return t * (5 * h * p * n + h * n + 2 * h)
    return sum(_block_flops(min(step, t - lo), n, h, p, g) for lo in range(0, t, step))


def _block_flops(length: int, n: int, h: int, p: int, g: int) -> int:
    pairwise = length * length * (2 * g * n + 5 * h + 2 * h * p)
    linear = length * (2 * h + 2 * h * n + 2 * h * n * p)
    state = length * (2 * h * n * p + h * n + 2 * h) + h * p * n + h
    return pairwise + linear + state
