"""Mamba-2 style blocks, LoRA adapters, and the stacked language model.

Block dataflow (residual added by the caller / the stack):

    in_proj (LoRA) -> [gate z | conv channels | step-size raw]
    conv channels -> depthwise causal conv, and its next tail
    silu -> [head inputs | B | C], dt = softplus(raw + bias),
    a = -exp(log_a), selective scan + per-head skip,
    y * silu(z) -> RMS norm -> out_proj (LoRA)

``MambaBlock.forward`` runs all of it as one numpy forward with one
hand-written adjoint, recorded as one fused tape node per output: the block
output, the final scan state and the conv tail, so gradients also flow
through carried states. Its array kernels are ``lora_apply`` (one matmul by
the merged weight ``base + scale * down @ up``), ``tz.conv1d_depthwise_causal``
and ``ssd.kernel``, which picks the scan from the sequence length: a
one-token step runs the recurrence, a longer sequence the chunked scan.

The node keeps only what its adjoint cannot rebuild in one elementwise pass
from arrays it already holds: the in_proj output, the conv output, the
skip-added scan output y, the gate norm's r (one entry per row) and the
scan's own arrays. The adjoint rebuilds the sigmoids, the gate norm's xhat
and the out_proj input by the forward's own operations, so every result is
the same as when they were kept, and it writes in_proj's output gradient
into one buffer. A training forward thus records three nodes per block
(pre-norm, block, residual add), whatever the batch and sequence length.

Under ``no_grad`` the same function is the streaming decode step and keeps
nothing: the recurrence for one token is one update per head, and the conv
takes the next conv tail from its own padded [tail, x], so a step costs a
fixed number of numpy calls per block. A state is never written in place:
each step returns new arrays. A decode call merges each weight once, on
entering ``merged_lora``, and every step inside reuses it. The composed
block these kernels replaced is the test suite's oracle.

The node differentiates only what fine-tuning trains: its parents are the
block input, the down/up factors of the in_proj and out_proj adapters and a
carried state when one is passed. The base projections, the conv weight and
bias, ``dt_bias``, ``log_a``, ``skip`` and ``gate_norm`` stay frozen, as
``Captioner`` flags them when it is built: the node reads them as
constants, so no gradient reaches them even where one is asked for.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import ssd
from . import tensor as tz
from .tensor import ContractError, ShapeError, Tensor


@dataclass
class LmConfig:
    """The LM's shape; its width is n_heads * head_dim, both outside and
    inside a block."""

    n_layers: int
    n_heads: int
    head_dim: int
    d_state: int
    n_groups: int
    vocab_size: int
    conv_width: int

    def __post_init__(self):
        if self.n_heads % self.n_groups != 0:
            raise ShapeError(f"n_heads {self.n_heads} not divisible by n_groups {self.n_groups}")

    @property
    def d_model(self) -> int:
        return self.n_heads * self.head_dim

    @property
    def conv_dim(self) -> int:
        return self.d_model + 2 * self.n_groups * self.d_state

    @property
    def d_in_proj(self) -> int:
        return 2 * self.d_model + 2 * self.n_groups * self.d_state + self.n_heads


@dataclass
class LoraAdapter:
    """Low-rank update scale * down @ up; the scale is alpha/rank with alpha
    fixed at 2*rank, so it is 2 at every rank. ``merged`` holds the merged
    weight inside ``merged_lora`` and is None everywhere else."""

    down: Tensor
    up: Tensor
    merged: np.ndarray | None = field(default=None, repr=False, compare=False)
    scale = 2.0

    @staticmethod
    def init(d_in: int, d_out: int, rank: int, rng: np.random.Generator) -> "LoraAdapter":
        if rank <= 0:
            raise ContractError(f"LoRA rank must be positive, got {rank}")
        # down gets a small random start, up starts at zero so the adapted
        # projection is exactly the base projection at initialization
        down = Tensor(rng.standard_normal((d_in, rank)) / np.sqrt(d_in))
        up = tz.zeros((rank, d_out))
        return LoraAdapter(down=down, up=up)


def _merged_weight(base: Tensor, adapter: LoraAdapter) -> np.ndarray:
    """base + scale * down @ up, the weight an adapted projection multiplies by."""
    return base.data + adapter.scale * (adapter.down.data @ adapter.up.data)


def lora_apply(base: Tensor, adapter: LoraAdapter | None,
               x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x @ W for W = base + scale * down @ up, one matmul by the merged
    weight (W = base without an adapter) -> (x @ W, W).

    Arrays in, arrays out: the Mamba block's fused node records it, and its
    adjoint (``_lora_grads``) multiplies by the returned W. Inside
    ``merged_lora`` the weight merged on entry is W as it is.
    """
    if adapter is None:
        weight = base.data
    else:
        weight = adapter.merged if adapter.merged is not None else _merged_weight(base, adapter)
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"LoRA input {x.shape} does not match weight {weight.shape}")
    return x @ weight, weight


def _lora_grads(adapter: LoraAdapter | None, weight: np.ndarray, x: np.ndarray,
                g: np.ndarray) -> list:
    """Gradients of ``lora_apply``'s input x and, with an adapter, of its
    down and up factors, for output gradient g. A frozen factor gets None;
    the base weight is a constant and gets none."""
    g2 = g.reshape(-1, g.shape[-1])
    grads = [(g2 @ weight.T).reshape(x.shape)]
    if adapter is not None:
        x2 = x.reshape(-1, x.shape[-1])
        down, up, scale = adapter.down, adapter.up, adapter.scale
        grads += [scale * (x2.T @ (g2 @ up.data.T)) if down.requires_grad else None,
                  scale * ((x2 @ down.data).T @ g2) if up.requires_grad else None]
    return grads


class LoraLinear:
    """Frozen base matrix with an optional trainable low-rank adapter."""

    def __init__(self, base: Tensor, adapter: LoraAdapter | None = None):
        self.base = base
        self.adapter = adapter

    def parameters(self) -> dict[str, Tensor]:
        out = {"base": self.base}
        if self.adapter is not None:
            out["lora.down"] = self.adapter.down
            out["lora.up"] = self.adapter.up
        return out


@dataclass
class BlockState:
    """Streaming state of one block: scan state h + conv tail (last K-1 inputs)."""

    ssm: Tensor
    conv_tail: Tensor


class MambaBlock:
    def __init__(self, cfg: LmConfig, rng: np.random.Generator):
        d, k = cfg.d_model, cfg.conv_width
        self.cfg = cfg
        self.res_norm = tz.ones((d,))
        self.in_proj = LoraLinear(Tensor(rng.standard_normal((d, cfg.d_in_proj)) / np.sqrt(d)))
        self.conv_w = Tensor(rng.uniform(-1.0, 1.0, (k, cfg.conv_dim)) / np.sqrt(k))
        self.conv_b = tz.zeros((cfg.conv_dim,))
        # step sizes start log-uniform in [1e-3, 1e-1] (inverse softplus)
        dt0 = np.exp(rng.uniform(np.log(1e-3), np.log(1e-1), cfg.n_heads))
        self.dt_bias = Tensor(np.log(np.expm1(dt0)))
        self.log_a = Tensor(np.log(rng.uniform(1.0, 16.0, cfg.n_heads)))
        self.skip = tz.ones((cfg.n_heads,))
        self.gate_norm = tz.ones((d,))
        self.out_proj = LoraLinear(
            Tensor(rng.standard_normal((d, d)) / np.sqrt(d) / np.sqrt(2.0 * cfg.n_layers))
        )

    def parameters(self) -> dict[str, Tensor]:
        out = {
            "res_norm": self.res_norm,
            "conv.weight": self.conv_w,
            "conv.bias": self.conv_b,
            "dt_bias": self.dt_bias,
            "log_a": self.log_a,
            "skip": self.skip,
            "gate_norm": self.gate_norm,
        }
        for k, v in self.in_proj.parameters().items():
            out[f"in_proj.{k}"] = v
        for k, v in self.out_proj.parameters().items():
            out[f"out_proj.{k}"] = v
        return out

    def forward(self, x: Tensor, state: BlockState | None = None) -> tuple[Tensor, BlockState]:
        """x: [B, T, D] -> (out [B, T, D], state after the last position).

        The residual is added by the caller. Passing the returned state back
        as ``state`` continues the sequence where this call stopped; no state
        is a zero state (a cold start). One numpy forward and one adjoint,
        recorded as one fused node per output (see the module docstring).
        """
        cfg = self.cfg
        if x.ndim != 3 or x.shape[-1] != cfg.d_model:
            raise ShapeError(f"block input {x.shape}, expected [B, T, {cfg.d_model}]")
        b, t, _ = x.shape
        di, cd, gn = cfg.d_model, cfg.conv_dim, cfg.n_groups * cfg.d_state
        h, p, k = cfg.n_heads, cfg.head_dim, cfg.conv_width
        in_proj, out_proj, gate_norm = self.in_proj, self.out_proj, self.gate_norm.data

        proj, w_in = lora_apply(in_proj.base, in_proj.adapter, x.data)
        if state is None:
            prefix, initial = np.zeros((b, k - 1, cd), proj.dtype), None
        else:
            prefix, initial = state.conv_tail.data, state.ssm.data
        pre, tail = tz.conv1d_depthwise_causal(proj[..., di : di + cd], self.conv_w.data,
                                               self.conv_b.data, prefix)
        xbc = pre * tz._sigmoid(pre)
        xs = xbc[..., :di].reshape(b, t, h, p)
        dt = tz._softplus(proj[..., di + cd :] + self.dt_bias.data)
        params = ssd.SelectiveParams(
            dt=dt, a=-np.exp(self.log_a.data), x=xs,
            B=xbc[..., di : di + gn].reshape(b, t, cfg.n_groups, cfg.d_state),
            C=xbc[..., di + gn :].reshape(b, t, cfg.n_groups, cfg.d_state))
        y, h_end, scan_vjp = ssd.kernel(params, initial=initial)
        skip = self.skip.data[:, None]
        y = (y.astype(xs.dtype, copy=False) + xs * skip).reshape(b, t, di)
        del xbc, xs, params  # the scan keeps its own chunk-layout copies
        zg = proj[..., :di]
        mixed, r, _ = tz._rms_norm(y * (zg * tz._sigmoid(zg)), gate_norm)
        out, w_out = lora_apply(out_proj.base, out_proj.adapter, mixed)
        del mixed  # rebuilt by the adjoint

        in_lora, out_lora = ([] if lin.adapter is None else [lin.adapter.down, lin.adapter.up]
                             for lin in (in_proj, out_proj))
        carried = [] if state is None else [state.ssm, state.conv_tail]
        parents = [x, *in_lora, *out_lora, *carried]  # the frozen weights are constants

        def vjp(g_out, g_h, g_tail):
            # the sigmoids, the gate norm's xhat and out_proj's input are
            # rebuilt here from the kept proj, conv output, y and r by the
            # forward's own operations, so every result is as if kept
            g_mix = [None] * len(out_lora)
            g_z = g_conv = g_dt = gh0 = None
            if g_tail is None:
                gy = None
                if g_out is not None:
                    s_z = tz._sigmoid(zg)
                    xhat = y * (zg * s_z)
                    xhat *= r
                    g_mixed, *g_mix = _lora_grads(out_proj.adapter, w_out, xhat * gate_norm, g_out)
                    gy = tz._rms_norm_grad(g_mixed, gate_norm, r, xhat)  # of y * silu(z)
                    del g_mixed, xhat
                    g_z = _silu_slope(zg, s_z)
                    g_z *= gy
                    g_z *= y
                    gy *= zg
                    gy *= s_z
                    gy = gy.reshape(b, t, h, p)
                gdt, gB, gC, gx, gh0 = scan_vjp(gy, g_h)
                if gy is not None:
                    gx += gy * skip
                # the conv output's gradient: silu's slope, each part's
                # gradient multiplied into its columns
                g_conv = _silu_slope(pre, tz._sigmoid(pre))
                for lo, part in ((0, gx), (di, gB), (di + gn, gC)):
                    part = part.reshape(b, t, -1)
                    g_conv[..., lo : lo + part.shape[-1]] *= part
                del gy, gx, gB, gC  # a lower peak leaves less fresh heap to fault in
                g_dt = gdt * tz._sigmoid(proj[..., di + cd :] + self.dt_bias.data)  # softplus'
            # in_proj's output gradient, one buffer: the conv adjoint writes its
            # part, and each other part is added to its zeros, as the sum of
            # the parts' separate buffers was
            g_proj = np.zeros(proj.shape, proj.dtype)
            g_prefix = None if state is None else np.zeros(prefix.shape, prefix.dtype)
            if g_tail is not None:  # the tail is the last K-1 rows of [prefix, x]
                cut = max(k - 1 - t, 0)
                g_proj[..., t - (k - 1 - cut) :, di : di + cd] += g_tail[..., cut:, :]
                if g_prefix is not None:
                    g_prefix[..., t:, :] += g_tail[..., :cut, :]
            else:
                if g_z is not None:
                    g_proj[..., :di] += g_z
                g_proj[..., di + cd :] += g_dt
                tz._conv1d_input_grad(g_conv, self.conv_w.data, g_proj[..., di : di + cd],
                                      g_prefix)
            g_state = [] if state is None else [
                None if gh0 is None else gh0.astype(state.ssm.dtype, copy=False), g_prefix]
            return [*_lora_grads(in_proj.adapter, w_in, x.data, g_proj), *g_mix, *g_state]

        return (tz.fused(out, parents, lambda g: vjp(g, None, None)),
                BlockState(ssm=tz.fused(h_end, parents, lambda g: vjp(None, g, None)),
                           conv_tail=tz.fused(tail, parents, lambda g: vjp(None, None, g))))

    __call__ = forward


def _silu_slope(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d silu(v)/dv = s (1 + v (1 - s)) from v and its sigmoid s, as a new array."""
    out = 1.0 - s
    out *= v
    out += 1.0
    out *= s
    return out


class SsmLm:
    """Residual stack of blocks with RMS pre-norm, final norm, and an LM
    head tied to the token table.

    The input is a sequence of model-dimension embedding vectors, so audio
    embeddings can bypass the token table entirely.
    """

    def __init__(self, cfg: LmConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_model
        self.embedding = Tensor(rng.standard_normal((cfg.vocab_size, d)) / np.sqrt(d))
        self.blocks = [MambaBlock(cfg, rng) for _ in range(cfg.n_layers)]
        self.final_norm = tz.ones((d,))

    def parameters(self) -> dict[str, Tensor]:
        out = {"embedding": self.embedding, "final_norm": self.final_norm}
        for i, blk in enumerate(self.blocks):
            for k, v in blk.parameters().items():
                out[f"blocks.{i}.{k}"] = v
        return out

    def forward(self, embs: Tensor, states: list[BlockState] | None = None,
                return_states: bool = False):
        """embs: [B, T, D] -> logits [B, T, vocab], or (logits, per-block
        states) with ``return_states``; ``states`` continues a sequence."""
        if embs.ndim != 3 or embs.shape[-1] != self.cfg.d_model:
            raise ShapeError(
                f"embedding input {embs.shape}, expected [B, T, {self.cfg.d_model}]"
            )
        x = embs
        new_states = []
        for i, blk in enumerate(self.blocks):
            st = states[i] if states is not None else None
            y, ns = blk.forward(tz.rms_norm(x, blk.res_norm), state=st)
            new_states.append(ns)
            x = tz.add(x, y)
        x = tz.rms_norm(x, self.final_norm)
        logits = tz.matmul(x, Tensor(self.embedding.data.T))  # the tied head is frozen
        return (logits, new_states) if return_states else logits

    __call__ = forward


def attach_lora(lm: SsmLm, rank: int, rng: np.random.Generator) -> None:
    """Attach fresh adapters to in_proj and out_proj of every block."""
    for blk in lm.blocks:
        blk.in_proj.adapter = LoraAdapter.init(blk.cfg.d_model, blk.cfg.d_in_proj, rank, rng)
        blk.out_proj.adapter = LoraAdapter.init(blk.cfg.d_model, blk.cfg.d_model, rank, rng)


@contextmanager
def merged_lora(lm: SsmLm):
    """Inference with every LoRA projection of ``lm`` merged once.

    Enters ``tz.no_grad()`` and sets each adapter's merged weight on entry,
    so a projection inside is one matmul however many forwards run. The
    weights are cleared on exit, also when the body raises, so a training
    step never sees one.
    """
    projs = [proj for blk in lm.blocks for proj in (blk.in_proj, blk.out_proj)
             if proj.adapter is not None]
    with tz.no_grad():
        try:
            for proj in projs:
                proj.adapter.merged = _merged_weight(proj.base, proj.adapter)
            yield
        finally:
            for proj in projs:
                proj.adapter.merged = None

