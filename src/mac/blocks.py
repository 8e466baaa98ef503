"""Mamba-2 style blocks, LoRA adapters, and the stacked language model.

Block dataflow (residual added by the caller / the stack):

    in_proj (LoRA) -> [gate z | conv channels | step-size raw]
    conv channels -> depthwise causal conv, and its next tail  (tape ops)
    mixer: silu -> [head inputs | B | C], dt = softplus(raw + bias),
           a = -exp(log_a), selective scan + per-head skip,
           y * silu(z) -> RMS norm                      (one fused node)
    -> out_proj (LoRA)

The mixer is one numpy forward and one hand-written adjoint (``_mixer``)
that runs the scan through ``ssd.kernel``; it records two tape nodes, its
output and the final scan state. The kernel picks the algorithm from the
sequence length: a one-token step runs the recurrence, a longer sequence
the chunked scan. Under ``no_grad`` the same code is the streaming decode
step: the recurrence for one token is one update per head, and the conv
takes the next conv tail from its own padded [tail, x], so a step costs a
fixed number of numpy calls per block. A state is never written in place:
each step returns new arrays. A LoRA projection is one matmul by the
merged weight ``base + scale * down @ up``. A training forward thus
records a fixed number of nodes per block, whatever the batch and
sequence length. A decode call merges each weight once, on entering
``merged_lora``, and every step inside reuses it. The composed block these kernels replaced
is the test suite's oracle.

The base projection weights stay frozen during fine-tuning; low-rank
adapters on in_proj and out_proj carry the trainable update.
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


def lora_apply(base: Tensor, adapter: LoraAdapter | None, x: Tensor) -> Tensor:
    """x @ (base + scale * down @ up): one matmul by the merged weight.

    One tape node. The adapter's gradients go through its rank-r factors;
    a frozen base (``requires_grad`` False) receives no gradient. Inside
    ``merged_lora`` the weight merged on entry is used as it is.
    """
    if adapter is None:
        return tz.matmul(x, base)
    down, up, scale = adapter.down.data, adapter.up.data, adapter.scale
    weight = adapter.merged if adapter.merged is not None else _merged_weight(base, adapter)
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(f"LoRA input {x.shape} does not match weight {weight.shape}")

    def vjp(g):
        g2 = g.reshape(-1, g.shape[-1])
        x2 = x.data.reshape(-1, x.shape[-1])
        return [(g2 @ weight.T).reshape(x.shape),
                x2.T @ g2 if base.requires_grad else None,
                scale * (x2.T @ (g2 @ up.T)), scale * ((x2 @ down).T @ g2)]

    return tz.fused(x.data @ weight, [x, base, adapter.down, adapter.up], vjp)


class LoraLinear:
    """Frozen base matrix with an optional trainable low-rank adapter."""

    def __init__(self, base: Tensor, adapter: LoraAdapter | None = None):
        self.base = base
        self.adapter = adapter

    def __call__(self, x: Tensor) -> Tensor:
        return lora_apply(self.base, self.adapter, x)

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
        is a zero state (a cold start).
        """
        cfg = self.cfg
        if x.ndim != 3 or x.shape[-1] != cfg.d_model:
            raise ShapeError(f"block input {x.shape}, expected [B, T, {cfg.d_model}]")
        b, di, k = x.shape[0], cfg.d_model, cfg.conv_width

        proj = self.in_proj(x)
        if state is None:
            prefix, initial = tz.zeros((b, k - 1, cfg.conv_dim), dtype=proj.dtype), None
        else:
            prefix, initial = state.conv_tail, state.ssm
        conv, tail = tz.conv1d_depthwise_causal(proj[:, :, di : di + cfg.conv_dim],
                                                self.conv_w, self.conv_b, prefix)
        mixed, final = _mixer(self, proj, conv, initial)
        return self.out_proj(mixed), BlockState(ssm=final, conv_tail=tail)

    __call__ = forward


def _silu_slope(v: np.ndarray, s: np.ndarray) -> np.ndarray:
    """d silu(v)/dv = s (1 + v (1 - s)) from v and its sigmoid s, as a new array."""
    out = 1.0 - s
    out *= v
    out += 1.0
    out *= s
    return out


def _mixer(blk: MambaBlock, proj: Tensor, conv: Tensor,
           initial: Tensor | None) -> tuple[Tensor, Tensor]:
    """The block interior from the conv output to the out_proj input.

    proj [B, T, d_in_proj] is the in_proj output (its gate z and step-size
    columns are read here), conv [B, T, conv_dim] the causal conv output.
    -> (RMS-normed gated output [B, T, D], final scan state [B, H, P, N]),
    two tape nodes with one adjoint. The forward keeps what the adjoint
    reads (the silu and gate sigmoids, softplus' input, the skip-added scan
    output, the norm's r and xhat) and recomputes only products of them and
    softplus' slope, which only the adjoint reads.
    """
    cfg = blk.cfg
    b, t, _ = conv.shape
    di, gn, h, p = cfg.d_model, cfg.n_groups * cfg.d_state, cfg.n_heads, cfg.head_dim
    pre, zg = conv.data, proj.data[..., :di]
    s_pre = tz._sigmoid(pre)
    xbc = pre * s_pre
    xs = xbc[..., :di].reshape(b, t, h, p)
    dt_pre = proj.data[..., di + cfg.conv_dim :] + blk.dt_bias.data
    dt = tz._softplus(dt_pre)
    a = -np.exp(blk.log_a.data)
    params = ssd.SelectiveParams(
        dt=dt, a=a, x=xs,
        B=xbc[..., di : di + gn].reshape(b, t, cfg.n_groups, cfg.d_state),
        C=xbc[..., di + gn :].reshape(b, t, cfg.n_groups, cfg.d_state))
    y, h_end, scan_vjp = ssd.kernel(params, initial=None if initial is None else initial.data)
    skip = blk.skip.data[:, None]
    y = (y.astype(xs.dtype, copy=False) + xs * skip).reshape(b, t, di)
    s_z = tz._sigmoid(zg)
    out, r, xhat = tz._rms_norm(y * (zg * s_z), blk.gate_norm.data)

    parents = [proj, conv, blk.dt_bias, blk.log_a, blk.skip, blk.gate_norm]
    if initial is not None:
        parents.append(initial)

    def vjp(g_out, g_h):
        if g_out is None:
            gy, g_z = None, 0.0
            g_norm, g_skip = np.zeros(di), np.zeros(h)
        else:
            gy = tz._rms_norm_grad(g_out, blk.gate_norm.data, r, xhat)  # of y * silu(z)
            g_norm = (g_out * xhat).sum(axis=(0, 1)) if blk.gate_norm.requires_grad else None
            g_z = _silu_slope(zg, s_z)
            g_z *= gy
            g_z *= y
            gy *= zg
            gy *= s_z
            gy = gy.reshape(b, t, h, p)
            g_skip = (gy * xs).sum(axis=(0, 1, 3)) if blk.skip.requires_grad else None
        gdt, ga, gB, gC, gx, gh0 = scan_vjp(gy, g_h)
        if gy is not None:
            gx += gy * skip
        g_pre = np.concatenate([gx.reshape(b, t, di), gB.reshape(b, t, gn),
                                gC.reshape(b, t, gn)], axis=-1)
        del gy, gx, gB, gC  # a lower peak leaves less fresh heap to fault in
        g_pre *= _silu_slope(pre, s_pre)
        g_dt = gdt * tz._sigmoid(dt_pre)  # softplus' slope, from the forward's input
        g_proj = np.zeros(proj.shape)
        g_proj[..., :di] = g_z
        g_proj[..., di + cfg.conv_dim :] = g_dt
        grads = [g_proj, g_pre, g_dt.sum(axis=(0, 1)), ga * a, g_skip, g_norm, gh0]
        return [None if gv is None else gv.reshape(q.shape).astype(q.dtype, copy=False)
                for gv, q in zip(grads, parents)]

    return (tz.fused(out, parents, lambda g: vjp(g, None)),
            tz.fused(h_end.astype(xs.dtype, copy=False), parents, lambda g: vjp(None, g)))


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
        logits = tz.matmul(x, tz.transpose(self.embedding, (1, 0)))
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

