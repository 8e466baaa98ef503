"""Mamba-2 style blocks, LoRA adapters, and the stacked language model.

Block dataflow (residual added by the caller / the stack):

    in_proj -> [gate z | conv channels | step-size raw]
    conv channels -> depthwise causal conv -> silu -> [head inputs | B | C]
    selective scan (any mode) + per-head skip
    y * silu(z) -> RMS norm -> out_proj

The base projection weights stay frozen during fine-tuning; low-rank
adapters on in_proj and out_proj carry the trainable update.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    fixed at 2*rank, so it is 2 at every rank."""

    down: Tensor
    up: Tensor
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


def lora_apply(base: Tensor, adapter: LoraAdapter | None, x: Tensor) -> Tensor:
    """x @ base plus the scaled low-rank update; base receives no gradient."""
    y = tz.matmul(x, base)
    if adapter is None:
        return y
    delta = tz.matmul(tz.matmul(x, adapter.down), adapter.up)
    return tz.add(y, tz.mul(delta, adapter.scale))


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

    def forward(
        self,
        x: Tensor,
        mode: str = "chunked",
        chunk_len: int = ssd.DEFAULT_CHUNK,
        state: BlockState | None = None,
    ) -> tuple[Tensor, BlockState]:
        """x: [B, T, D] -> (out [B, T, D], state after the last position).

        The residual is added by the caller. Passing the returned state back
        as ``state`` continues the sequence where this call stopped; no state
        is a zero state (a cold start).
        """
        cfg = self.cfg
        if x.ndim != 3 or x.shape[-1] != cfg.d_model:
            raise ShapeError(f"block input {x.shape}, expected [B, T, {cfg.d_model}]")
        b, t, _ = x.shape
        di, gn, k = cfg.d_model, cfg.n_groups * cfg.d_state, cfg.conv_width

        proj = self.in_proj(x)
        z = proj[:, :, :di]
        xbc_raw = proj[:, :, di : di + cfg.conv_dim]
        dt_raw = proj[:, :, di + cfg.conv_dim :]

        if state is None:
            prefix, initial = tz.zeros((b, k - 1, cfg.conv_dim), dtype=xbc_raw.dtype), None
        else:
            prefix, initial = state.conv_tail, state.ssm
        xbc = tz.silu(tz.conv1d_depthwise_causal(xbc_raw, self.conv_w, self.conv_b, prefix))
        xs = tz.reshape(xbc[:, :, :di], (b, t, cfg.n_heads, cfg.head_dim))
        bmat = tz.reshape(xbc[:, :, di : di + gn], (b, t, cfg.n_groups, cfg.d_state))
        cmat = tz.reshape(xbc[:, :, di + gn :], (b, t, cfg.n_groups, cfg.d_state))

        dt = tz.softplus(tz.add(dt_raw, self.dt_bias))
        a = tz.neg(tz.exp(self.log_a))
        params = ssd.SelectiveParams(dt=dt, a=a, B=bmat, C=cmat, x=xs)
        y, final = ssd.scan(params, mode, chunk_len, initial=initial)

        y = tz.add(y, tz.mul(xs, tz.reshape(self.skip, (1, 1, cfg.n_heads, 1))))
        y = tz.reshape(y, (b, t, di))
        gated = tz.mul(y, tz.silu(z))
        out = self.out_proj(tz.rms_norm(gated, self.gate_norm))

        # the last K-1 rows of [prefix, x], built from at most K-1 rows of x
        tail_src = tz.concat([prefix, xbc_raw[:, max(t - (k - 1), 0) :, :]], axis=1)
        new_tail = tail_src[:, tail_src.shape[1] - (k - 1) :, :]
        return out, BlockState(ssm=final, conv_tail=new_tail)

    __call__ = forward


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

    def forward(
        self,
        embs: Tensor,
        mode: str = "chunked",
        chunk_len: int = ssd.DEFAULT_CHUNK,
        states: list[BlockState] | None = None,
        return_states: bool = False,
    ):
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
            y, ns = blk.forward(tz.rms_norm(x, blk.res_norm), mode=mode,
                                chunk_len=chunk_len, state=st)
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


def lora_parameters(lm: SsmLm) -> dict[str, Tensor]:
    out = {}
    for i, blk in enumerate(lm.blocks):
        for proj_name, proj in (("in_proj", blk.in_proj), ("out_proj", blk.out_proj)):
            if proj.adapter is not None:
                out[f"blocks.{i}.{proj_name}.lora.down"] = proj.adapter.down
                out[f"blocks.{i}.{proj_name}.lora.up"] = proj.adapter.up
    return out

