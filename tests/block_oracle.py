"""The composed Mamba block: the test oracle of ``mac.blocks``' fused kernels.

This is the block ``mac.blocks`` ran before it became one fused node and
each LoRA projection one matmul by the merged weight, kept as it was: every
step is a taped ``Tensor`` op (the LoRA matmuls, slices, the composed conv
of ``tensor_oracle``, ``silu``, ``softplus``, the scan, skip, gate and
``rms_norm``), so its outputs and gradients come from the generic autograd
tape. The scan is ``ssd_oracle.scan``, the chunked scan composed from taped
ops, not ``mac.ssd``'s kernel: the scan adjoint inside the fused block is
checked against the tape, never against itself.
"""

from __future__ import annotations

import numpy as np

from mac import tensor as tz
from mac.blocks import BlockState, LoraAdapter, MambaBlock
from mac.tensor import Tensor

from ssd_oracle import TapedParams, scan
from tensor_oracle import conv1d_depthwise_causal, exp, mul, neg, silu, softplus, take


def lora_apply(base: Tensor, adapter: LoraAdapter, x: Tensor) -> Tensor:
    """x @ base plus the scaled low-rank update (x @ down) @ up."""
    delta = tz.matmul(tz.matmul(x, adapter.down), adapter.up)
    return tz.add(tz.matmul(x, base), mul(delta, adapter.scale))


def block_forward(blk: MambaBlock, x: Tensor,
                  state: BlockState | None = None) -> tuple[Tensor, BlockState]:
    """``MambaBlock.forward`` composed from taped ops: x [B, T, D] ->
    (out [B, T, D], state after the last position)."""
    cfg = blk.cfg
    b, t, _ = x.shape
    di, gn, k = cfg.d_model, cfg.n_groups * cfg.d_state, cfg.conv_width

    proj = lora_apply(blk.in_proj.base, blk.in_proj.adapter, x)
    z = take(proj, np.s_[:, :, :di])
    xbc_raw = take(proj, np.s_[:, :, di : di + cfg.conv_dim])
    dt_raw = take(proj, np.s_[:, :, di + cfg.conv_dim :])

    if state is None:
        prefix, initial = tz.zeros((b, k - 1, cfg.conv_dim), dtype=xbc_raw.dtype), None
    else:
        prefix, initial = state.conv_tail, state.ssm
    xbc = silu(conv1d_depthwise_causal(xbc_raw, blk.conv_w, blk.conv_b, prefix)[0])
    xs = tz.reshape(take(xbc, np.s_[:, :, :di]), (b, t, cfg.n_heads, cfg.head_dim))
    bmat = tz.reshape(take(xbc, np.s_[:, :, di : di + gn]), (b, t, cfg.n_groups, cfg.d_state))
    cmat = tz.reshape(take(xbc, np.s_[:, :, di + gn :]), (b, t, cfg.n_groups, cfg.d_state))

    dt = softplus(tz.add(dt_raw, blk.dt_bias))
    a = neg(exp(blk.log_a))
    y, final = scan(TapedParams(dt=dt, a=a, B=bmat, C=cmat, x=xs), initial=initial)

    y = tz.add(y, mul(xs, tz.reshape(blk.skip, (1, 1, cfg.n_heads, 1))))
    y = tz.reshape(y, (b, t, di))
    gated = mul(y, silu(z))
    out = lora_apply(blk.out_proj.base, blk.out_proj.adapter, tz.rms_norm(gated, blk.gate_norm))

    tail_src = tz.concat([prefix, take(xbc_raw, np.s_[:, max(t - (k - 1), 0) :, :])], axis=1)
    new_tail = take(tail_src, np.s_[:, tail_src.shape[1] - (k - 1) :, :])
    return out, BlockState(ssm=final, conv_tail=new_tail)
