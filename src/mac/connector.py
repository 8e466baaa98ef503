"""Grid-to-embedding connectors: three layouts plus a two-layer MLP.

``connect`` maps a batch of encoder grids, tokens [B, T_a, F_a, d_enc], to
the audio segment of the LLM input: ``AudioRows``, the MLP's output rows for
all B clips, an index map [B, L_a] into them and the segment labels. Each
layout is an index map over one clip's time-major token rows (t * F_a + f),
with ``SEP`` marking a separator slot; the map is built in one place,
``ConnectorConfig.positions``:

- ``concatenation``: row t is time step t's F_a tokens concatenated along
  the channel axis and compressed by the MLP; the map is the identity
  -> T_a embeddings.
- ``time_major``: every token mapped by the MLP, then read (t outer, f
  inner) with one separator after every time step -> T_a * (F_a + 1).
- ``frequency_major``: read (f outer, t inner) with one separator per
  frequency band, before or after it (``sep_position``) -> (T_a + 1) * F_a.

The connector gathers nothing: ``pipeline.Captioner.build_sequence`` reads
the whole [audio, prompt, caption, pad] sequence through one index map, in
one ``tz.embedding`` from a table that holds these rows, the token table and
the separator, the trainable embedding of the reserved "&&" token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .tensor import ContractError, ShapeError, Tensor

VARIANTS = ("concatenation", "time_major", "frequency_major")

SEG_AUDIO = "audio"
SEG_SEPARATOR = "separator"
SEG_PROMPT = "prompt"
SEG_CAPTION = "caption"
SEG_PAD = "pad"

SEP = -1  # the separator's slot in a layout's index map


@dataclass
class ConnectorConfig:
    variant: str
    d_enc: int
    grid_t: int
    grid_f: int
    d_model: int
    hidden_mult: int
    sep_position: str  # frequency_major bands: separator before/after

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ContractError(f"unknown connector variant {self.variant!r}")
        if self.sep_position not in ("prefix", "suffix"):
            raise ContractError(f"sep_position must be prefix or suffix, got {self.sep_position!r}")

    @property
    def mlp_in(self) -> int:
        if self.variant == "concatenation":
            return self.grid_f * self.d_enc
        return self.d_enc

    def positions(self) -> np.ndarray:
        """One clip's audio positions -> [L_a] indices into its MLP output
        rows, ``SEP`` where the separator goes."""
        t_a, f_a = self.grid_t, self.grid_f
        if self.variant == "concatenation":
            return np.arange(t_a)
        grid = np.arange(t_a * f_a).reshape(t_a, f_a)
        if self.variant == "time_major":
            return np.concatenate([grid, np.full((t_a, 1), SEP)], axis=1).reshape(-1)
        bands, seps = grid.T, np.full((f_a, 1), SEP)
        parts = [seps, bands] if self.sep_position == "prefix" else [bands, seps]
        return np.concatenate(parts, axis=1).reshape(-1)


@dataclass
class AudioRows:
    """The audio segment of a batch: clip r's position l is row
    ``index[r, l]`` of the MLP outputs of all B clips, or the separator
    where it is ``SEP``."""

    rows: Tensor  # [B * R, d_model]
    index: np.ndarray  # [B, L_a] int64
    segments: np.ndarray  # [B, L_a] object array of SEG_* labels

    def __len__(self) -> int:
        return self.index.shape[1]


@dataclass
class EmbeddingSequence:
    """A batch of model-dimension embedding rows with per-position labels.

    Rows are right-padded to a common length L; ``segments`` reads
    ``SEG_PAD`` past each row's end.
    """

    vectors: Tensor  # [B, L, d_model]
    segments: np.ndarray  # [B, L] object array of SEG_* labels

    def __post_init__(self):
        if self.vectors.shape[:2] != self.segments.shape:
            raise ShapeError(
                f"vectors {self.vectors.shape} but segment labels {self.segments.shape}"
            )

    def __len__(self) -> int:
        return self.segments.shape[1]


class ConnectorMlp:
    """linear -> GELU -> linear, shared across positions."""

    def __init__(self, cfg: ConnectorConfig, rng: np.random.Generator):
        d_in, hidden, d_out = cfg.mlp_in, cfg.hidden_mult * cfg.d_model, cfg.d_model
        self.w1 = Tensor(rng.standard_normal((d_in, hidden)) / np.sqrt(d_in))
        self.b1 = tz.zeros((hidden,))
        self.w2 = Tensor(rng.standard_normal((hidden, d_out)) / np.sqrt(hidden))
        self.b2 = tz.zeros((d_out,))

    def parameters(self) -> dict[str, Tensor]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2}


_GELU_C = math.sqrt(2.0 / math.pi)


def _gelu(pre: np.ndarray, t: np.ndarray) -> np.ndarray:
    """tanh-approximation GELU 0.5 x (1 + t) from x and its t =
    tanh(c (x + 0.044715 x^3))."""
    out = t + 1.0
    out *= 0.5 * pre
    return out


def mlp_forward(x: Tensor, mlp: ConnectorMlp) -> Tensor:
    """Rows [N, d_in] -> gelu(x w1 + b1) w2 + b2, [N, d_model].

    One tape node. It keeps the pre-activation and its tanh, and not the
    GELU output: the adjoint rebuilds that by the forward's own operations,
    so every gradient is the one the composed ops would give, bit for bit.
    """
    if x.ndim != 2 or x.shape[1] != mlp.w1.shape[0]:
        raise ShapeError(f"MLP input {x.shape} is not rows of the weight dim {mlp.w1.shape[0]}")
    w1, b1, w2, b2 = mlp.w1, mlp.b1, mlp.w2, mlp.b2
    pre = x.data @ w1.data
    pre += b1.data
    t = pre * pre  # the tanh's argument, then the tanh
    t *= pre
    t *= 0.044715
    t += pre
    t *= _GELU_C
    np.tanh(t, out=t)
    out = _gelu(pre, t) @ w2.data
    out += b2.data

    def vjp(g):
        gw2 = _gelu(pre, t).T @ g if w2.requires_grad else None
        gb2 = g.sum(axis=0) if b2.requires_grad else None
        gh = g @ w2.data.T
        slope = pre * pre  # d inner / dx = c (1 + 3 * 0.044715 x^2)
        slope *= 3 * 0.044715
        slope += 1.0
        slope *= _GELU_C
        factor = t * t  # 0.5 x (1 - t^2) d inner / dx + 0.5 (1 + t)
        np.subtract(1.0, factor, out=factor)
        factor *= 0.5 * pre
        factor *= slope
        np.add(t, 1.0, out=slope)
        slope *= 0.5
        factor += slope
        gpre = np.multiply(gh, factor, out=factor if factor.dtype == gh.dtype else None)
        return [gpre @ w1.data.T if x.requires_grad else None,
                x.data.T @ gpre if w1.requires_grad else None,
                gpre.sum(axis=0) if b1.requires_grad else None, gw2, gb2]

    return tz.fused(out, [x, w1, b1, w2, b2], vjp)


def connect(tokens: Tensor, cfg: ConnectorConfig, mlp: ConnectorMlp) -> AudioRows:
    """Map encoder tokens [B, T_a, F_a, d_enc] to the audio segment of the
    LLM input sequence: L_a positions per clip, read from the MLP rows."""
    if tokens.ndim != 4 or tokens.shape[1:] != (cfg.grid_t, cfg.grid_f, cfg.d_enc):
        raise ShapeError(
            f"tokens {tokens.shape} do not match connector config "
            f"[B, {cfg.grid_t}, {cfg.grid_f}, {cfg.d_enc}]"
        )
    b = tokens.shape[0]
    pos = cfg.positions()
    labels = np.where(pos == SEP, SEG_SEPARATOR, SEG_AUDIO).astype(object)
    rows = cfg.grid_t if cfg.variant == "concatenation" else cfg.grid_t * cfg.grid_f
    mapped = mlp_forward(tz.reshape(tokens, (b * rows, cfg.mlp_in)), mlp)
    index = np.where(pos == SEP, SEP, pos + rows * np.arange(b)[:, None])
    return AudioRows(mapped, index, np.broadcast_to(labels, index.shape))
