"""Grid-to-embedding connectors: three layouts plus a two-layer MLP.

Given an encoder grid of (T_a x F_a) tokens, the connector produces the
audio embedding sequence fed to the language model:

- ``concatenation``: each time step's F_a tokens are concatenated along
  the channel axis and compressed by the MLP -> T_a embeddings.
- ``time_major``: tokens ordered (t outer, f inner), each mapped by the
  MLP, with one separator embedding after every time step
  -> T_a * (F_a + 1) embeddings.
- ``frequency_major``: tokens ordered (f outer, t inner), one separator
  per frequency band -> (T_a + 1) * F_a embeddings.

The separator is the trainable embedding of the reserved "&&" token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as tz
from .audio import AudioTokenGrid
from .tensor import ContractError, ShapeError, Tensor

VARIANTS = ("concatenation", "time_major", "frequency_major")

SEG_AUDIO = "audio"
SEG_SEPARATOR = "separator"
SEG_PROMPT = "prompt"
SEG_CAPTION = "caption"


@dataclass
class ConnectorConfig:
    variant: str = "concatenation"
    d_enc: int = 64
    grid_t: int = 16
    grid_f: int = 8
    d_model: int = 64
    hidden_mult: int = 4
    sep_position: str = "prefix"  # frequency_major bands: separator before/after

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

    @property
    def out_length(self) -> int:
        if self.variant == "concatenation":
            return self.grid_t
        if self.variant == "time_major":
            return self.grid_t * (self.grid_f + 1)
        return (self.grid_t + 1) * self.grid_f  # frequency_major


@dataclass
class EmbeddingSequence:
    """Model-dimension embedding rows with per-position segment labels."""

    vectors: Tensor  # [L, d_model]
    segments: list[str]

    def __post_init__(self):
        if self.vectors.shape[0] != len(self.segments):
            raise ShapeError(
                f"{self.vectors.shape[0]} vectors but {len(self.segments)} segment labels"
            )

    def __len__(self) -> int:
        return len(self.segments)


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


def mlp_forward(x: Tensor, mlp: ConnectorMlp) -> Tensor:
    if x.shape[-1] != mlp.w1.shape[0]:
        raise ShapeError(f"MLP input dim {x.shape[-1]} != weight dim {mlp.w1.shape[0]}")
    h = tz.gelu(tz.add(tz.matmul(x, mlp.w1), mlp.b1))
    return tz.add(tz.matmul(h, mlp.w2), mlp.b2)


def connect(grid: AudioTokenGrid, cfg: ConnectorConfig, mlp: ConnectorMlp,
            sep_embedding: Tensor) -> EmbeddingSequence:
    """Map an encoder grid to the audio segment of the LLM input sequence."""
    if (grid.grid_t, grid.grid_f, grid.dim) != (cfg.grid_t, cfg.grid_f, cfg.d_enc):
        raise ShapeError(
            f"grid {grid.grid_t}x{grid.grid_f}x{grid.dim} does not match connector "
            f"config {cfg.grid_t}x{cfg.grid_f}x{cfg.d_enc}"
        )
    if sep_embedding.shape != (cfg.d_model,):
        raise ShapeError(f"separator embedding {sep_embedding.shape}, expected ({cfg.d_model},)")
    t_a, f_a = cfg.grid_t, cfg.grid_f

    if cfg.variant == "concatenation":
        rows = tz.reshape(grid.tokens, (t_a, f_a * cfg.d_enc))
        return EmbeddingSequence(mlp_forward(rows, mlp), [SEG_AUDIO] * t_a)

    sep_row = tz.reshape(sep_embedding, (1, cfg.d_model))

    if cfg.variant == "time_major":
        mapped = mlp_forward(tz.reshape(grid.tokens, (t_a * f_a, cfg.d_enc)), mlp)
        parts, segments = [], []
        for t in range(t_a):
            parts.append(mapped[t * f_a : (t + 1) * f_a, :])
            parts.append(sep_row)
            segments.extend([SEG_AUDIO] * f_a + [SEG_SEPARATOR])
        return EmbeddingSequence(tz.concat(parts, axis=0), segments)

    # frequency_major: f outer, t inner; one separator slot per band
    by_band = tz.reshape(tz.transpose(grid.tokens, (1, 0, 2)), (f_a * t_a, cfg.d_enc))
    mapped = mlp_forward(by_band, mlp)
    parts, segments = [], []
    for f in range(f_a):
        band = mapped[f * t_a : (f + 1) * t_a, :]
        if cfg.sep_position == "prefix":
            parts.extend([sep_row, band])
            segments.extend([SEG_SEPARATOR] + [SEG_AUDIO] * t_a)
        else:
            parts.extend([band, sep_row])
            segments.extend([SEG_AUDIO] * t_a + [SEG_SEPARATOR])
    return EmbeddingSequence(tz.concat(parts, axis=0), segments)
