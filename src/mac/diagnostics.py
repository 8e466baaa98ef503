"""Representation diagnostics and the linear-time scaling benchmark.

Analyses over a matrix of audio tokens (rows = tokens):

- normalized covariance: mean outer product of unit-normalized centered
  tokens (trace 1 by construction)
- eRank of the tokens: exp of the Shannon entropy of the normalized
  singular-value distribution of their normalized covariance, a
  feature-diversity proxy in [1, min(N, d)]
- mean pairwise cosine similarity over unordered token pairs
- per-step hidden-state update distances of adjacent audio positions, the
  Frobenius norm of each layer's state difference
- wall-clock + analytic-FLOP scaling of the scan modes over sequence length
"""

from __future__ import annotations

import csv
import io
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import blocks, checkpoint, ssd
from . import tensor as tz
from .connector import SEG_AUDIO, SEG_SEPARATOR
from .tensor import ContractError, Tensor

ZERO_NORM_EPS = 1e-12


@dataclass
class FeatureMatrix:
    """Audio tokens as rows."""

    rows: np.ndarray  # [N_tok, d]

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2:
            raise ContractError(f"feature matrix must be 2-D, got {self.rows.shape}")


def _usable_unit_rows(rows: np.ndarray, what: str) -> np.ndarray:
    norms = np.linalg.norm(rows, axis=1)
    keep = norms > ZERO_NORM_EPS
    dropped = int((~keep).sum())
    if dropped:
        warnings.warn(f"{what}: skipped {dropped} zero-norm token(s)", stacklevel=3)
    return rows[keep] / norms[keep, None]


def normalized_covariance(feats: FeatureMatrix) -> np.ndarray:
    """(1/N) sum_i u_i u_i^T with u_i the unit-normalized centered tokens.

    Tokens that coincide with the mean (norm below 1e-12 after centering)
    are skipped with a warning; N counts the surviving tokens, keeping the
    trace at exactly 1.
    """
    rows = feats.rows
    if rows.shape[0] < 2:
        raise ContractError("covariance needs at least 2 tokens")
    centered = rows - rows.mean(axis=0)
    units = _usable_unit_rows(centered, "normalized_covariance")
    if units.shape[0] == 0:
        raise ContractError("all tokens coincide with the mean; covariance undefined")
    return units.T @ units / units.shape[0]


def erank(matrix: np.ndarray) -> float:
    """exp(-sum p_i log p_i) over p = singular values / their sum.

    Zero singular values contribute nothing (0 log 0 := 0). Invariant under
    scaling and under orthogonal rotations of either side.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    sigma = np.linalg.svd(matrix, compute_uv=False)
    total = sigma.sum()
    if total <= 0:
        raise ContractError("eRank of an all-zero matrix is undefined")
    p = sigma / total
    p = p[p > 0]
    return float(np.exp(-(p * np.log(p)).sum()))


def erank_of_tokens(feats: FeatureMatrix) -> float:
    """eRank of the tokens' normalized covariance."""
    return erank(normalized_covariance(feats))


def mean_pairwise_cosine(feats: FeatureMatrix) -> float:
    """Mean cosine similarity over unordered token pairs i < j."""
    units = _usable_unit_rows(feats.rows, "mean_pairwise_cosine")
    n = units.shape[0]
    if n < 2:
        raise ContractError("cosine similarity needs at least 2 usable tokens")
    total = units.sum(axis=0)
    # sum over ordered pairs = |sum u|^2 - n; halve for unordered
    return float((total @ total - n) / (n * (n - 1)))


# -- state tracing --------------------------------------------------------------


def state_update_distances(captioner, sample):
    """Frobenius distances ||h_t - h_{t-1}|| of adjacent audio positions.

    Streams the audio span of the [audio, prompt] sequence through the LM
    one position at a time, carrying the per-block states, with each LoRA
    projection merged once for the whole span. Returns (mean
    over layers [L_a-1], per-layer [n_layers, L_a-1]).
    """
    lm = captioner.lm
    with blocks.merged_lora(lm):
        seq, _, _ = captioner.build_sequence([sample], mode="infer")
        n_audio = int(np.isin(seq.segments[0], (SEG_AUDIO, SEG_SEPARATOR)).sum())
        states = None
        trajectory = []  # per position: [n_layers, H, P, N]
        for t in range(n_audio):
            step = Tensor(seq.vectors.data[:, t : t + 1])
            _, states = lm.forward(step, states=states, return_states=True)
            trajectory.append(np.stack([st.ssm.data[0] for st in states]))
    if n_audio < 2:
        return np.zeros(0), np.zeros((len(lm.blocks), 0))
    diff = np.diff(np.stack(trajectory, axis=1), axis=1)  # [n_layers, L_a-1, H, P, N]
    per_layer = np.sqrt((diff**2).sum(axis=(2, 3, 4)))
    return per_layer.mean(axis=0), per_layer


# -- scaling benchmark -----------------------------------------------------------


def _random_params(rng: np.random.Generator, t: int, h: int, p: int, g: int, n: int):
    """A batch of one random sequence of length t."""
    return ssd.SelectiveParams(
        dt=tz._softplus(rng.standard_normal((1, t, h))),
        a=-np.exp(rng.standard_normal(h) * 0.5),
        B=rng.standard_normal((1, t, g, n)),
        C=rng.standard_normal((1, t, g, n)),
        x=rng.standard_normal((1, t, h, p)),
    )


def scaling_bench(lengths: list[int], mode: str = "recurrent", seed: int = 0):
    """Time one forward scan per length, the best of 3; returns (rows,
    fitted slope).

    rows: (T, best wall seconds, analytic FLOPs). Each scan has a state of
    16, 4 heads of width 16 and one group. The slope is the log-log fit of
    time against T; linear-time modes should sit near 1.
    """
    n, h, p, g = 16, 4, 16, 1
    if sorted(lengths) != list(lengths):
        raise ContractError("lengths must be sorted ascending")
    rng = np.random.default_rng(seed)
    rows = []
    ssd.kernel(_random_params(rng, min(lengths), h, p, g, n), mode)  # warm-up
    for t in lengths:
        params = _random_params(rng, t, h, p, g, n)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            ssd.kernel(params, mode)
            best = min(best, time.perf_counter() - t0)
        rows.append((t, best, ssd.count_flops(t, n, h, p, mode, g)))
    xs = np.log([r[0] for r in rows])
    ys = np.log([r[1] for r in rows])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return rows, slope


# -- table emission ---------------------------------------------------------------


def write_grid_csv(path: str, metric: str, cells: dict[tuple[str, str], float]) -> None:
    """model x connector grid, one row per model, one column per variant."""
    models = sorted({m for m, _ in cells})
    variants = sorted({v for _, v in cells})
    _write_csv(path, [["model"] + [f"{metric}({v})" for v in variants]] + [
        [m] + [f"{cells.get((m, v), float('nan')):.6f}" for v in variants] for m in models
    ])


def write_bench_csv(path: str, rows: list[tuple[int, float, int]], slope: float) -> None:
    _write_csv(path, [["T", "wall_time_s", "analytic_flops"]]
               + [[t, f"{wall:.6f}", flops] for t, wall, flops in rows]
               + [["fitted_slope", f"{slope:.4f}", ""]])


def write_state_csv(path: str, distances: list[np.ndarray]) -> None:
    """One row per sample and audio position t >= 1: the update distance
    between positions t-1 and t."""
    _write_csv(path, [["sample", "position", "distance"]]
               + [[i, t + 1, f"{d:.6f}"] for i, row in enumerate(distances)
                  for t, d in enumerate(row)])


def _write_csv(path: str, rows: list[list]) -> None:
    """Render the rows in memory, then swap the file in: a failed write
    leaves any previous file at ``path``."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    checkpoint.write_atomic(path, text.getvalue().encode("utf-8"))
