"""The per-sample front-end, kept as the oracle of the batch path.

Each clip is turned into a mel image, encoded, connected, embedded and padded
on its own, as the front-end did before it took whole batches: one encoder
pass per clip, one slice per time step or frequency band in the connector,
and a pad-and-concatenate loop over the built sequences. Its mel image is
the whole-clip STFT that the blocked ``audio.melspectrogram`` replaced. It
reads the weights of a ``Captioner`` and shares no cache with it; it keeps
its own mel images, which depend on the clip alone. ``test_frontend.py``
compares the batch path against it.

``encode_batch`` is the batch encoder as a composition of taped ops, one
node per matmul, bias, ReLU and re-patching reshape: the oracle of the one
fused node that ``audio.encode`` records. Its first layer is one matmul per
clip, concatenated, so the first weight's gradient sums the clips' products
in clip order, as the fused adjoint does. It reads ``audio.patch_rows``'
nested row order, in which each layer's patches are runs of consecutive rows
of the output below. ``encode`` cuts every layer's patches out of the mel
image itself, with no nesting, and so checks that layout independently. The
connector MLP here is the composed one of ``tensor_oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mac import audio as audiomod
from mac import synth
from mac import tensor as tz
from mac.connector import SEG_AUDIO, SEG_CAPTION, SEG_PROMPT, SEG_SEPARATOR
from mac.tensor import ContractError, ShapeError, Tensor
from tensor_oracle import mlp_forward, mul, relu, take, transpose


def melspectrogram(waveform) -> audiomod.MelSpec:
    """Log-mel of 1-D samples from one whole-clip frame matrix and spectrum."""
    samples = waveform.data if isinstance(waveform, Tensor) else np.asarray(waveform)
    samples = samples.astype(np.float64)
    if samples.size < audiomod.STFT_WIN:
        samples = audiomod.fit_length(samples, audiomod.STFT_WIN)
    win, hop = audiomod.STFT_WIN, audiomod.STFT_HOP
    n_frames = 1 + (samples.size - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)
    spec = np.abs(np.fft.rfft(samples[idx] * window, n=audiomod.STFT_NFFT, axis=1)) ** 2
    mel = spec @ audiomod.mel_filterbank().T
    return audiomod.MelSpec(np.log(mel + audiomod.LOG_FLOOR))


@dataclass
class AudioTokenGrid:
    """Encoder output as (time x frequency x channels) before flattening.

    Flattening order is fixed and time-major: token index = t * grid_f + f.
    """

    tokens: Tensor

    @property
    def grid_t(self) -> int:
        return self.tokens.shape[0]

    @property
    def grid_f(self) -> int:
        return self.tokens.shape[1]

    @property
    def dim(self) -> int:
        return self.tokens.shape[2]

    def flat(self) -> Tensor:
        return tz.reshape(self.tokens, (self.grid_t * self.grid_f, self.dim))


def encode(mel: audiomod.MelSpec, encoder: audiomod.CnnEncoder) -> AudioTokenGrid:
    """Run the patch stack over one mel image -> AudioTokenGrid."""
    t, f = mel.frames.shape
    x = tz.reshape(Tensor(mel.frames), (t, f, 1))
    for i, ((pt, pf), (w, b)) in enumerate(zip(encoder.cfg.patches, encoder.layers)):
        t, f, c = x.shape
        if t % pt or f % pf:
            raise ShapeError(
                f"encoder layer {i}: input {t}x{f} not divisible by patch {pt}x{pf}"
            )
        x = tz.reshape(x, (t // pt, pt, f // pf, pf, c))
        x = transpose(x, (0, 2, 1, 3, 4))
        x = tz.reshape(x, (t // pt * (f // pf), pt * pf * c))
        x = tz.add(tz.matmul(x, w), b)
        if i < len(encoder.layers) - 1:
            x = relu(x)
        x = tz.reshape(x, (t // pt, f // pf, w.shape[1]))
    return AudioTokenGrid(x)


def encode_batch(rows, encoder: audiomod.CnnEncoder) -> Tensor:
    """Run the patch stack over B clips -> tokens [B, T_a, F_a, d_enc].

    ``rows`` holds the clips' ``patch_rows``, one array per clip. A frozen
    encoder is the caller's ``tz.no_grad()`` around this call: off the tape,
    no gradient can reach the encoder weights.
    """
    cfg = encoder.cfg
    (w, bias), last = encoder.layers[0], len(encoder.layers) - 1
    x = tz.concat([tz.matmul(Tensor(r), w) for r in rows], axis=0)
    for i, ((pt, pf), (w, bias)) in enumerate(zip(cfg.patches, encoder.layers)):
        if i:  # in nested order a patch is pt * pf consecutive rows of the output below
            x = tz.reshape(x, (x.shape[0] // (pt * pf), pt * pf * x.shape[1]))
            x = tz.matmul(x, w)
        x = tz.add(x, bias)
        if i < last:
            x = relu(x)
    return tz.reshape(x, (len(rows), cfg.grid_t, cfg.grid_f, x.shape[1]))


def connect(grid: AudioTokenGrid, cfg, mlp, sep_embedding: Tensor) -> tuple[Tensor, list[str]]:
    """One grid -> (audio rows [L_a, D], their segment labels)."""
    if (grid.grid_t, grid.grid_f, grid.dim) != (cfg.grid_t, cfg.grid_f, cfg.d_enc):
        raise ShapeError(
            f"grid {grid.grid_t}x{grid.grid_f}x{grid.dim} does not match connector "
            f"config {cfg.grid_t}x{cfg.grid_f}x{cfg.d_enc}"
        )
    t_a, f_a = cfg.grid_t, cfg.grid_f

    if cfg.variant == "concatenation":
        rows = tz.reshape(grid.tokens, (t_a, f_a * cfg.d_enc))
        return mlp_forward(rows, mlp), [SEG_AUDIO] * t_a

    sep_row = tz.reshape(sep_embedding, (1, cfg.d_model))

    if cfg.variant == "time_major":
        mapped = mlp_forward(tz.reshape(grid.tokens, (t_a * f_a, cfg.d_enc)), mlp)
        parts, segments = [], []
        for t in range(t_a):
            parts.append(take(mapped, np.s_[t * f_a : (t + 1) * f_a, :]))
            parts.append(sep_row)
            segments.extend([SEG_AUDIO] * f_a + [SEG_SEPARATOR])
        return tz.concat(parts, axis=0), segments

    # frequency_major: f outer, t inner; one separator slot per band
    by_band = tz.reshape(transpose(grid.tokens, (1, 0, 2)), (f_a * t_a, cfg.d_enc))
    mapped = mlp_forward(by_band, mlp)
    parts, segments = [], []
    for f in range(f_a):
        band = take(mapped, np.s_[f * t_a : (f + 1) * t_a, :])
        if cfg.sep_position == "prefix":
            parts.extend([sep_row, band])
            segments.extend([SEG_SEPARATOR] + [SEG_AUDIO] * t_a)
        else:
            parts.extend([band, sep_row])
            segments.extend([SEG_AUDIO] * t_a + [SEG_SEPARATOR])
    return tz.concat(parts, axis=0), segments


_MELS: dict = {}  # (clip, mel_frames) -> MelSpec; a mel depends on no weight


def audio_grid(cap, sample) -> AudioTokenGrid:
    """One clip's grid, encoded on its own (no grid cache)."""
    key = (repr(sorted(sample.audio.items())), cap.enc_cfg.mel_frames)
    if key not in _MELS:
        if "wav" in sample.audio:
            wave = audiomod.load_wav(sample.audio["wav"])
        else:
            wave = Tensor(synth.render(sample.audio["synthetic"]))
        _MELS[key] = melspectrogram(wave).pad_to(cap.enc_cfg.mel_frames)
    if cap.cfg["train.encoder_trainable"]:
        return encode(_MELS[key], cap.encoder)
    with tz.no_grad():  # a frozen encoder runs off the tape
        return encode(_MELS[key], cap.encoder)


def embed_tokens(cap, ids) -> Tensor:
    """Token table rows, with the "&&" row replaced by the separator embedding."""
    ids = np.asarray(ids, dtype=np.int64)
    base = tz.embedding([cap.lm.embedding], ids)
    sep_mask = (ids == cap.vocab.sep_id).astype(base.dtype)[:, None]
    if sep_mask.any():
        sep_row = tz.reshape(cap.sep_embedding, (1, cap.lm_cfg.d_model))
        base = tz.add(mul(base, 1.0 - sep_mask), mul(sep_row, Tensor(sep_mask)))
    return base


def build_sequence(cap, sample, mode: str = "train"):
    """-> (vectors [L, D], segments, targets [L] int64, loss mask [L] float)."""
    vectors, segments = connect(audio_grid(cap, sample), cap.conn_cfg, cap.mlp,
                                cap.sep_embedding)
    prompt_ids = cap.vocab.encode(sample.prompt)
    parts = [vectors, embed_tokens(cap, prompt_ids)]
    segments = list(segments) + [SEG_PROMPT] * len(prompt_ids)

    if mode == "infer":
        length = len(segments)
        return (tz.concat(parts, axis=0), segments,
                np.zeros(length, dtype=np.int64), np.zeros(length, dtype=np.float64))
    if mode != "train":
        raise ContractError(f"unknown sequence mode {mode!r}")
    if not sample.caption:
        raise ContractError("training sample has an empty caption")

    cap_ids = cap.vocab.encode(sample.caption)
    parts.append(embed_tokens(cap, cap_ids))
    segments += [SEG_CAPTION] * len(cap_ids)

    length = len(segments)
    targets = np.zeros(length, dtype=np.int64)
    mask = np.zeros(length, dtype=np.float64)
    first = length - len(cap_ids) - 1  # last prompt position predicts word 1
    for i, tok in enumerate(cap_ids + [cap.vocab.eos_id]):
        targets[first + i] = tok
        mask[first + i] = 1.0
    return tz.concat(parts, axis=0), segments, targets, mask


def pad_and_stack(built: list) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Per-sample sequences -> (embeddings [B, L, D] zero-padded, targets, mask)."""
    length = max(len(segments) for _, segments, _, _ in built)
    d_model = built[0][0].shape[1]
    rows, targets, masks = [], [], []
    for vec, segments, tgt, msk in built:
        pad = length - len(segments)
        if pad:
            vec = tz.concat([vec, tz.zeros((pad, d_model), dtype=vec.dtype)], axis=0)
        rows.append(tz.reshape(vec, (1, length, d_model)))
        targets.append(np.pad(tgt, (0, pad)))
        masks.append(np.pad(msk, (0, pad)))
    return tz.concat(rows, axis=0), np.stack(targets), np.stack(masks)


def batch_forward(cap, samples, mode: str = "train"):
    """-> (logits [B, L, V], targets [B, L], mask [B, L])."""
    embs, targets, mask = pad_and_stack([build_sequence(cap, s, mode) for s in samples])
    logits = cap.lm.forward(embs)
    return logits, targets, mask
