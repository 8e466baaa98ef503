"""Audio ingestion: RIFF/WAVE decoding, mel front-end, CNN patch encoder.

The decode path is waveform -> 128-bin log-mel -> first-layer patch rows
-> strided patch encoder. The encoder takes a whole batch, one patch-row
array per clip, and produces tokens [B, T_a, F_a, d_enc]: a (time x
frequency x channels) grid per clip. Its first layer reads each clip's
array in place, and the layers above run once over the batch. The rows are
in nested order, so each later layer's patches are runs of consecutive rows
of the output below and every layer reads its input as a view: the one
transpose is the mel image's, into a clip's first-layer rows. The encoder
is one fused tape node with a hand-written adjoint; the same stack composed
of taped matmul, bias, ReLU and reshape ops is kept in the tests as its
oracle.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint
from . import tensor as tz
from .tensor import ContractError, ShapeError, Tensor

SAMPLE_RATE = 16000
CLIP_SECONDS = 10.0
MEL_BINS = 128
STFT_WIN = 400
STFT_HOP = 160
STFT_NFFT = 512
LOG_FLOOR = 1e-6
STFT_BLOCK = 64  # frames per rfft call in melspectrogram


class WavFormatError(ValueError):
    """Broken or unsupported RIFF payload; carries the failing byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def read_wav_bytes(blob: bytes) -> tuple[np.ndarray, int]:
    """Parse PCM16 RIFF bytes -> (float waveform in [-1, 1], sample rate).

    Stereo is averaged to mono. Unknown chunks are skipped, honoring the
    RIFF odd-size pad byte.
    """
    if len(blob) < 12:
        raise WavFormatError("file shorter than a RIFF header", 0)
    if blob[0:4] != b"RIFF":
        raise WavFormatError("missing RIFF magic", 0)
    if blob[8:12] != b"WAVE":
        raise WavFormatError("missing WAVE form type", 8)

    pos = 12
    fmt = None
    data = None
    data_offset = None
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = pos + 8
        if body + size > len(blob):
            raise WavFormatError(f"chunk {cid!r} truncated", pos)
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError("fmt chunk shorter than 16 bytes", pos)
            audio_format, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", blob, body)
            if audio_format != 1:
                raise WavFormatError(f"unsupported codec tag {audio_format} (PCM only)", body)
            if bits != 16:
                raise WavFormatError(f"unsupported bit depth {bits} (16-bit only)", body + 14)
            if channels not in (1, 2):
                raise WavFormatError(f"unsupported channel count {channels}", body + 2)
            if rate == 0:
                raise WavFormatError("sample rate of 0", body + 4)
            fmt = (channels, rate)
        elif cid == b"data":
            if fmt is None:
                raise WavFormatError("data chunk before fmt chunk", pos)
            data = blob[body : body + size]
            data_offset = body
        pos = body + size + (size & 1)  # odd chunk sizes are padded

    if fmt is None:
        raise WavFormatError("no fmt chunk found", len(blob))
    if data is None:
        raise WavFormatError("no data chunk found", len(blob))

    channels, rate = fmt
    usable = len(data) - (len(data) % (2 * channels))
    if usable <= 0:
        raise WavFormatError("empty data chunk", data_offset)
    samples = np.frombuffer(data[:usable], dtype="<i2").astype(np.float64) / 32768.0
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return samples, rate


def resample_linear(samples: np.ndarray, src_rate: int, dst_rate: int) -> np.ndarray:
    if src_rate == dst_rate:
        return samples
    n_out = int(round(len(samples) * dst_rate / src_rate))
    src_pos = np.arange(n_out) * (src_rate / dst_rate)
    return np.interp(src_pos, np.arange(len(samples)), samples)


def fit_length(samples: np.ndarray, n: int) -> np.ndarray:
    """Crop or zero-pad the tail so exactly n samples remain."""
    if len(samples) >= n:
        return samples[:n]
    out = np.zeros(n, dtype=samples.dtype)
    out[: len(samples)] = samples
    return out


def load_wav(path: str) -> Tensor:
    """Decode, resample to 16 kHz, and crop/pad to the clip length."""
    with open(path, "rb") as fh:
        blob = fh.read()
    samples, rate = read_wav_bytes(blob)
    samples = resample_linear(samples, rate, SAMPLE_RATE)
    return Tensor(fit_length(samples, int(round(CLIP_SECONDS * SAMPLE_RATE))))


def write_wav(path: str, samples: np.ndarray, rate: int = SAMPLE_RATE) -> None:
    """Write mono PCM16 atomically; the synthetic-corpus generator and tests
    use this."""
    pcm = np.clip(np.asarray(samples, dtype=np.float64), -1.0, 1.0)
    pcm = (pcm * 32767.0).astype("<i2").tobytes()
    checkpoint.write_atomic(path, b"".join([
        b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE",
        b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, rate, rate * 2, 2, 16),
        b"data" + struct.pack("<I", len(pcm)) + pcm,
        b"\x00" * (len(pcm) & 1)]))


# -- mel front-end -----------------------------------------------------------


@dataclass
class MelSpec:
    frames: np.ndarray  # [T_mel, MEL_BINS], log power

    def pad_to(self, n_frames: int) -> "MelSpec":
        """Crop or extend with the log floor so exactly n_frames remain."""
        t = self.frames.shape[0]
        if t >= n_frames:
            frames = self.frames[:n_frames]
        else:
            frames = np.full((n_frames, self.frames.shape[1]), np.log(LOG_FLOOR),
                             dtype=self.frames.dtype)
            frames[:t] = self.frames
        return MelSpec(frames)


def hertz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hertz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank() -> np.ndarray:
    """Triangular filters on a uniform mel grid -> [MEL_BINS, STFT_NFFT//2 + 1].

    Filter 0 is empty: it spans 0 to 27.9 Hz, and the only FFT bin there,
    at 0 Hz, gets weight 0, so mel bin 0 of every clip is log(``LOG_FLOOR``).
    """
    edges = mel_to_hertz(np.linspace(0.0, hertz_to_mel(SAMPLE_RATE / 2), MEL_BINS + 2))
    freqs = np.arange(STFT_NFFT // 2 + 1) * (SAMPLE_RATE / STFT_NFFT)
    bank = np.zeros((MEL_BINS, freqs.size))
    for i in range(MEL_BINS):
        lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
        rising = (freqs - lo) / max(center - lo, 1e-9)
        falling = (hi - freqs) / max(hi - center, 1e-9)
        bank[i] = np.clip(np.minimum(rising, falling), 0.0, None)
    return bank


_MEL_BANK = mel_filterbank()
_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(STFT_WIN) / STFT_WIN)


def melspectrogram(waveform) -> MelSpec:
    """1-D 16 kHz samples -> STFT (win=400, hop=160, Hann) -> 128 mel bins
    -> log(x + 1e-6).

    The power spectrum is computed STFT_BLOCK frames at a time into one
    [n_frames, STFT_NFFT//2 + 1] array, so no whole-clip frame matrix or
    complex spectrum is ever made; the mel bank is then applied to all
    frames in one matmul, and the floor and log are taken in place.
    """
    samples = waveform.data if isinstance(waveform, Tensor) else np.asarray(waveform)
    if samples.ndim != 1:
        raise ShapeError(f"melspectrogram needs a 1-D waveform, got shape {samples.shape}")
    samples = samples.astype(np.float64, copy=False)
    if samples.size == 0:
        raise ContractError("melspectrogram of empty waveform")
    if samples.size < STFT_WIN:
        samples = fit_length(samples, STFT_WIN)

    frames = np.lib.stride_tricks.sliding_window_view(samples, STFT_WIN)[::STFT_HOP]
    power = np.empty((frames.shape[0], STFT_NFFT // 2 + 1))
    for lo in range(0, frames.shape[0], STFT_BLOCK):
        hi = lo + STFT_BLOCK
        spec = np.fft.rfft(frames[lo:hi] * _HANN, n=STFT_NFFT, axis=1)
        np.square(np.abs(spec), out=power[lo:hi])
    mel = power @ _MEL_BANK.T
    mel += LOG_FLOOR
    return MelSpec(np.log(mel, out=mel))


# -- CNN patch encoder --------------------------------------------------------


@dataclass
class EncoderConfig:
    """Strided (non-overlapping) patch conv stack over the mel image.

    patches[i] = (time stride, freq stride) of layer i; channels lists the
    hidden widths, and the final layer projects to d_enc. The grid geometry
    grid_t x grid_f is mel (mel_frames x mel_bins) reduced by the stride
    products, worked out once at construction; every layer's strides must
    divide its input.
    """

    d_enc: int
    channels: tuple[int, ...]
    patches: tuple[tuple[int, int], ...]
    mel_frames: int
    mel_bins: int = MEL_BINS
    grid_t: int = field(init=False)
    grid_f: int = field(init=False)

    def __post_init__(self):
        if any(c < 1 for c in self.channels):
            raise ShapeError(f"channels must all be >= 1, got {list(self.channels)}")
        if len(self.patches) != len(self.channels) + 1:
            raise ShapeError(
                f"{len(self.channels)} hidden channels need "
                f"{len(self.channels) + 1} patches, got {len(self.patches)}"
            )
        t, f = self.mel_frames, self.mel_bins
        for i, (pt, pf) in enumerate(self.patches):
            if t % pt or f % pf:
                raise ShapeError(
                    f"encoder layer {i}: input {t}x{f} (from mel_frames x mel_bins "
                    f"{self.mel_frames}x{self.mel_bins}) not divisible by patches[{i}] {pt}x{pf}"
                )
            t, f = t // pt, f // pf
        self.grid_t, self.grid_f = t, f


class CnnEncoder:
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        widths = list(cfg.channels) + [cfg.d_enc]
        self.layers: list[tuple[Tensor, Tensor]] = []
        c_in = 1
        for (pt, pf), c_out in zip(cfg.patches, widths):
            fan_in = pt * pf * c_in
            w = Tensor(rng.standard_normal((fan_in, c_out)) / np.sqrt(fan_in))
            b = tz.zeros((c_out,))
            self.layers.append((w, b))
            c_in = c_out

    def parameters(self) -> dict[str, Tensor]:
        out = {}
        for i, (w, b) in enumerate(self.layers):
            out[f"layers.{i}.weight"] = w
            out[f"layers.{i}.bias"] = b
        return out


def patch_rows(mel: MelSpec, cfg: EncoderConfig) -> np.ndarray:
    """One clip's mel image cut into the first layer's patches -> [N, pt * pf].

    Rows run in nested order: the mel image, viewed as
    [grid_t, pt_L..pt_0, grid_f, pf_L..pf_0] for the strides of layers
    L..0, is transposed to (grid_t, grid_f, pt_L, pf_L, ..., pt_1, pf_1 |
    pt_0, pf_0). Each row holds its patch's pixels in (time, frequency)
    order, and every run of pt_i * pf_i consecutive rows of layer i - 1's
    output is one patch of layer i, in (time, frequency, channel) order.
    """
    if mel.frames.shape != (cfg.mel_frames, cfg.mel_bins):
        raise ShapeError(
            f"mel {mel.frames.shape} does not match encoder input "
            f"({cfg.mel_frames}, {cfg.mel_bins})"
        )
    n = len(cfg.patches)
    pts, pfs = zip(*reversed(cfg.patches))
    order = [0, n + 1] + [a for i in range(n) for a in (1 + i, n + 2 + i)]
    x = mel.frames.reshape(cfg.grid_t, *pts, cfg.grid_f, *pfs).transpose(order)
    return x.reshape(-1, pts[-1] * pfs[-1])


def encode(rows, encoder: CnnEncoder) -> Tensor:
    """Run the patch stack over B clips -> tokens [B, T_a, F_a, d_enc].

    ``rows`` holds the clips' ``patch_rows``, one array per clip. One tape
    node over the encoder weights. The first layer writes each clip's
    product into that clip's rows of one output; each layer above is one
    matmul over the whole batch. Every layer adds its bias and takes ReLU in
    place. In ``patch_rows``' nested order a layer's patches are runs of
    consecutive rows of the output below, so each layer above the first
    reads its input as a reshaped view of that output. On the tape the
    forward keeps the clips' arrays themselves and these views, so it holds
    no copy of any layer input. The adjoint walks the layers in reverse:
    ``X.T @ g`` and ``g.sum(axis=0)`` are a layer's weight and bias
    gradients (the first layer's weight gradient sums each clip's
    ``X_c.T @ g_c`` in clip order), and ``g @ W.T``, masked where the layer
    below's output is not positive and reshaped to its rows, is that
    layer's ``g``. A frozen encoder is the caller's ``tz.no_grad()`` around
    this call: off the tape, no gradient can reach the encoder weights and
    nothing is kept.
    """
    cfg = encoder.cfg
    pt, pf = cfg.patches[0]
    per_clip = (cfg.mel_frames // pt) * (cfg.mel_bins // pf)
    clips = [Tensor(r).data for r in rows]
    if not clips:
        raise ShapeError("no clips to encode")
    for c, clip in enumerate(clips):
        if clip.shape != (per_clip, pt * pf):
            raise ShapeError(f"patch rows of clip {c} have shape {clip.shape}, "
                             f"expected ({per_clip}, {pt * pf})")
    keep = tz.grad_enabled()
    w0, bias0 = encoder.layers[0]
    x = np.empty((len(clips) * per_clip, w0.shape[1]),
                 np.result_type(clips[0], w0.data))
    for c, clip in enumerate(clips):
        np.matmul(clip, w0.data, out=x[c * per_clip : (c + 1) * per_clip])
    inputs = [None]  # per layer above the first: its patch matrix, a view of the output below
    last = len(encoder.layers) - 1
    for i, ((pt, pf), (w, bias)) in enumerate(zip(cfg.patches, encoder.layers)):
        if i:
            x = x.reshape(-1, pt * pf * x.shape[1])
            if keep:
                inputs.append(x)
            x = x @ w.data
        x += bias.data
        if i < last:
            np.maximum(x, 0.0, out=x)

    def vjp(g):
        g = g.reshape(-1, g.shape[-1])
        grads = []
        for i in range(last, 0, -1):
            w, bias = encoder.layers[i]
            grads += [g.sum(axis=0) if bias.requires_grad else None,
                      inputs[i].T @ g if w.requires_grad else None]
            g = g @ w.data.T
            g *= inputs[i] > 0
            g = g.reshape(-1, encoder.layers[i - 1][0].shape[1])
        gw0 = None
        for c, clip in enumerate(clips if w0.requires_grad else ()):
            part = clip.T @ g[c * per_clip : (c + 1) * per_clip]
            gw0 = part if gw0 is None else np.add(gw0, part, out=gw0)
        grads += [g.sum(axis=0) if bias0.requires_grad else None, gw0]
        return grads[::-1]

    return tz.fused(x.reshape(len(clips), cfg.grid_t, cfg.grid_f, x.shape[1]),
                    [p for layer in encoder.layers for p in layer], vjp)
