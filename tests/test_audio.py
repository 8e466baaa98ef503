"""WAV decoding, mel front-end, patch encoder."""

import dataclasses
import re
import struct
import tracemalloc

import numpy as np
import pytest

from mac import audio
from mac import config as configmod
from mac import synth
from mac import tensor as tz
from mac.audio import (
    CnnEncoder,
    EncoderConfig,
    MelSpec,
    WavFormatError,
    encode,
    load_wav,
    melspectrogram,
    patch_rows,
    read_wav_bytes,
    write_wav,
)
from mac.tensor import ShapeError

import frontend_oracle
from conftest import check_gradients, recorded_nodes
from tensor_oracle import mul, tsum


def wav_bytes(samples: np.ndarray, rate=16000, channels=1, prepend_chunks=b"",
              codec=1, bits=16) -> bytes:
    pcm = (np.clip(samples, -1, 1) * 32767).astype("<i2").tobytes()
    body = prepend_chunks
    body += b"fmt " + struct.pack("<IHHIIHH", 16, codec, channels, rate,
                                  rate * 2 * channels, 2 * channels, bits)
    body += b"data" + struct.pack("<I", len(pcm)) + pcm
    if len(pcm) & 1:
        body += b"\x00"
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestWavReader:
    def test_ten_second_clip_is_160000_samples(self, tmp_path):
        t = np.arange(160000) / 16000.0
        path = tmp_path / "ten.wav"
        write_wav(str(path), 0.25 * np.sin(2 * np.pi * 440 * t))
        wave = load_wav(str(path))
        assert wave.shape == (160000,)

    def test_silence_decodes_to_zeros(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(str(path), np.zeros(16000))
        assert np.all(load_wav(str(path)).data == 0.0)

    def test_short_clip_zero_padded_tail(self, tmp_path):
        path = tmp_path / "five.wav"
        write_wav(str(path), 0.5 * np.ones(80000))
        wave = load_wav(str(path)).data
        assert wave.shape == (160000,)
        assert np.all(wave[80000:] == 0.0)
        assert np.all(wave[:80000] > 0.49)

    def test_stereo_averaged(self):
        left = np.full(100, 0.5)
        right = np.full(100, -0.5)
        inter = np.empty(200)
        inter[0::2], inter[1::2] = left, right
        samples, rate = read_wav_bytes(wav_bytes(inter, channels=2))
        assert rate == 16000 and samples.shape == (100,)
        assert np.abs(samples).max() < 1e-4  # averages to ~0

    def test_odd_data_length_pad_byte(self):
        # 3 samples -> 6 data bytes (even); force odd via a 1-sample fmt trick:
        # craft an odd-sized data chunk directly
        pcm = struct.pack("<hhh", 1000, -1000, 500)[:5]  # 5 bytes, odd
        body = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
        body += b"data" + struct.pack("<I", len(pcm)) + pcm + b"\x00"
        body += b"junk" + struct.pack("<I", 4) + b"ABCD"
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        samples, _ = read_wav_bytes(blob)
        assert samples.shape == (2,)  # dangling byte dropped

    def test_chunk_skipping(self):
        extra = b"LIST" + struct.pack("<I", 5) + b"INFOa" + b"\x00"  # odd size + pad
        extra += b"fact" + struct.pack("<I", 4) + struct.pack("<I", 100)
        samples, rate = read_wav_bytes(
            wav_bytes(np.linspace(-0.5, 0.5, 64), prepend_chunks=extra)
        )
        assert samples.shape == (64,)

    def test_resampling_to_16k(self, tmp_path):
        pcm = 0.3 * np.sin(2 * np.pi * 100 * np.arange(8000) / 8000.0)
        blob = wav_bytes(pcm, rate=8000)
        path = tmp_path / "8k.wav"
        path.write_bytes(blob)
        wave = load_wav(str(path)).data
        assert wave.shape == (160000,)
        assert np.abs(wave[:16000]).max() > 0.2  # first second has signal
        assert np.all(wave[16000 + 160:] == 0.0)

    def test_bad_magic_reports_offset(self):
        with pytest.raises(WavFormatError, match="offset 0"):
            read_wav_bytes(b"RIFX" + b"\x00" * 40)
        err = None
        try:
            read_wav_bytes(b"RIFF" + struct.pack("<I", 4) + b"EVAW" + b"\x00" * 20)
        except WavFormatError as exc:
            err = exc
        assert err is not None and err.offset == 8

    def test_unsupported_codec_reports_offset(self):
        blob = wav_bytes(np.zeros(4), codec=3)  # float PCM tag
        with pytest.raises(WavFormatError, match="codec"):
            read_wav_bytes(blob)

    def test_unsupported_bit_depth(self):
        blob = wav_bytes(np.zeros(4), bits=8)
        with pytest.raises(WavFormatError, match="bit depth"):
            read_wav_bytes(blob)

    def test_truncated_chunk(self):
        blob = wav_bytes(np.zeros(64))[:-10]
        with pytest.raises(WavFormatError, match="truncated"):
            read_wav_bytes(blob)

    def test_missing_data_chunk(self):
        body = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 16000, 32000, 2, 16)
        blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
        with pytest.raises(WavFormatError, match="no data chunk"):
            read_wav_bytes(blob)


class TestMel:
    def test_shape_and_bin_count(self):
        mel = melspectrogram(np.zeros(160000))
        assert mel.frames.shape[1] == 128
        assert mel.frames.shape[0] == 1 + (160000 - 400) // 160

    def test_silence_is_uniform_log_floor(self):
        mel = melspectrogram(np.zeros(16000))
        np.testing.assert_allclose(mel.frames, np.log(1e-6), atol=1e-9)

    def test_filter_0_is_the_one_empty_filter_at_the_defaults(self):
        # filter 0 spans 0 to 27.9 Hz, where the one FFT bin, at 0 Hz, has
        # weight 0: mel bin 0 is the log floor even for a clip with sound
        bank = audio.mel_filterbank()
        assert np.flatnonzero(~bank.any(axis=1)).tolist() == [0]
        mel = melspectrogram(synth.render({"kind": "noise", "bursts": 3, "seed": 1}))
        assert (mel.frames[:, 0] == np.log(audio.LOG_FLOOR)).all()
        assert (mel.frames[:, 1:] > np.log(audio.LOG_FLOOR)).any(axis=0).all()

    def test_pure_tone_lands_in_analytic_filter(self):
        # analytic oracle: triangle responses of the documented filterbank
        # evaluated directly at 1 kHz
        freq = 1000.0
        edges = audio.mel_to_hertz(
            np.linspace(0.0, audio.hertz_to_mel(8000.0), 128 + 2)
        )
        responses = np.zeros(128)
        for i in range(128):
            lo, center, hi = edges[i], edges[i + 1], edges[i + 2]
            responses[i] = max(
                0.0, min((freq - lo) / (center - lo), (hi - freq) / (hi - center))
            )
        expect_bin = int(np.argmax(responses))

        t = np.arange(160000) / 16000.0
        mel = melspectrogram(0.5 * np.sin(2 * np.pi * freq * t))
        got_bin = int(np.argmax(mel.frames.mean(axis=0)))
        assert got_bin == expect_bin

    def test_doubling_amplitude_raises_log_energy_by_2ln2(self):
        rng = np.random.default_rng(0)
        wave = 0.2 * rng.standard_normal(160000)
        m1 = melspectrogram(wave).frames
        m2 = melspectrogram(2.0 * wave).frames
        active = m1 > np.log(1e-6) + 12.0  # stay far above the log floor
        assert active.sum() > 1000
        delta = (m2 - m1)[active]
        np.testing.assert_allclose(delta, 2 * np.log(2), atol=1e-3)

    def test_empty_waveform_rejected(self):
        with pytest.raises(tz.ContractError):
            melspectrogram(np.zeros(0))

    @pytest.mark.parametrize("n", [
        audio.STFT_WIN - 1,  # zero-padded to one frame
        audio.STFT_WIN,  # one frame
        audio.STFT_WIN + (audio.STFT_BLOCK - 1) * audio.STFT_HOP,  # one whole block
        audio.STFT_WIN + audio.STFT_BLOCK * audio.STFT_HOP,  # a block and one frame
        160000,  # the 10 s clip: 998 frames, a partial last block
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int16])
    def test_blocked_stft_equals_whole_clip_oracle(self, n, dtype):
        wave = np.random.default_rng(n).standard_normal(n)
        if dtype is np.int16:
            wave = wave * 3000.0
        wave = wave.astype(dtype)
        got = melspectrogram(wave).frames
        assert got.shape == (1 + (max(n, audio.STFT_WIN) - audio.STFT_WIN) // audio.STFT_HOP, 128)
        assert np.array_equal(got, frontend_oracle.melspectrogram(wave).frames)

    @pytest.mark.parametrize("kind", ["tone", "chirp", "noise", "clicks", "overlap"])
    def test_synthetic_clip_equals_whole_clip_oracle(self, kind):
        spec = next(r["spec"] for r in synth.make_corpus(8, seed=1) if r["spec"]["kind"] == kind)
        wave = tz.Tensor(synth.render(spec))
        assert np.array_equal(melspectrogram(wave).frames,
                              frontend_oracle.melspectrogram(wave).frames)

    @pytest.mark.parametrize("shape", [(16000, 2), (1, 16000), ()])
    def test_waveform_that_is_not_1d_is_shape_error(self, shape):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            melspectrogram(np.zeros(shape))

    def test_pad_to(self):
        mel = melspectrogram(np.zeros(16000))
        padded = mel.pad_to(500)
        assert padded.frames.shape == (500, 128)
        np.testing.assert_allclose(padded.frames[-1], np.log(1e-6))
        cropped = mel.pad_to(10)
        assert cropped.frames.shape == (10, 128)


def desk_encoder(**over) -> EncoderConfig:
    """The default config's encoder, with the given fields replaced."""
    enc_cfg = configmod.model_configs(configmod.Config(), vocab_size=16)[1]
    return dataclasses.replace(enc_cfg, **over)


def encode_mels(mels, enc):
    """Encode mel images [T, F] as one batch."""
    return encode([patch_rows(MelSpec(m), enc.cfg) for m in mels], enc)


class TestEncoder:
    def test_desk_grid_is_16_by_8(self):
        cfg = desk_encoder()
        assert (cfg.grid_t, cfg.grid_f) == (16, 8)
        enc = CnnEncoder(cfg, np.random.default_rng(0))
        mel = np.random.default_rng(1).standard_normal((1024, 128))
        with tz.no_grad():
            tokens = encode_mels([mel, mel, mel], enc)
        assert tokens.shape == (3, 16, 8, 64)

    def test_paper_geometry_512_tokens(self):
        # the reference front-end geometry: a 64 x 8 grid of 768-dim tokens
        cfg = desk_encoder(d_enc=768, patches=((2, 2), (2, 2), (2, 2), (2, 2)))
        assert (cfg.grid_t, cfg.grid_f, cfg.d_enc) == (64, 8, 768)
        enc = CnnEncoder(cfg, np.random.default_rng(2))
        mel = np.random.default_rng(3).standard_normal((1024, 128))
        with tz.no_grad():
            tokens = encode_mels([mel], enc)
        assert tokens.shape == (1, 64, 8, 768)
        assert tokens.data.reshape(-1, 768).shape == (512, 768)

    def test_indivisible_geometry_rejected(self):
        with pytest.raises(ShapeError, match="not divisible"):
            desk_encoder(mel_frames=1000)  # 1000 not divisible by 8 * 4 * 2
        with pytest.raises(ShapeError, match=r"layer 1: input 128x32 .* not divisible by "
                                             r"patches\[1\] 3x2"):
            desk_encoder(patches=((8, 4), (3, 2), (2, 2), (1, 1)))
        enc = CnnEncoder(desk_encoder(), np.random.default_rng(4))
        with pytest.raises(ShapeError, match="does not match encoder input"):
            patch_rows(MelSpec(np.zeros((1000, 128))), enc.cfg)

    def test_rows_of_the_wrong_shape_name_their_clip(self):
        enc = CnnEncoder(desk_encoder(), np.random.default_rng(4))
        good = np.zeros((4096, 32))
        for bad in (np.zeros((4096 + 1, 32)), np.zeros((4096, 16)), np.zeros(4096 * 32)):
            with pytest.raises(ShapeError, match=r"patch rows of clip 2 have shape "
                                                 + re.escape(f"{bad.shape}, expected (4096, 32)")):
                encode([good, good, bad, good], enc)
        with pytest.raises(ShapeError, match="no clips"):
            encode([], enc)

    def test_frozen_blocks_gradients(self):
        enc = CnnEncoder(desk_encoder(), np.random.default_rng(5))
        for t in enc.parameters().values():
            t.requires_grad = True
        mel = np.random.default_rng(6).standard_normal((1024, 128))
        with tz.no_grad():  # freezing the encoder is the caller's no_grad
            tokens = encode_mels([mel, mel], enc)
        assert not tokens.requires_grad
        tokens = encode_mels([mel, mel], enc)
        loss = tsum(tokens)
        grads = loss.backward()
        assert enc.layers[0][0] in grads

    def test_deterministic_for_fixed_weights(self):
        enc = CnnEncoder(desk_encoder(), np.random.default_rng(7))
        mel = np.random.default_rng(8).standard_normal((1024, 128))
        with tz.no_grad():
            a = encode_mels([mel], enc).data
            b = encode_mels([mel], enc).data
        assert np.array_equal(a, b)

    def test_flatten_order_time_major(self):
        # patch rows run (t outer, f inner), each holding its pixels (time, freq)
        cfg = EncoderConfig(d_enc=1, channels=(1, 1, 1), mel_frames=4, mel_bins=6,
                            patches=((2, 3), (1, 1), (1, 1), (1, 1)))
        frames = np.arange(24, dtype=float).reshape(4, 6)
        rows = patch_rows(MelSpec(frames), cfg)
        np.testing.assert_array_equal(rows, [[0, 1, 2, 6, 7, 8], [3, 4, 5, 9, 10, 11],
                                             [12, 13, 14, 18, 19, 20],
                                             [15, 16, 17, 21, 22, 23]])

    def test_patch_rows_nest_each_layer_in_the_one_below(self):
        # both layers stride in time and frequency; rows run (grid t, grid f,
        # layer 1's dt, df | layer 0's pixels), so each run of 2 x 2 rows is
        # one layer-1 patch in (time, freq) order
        cfg = EncoderConfig(d_enc=1, channels=(1,), mel_frames=8, mel_bins=12,
                            patches=((2, 3), (2, 2)))
        assert (cfg.grid_t, cfg.grid_f) == (2, 2)
        frames = np.arange(96, dtype=float).reshape(8, 12)
        rows = patch_rows(MelSpec(frames), cfg)
        np.testing.assert_array_equal(rows, [
            [0, 1, 2, 12, 13, 14], [3, 4, 5, 15, 16, 17],  # grid (0, 0)
            [24, 25, 26, 36, 37, 38], [27, 28, 29, 39, 40, 41],
            [6, 7, 8, 18, 19, 20], [9, 10, 11, 21, 22, 23],  # grid (0, 1)
            [30, 31, 32, 42, 43, 44], [33, 34, 35, 45, 46, 47],
            [48, 49, 50, 60, 61, 62], [51, 52, 53, 63, 64, 65],  # grid (1, 0)
            [72, 73, 74, 84, 85, 86], [75, 76, 77, 87, 88, 89],
            [54, 55, 56, 66, 67, 68], [57, 58, 59, 69, 70, 71],  # grid (1, 1)
            [78, 79, 80, 90, 91, 92], [81, 82, 83, 93, 94, 95]])

    @pytest.mark.parametrize("patches", [None, ((2, 2),) * 4, ((2, 4), (4, 2), (2, 2), (1, 1))],
                             ids=["desk", "paper", "mixed"])
    def test_batch_equals_clip_by_clip_oracle(self, patches):
        # every clip's tokens equal the per-clip encoder's, which cuts each
        # layer out of the mel image itself, bit for bit, at any position in
        # the batch; the weight gradients agree to rounding
        cfg = desk_encoder() if patches is None else desk_encoder(patches=patches)
        enc = CnnEncoder(cfg, np.random.default_rng(9))
        for t in enc.parameters().values():
            t.requires_grad = True
        mels = [np.random.default_rng(10 + i).standard_normal((1024, 128)) for i in range(3)]
        tokens = encode_mels(mels, enc)
        weights = np.random.default_rng(13).standard_normal(tokens.shape)
        batch_grads = tsum(mul(tokens, weights)).backward()
        grids = [frontend_oracle.encode(MelSpec(m), enc) for m in mels]
        for i, grid in enumerate(grids):
            assert np.array_equal(tokens.data[i], grid.tokens.data)
        clip_grads = tsum(tz.concat([
            mul(grid.tokens, weights[i]) for i, grid in enumerate(grids)
        ], axis=0)).backward()
        for t in enc.parameters().values():
            err = np.abs(batch_grads[t] - clip_grads[t]).max() / np.abs(clip_grads[t]).max()
            assert err <= 1e-12


def trained_encode(fn, enc, rows, upstream):
    """Tokens of ``fn(rows, enc)`` and the gradient of every encoder weight
    under the loss sum(tokens * upstream), in ``parameters()`` order."""
    params = list(enc.parameters().values())
    for t in params:
        t.requires_grad = True
    tokens = fn(rows, enc)
    grads = tsum(mul(tokens, upstream)).backward()
    return tokens.data, [grads[t] for t in params]


def clip_rows(cfg, n, seed):
    """The first-layer patch rows of n random mel images, one array each."""
    rng = np.random.default_rng(seed)
    return [patch_rows(MelSpec(rng.standard_normal((cfg.mel_frames, cfg.mel_bins))), cfg)
            for _ in range(n)]


class TestFusedEncoder:
    """``encode`` is one tape node whose tokens and gradients equal, bit for
    bit, those of the composed oracle ``frontend_oracle.encode_batch``."""

    @pytest.mark.parametrize("geometry, batch", [("desk", 1), ("desk", 3), ("desk", 8),
                                                 ("paper", 1)])
    def test_tokens_and_gradients_equal_composed_oracle(self, geometry, batch):
        cfg = desk_encoder() if geometry == "desk" else desk_encoder(
            d_enc=768, patches=((2, 2), (2, 2), (2, 2), (2, 2)))
        enc = CnnEncoder(cfg, np.random.default_rng(3101))
        rows = clip_rows(cfg, batch, 3102)
        # a non-uniform upstream gradient reaches every token differently
        upstream = np.random.default_rng(3103).standard_normal(
            (batch, cfg.grid_t, cfg.grid_f, cfg.d_enc))
        tokens, grads = trained_encode(encode, enc, rows, upstream)
        want_tokens, want_grads = trained_encode(frontend_oracle.encode_batch, enc, rows,
                                                 upstream)
        assert np.array_equal(tokens, want_tokens)
        assert len(grads) == 8
        for got, want in zip(grads, want_grads):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    # bytes an encode may hold or allocate beyond its arrays' data, for the
    # tape node, the loss and the gradient map: about 3 kB held was seen
    MEMORY_SLACK = 64 * 1024

    def test_tape_holds_the_layer_outputs_once(self):
        # at the nano geometry, 8 clips: each layer reads the output below as
        # a view, so the tape holds every layer's output and the tokens once
        # (a copied patch matrix per layer held 5.2 MB more); the adjoint makes
        # one gradient per layer output, freeing each as it goes below, and
        # the 1-byte ReLU mask of the layer below
        cfg = desk_encoder()
        enc = CnnEncoder(cfg, np.random.default_rng(3141))
        for t in enc.parameters().values():
            t.requires_grad = True
        rows = clip_rows(cfg, 8, 3142)
        upstream = np.random.default_rng(3143).standard_normal(
            (8, cfg.grid_t, cfg.grid_f, cfg.d_enc))
        out_bytes, pixels = [], 8 * cfg.mel_frames * cfg.mel_bins
        for (pt, pf), (w, _) in zip(cfg.patches, enc.layers):
            pixels //= pt * pf  # one output row per patch
            out_bytes.append(pixels * w.shape[1] * np.dtype(np.float64).itemsize)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tokens = encode(rows, enc)
            held = tracemalloc.get_traced_memory()[0] - before
            loss = tsum(mul(tokens, upstream))
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert held <= sum(out_bytes) + self.MEMORY_SLACK, (held, out_bytes)
        assert peak <= sum(out_bytes) + max(out_bytes) // 8 + self.MEMORY_SLACK, (peak, out_bytes)

    def test_gradients_match_central_differences(self):
        # two hidden layers, and every layer's patch strides more than one pixel
        cfg = EncoderConfig(d_enc=3, channels=(2, 3), mel_frames=8, mel_bins=8,
                            patches=((2, 2), (2, 1), (1, 2)))
        enc = CnnEncoder(cfg, np.random.default_rng(3111))
        # nonzero biases: with zero ones a unit whose patch is all zeros
        # (every input below its ReLU) sits exactly on the ReLU's kink
        for _, bias in enc.layers:
            bias.data[:] = np.random.default_rng(3114).uniform(0.1, 0.5, bias.shape)
        rows = clip_rows(cfg, 2, 3112)
        upstream = np.random.default_rng(3113).standard_normal((2, 2, 2, 3))
        check_gradients(lambda: tsum(mul(encode(rows, enc), upstream)),
                        list(enc.parameters().values()))

    def test_one_call_records_one_tape_node(self):
        enc = CnnEncoder(desk_encoder(), np.random.default_rng(3121))
        for t in enc.parameters().values():
            t.requires_grad = True
        tokens = encode(clip_rows(enc.cfg, 2, 3122), enc)
        assert tokens.requires_grad
        assert recorded_nodes(tokens) == 1

    def test_off_the_tape_records_nothing(self):
        enc = CnnEncoder(desk_encoder(), np.random.default_rng(3131))
        for t in enc.parameters().values():
            t.requires_grad = True
        rows = clip_rows(enc.cfg, 2, 3132)
        with tz.no_grad():
            tokens = encode(rows, enc)
        assert not tokens.requires_grad and recorded_nodes(tokens) == 0
        assert np.array_equal(tokens.data, encode(rows, enc).data)
