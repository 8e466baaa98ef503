"""Synthetic captioned-audio corpus: parametric clips with template captions.

Stands in for a licensed captioning dataset at desk scale. Every clip is
rendered deterministically from its spec dict, so samples can live as specs
in memory or be materialized to WAV files with a manifest.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import checkpoint
from .audio import CLIP_SECONDS, SAMPLE_RATE, write_wav


def _pitch_class(freq: float) -> str:
    if freq < 350:
        return "low"
    if freq < 1200:
        return "mid"
    return "high"


_COUNT_WORDS = {2: "two", 3: "three", 4: "four", 5: "five"}


def render(spec: dict) -> np.ndarray:
    """Render a clip spec to a float waveform in [-1, 1], built in place:
    no kind holds more than one more array of the clip's size."""
    n = int(round(CLIP_SECONDS * SAMPLE_RATE))
    kind = spec["kind"]
    rng = np.random.default_rng(int(spec.get("seed", 0)))

    if kind in ("tone", "overlap"):
        wave = np.arange(n, dtype=np.float64)  # the sample times, then the phase
        wave /= SAMPLE_RATE
        wave *= 2 * np.pi * spec["freq"]
        np.sin(wave, out=wave)
        wave *= 0.5 if kind == "tone" else 0.4
        if kind == "overlap":
            noise = rng.standard_normal(n)
            noise *= 0.1
            wave += noise
    elif kind == "chirp":
        # phase = 2 pi (f0 t + (f1 - f0) / (2 T) t^2)
        f0, f1 = spec["freq_start"], spec["freq_end"]
        t = np.arange(n, dtype=np.float64)
        t /= SAMPLE_RATE
        wave = t * ((f1 - f0) / (2 * CLIP_SECONDS))
        wave *= t
        t *= f0
        wave += t
        wave *= 2 * np.pi
        np.sin(wave, out=wave)
        wave *= 0.5
    elif kind == "noise":
        wave = np.zeros(n)
        burst = int(0.5 * SAMPLE_RATE)
        starts = np.sort(rng.integers(0, n - burst, size=spec["bursts"]))
        for s in starts:
            wave[s : s + burst] += 0.4 * rng.standard_normal(burst)
    elif kind == "clicks":
        wave = np.zeros(n)
        period = int(SAMPLE_RATE / spec["rate"])
        decay = np.exp(-np.arange(64) / 8.0)
        for s in range(0, n - 64, period):
            wave[s : s + 64] += 0.8 * decay
    else:
        raise ValueError(f"unknown clip kind {kind!r}")

    # short fade at both ends avoids clicks from hard edges
    ramp = np.linspace(0.0, 1.0, 160)
    wave[:160] *= ramp
    wave[-160:] *= ramp[::-1]
    return np.clip(wave, -1.0, 1.0, out=wave)


def caption_for(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "tone":
        return f"a steady {_pitch_class(spec['freq'])} tone hums through the clip"
    if kind == "chirp":
        direction = "rising" if spec["freq_end"] > spec["freq_start"] else "falling"
        return f"a {direction} chirp sweeps across the clip"
    if kind == "noise":
        count = _COUNT_WORDS[spec["bursts"]]
        return f"{count} bursts of harsh noise break the silence"
    if kind == "clicks":
        speed = "rapid" if spec["rate"] >= 6 else "slow"
        return f"a {speed} train of sharp clicks ticks along"
    if kind == "overlap":
        return f"a {_pitch_class(spec['freq'])} tone plays over a bed of soft noise"
    raise ValueError(f"unknown clip kind {kind!r}")


def label_for(spec: dict) -> str:
    kind = spec["kind"]
    if kind == "tone":
        return f"tone {_pitch_class(spec['freq'])}"
    if kind == "chirp":
        return "chirp " + ("rising" if spec["freq_end"] > spec["freq_start"] else "falling")
    if kind == "noise":
        return "noise"
    if kind == "clicks":
        return "clicks " + ("rapid" if spec["rate"] >= 6 else "slow")
    if kind == "overlap":
        return f"overlap {_pitch_class(spec['freq'])}"
    raise ValueError(f"unknown clip kind {kind!r}")


# fixed cycle of distinct configurations; the first 8 cover every kind and
# give 8 distinct captions, which the overfitting acceptance test relies on
_BASE_SPECS = (
    {"kind": "tone", "freq": 220.0},
    {"kind": "chirp", "freq_start": 300.0, "freq_end": 2400.0},
    {"kind": "noise", "bursts": 3},
    {"kind": "clicks", "rate": 8},
    {"kind": "overlap", "freq": 150.0},
    {"kind": "tone", "freq": 880.0},
    {"kind": "chirp", "freq_start": 2400.0, "freq_end": 300.0},
    {"kind": "clicks", "rate": 3},
    {"kind": "tone", "freq": 2500.0},
    {"kind": "noise", "bursts": 2},
    {"kind": "overlap", "freq": 700.0},
    {"kind": "noise", "bursts": 5},
    {"kind": "overlap", "freq": 1800.0},
    {"kind": "noise", "bursts": 4},
)


def make_corpus(n: int, seed: int = 0) -> list[dict]:
    """n clip records: {spec, caption, label}, deterministic in seed.

    Cycles the base configurations, jittering continuous parameters after
    the first pass so repeats stay near their caption class.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        base = dict(_BASE_SPECS[i % len(_BASE_SPECS)])
        base["seed"] = int(seed * 100003 + i)
        if i >= len(_BASE_SPECS):
            if "freq" in base:
                base["freq"] = float(base["freq"] * rng.uniform(0.9, 1.1))
            if "freq_start" in base:
                jitter = rng.uniform(0.9, 1.1)
                base["freq_start"] = float(base["freq_start"] * jitter)
                base["freq_end"] = float(base["freq_end"] * jitter)
        records.append({"spec": base, "caption": caption_for(base), "label": label_for(base)})
    return records


def write_corpus(out_dir: str, n: int, seed: int = 0) -> str:
    """Render clips to WAV files plus a JSONL manifest; returns manifest path.

    Every clip is rendered under a temporary name first. Only then is an
    earlier manifest removed, the clips moved to their final names and the
    new manifest written atomically. So ``out_dir`` always holds the earlier
    manifest with the clips it names, no manifest, or the new manifest with
    its clips; an interrupted run removes its temporary files.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.jsonl")
    lines, staged = [], []
    try:
        for i, rec in enumerate(make_corpus(n, seed)):
            wav_name = f"clip_{i:04d}.wav"
            final = os.path.join(out_dir, wav_name)
            staged.append((f"{final}.{os.getpid()}.tmp", final))
            write_wav(staged[-1][0], render(rec["spec"]))
            lines.append(json.dumps({
                "wav": wav_name,
                "spec": rec["spec"],
                "caption": rec["caption"],
                "label": rec["label"],
            }) + "\n")
        if os.path.exists(manifest_path):
            os.remove(manifest_path)
        for tmp, final in staged:
            os.replace(tmp, final)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise
    checkpoint.write_atomic(manifest_path, "".join(lines).encode("utf-8"))
    return manifest_path


class ManifestError(ValueError):
    """A manifest line that is not a clip record; names the file and line."""


def read_manifest(path: str, required: tuple[str, ...] = ("wav",)) -> list[dict]:
    """The records of a JSONL manifest, each ``wav`` resolved against the
    manifest's directory. Every record must carry the ``required`` keys,
    each a non-empty string (training needs a ``caption`` too). The file is
    read as UTF-8; every error names the file and line."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            where = f"{path} line {lineno}"
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ManifestError(f"{where}: byte {offset + exc.start}: "
                                    f"not UTF-8 text") from exc
            offset += len(raw)
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"{where}: not JSON ({exc.msg})") from exc
            for key in required:
                value = rec.get(key) if isinstance(rec, dict) else None
                if value is None or value == "":
                    raise ManifestError(f"{where}: record has no {key!r}")
                if not isinstance(value, str):
                    raise ManifestError(f"{where}: record's {key!r} is "
                                        f"{type(value).__name__}, not a string")
            rec["wav"] = os.path.join(base, rec["wav"])
            records.append(rec)
    return records
