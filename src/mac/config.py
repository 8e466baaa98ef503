"""Validated flat key=value configuration with dotted sections.

Files are plain text: one ``section.key = value`` per line, ``#`` comments,
blank lines ignored. Every key is schema-checked; unknown keys and type or
choice violations are collected and reported together. Overrides use the
same ``key=value`` syntax and apply after the file parse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blocks import LmConfig
from .ssd import MODES


class ConfigError(ValueError):
    pass


@dataclass
class Field:
    default: object
    kind: str  # int | float | bool | str
    choices: tuple | None = None
    help: str = ""


SCHEMA: dict[str, Field] = {
    "model.preset": Field("nano", "str", ("nano", "small", "custom"),
                          "size family; custom reads the explicit dims below"),
    "model.n_layers": Field(4, "int", help="block count (custom preset)"),
    "model.d_model": Field(64, "int", help="model width (custom preset)"),
    "model.n_heads": Field(4, "int"),
    "model.head_dim": Field(16, "int"),
    "model.d_state": Field(16, "int"),
    "model.n_groups": Field(1, "int"),
    "model.tie_embeddings": Field(True, "bool"),
    "model.scan_mode": Field("chunked", "str", MODES),
    "model.chunk_len": Field(16, "int"),
    "model.lora_rank": Field(8, "int"),
    "model.conv_width": Field(4, "int"),
    "model.max_vocab": Field(512, "int"),
    "audio.mel_frames": Field(1024, "int", help="mel length the encoder conditions on"),
    "audio.d_enc": Field(64, "int"),
    "audio.channels": Field("16,32,64", "str", help="hidden widths of the patch stack"),
    "audio.patches": Field("8x4,4x2,2x2,1x1", "str", help="per-layer time x freq strides"),
    "connector.variant": Field("concatenation", "str",
                               ("concatenation", "time_major", "frequency_major")),
    "connector.hidden_mult": Field(4, "int"),
    "connector.sep_position": Field("prefix", "str", ("prefix", "suffix")),
    "train.seed": Field(0, "int"),
    "train.steps_per_epoch": Field(40, "int"),
    "train.warmup_epochs": Field(0, "int", help="classification-prompt warmup stage"),
    "train.epochs_stage1": Field(3, "int"),
    "train.epochs_stage2": Field(1, "int"),
    "train.lr_stage1": Field(1e-3, "float"),
    "train.lr_stage2": Field(1e-4, "float", help="default schedule: stage1 / 10"),
    "train.batch_size": Field(8, "int"),
    "train.weight_decay": Field(0.01, "float"),
    "train.clip_norm": Field(1.0, "float"),
    "train.beta1": Field(0.9, "float"),
    "train.beta2": Field(0.95, "float"),
    "train.encoder_trainable": Field(True, "bool"),
    "train.precision": Field("fp64", "str", ("fp32", "fp64")),
    "train.max_caption_len": Field(24, "int"),
    "data.source": Field("synthetic", "str", ("synthetic", "manifest")),
    "data.manifest": Field("", "str", help="JSONL manifest path when source=manifest"),
    "data.n_train": Field(8, "int"),
    "data.n_eval": Field(4, "int"),
    "data.prompt": Field("Write an audio caption describing the sound", "str"),
    "data.classify_prompt": Field("Classify audio event in the clip", "str"),
    "diag.state_metric": Field("frobenius", "str", ("frobenius", "per_head_mean")),
    "diag.erank_on": Field("covariance", "str", ("covariance", "centered")),
}


class Config:
    def __init__(self, values: dict[str, object] | None = None):
        self.values = {k: f.default for k, f in SCHEMA.items()}
        if values:
            self.values.update(values)

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values[key]

    def __eq__(self, other) -> bool:
        return isinstance(other, Config) and self.values == other.values

    def copy(self) -> "Config":
        return Config(dict(self.values))

    def set(self, key: str, raw: str) -> None:
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = _convert(key, raw)


def _convert(key: str, raw: str):
    field = SCHEMA[key]
    raw = raw.strip()
    try:
        if field.kind == "int":
            value: object = int(raw)
        elif field.kind == "float":
            value = float(raw)
        elif field.kind == "bool":
            if raw.lower() not in ("true", "false"):
                raise ValueError(raw)
            value = raw.lower() == "true"
        else:
            value = raw
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {field.kind}") from exc
    if field.choices is not None and value not in field.choices:
        raise ConfigError(f"{key}: {value!r} not one of {field.choices}")
    return value


def parse_text(text: str) -> Config:
    cfg = Config()
    errors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            errors.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        try:
            cfg.set(key.strip(), raw)
        except ConfigError as exc:
            errors.append(f"line {lineno}: {exc}")
    errors.extend(validate(cfg))
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def parse_file(path: str) -> Config:
    with open(path) as fh:
        return parse_text(fh.read())


def apply_overrides(cfg: Config, overrides: list[str]) -> Config:
    out = cfg.copy()
    errors = []
    for item in overrides:
        key, sep, raw = item.partition("=")
        if not sep:
            errors.append(f"override {item!r}: expected key=value")
            continue
        try:
            out.set(key.strip(), raw)
        except ConfigError as exc:
            errors.append(str(exc))
    errors.extend(validate(out))
    if errors:
        raise ConfigError("; ".join(errors))
    return out


def dump(cfg: Config) -> str:
    lines = []
    section = None
    for key in SCHEMA:
        sec = key.split(".")[0]
        if sec != section:
            if section is not None:
                lines.append("")
            lines.append(f"# [{sec}]")
            section = sec
        value = cfg.values[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def parse_patches(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for piece in text.split(","):
        t, sep, f = piece.strip().partition("x")
        if not sep:
            raise ConfigError(f"bad patch entry {piece!r}; expected TxF")
        try:
            out.append((int(t), int(f)))
        except ValueError as exc:
            raise ConfigError(f"bad patch entry {piece!r}") from exc
    return tuple(out)


def parse_channels(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad channels list {text!r}") from exc


def validate(cfg: Config) -> list[str]:
    """All cross-field checks; returns the full list of problems."""
    errors = []
    v = cfg.values
    if v["model.preset"] == "custom" and v["model.d_model"] != v["model.n_heads"] * v["model.head_dim"]:
        errors.append(
            f"model.d_model {v['model.d_model']} != n_heads*head_dim "
            f"{v['model.n_heads']}*{v['model.head_dim']}"
        )
    if v["model.preset"] == "custom":
        for key in ("model.n_layers", "model.n_heads", "model.head_dim", "model.d_model"):
            if v[key] < 1:
                errors.append(f"{key} must be >= 1")
    if v["model.chunk_len"] < 1:
        errors.append("model.chunk_len must be >= 1")
    if v["model.lora_rank"] < 1:
        errors.append("model.lora_rank must be >= 1")
    for key in ("train.lr_stage1", "train.lr_stage2"):
        if v[key] <= 0:
            errors.append(f"{key} must be positive")
    for key in ("train.batch_size", "train.steps_per_epoch", "data.n_train",
                "train.max_caption_len", "audio.d_enc", "connector.hidden_mult",
                "model.n_groups", "model.conv_width", "model.d_state"):
        if v[key] < 1:
            errors.append(f"{key} must be >= 1")
    n_heads = _PRESETS.get(v["model.preset"], {}).get("n_heads", v["model.n_heads"])
    if v["model.n_groups"] >= 1 and n_heads % v["model.n_groups"]:
        errors.append(f"model.n_groups {v['model.n_groups']} does not divide n_heads {n_heads}")
    if v["data.source"] == "manifest" and not v["data.manifest"]:
        errors.append("data.manifest required when data.source = manifest")
    try:
        patches = parse_patches(v["audio.patches"])
        channels = parse_channels(v["audio.channels"])
        if len(patches) != len(channels) + 1:
            errors.append(
                f"audio.patches needs {len(channels) + 1} entries for "
                f"{len(channels)} hidden channels, got {len(patches)}"
            )
        t_prod = 1
        f_prod = 1
        for pt, pf in patches:
            t_prod *= pt
            f_prod *= pf
        if v["audio.mel_frames"] % t_prod:
            errors.append(f"audio.mel_frames {v['audio.mel_frames']} not divisible by "
                          f"time stride product {t_prod}")
        if 128 % f_prod:
            errors.append(f"mel bins 128 not divisible by freq stride product {f_prod}")
    except ConfigError as exc:
        errors.append(str(exc))
    return errors


_PRESETS = {
    "nano": dict(n_layers=4, d_model=64, n_heads=4, head_dim=16),
    "small": dict(n_layers=8, d_model=128, n_heads=8, head_dim=16),
}


def resolve_lm_config(cfg: Config, vocab_size: int) -> LmConfig:
    v = cfg.values
    dims = dict(
        n_layers=v["model.n_layers"],
        d_model=v["model.d_model"],
        n_heads=v["model.n_heads"],
        head_dim=v["model.head_dim"],
    )
    if v["model.preset"] != "custom":
        dims.update(_PRESETS[v["model.preset"]])
    return LmConfig(
        d_state=v["model.d_state"],
        n_groups=v["model.n_groups"],
        vocab_size=vocab_size,
        tie_embeddings=v["model.tie_embeddings"],
        conv_width=v["model.conv_width"],
        **dims,
    )
