"""Validated flat key=value configuration with dotted sections.

Files are plain text: one ``section.key = value`` per line, ``#`` comments,
blank lines ignored. Every key is schema-checked; unknown keys and type or
choice violations are collected and reported together. Overrides use the
same ``key=value`` syntax and apply after the file parse.

The ``model.*``, ``audio.*`` and ``connector.*`` keys are the one source of
the model's settings: ``model_configs`` turns them into the typed configs
the model is built from, each key ``section.field`` setting the field of
that name (``model`` for ``LmConfig``, ``audio`` for ``EncoderConfig``,
``connector`` for ``ConnectorConfig``). ``validate`` checks each key's
range, then builds those configs, so their own checks report as config
errors that name the keys. A model's size is its depth and width, the
model width being ``n_heads * head_dim``: nano (the defaults) is 4 layers
of 4 heads x 16, small is 8 layers of 8 heads x 16.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .audio import EncoderConfig
from .blocks import LmConfig
from .connector import VARIANTS, ConnectorConfig
from .tensor import ContractError, ShapeError


class ConfigError(ValueError):
    pass


@dataclass
class Field:
    default: object
    kind: str  # int | float | bool | str
    choices: tuple | None = None
    help: str = ""


SCHEMA: dict[str, Field] = {
    "model.n_layers": Field(4, "int", help="block count; nano 4, small 8"),
    "model.n_heads": Field(4, "int", help="SSM heads; nano 4, small 8"),
    "model.head_dim": Field(16, "int", help="channels per head; nano and small 16 "
                                            "(model width = n_heads * head_dim)"),
    "model.d_state": Field(16, "int"),
    "model.n_groups": Field(1, "int"),
    "model.lora_rank": Field(8, "int"),
    "model.conv_width": Field(4, "int"),
    "model.max_vocab": Field(512, "int"),
    "audio.mel_frames": Field(1024, "int", help="mel length the encoder conditions on"),
    "audio.d_enc": Field(64, "int"),
    "audio.channels": Field("16,32,64", "str", help="hidden widths of the patch stack"),
    "audio.patches": Field("8x4,4x2,2x2,1x1", "str", help="per-layer time x freq strides"),
    "connector.variant": Field("concatenation", "str", VARIANTS),
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
    "train.clip_norm": Field(1.0, "float", help="global gradient-norm cap; 0 turns it off"),
    "train.beta1": Field(0.9, "float"),
    "train.beta2": Field(0.95, "float"),
    "train.encoder_trainable": Field(True, "bool"),
    "train.precision": Field("fp64", "str", ("fp32", "fp64"), help=(
        "float width of parameters, activations, gradients and AdamW moments; the mel "
        "front end, the scan's state carry and the grad-norm sum stay float64")),
    "train.max_caption_len": Field(24, "int"),
    "data.source": Field("synthetic", "str", ("synthetic", "manifest")),
    "data.manifest": Field("", "str", help="JSONL manifest path when source=manifest"),
    "data.n_train": Field(8, "int"),
    "data.n_eval": Field(4, "int"),
    "data.prompt": Field("Write an audio caption describing the sound", "str"),
    "data.classify_prompt": Field("Classify audio event in the clip", "str"),
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
    """The config in the file at ``path``, read as UTF-8; every error names
    the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_text(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: line {line}: byte {exc.start}: not UTF-8 text") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


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


def _parse_patches(text: str) -> tuple[tuple[int, int], ...]:
    out = []
    for piece in text.split(","):
        t, sep, f = piece.strip().partition("x")
        try:
            if not sep:
                raise ValueError(piece)
            out.append((int(t), int(f)))
        except ValueError as exc:
            raise ConfigError(f"audio.patches: bad entry {piece!r}; expected TxF") from exc
    return tuple(out)


def _parse_channels(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"audio.channels: bad list {text!r}") from exc


# the int keys that must be >= 1, and the epoch counts, which must be >= 0 and
# sum to at least 1; the float keys' ranges are in validate, every other check
# is a typed config's own
_AT_LEAST_ONE = (
    "model.n_layers", "model.n_heads", "model.head_dim", "model.d_state", "model.n_groups",
    "model.lora_rank", "model.conv_width", "audio.mel_frames", "audio.d_enc",
    "connector.hidden_mult", "train.batch_size", "train.steps_per_epoch",
    "train.max_caption_len", "data.n_train",
)
_EPOCHS = ("train.warmup_epochs", "train.epochs_stage1", "train.epochs_stage2")


def validate(cfg: Config) -> list[str]:
    """Per-key range checks, then the typed configs' own checks on the model
    they describe; returns the full list of problems."""
    v = cfg.values
    errors = [f"{key} must be >= 1" for key in _AT_LEAST_ONE if v[key] < 1]
    errors += [f"{key} must be >= 0" for key in _EPOCHS + ("data.n_eval",) if v[key] < 0]
    if sum(v[key] for key in _EPOCHS) < 1:
        errors.append(f"{', '.join(_EPOCHS)} must sum to at least 1")
    # each float range is written so that NaN fails it
    errors += [f"{key} must be finite and > 0, got {v[key]}"
               for key in ("train.lr_stage1", "train.lr_stage2") if not 0 < v[key] < math.inf]
    errors += [f"{key} must be finite and >= 0, got {v[key]}"
               for key in ("train.clip_norm", "train.weight_decay") if not 0 <= v[key] < math.inf]
    errors += [f"{key} must be in [0, 1), got {v[key]}"
               for key in ("train.beta1", "train.beta2") if not 0 <= v[key] < 1]
    if v["data.source"] == "manifest" and not v["data.manifest"]:
        errors.append("data.manifest required when data.source = manifest")
    if not errors:
        try:
            model_configs(cfg, v["model.max_vocab"])
        except ConfigError as exc:
            errors.append(str(exc))
    return errors


_PARSERS = {"audio.channels": _parse_channels, "audio.patches": _parse_patches}


def _typed(kind, section: str, cfg: Config, **derived):
    """``kind`` built from ``derived`` plus, for each init field that has a
    key ``section.field``, that key's value. Its own checks become a
    ConfigError naming the keys of the fields it mentions."""
    keys = {f.name: f"{section}.{f.name}" for f in fields(kind)
            if f.init and f"{section}.{f.name}" in SCHEMA}
    values = {field: _PARSERS.get(key, lambda raw: raw)(cfg[key]) for field, key in keys.items()}
    try:
        return kind(**values, **derived)
    except (ShapeError, ContractError) as exc:
        named = [key for field, key in keys.items() if re.search(rf"\b{field}\b", str(exc))]
        raise ConfigError(f"{', '.join(named or keys.values())}: {exc}") from exc


def model_configs(cfg: Config, vocab_size: int) -> tuple[LmConfig, EncoderConfig, ConnectorConfig]:
    """The typed configs of the model ``cfg`` describes, for a vocabulary of
    ``vocab_size`` words; the only place config values become model shapes."""
    lm = _typed(LmConfig, "model", cfg, vocab_size=vocab_size)
    enc = _typed(EncoderConfig, "audio", cfg)
    conn = _typed(ConnectorConfig, "connector", cfg, d_enc=enc.d_enc, grid_t=enc.grid_t,
                  grid_f=enc.grid_f, d_model=lm.d_model)
    return lm, enc, conn
