"""Run configuration: flat dotted keys over sectioned dataclasses.

Config files are JSON objects with flat keys ("model.dim": 64).  Unknown
keys are rejected; the effective config is echoed into each run directory
so every run is reproducible from its own artifacts.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .data import RESERVED


class ConfigError(ValueError):
    pass


VARIANTS = ("base", "vdmae", "full")


@dataclass
class ModelSection:
    layers: int = 3          # encoder and decoder blocks
    heads: int = 8
    dim: int = 512           # hidden width D, divisible by heads
    patch: int = 4           # patch side length in pixels
    feat_dim: int = 128      # patch feature channels C
    classes: int = 14        # label classes for the classification head
    vocab_max: int = 2000    # vocabulary cap, reserved tokens included (most frequent kept)
    max_len: int = 40        # accepted but not read; saved configs set it
    pos_enc: bool = True     # sinusoidal position encodings


@dataclass
class TrainSection:
    lr_ve: float = 1e-3      # patch extractor learning rate
    lr_ed: float = 2e-3      # encoder-decoder (and heads) learning rate
    lambda_: float = 1.0     # label-loss weight
    delta: float = 0.15      # attention-consistency loss weight
    patience: int = 10       # early-stop patience, epochs without val gain
    seed: int = 0
    variant: str = "full"    # base | vdmae | full
    epochs: int = 30
    batch: int = 8


@dataclass
class VtacSection:
    k: float = 0.25          # fraction of report words selected for the text map


@dataclass
class DataSection:
    min_freq: int = 1        # vocabulary frequency threshold


@dataclass
class DecodeSection:
    beam: int = 3
    max_len: int = 40


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    train: TrainSection = field(default_factory=TrainSection)
    vtac: VtacSection = field(default_factory=VtacSection)
    data: DataSection = field(default_factory=DataSection)
    decode: DecodeSection = field(default_factory=DecodeSection)

    def validate(self) -> "RunConfig":
        m, t, v = self.model, self.train, self.vtac
        if min(m.layers, m.heads, m.dim, m.feat_dim, m.patch, m.classes) < 1:
            raise ConfigError("model.layers/heads/dim/feat_dim/patch/classes out of range")
        if m.vocab_max <= len(RESERVED):
            raise ConfigError(f"model.vocab_max must exceed the {len(RESERVED)} reserved tokens, "
                              f"got {m.vocab_max}")
        if m.dim % m.heads != 0:
            raise ConfigError(f"model.dim ({m.dim}) must be divisible by model.heads ({m.heads})")
        if t.variant not in VARIANTS:
            raise ConfigError(f"train.variant must be one of {VARIANTS}, got {t.variant!r}")
        # every block layer-norms model.dim channels; vdmae and full also the summary's feat_dim
        if m.dim < 2:
            raise ConfigError(f"model.dim must be at least 2 for layer norm, got {m.dim}")
        if t.variant != "base" and m.feat_dim < 2:
            raise ConfigError(f"model.feat_dim must be at least 2 for layer norm in the "
                              f"{t.variant} variant, got {m.feat_dim}")
        if not (0.0 < v.k <= 1.0):
            raise ConfigError(f"vtac.k must lie in (0, 1], got {v.k}")
        for key in ("lr_ve", "lr_ed", "lambda", "delta"):
            value = getattr(t, _FIELD_ALIASES.get(key, key))
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"train.{key} must be finite and non-negative, got {value}")
        if t.patience < 0 or t.epochs < 1 or t.batch < 1:
            raise ConfigError("train.patience/epochs/batch out of range")
        if self.decode.beam < 1 or self.decode.max_len < 1:
            raise ConfigError("decode.beam/max_len out of range")
        return self


# "lambda" is a keyword, so the flat key differs from the field name.
_FIELD_ALIASES = {"lambda": "lambda_"}
_KEY_ALIASES = {v: k for k, v in _FIELD_ALIASES.items()}


def _coerce(key: str, value, target):
    """``value`` as the type of the field's current value ``target``.

    Integers come from ints or integer strings, floats from numbers or
    numeric strings; a bool is neither, and anything else names the key.
    """
    if isinstance(target, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(f"{key}: expected true/false, got {value!r}")
    if isinstance(target, (int, float)):
        kind = type(target)
        if isinstance(value, (int, kind)) and not isinstance(value, bool):
            return kind(value)
        if isinstance(value, str):
            try:
                return kind(value)
            except ValueError:
                pass
        raise ConfigError(f"{key}: expected {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}")
    return str(value)


def apply_flat(cfg: RunConfig, flat: dict) -> RunConfig:
    """Set flat dotted keys on ``cfg``; unknown keys raise."""
    for key, value in flat.items():
        parts = key.split(".")
        if len(parts) != 2 or not hasattr(cfg, parts[0]):
            raise ConfigError(f"unknown config key {key!r}")
        section = getattr(cfg, parts[0])
        fname = _FIELD_ALIASES.get(parts[1], parts[1])
        if not any(f.name == fname for f in dataclasses.fields(section)):
            raise ConfigError(f"unknown config key {key!r}")
        setattr(section, fname, _coerce(key, value, getattr(section, fname)))
    return cfg


def to_flat(cfg: RunConfig) -> dict:
    flat = {}
    for section_field in dataclasses.fields(RunConfig):
        section = getattr(cfg, section_field.name)
        for f in dataclasses.fields(section):
            key = _KEY_ALIASES.get(f.name, f.name)
            flat[f"{section_field.name}.{key}"] = getattr(section, f.name)
    return flat


def load_config(path=None, overrides: dict = None) -> RunConfig:
    """Defaults <- optional JSON file <- optional overrides, then validate."""
    cfg = RunConfig()
    if path is not None:
        with open(path) as fh:
            try:
                file_flat = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}: malformed JSON ({e.msg})") from e
        if not isinstance(file_flat, dict):
            raise ConfigError(f"{path}: config must be a flat JSON object")
        apply_flat(cfg, file_flat)
    if overrides:
        apply_flat(cfg, overrides)
    return cfg.validate()


def save_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(to_flat(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")
