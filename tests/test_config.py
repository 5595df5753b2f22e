import json

import pytest

from camalign.config import (ConfigError, RunConfig, apply_flat, load_config,
                             save_config, to_flat)


def test_defaults_follow_documented_values():
    cfg = RunConfig()
    assert cfg.model.layers == 3
    assert cfg.model.heads == 8
    assert cfg.model.dim == 512
    assert cfg.train.lambda_ == 1.0
    assert cfg.train.delta == 0.15
    assert cfg.train.patience == 10
    assert cfg.vtac.k == 0.25
    assert cfg.decode.beam == 3


def test_every_key_has_a_default():
    keys = to_flat(RunConfig())
    assert "model.dim" in keys and "train.lambda" in keys and "vtac.k" in keys
    assert keys["train.lambda"] == 1.0


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_flat(RunConfig(), {"model.nonsense": 1})
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_flat(RunConfig(), {"nonsense.dim": 1})


def test_flat_roundtrip():
    cfg = RunConfig()
    cfg.train.lambda_ = 0.5
    flat = to_flat(cfg)
    assert flat["train.lambda"] == 0.5
    rebuilt = apply_flat(RunConfig(), flat)
    assert to_flat(rebuilt) == flat


def test_load_from_file_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model.dim": 64, "model.heads": 4}))
    cfg = load_config(path, {"train.variant": "base", "vtac.k": "0.3"})
    assert cfg.model.dim == 64
    assert cfg.train.variant == "base"
    assert cfg.vtac.k == 0.3


def test_validation_rejects_indivisible_heads():
    with pytest.raises(ConfigError, match="divisible"):
        load_config(None, {"model.dim": 10, "model.heads": 4})


def test_validation_rejects_bad_variant():
    with pytest.raises(ConfigError, match="variant"):
        load_config(None, {"train.variant": "bogus"})


def test_validation_rejects_k_out_of_range():
    with pytest.raises(ConfigError):
        load_config(None, {"vtac.k": 0.0})


def test_save_echo_roundtrip(tmp_path):
    cfg = load_config(None, {"model.dim": 32, "model.heads": 2})
    path = tmp_path / "echo.json"
    save_config(cfg, path)
    again = load_config(path)
    assert to_flat(again) == to_flat(cfg)
