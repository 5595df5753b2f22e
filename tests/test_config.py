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


def test_negative_seed_is_a_config_error_naming_the_key():
    with pytest.raises(ConfigError, match="train.seed must be non-negative, got -1"):
        load_config(None, {"train.seed": -1})


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


@pytest.mark.parametrize("key", ["model.heads", "model.dim", "model.feat_dim", "model.layers"])
def test_zero_width_is_a_config_error_not_a_division(key):
    with pytest.raises(ConfigError, match=key.split(".")[1]):
        load_config(None, {key: 0})


@pytest.mark.parametrize("variant", ["base", "vdmae", "full"])
def test_a_one_channel_width_is_a_config_error_before_layer_norm_sees_it(variant):
    """Layer norm needs two channels: ``model.dim`` in every variant, and the
    summary token's ``model.feat_dim`` in vdmae and full."""
    with pytest.raises(ConfigError, match=r"model\.dim"):
        load_config(None, {"model.dim": 1, "model.heads": 1, "train.variant": variant})
    one_feature = {"model.feat_dim": 1, "train.variant": variant}
    if variant == "base":
        assert load_config(None, one_feature).model.feat_dim == 1
    else:
        with pytest.raises(ConfigError, match=r"model\.feat_dim"):
            load_config(None, one_feature)
    assert load_config(None, {"model.dim": 2, "model.heads": 1, "model.feat_dim": 2,
                              "train.variant": variant}).model.dim == 2


@pytest.mark.parametrize("value", [4, 0])
def test_a_vocabulary_cap_with_room_for_no_word_is_a_config_error(value):
    """The four reserved tokens fill a cap of 4 or less, so every word would be ``<unk>``."""
    with pytest.raises(ConfigError, match=r"model\.vocab_max"):
        load_config(None, {"model.vocab_max": value})
    assert load_config(None, {"model.vocab_max": 5}).model.vocab_max == 5


@pytest.mark.parametrize("key, value", [
    ("model.dim", 64.7), ("model.dim", 64.0), ("train.epochs", True), ("model.dim", "abc"),
    ("model.dim", "64.5"), ("model.dim", None), ("train.lr_ed", False), ("train.lr_ed", "fast"),
    ("vtac.k", [0.3]),
])
def test_values_of_the_wrong_type_name_the_key(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        apply_flat(RunConfig(), {key: value})


def test_config_file_with_a_fractional_int_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model.dim": 64.7}))
    with pytest.raises(ConfigError, match="model.dim"):
        load_config(path)


def test_numbers_and_numeric_strings_are_accepted():
    cfg = apply_flat(RunConfig(), {"model.dim": "64", "train.epochs": 3,
                                   "train.lr_ed": 1, "train.lr_ve": "1e-4"})
    assert (cfg.model.dim, cfg.train.epochs) == (64, 3)
    assert cfg.train.lr_ed == 1.0 and isinstance(cfg.train.lr_ed, float)
    assert cfg.train.lr_ve == 1e-4


@pytest.mark.parametrize("key", ["train.lr_ve", "train.lr_ed", "train.lambda", "train.delta"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_learning_rates_and_loss_weights_must_be_finite_and_non_negative(key, value):
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(None, {key: value})


def test_zero_and_huge_rates_and_weights_stay_legal():
    cfg = load_config(None, {"train.lr_ve": 0, "train.lr_ed": 0, "train.lambda": 1e308,
                             "train.delta": 0})
    assert cfg.train.lambda_ == 1e308 and cfg.train.lr_ed == 0.0
