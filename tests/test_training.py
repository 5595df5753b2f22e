import json

import numpy as np
import pytest

from camalign.config import load_config
from camalign.data import Sample, SyntheticSpec, generate_synthetic
from camalign.training import (TrainingDiverged, TrainState, evaluate_split,
                               train)

MICRO = {"model.layers": 1, "model.heads": 2, "model.dim": 8,
         "model.feat_dim": 6, "model.patch": 4, "model.classes": 3,
         "model.max_len": 14, "decode.max_len": 14,
         "train.epochs": 2, "train.batch": 4, "train.seed": 7}


def micro_dataset(samples=10, seed=3, views=1):
    spec = SyntheticSpec(grid=8, patches=2, classes=("solid", "cross", "dot"),
                         glyph_min=1, glyph_max=2, samples=samples, seed=seed,
                         views=views)
    data, _ = generate_synthetic(spec)
    split = max(2, int(0.8 * len(data)))
    return data[:split], data[split:]


def micro_cfg(**overrides):
    flat = dict(MICRO)
    flat.update(overrides)
    return load_config(None, flat)


def test_fixed_seed_gives_bit_identical_metric_logs(tmp_path):
    train_s, val_s = micro_dataset()
    cfg = micro_cfg()
    r1 = train(cfg, train_s, val_s, tmp_path / "run1")
    r2 = train(cfg, train_s, val_s, tmp_path / "run2")
    for name in ("metrics.jsonl", "checkpoint_best.bin", "checkpoint_last.bin"):
        assert (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes(), name
    assert r1.state.best_metric == r2.state.best_metric


def test_rerun_from_echoed_config_reproduces_log(tmp_path):
    train_s, val_s = micro_dataset()
    train(micro_cfg(), train_s, val_s, tmp_path / "run1")
    echoed = load_config(tmp_path / "run1" / "config.json")
    train(echoed, train_s, val_s, tmp_path / "run2")
    assert (tmp_path / "run1" / "metrics.jsonl").read_bytes() == \
        (tmp_path / "run2" / "metrics.jsonl").read_bytes()


def test_run_dir_contains_expected_artifacts(tmp_path):
    train_s, val_s = micro_dataset()
    train(micro_cfg(), train_s, val_s, tmp_path / "run")
    for name in ("config.json", "vocab.json", "metrics.jsonl",
                 "checkpoint_best.bin", "checkpoint_last.bin"):
        assert (tmp_path / "run" / name).exists(), name


def test_base_variant_logs_zero_auxiliary_terms(tmp_path):
    train_s, val_s = micro_dataset()
    result = train(micro_cfg(**{"train.variant": "base"}), train_s, val_s, tmp_path / "run")
    for record in result.history:
        assert record["bce"] == 0.0 and record["mse"] == 0.0


def test_metrics_log_schema(tmp_path):
    train_s, val_s = micro_dataset()
    train(micro_cfg(), train_s, val_s, tmp_path / "run")
    records = [json.loads(line) for line in
               (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()]
    assert records[0]["epoch"] == 0 and records[0]["split"] == "val"
    val_records = [r for r in records if r["split"] == "val"]
    for r in val_records:
        for key in ("ce", "bce", "mse", "total", "bleu_1", "bleu_2", "bleu_3",
                    "bleu_4", "rouge_l", "cider"):
            assert key in r
    train_records = [r for r in records if r["split"] == "train"]
    assert len(train_records) >= 1


def test_early_stop_at_best_plus_patience(tmp_path):
    # lr = 0 freezes the model, so epoch 1 sets the best and nothing improves
    train_s, val_s = micro_dataset()
    cfg = micro_cfg(**{"train.lr_ve": 0.0, "train.lr_ed": 0.0,
                       "train.epochs": 12, "train.patience": 2})
    result = train(cfg, train_s, val_s, tmp_path / "run")
    assert result.state.best_epoch == 1
    assert result.state.epoch == 1 + 2


def test_train_state_patience_arithmetic():
    state = TrainState()
    state.epoch = 1
    assert state.update(0.5)
    for epoch in (2, 3, 4):
        state.epoch = epoch
        assert not state.update(0.5)        # ties do not improve
    assert state.epochs_since_best == 3
    assert state.should_stop(3) and not state.should_stop(4)


def test_nan_input_aborts_with_batch_dump(tmp_path):
    train_s, val_s = micro_dataset()
    poisoned = Sample(id="bad", images=[np.full((8, 8), np.nan)],
                      report="there is a cross in r0c0 .",
                      labels=np.array([0, 1, 0]))
    with pytest.raises(TrainingDiverged, match="diverged_batch.json"):
        train(micro_cfg(), train_s + [poisoned], val_s, tmp_path / "run")
    dump = json.loads((tmp_path / "run" / "diverged_batch.json").read_text())
    assert any(s["id"] == "bad" for s in dump["samples"])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_batch_loss_dumps_every_sample_loss(tmp_path):
    # each sample's total is finite, their sum over the batch is not
    train_s, val_s = micro_dataset()
    with pytest.raises(TrainingDiverged, match=r"^add produced non-finite values from \(\), \(\);"):
        train(micro_cfg(**{"train.lambda": 1e308}), train_s, val_s, tmp_path / "run")
    dump = json.loads((tmp_path / "run" / "diverged_batch.json").read_text())
    assert len(dump["loss_terms"]) == len(dump["samples"]) == 4
    assert dump["error"] == "add produced non-finite values from (), ()"


def test_empty_split_rejected(tmp_path):
    train_s, val_s = micro_dataset()
    with pytest.raises(ValueError):
        train(micro_cfg(), [], val_s, tmp_path / "run")
    with pytest.raises(ValueError):
        train(micro_cfg(), train_s, [], tmp_path / "run")


def test_evaluate_split_returns_losses_and_metrics(tmp_path):
    train_s, val_s = micro_dataset()
    result = train(micro_cfg(), train_s, val_s, tmp_path / "run")
    breakdown, report, candidates = evaluate_split(
        result.model, val_s, result.vocab, micro_cfg(), beam=2)
    assert len(candidates) == len(val_s)
    assert breakdown.ce > 0
    assert 0.0 <= report.bleu_4 <= 1.0


def test_two_view_training_smoke(tmp_path):
    train_s, val_s = micro_dataset(views=2)
    result = train(micro_cfg(**{"model.max_len": 18, "decode.max_len": 18}),
                   train_s, val_s, tmp_path / "run")
    assert np.isfinite(result.history[-1]["total"])
