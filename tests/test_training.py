import json
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from camalign import autodiff, backbone, training
from camalign.autodiff import backward, grad_of, linear, trace, zero_grads
from camalign.backbone import MultiHeadAttention
from camalign.cli import _load_run
from camalign.config import ConfigError, load_config
from camalign.data import (BOS, Sample, SyntheticSpec, build_vocab, generate_synthetic,
                           tokenize)
from camalign.decoding import greedy_decode
from camalign.model import build_model
from camalign.optim import Adam
from camalign.training import (TrainingDiverged, TrainState, evaluate_split, run_model,
                               sample_losses, train, train_step)
from conftest import composed_attention

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
    # a run trains in float32 (max 3.4e38): each sample's total is about 1.45e38,
    # so validation's two-sample sum is finite and the batch's four-sample sum is not
    train_s, val_s = micro_dataset()
    with pytest.raises(TrainingDiverged, match=r"^tsum produced non-finite values from \(4,\);"):
        train(micro_cfg(**{"train.lambda": 2e38}), train_s, val_s, tmp_path / "run")
    dump = json.loads((tmp_path / "run" / "diverged_batch.json").read_text())
    assert len(dump["loss_terms"]) == len(dump["samples"]) == 4
    assert dump["error"] == "tsum produced non-finite values from (4,)"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_gradient_that_overflows_adam_dumps_every_sample_loss(tmp_path):
    # each sample's total is about 7e37, so the float32 forward pass stays finite, but
    # gradients of that order square past 3.4e38 in Adam's second moment
    train_s, val_s = micro_dataset()
    with pytest.raises(TrainingDiverged, match=r"^adam: the gradient of extractor\.w1 overflows "
                                               r"float32 in its update;"):
        train(micro_cfg(**{"train.lambda": 1e38}), train_s, val_s, tmp_path / "run")
    dump = json.loads((tmp_path / "run" / "diverged_batch.json").read_text())
    assert len(dump["loss_terms"]) == len(dump["samples"]) == 4
    assert all(np.isfinite(terms["total"]) for terms in dump["loss_terms"])


@pytest.mark.parametrize("key", ["train.lambda", "train.delta"])
def test_a_loss_weight_past_the_float32_range_names_its_key(tmp_path, key):
    train_s, val_s = micro_dataset()
    with pytest.raises(ConfigError, match=rf"^{re.escape(key)}=1e\+308 exceeds the float32 range"):
        train(micro_cfg(**{key: 1e308}), train_s, val_s, tmp_path / "run")


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


# -- one graph per batch ------------------------------------------------------------


def mixed_batch(views):
    """1- and 2-glyph samples (reports of two lengths, so the selected word
    counts differ) with the given view counts, plus one all-special report."""
    samples = []
    for i, v in enumerate(views):
        pool = micro_dataset(samples=16, seed=10 + i, views=v)[0]
        one, two = ([s for s in pool if s.labels.sum() == glyphs] for glyphs in (1, 2))
        samples += one[:2] + two[:2]
    vocab = build_vocab([s.report for s in samples])
    odd = samples[1]
    samples.insert(2, Sample(id="special", images=odd.images, report="zzz qqq", labels=odd.labels))
    return samples, vocab


@pytest.mark.parametrize("views", [(1,), (2,), (1, 2)], ids=["one_view", "two_views", "mixed"])
@pytest.mark.parametrize("variant", ["base", "vdmae", "full"])
def test_batch_equals_mean_of_batches_of_one(variant, views):
    samples, vocab = mixed_batch(views)
    cfg = micro_cfg(**{"train.variant": variant, "model.layers": 2, "model.max_len": 20,
                       "train.delta": 0.5, "vtac.k": 0.3})
    model = build_model(cfg, len(vocab), np.random.default_rng(4))
    params = model.params()

    breakdowns, loss = sample_losses(model, samples, vocab, cfg)
    zero_grads(params.values())
    backward(loss)
    batched = {name: grad_of(p).copy() for name, p in params.items()}

    mean_grads = {name: np.zeros_like(p.data) for name, p in params.items()}
    totals = []
    for sample, got in zip(samples, breakdowns):
        one = model.forward_train(sample.images, tokenize(sample.report, vocab), sample.labels,
                                  lam=cfg.train.lambda_, delta=cfg.train.delta, k=cfg.vtac.k)
        want = one.breakdown
        assert max(abs(got.ce - want.ce), abs(got.bce - want.bce), abs(got.mse - want.mse)) <= 1e-12
        totals.append(float(one.total.data))
        zero_grads(params.values())
        backward(one.total)
        for name, p in params.items():
            mean_grads[name] += grad_of(p) / len(samples)
    assert breakdowns[2].mse == 0.0                      # the all-special report
    if variant == "full":
        assert all(b.mse > 0.0 for i, b in enumerate(breakdowns) if i != 2)
    assert abs(float(loss.data) - np.mean(totals)) <= 1e-12
    for name in params:
        np.testing.assert_allclose(batched[name], mean_grads[name], rtol=0, atol=1e-10,
                                   err_msg=name)


def test_a_batch_builds_one_graph():
    samples, vocab = mixed_batch((1, 1))
    cfg = micro_cfg(**{"train.variant": "full"})
    model = build_model(cfg, len(vocab), np.random.default_rng(4))
    one, eight = (len(trace(sample_losses(model, samples[:n], vocab, cfg)[1]).nodes)
                  for n in (1, 8))
    assert eight < 1.5 * one


def test_a_batch_graph_keeps_no_bias_free_product_or_unscaled_softmax_input():
    """Every projection is one ``linear`` or ``linear_relu`` node and every
    attention is two nodes between its projections: no ``add`` takes a
    ``matmul`` output and a 1-D parameter, each ``attention_probs`` reads two
    projections, no ``softmax`` node (nor its input scores) is left, no
    ``relu`` reads a projection and no residual ``add`` feeds a ``layer_norm``."""
    samples, vocab = mixed_batch((1,))
    cfg = micro_cfg(**{"train.variant": "full", "model.layers": 2, "model.max_len": 20,
                       "train.delta": 0.5, "vtac.k": 0.3})
    model = run_model(cfg, len(vocab))
    params = {id(p) for p in model.params().values()}

    def op(node):
        return node._backward.__qualname__.split(".")[0] if node._backward else "leaf"

    nodes = trace(sample_losses(model, samples, vocab, cfg)[1]).nodes
    ops = Counter(op(node) for node in nodes)
    # extractor stage 2, encoder input, two encoder and two decoder blocks (four per
    # attention, one per FFN), vocabulary output; the extractor's stage 1 and each
    # FFN's first projection are ``linear_relu``
    assert ops["linear"] == 1 + 1 + 2 * (4 + 1) + 2 * (4 + 4 + 1) + 1
    assert ops["linear_relu"] == 1 + 2 + 2
    assert ops["layer_norm"] == 2 * 2 + 2 * 3 + 1
    assert ops["attention_probs"] == ops["mix_heads"] == 2 * 1 + 2 * 2
    assert ops["softmax"] == 0
    for node in nodes:
        if op(node) == "add":
            a, b = node._parents
            assert not (op(a) == "matmul" and id(b) in params and b.ndim == 1)
        if op(node) == "attention_probs":
            assert [op(parent) for parent in node._parents] == ["linear", "linear"]
        if op(node) == "relu":
            assert all(op(parent) != "linear" for parent in node._parents)
        if op(node) == "layer_norm":   # only the position table's constant add reaches a norm
            assert all(not all(p.requires_grad for p in parent._parents)
                       for parent in node._parents if op(parent) == "add")


# -- the releasing sweep ------------------------------------------------------------------


@pytest.mark.parametrize("narrow", [False, True], ids=["float64", "float32"])
def test_the_releasing_sweep_gives_every_leaf_the_plain_sweeps_gradient(narrow):
    samples, vocab = mixed_batch((1, 2))
    cfg = micro_cfg(**{"train.variant": "full", "model.layers": 2, "model.max_len": 20,
                       "train.delta": 0.5, "vtac.k": 0.3})
    model = (run_model(cfg, len(vocab)) if narrow
             else build_model(cfg, len(vocab), np.random.default_rng(4)))
    leaf_grads = {}
    for release in (False, True):
        loss = sample_losses(model, samples, vocab, cfg)[1]
        zero_grads(model.params().values())
        tape = backward(loss, release=release)
        assert len(tape.nodes) == len(trace(loss).nodes)
        interior = [node for node in tape.nodes if node._backward is not None]
        assert interior and all((node.grad is None) == release for node in interior)
        leaf_grads[release] = [None if node.grad is None else node.grad.copy()
                               for node in tape.nodes if node._backward is None]
    assert sum(g is not None for g in leaf_grads[True]) == len(model.params())
    for plain, released in zip(*leaf_grads.values(), strict=True):
        assert (plain is None) == (released is None)
        if plain is not None:
            assert plain.dtype == released.dtype and np.array_equal(plain, released)


def _step_peak(model, opt, samples, vocab, cfg) -> int:
    """Bytes one ``train_step`` allocates at its peak, traced by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_step(model, opt, samples, vocab, cfg)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_train_step_peak_falls_with_the_releasing_sweep(monkeypatch):
    """One micro step under tracemalloc: the step's own sweep against the plain one.
    The ratio of the two peaks reads about 0.65 from run to run."""
    samples, vocab = mixed_batch((2,))
    cfg = micro_cfg(**{"train.variant": "full", "model.max_len": 20,
                       "train.delta": 0.5, "vtac.k": 0.3})
    model = run_model(cfg, len(vocab))
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])
    train_step(model, opt, samples, vocab, cfg)

    releasing = _step_peak(model, opt, samples, vocab, cfg)
    monkeypatch.setattr(training, "backward", lambda loss, **_: backward(loss))
    plain = _step_peak(model, opt, samples, vocab, cfg)
    assert releasing < 0.75 * plain, (releasing, plain)


def _composed_mha(self, query, keys, values, mask=None):
    """``MultiHeadAttention.__call__`` with its two attention nodes as the op chain they replace."""
    q = linear(query, self.wq, self.bq)
    k = linear(keys, self.wk, self.bk)
    v = linear(values, self.wv, self.bv)
    scores, mixed = composed_attention(q, k, v, self.heads, self.scale, mask)
    return linear(mixed, self.wo, self.bo), scores


def test_a_train_step_peak_falls_with_the_two_attention_nodes(monkeypatch):
    """One micro two-view step under tracemalloc: the two-node attention against
    the op chain it replaced.  The ratio of the two peaks reads about 0.81 from run to run."""
    samples, vocab = mixed_batch((2,))
    cfg = micro_cfg(**{"train.variant": "base", "model.max_len": 20})
    model = run_model(cfg, len(vocab))
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])
    train_step(model, opt, samples, vocab, cfg)

    fused = _step_peak(model, opt, samples, vocab, cfg)
    monkeypatch.setattr(MultiHeadAttention, "__call__", _composed_mha)
    composed = _step_peak(model, opt, samples, vocab, cfg)
    assert fused < 0.88 * composed, (fused, composed)


def _composed_linear_relu(x, w, b):
    return autodiff.relu(linear(x, w, b))


def _composed_layer_norm(x, gain, bias, residual=None):
    return autodiff.layer_norm(x if residual is None else autodiff.add(x, residual), gain, bias)


def test_a_train_step_peak_falls_with_the_fused_relu_and_residual_norm(monkeypatch):
    """One micro two-view step under tracemalloc: ``linear_relu`` and the
    residual ``layer_norm`` against the op chains they replaced.  The ratio of
    the two peaks reads about 0.85 from run to run."""
    samples, vocab = mixed_batch((2,))
    cfg = micro_cfg(**{"train.variant": "base", "model.max_len": 20})
    model = run_model(cfg, len(vocab))
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])
    train_step(model, opt, samples, vocab, cfg)

    fused = _step_peak(model, opt, samples, vocab, cfg)
    monkeypatch.setattr(backbone, "linear_relu", _composed_linear_relu)
    monkeypatch.setattr(backbone, "layer_norm", _composed_layer_norm)
    composed = _step_peak(model, opt, samples, vocab, cfg)
    assert fused < 0.92 * composed, (fused, composed)


# -- float32 runs ---------------------------------------------------------------------


@pytest.mark.parametrize("views", [(1,), (2,)], ids=["one_view", "two_views"])
@pytest.mark.parametrize("variant", ["base", "vdmae", "full"])
def test_a_float32_step_and_decoder_step_make_no_float64(monkeypatch, variant, views):
    samples, vocab = mixed_batch(views)
    cfg = micro_cfg(**{"train.variant": variant, "model.max_len": 20,
                       "train.delta": 0.5, "vtac.k": 0.3})
    model = run_model(cfg, len(vocab))
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])
    dtypes = Counter()
    make, accumulate = autodiff._make, autodiff._accumulate

    def counted_make(data, parents, backward_fn):
        out = make(data, parents, backward_fn)
        dtypes["result", out.data.dtype.name] += 1
        return out

    def counted_accumulate(t, g):
        dtypes["gradient", np.asarray(g).dtype.name] += 1
        accumulate(t, g)

    monkeypatch.setattr(autodiff, "_make", counted_make)
    monkeypatch.setattr(autodiff, "_accumulate", counted_accumulate)
    train_step(model, opt, samples, vocab, cfg)
    step = model.step_fn(samples[0].images)
    step_rows = [step([[BOS]]), step([[BOS, 4]])]
    assert set(dtypes) == {("result", "float32"), ("gradient", "float32")}, dtypes
    assert {rows.dtype for rows in step_rows} == {np.dtype(np.float32)}
    for name, p in model.params().items():
        assert p.data.dtype == opt.m[name].dtype == opt.v[name].dtype == np.float32, name


def test_float32_and_float64_runs_agree_on_the_first_step_loss_terms():
    samples, vocab = mixed_batch((1, 2))
    cfg = micro_cfg(**{"train.variant": "full", "model.layers": 2, "model.max_len": 20,
                       "train.delta": 0.5, "vtac.k": 0.3})
    wide = build_model(cfg, len(vocab), np.random.default_rng([cfg.train.seed, 0]))
    narrow = run_model(cfg, len(vocab))
    for want, got in zip(sample_losses(wide, samples, vocab, cfg)[0],
                         sample_losses(narrow, samples, vocab, cfg)[0]):
        np.testing.assert_allclose([got.ce, got.bce, got.mse, got.total],
                                   [want.ce, want.bce, want.mse, want.total], rtol=1e-5, atol=0)


def test_a_float32_checkpoint_reloads_as_the_model_it_saved(tmp_path):
    train_s, val_s = micro_dataset()
    result = train(micro_cfg(), train_s, val_s, tmp_path / "run")
    _, _, loaded = _load_run(tmp_path / "run", "last")
    for name, p in result.model.params().items():
        got = loaded.params()[name].data
        assert got.dtype == np.float32 and np.array_equal(got, p.data), name
    for sample in train_s + val_s:
        assert greedy_decode(loaded.step_fn(sample.images), 14) == \
            greedy_decode(result.model.step_fn(sample.images), 14)
