"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The two training-based criteria (7 and 8) dominate the runtime;
both stay well inside their stated budgets on a laptop-class CPU.
"""
import time

import numpy as np
import pytest

from camalign.autodiff import backward, grad_of, zero_grads
from camalign.config import RunConfig, load_config
from camalign.consistency import (consistency_loss, select_important_words,
                                  textual_map, word_similarities)
from camalign.data import (BOS, EOS, GLYPH_NAMES, PAD, UNK, SyntheticSpec,
                           build_vocab, generate_synthetic, tokenize)
from camalign.decoding import beam_search, greedy_decode
from camalign.losses import report_cross_entropy
from camalign.metrics import bleu_n, cider, evaluate_corpus, rouge_l
from camalign.model import build_model
from camalign.optim import Adam
from camalign.saliency import (class_activation_map, classify_global,
                               normalize_map, visual_map_from_features)
from camalign.training import generate_report, train, train_step
from camalign.autodiff import Tensor

from test_decoding import enumerate_best, toy_lm
from test_metrics import (MICRO_CORPUS, oracle_bleu, oracle_cider,
                          oracle_rouge_l)


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:>2}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# -- shared micro fixtures -------------------------------------------------------------


def micro_setup(variant="full", seed=2):
    """D=8, heads=2, layers=1, N^s=4, vocab capped at 12, 3 classes."""
    spec = SyntheticSpec(grid=8, patches=2, classes=("solid", "cross", "dot"),
                         glyph_min=1, glyph_max=2, samples=8, seed=4)
    samples, _ = generate_synthetic(spec)
    cfg = load_config(None, {
        "model.layers": 1, "model.heads": 2, "model.dim": 8, "model.feat_dim": 6,
        "model.patch": 4, "model.classes": 3, "model.vocab_max": 12,
        "model.max_len": 14, "decode.max_len": 14, "train.seed": seed,
        "train.variant": variant})
    vocab = build_vocab([s.report for s in samples], max_size=12)
    model = build_model(cfg, len(vocab), np.random.default_rng([seed, 0]))
    return model, samples, vocab, cfg


def forward(model, sample, vocab, cfg, pinned_map=None):
    ids = tokenize(sample.report, vocab)
    return model.forward_train(sample.images, ids, sample.labels,
                               lam=cfg.train.lambda_, delta=cfg.train.delta,
                               k=cfg.vtac.k, pinned_map=pinned_map)


# -- criterion 1: gradient integrity ---------------------------------------------------


def test_criterion_1_gradient_integrity():
    start = time.time()
    model, samples, vocab, cfg = micro_setup("full")
    sample = samples[0]
    assert len(vocab) == 12
    assert model.extractor([sample.images[0]]).shape[0] == 4

    # the visual map is a constant target by design, so the finite-difference
    # probe holds it at its value from the evaluation point
    pinned = forward(model, sample, vocab, cfg).maps.visual_map.copy()

    def build_loss():
        return forward(model, sample, vocab, cfg, pinned_map=pinned).total

    params = model.params()
    wanted_prefixes = (
        "extractor.w1", "extractor.b1", "extractor.w2", "extractor.b2",
        "encoder.proj.w", "encoder.proj.b",
        "encoder.block0.attn.wq", "encoder.block0.attn.wo",
        "encoder.block0.ffn.w1", "encoder.block0.norm1.gain",
        "decoder.embedding", "decoder.block0.self.wq",
        "decoder.block0.cross.wk", "decoder.block0.cross.wv",
        "decoder.block0.ffn.w2", "decoder.block0.norm2.bias",
        "decoder.out.w", "decoder.out.b",
        "class_head.w", "summary_norm.gain", "summary_norm.bias")
    chosen = {name: params[name] for name in wanted_prefixes}

    loss = build_loss()
    zero_grads(chosen.values())
    backward(loss)
    analytic = {name: grad_of(p).copy() for name, p in chosen.items()}

    coord_rng = np.random.default_rng(0)
    checked, worst = 0, 0.0
    h = 1e-5
    for name, p in chosen.items():
        for idx in coord_rng.choice(p.size, size=min(2, p.size), replace=False):
            orig = p.data.flat[idx]
            p.data.flat[idx] = orig + h
            hi = float(build_loss().data)
            p.data.flat[idx] = orig - h
            lo = float(build_loss().data)
            p.data.flat[idx] = orig
            numeric = (hi - lo) / (2 * h)
            a = analytic[name].flat[idx]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            worst = max(worst, err)
            checked += 1
            assert err < 1e-4, f"{name}[{idx}]: analytic {a:.6g} vs numeric {numeric:.6g}"
    elapsed = time.time() - start
    report(1, "gradient integrity", checked >= 20 and worst < 1e-4 and elapsed < 60,
           f"{checked} coords over {len(chosen)} tensors, worst rel err {worst:.2e}, {elapsed:.1f}s")


# -- criterion 2: detach contract ------------------------------------------------------


def test_criterion_2_detach_contract():
    model, samples, vocab, cfg = micro_setup("full")
    sample = samples[0]
    result = forward(model, sample, vocab, cfg)
    ids = tokenize(sample.report, vocab)

    ce = report_cross_entropy(result.decoder.log_probs, ids[1:])
    backward(ce)
    ce_grad_zero = np.array_equal(grad_of(result.summary),
                                  np.zeros_like(result.summary.data))

    result2 = forward(model, sample, vocab, cfg)
    backward(consistency_loss(result2.text_map, result2.maps.visual_map))
    mse_grad_nonzero = np.abs(grad_of(result2.summary)).sum() > 0

    memory, summary, _ = model.encode_images(sample.images)
    before = model.decoder(ids[:-1], memory).log_probs.data
    summary.data += 123.456
    after = model.decoder(ids[:-1], memory).log_probs.data
    bit_identical = np.array_equal(before, after)

    report(2, "detach contract", ce_grad_zero and mse_grad_nonzero and bit_identical,
           f"dL_ce/dr*=0: {ce_grad_zero}, dL_mse/dr*!=0: {mse_grad_nonzero}, "
           f"decoder bits stable: {bit_identical}")


# -- criterion 3: CAM/GAP identity -----------------------------------------------------


def test_criterion_3_cam_gap_identity():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        n, c, k = rng.integers(2, 12), rng.integers(2, 10), rng.integers(1, 8)
        feats = rng.normal(size=(n, c)) * rng.uniform(0.1, 5.0)
        head = rng.normal(size=(k, c))
        probs = classify_global(Tensor(feats), Tensor(head))
        for class_idx in range(k):
            cam = class_activation_map(feats, head, class_idx)
            worst = max(worst, abs(cam.mean() - probs.logits.data[class_idx]))
    report(3, "CAM/GAP identity", worst < 1e-10, f"worst |logit - mean(cam)| = {worst:.2e}")


# -- criterion 4: map invariants -------------------------------------------------------


def test_criterion_4_map_invariants():
    rng = np.random.default_rng(8)
    ok = True
    for i in range(1000):
        n = int(rng.integers(2, 12))
        if i % 4 == 0:
            raw = np.full(n, float(rng.normal()))          # constant map
        elif i % 4 == 1:
            raw = -np.abs(rng.normal(size=n))              # all-negative map
        else:
            raw = rng.normal(size=n) * rng.uniform(0.1, 10)
        norm = normalize_map(raw)
        ok &= bool((norm >= 0).all() and (norm <= 1).all())

        feats = rng.normal(size=(n, 4))
        head = rng.normal(size=(3, 4))
        visual = visual_map_from_features(Tensor(feats), Tensor(head)).visual_map
        ok &= bool((visual >= 0).all() and (visual <= 1).all())

        t = int(rng.integers(1, 5))
        attn = rng.normal(size=(t, n))
        if i % 5 == 0:
            attn[0] = -np.abs(attn[0])                     # degenerate row
        sims = word_similarities(Tensor(rng.normal(size=(t, 4))),
                                 Tensor(rng.normal(size=(1, 4))))
        selected = select_important_words(sims, np.ones(t, dtype=bool),
                                          float(rng.uniform(0.2, 1.0)))
        text = textual_map(Tensor(attn), sims, selected).data
        ok &= bool((text >= 0).all() and (text <= 1).all())

        target = rng.random(n)
        ok &= float(consistency_loss(Tensor(target.copy()), target).data) == 0.0
        bumped = target.copy()
        bumped[int(rng.integers(n))] += float(rng.uniform(0.1, 1.0))
        ok &= float(consistency_loss(Tensor(bumped), target).data) > 0.0
    report(4, "map invariants over 1000 randomized samples", ok)


# -- criterion 5: metric oracles -------------------------------------------------------


def test_criterion_5_metric_oracles():
    cands = [c for c, _ in MICRO_CORPUS]
    refs = [r for _, r in MICRO_CORPUS]
    deltas = [abs(bleu_n(cands, refs, n) - oracle_bleu(cands, refs, n)) for n in (1, 2, 3, 4)]
    deltas.append(abs(rouge_l(cands, refs) - oracle_rouge_l(cands, refs)))
    deltas.append(abs(cider(cands, refs) - oracle_cider(cands, refs)))
    oracle_ok = max(deltas) < 1e-9

    identical = evaluate_corpus(cands, [[c] for c in cands])
    ident_ok = all(abs(v - 1.0) < 1e-12 for v in
                   (identical.bleu_1, identical.bleu_2, identical.bleu_3,
                    identical.bleu_4, identical.rouge_l))
    report(5, "metric oracles on 10-sentence corpus", oracle_ok and ident_ok,
           f"max |metric - oracle| = {max(deltas):.2e}")


# -- criterion 6: decoding -------------------------------------------------------------


def test_criterion_6_decoding():
    greedy_ok = all(beam_search(toy_lm(seed), 1, 8) == greedy_decode(toy_lm(seed), 8)
                    for seed in range(8))
    enum_ok = all(beam_search(toy_lm(seed), 3, 4) == enumerate_best(toy_lm(seed), 5, 4)
                  for seed in (0, 1, 3, 4, 5))
    report(6, "beam search vs greedy and enumeration", greedy_ok and enum_ok)


# -- criterion 7: overfit check --------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_overfit_16_samples():
    start = time.time()
    spec = SyntheticSpec(grid=28, patches=7, classes=GLYPH_NAMES[:6],
                         glyph_min=1, glyph_max=2, samples=16, seed=11)
    samples, _ = generate_synthetic(spec)
    cfg = load_config(None, {
        "model.layers": 2, "model.heads": 4, "model.dim": 64, "model.feat_dim": 32,
        "model.classes": 6, "model.max_len": 24, "decode.max_len": 24,
        "train.seed": 0, "train.batch": 16})
    vocab = build_vocab([s.report for s in samples])
    model = build_model(cfg, len(vocab), np.random.default_rng([0, 0]))
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])
    refs = [[s.report.lower()] for s in samples]

    best, steps_used = 0.0, 0
    for step in range(1, 501):
        train_step(model, opt, samples, vocab, cfg)
        if step >= 100 and step % 25 == 0:
            cands = [generate_report(model, s, vocab, 1, cfg.decode.max_len)
                     for s in samples]
            best = bleu_n(cands, refs, 4)
            steps_used = step
            if best >= 0.95:
                break
    elapsed = time.time() - start
    report(7, "overfit 16 samples to BLEU-4 >= 0.95",
           best >= 0.95 and steps_used <= 500 and elapsed < 600,
           f"bleu_4={best:.4f} at step {steps_used}, {elapsed:.0f}s")


# -- criterion 8: alignment emergence --------------------------------------------------


def alignment_rate(model, vocab, cfg, test_samples, alignment):
    """Fraction of single-glyph samples whose aggregated attention map peaks
    on the glyph's ground-truth patch.

    The full variant uses its own similarity-selected, weighted map; the
    base variant aggregates the same head-averaged final-layer attention over
    all content words with unit weights (it has no summary token to rank by).
    """
    hits = total = 0
    for sample in test_samples:
        if sample.labels.sum() != 1:
            continue
        ids = tokenize(sample.report, vocab)
        result = model.forward_train(sample.images, ids, sample.labels,
                                     lam=cfg.train.lambda_, delta=cfg.train.delta,
                                     k=cfg.vtac.k)
        cell = next(iter(alignment[sample.id].values()))
        if model.variant == "full":
            text = result.text_map.data
        else:
            prefix = ids[:-1]
            attn = result.decoder.cross_final_avg.data
            content = [j for j, t in enumerate(prefix) if t not in (PAD, BOS, EOS, UNK)]
            text = np.stack([normalize_map(attn[j]) for j in content]).max(axis=0)
        hits += int(np.argmax(text) == cell)
        total += 1
    return hits / total, total


@pytest.mark.slow
def test_criterion_8_alignment_emergence(tmp_path):
    start = time.time()
    spec = SyntheticSpec(grid=28, patches=7, classes=GLYPH_NAMES[:6],
                         glyph_min=1, glyph_max=2, samples=200, seed=21)
    samples, alignment = generate_synthetic(spec)
    train_s, val_s, test_s = samples[:140], samples[140:160], samples[160:]
    # consistency pressure per the larger-corpus profile (delta 0.5, k 0.3);
    # patience widened so early stop cannot cut the comparison short
    flat = {"model.layers": 2, "model.heads": 4, "model.dim": 64,
            "model.feat_dim": 32, "model.classes": 6, "model.max_len": 24,
            "decode.max_len": 24, "train.seed": 5, "train.batch": 8,
            "train.epochs": 30, "train.patience": 30,
            "train.delta": 0.5, "vtac.k": 0.3}

    rates, results = {}, {}
    for variant in ("base", "vdmae", "full"):
        cfg = load_config(None, {**flat, "train.variant": variant})
        results[variant] = train(cfg, train_s, val_s, tmp_path / variant)
        if variant != "vdmae":
            rates[variant], counted = alignment_rate(
                results[variant].model, results[variant].vocab, cfg, test_s, alignment)

    val_mse = [h["mse"] for h in results["full"].history if h["split"] == "val"]
    mse_halved = min(val_mse) <= 0.5 * val_mse[0]
    rate_ok = rates["full"] >= 0.6 and rates["full"] > rates["base"]
    elapsed = time.time() - start
    report(8, "alignment emergence across variants",
           mse_halved and rate_ok and elapsed < 1800,
           f"val mse {val_mse[0]:.5f}->{min(val_mse):.5f}, "
           f"rate full={rates['full']:.2f} base={rates['base']:.2f} "
           f"over {counted} samples, {elapsed:.0f}s")


# -- criterion 9: parameter overhead ---------------------------------------------------


def test_criterion_9_parameter_overhead():
    counts = {}
    for variant in ("base", "vdmae", "full"):
        cfg = RunConfig()
        cfg.train.variant = variant
        counts[variant] = build_model(cfg, 64, np.random.default_rng(0)).parameter_count()
    c, nc = RunConfig().model.feat_dim, RunConfig().model.classes
    exact = counts["full"] - counts["base"] == nc * c + 2 * c
    same = counts["vdmae"] == counts["full"]
    small = (counts["full"] - counts["base"]) / counts["base"] < 0.005
    # the identity is config-independent
    model_micro = micro_setup("full")[0]
    base_micro = micro_setup("base")[0]
    micro_exact = (model_micro.parameter_count() - base_micro.parameter_count()
                   == 3 * 6 + 2 * 6)
    report(9, "parameter overhead", exact and same and small and micro_exact,
           f"overhead {counts['full'] - counts['base']} params "
           f"= {(counts['full'] - counts['base']) / counts['base']:.4%} of base")


# -- criterion 10: ablation harness ----------------------------------------------------


def test_criterion_10_ablation_harness(tmp_path):
    import json

    from camalign.cli import main

    data_dir = tmp_path / "data"
    assert main(["synth", "--out", str(data_dir), "--samples", "20", "--seed", "1",
                 "--glyphs", "3", "--grid", "8", "--patches", "2",
                 "--max-glyphs", "2"]) == 0
    out = tmp_path / "ablation"
    code = main(["ablate", "--data", str(data_dir), "--out", str(out), "--quiet",
                 "--set", "model.layers=1", "model.heads=2", "model.dim=8",
                 "model.feat_dim=6", "model.patch=4", "model.classes=3",
                 "model.max_len=14", "decode.max_len=14", "train.epochs=1",
                 "train.batch=4", "train.seed=7"])
    rows = json.loads((out / "ablation.json").read_text())
    table = (out / "ablation.txt").read_text()
    harness_ok = (code == 0
                  and [r["variant"] for r in rows] == ["base", "vdmae", "full"]
                  and all("avg_delta" in r for r in rows)
                  and rows[0]["avg_delta"] is None
                  and "avg_delta" in table)
    report(10, "ablation harness emits three-variant table", harness_ok)
