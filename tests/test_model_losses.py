import gc
import weakref

import numpy as np
import pytest

from camalign.autodiff import ContractError, Tensor, backward, grad_of, log_softmax
from camalign.config import ModelSection
from camalign.data import PAD, SyntheticSpec, build_vocab, generate_synthetic, tokenize
from camalign.decoding import beam_search, greedy_decode
from camalign.losses import composite_loss, label_bce, report_cross_entropy
from camalign.model import CaptionModel
from camalign.training import generate_report


# -- loss terms ---------------------------------------------------------------------


def test_cross_entropy_zero_when_certain():
    log_probs = log_softmax(Tensor(50.0 * np.eye(3)[[0, 2, 1]]))
    assert float(report_cross_entropy(log_probs, [0, 2, 1]).data) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_closed_form():
    log_probs = Tensor(np.full((2, 4), np.log(0.25)))
    out = report_cross_entropy(log_probs, [1, 3])
    assert float(out.data) == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_ignores_pads():
    log_probs = Tensor(np.full((2, 4), np.log(0.25)))
    base = report_cross_entropy(log_probs, [1, 3])
    padded = Tensor(np.full((4, 4), np.log(0.25)))
    with_pads = report_cross_entropy(padded, [1, 3, PAD, PAD])
    assert float(base.data) == pytest.approx(float(with_pads.data), abs=1e-15)


def test_cross_entropy_rejects_all_pad():
    with pytest.raises(ContractError):
        report_cross_entropy(Tensor(np.full((2, 4), np.log(0.25))), [PAD, PAD])


def test_bce_zero_when_matching():
    logits = Tensor(np.array([30.0, -30.0, 30.0]))
    out = label_bce(logits, np.array([1, 0, 1]))
    assert float(out.data) < 1e-10


def test_bce_half_closed_form():
    out = label_bce(Tensor(np.zeros(3)), np.array([1, 0, 1]))
    assert float(out.data) == pytest.approx(np.log(2.0), abs=1e-12)


def test_bce_flip_symmetry(rng):
    p = rng.uniform(0.05, 0.95, size=4)
    logits = np.log(p / (1.0 - p))
    y = np.array([1, 0, 1, 0])
    a = float(label_bce(Tensor(logits), y).data)
    b = float(label_bce(Tensor(-logits), 1 - y).data)
    assert a == pytest.approx(b, abs=1e-12)


@pytest.mark.parametrize("labels", [[2, 0, 1], [1, -1, 0], [0.7, 0, 1]])
def test_bce_rejects_labels_other_than_zero_or_one(labels):
    with pytest.raises(ContractError, match="labels must be 0 or 1"):
        label_bce(Tensor(np.zeros(3)), np.array(labels))


def test_cross_entropy_saturated_wrong_token_keeps_its_gradient():
    logits = Tensor(np.array([[40.0, 0.0, 0.0]]), requires_grad=True)
    loss = report_cross_entropy(log_softmax(logits), [1])
    backward(loss)
    assert float(loss.data) == pytest.approx(40.0, abs=1e-12)
    np.testing.assert_allclose(logits.grad, [[1.0, -1.0, 0.0]], rtol=0, atol=1e-12)


def test_bce_saturated_wrong_class_keeps_its_gradient():
    logits = Tensor(np.array([40.0, -40.0]), requires_grad=True)
    loss = label_bce(logits, np.array([0, 1]))
    backward(loss)
    assert float(loss.data) == pytest.approx(40.0, abs=1e-12)
    np.testing.assert_allclose(logits.grad, [0.5, -0.5], rtol=0, atol=1e-12)


def probability_space_cross_entropy(logits, targets):
    """The softmax-then-clipped-log formula the logit form replaced."""
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    rows = np.flatnonzero(targets != PAD)
    return -np.log(np.clip(p[rows, targets[rows]], 1e-12, 1.0)).sum() / rows.size


def probability_space_bce(logits, labels):
    """The sigmoid-then-clipped-log formula the logit form replaced."""
    e = np.exp(-np.abs(logits))
    p = np.clip(np.where(logits >= 0, 1.0, e) / (1.0 + e), 1e-12, 1.0 - 1e-12)
    return -(labels * np.log(p) + (1 - labels) * np.log(1.0 - p)).sum() / labels.size


def test_logit_losses_equal_probability_space_losses_when_unsaturated(rng):
    for _ in range(20):
        logits = rng.normal(size=(6, 9)) * 4
        targets = rng.integers(0, 9, size=6)
        ce = report_cross_entropy(log_softmax(Tensor(logits)), targets)
        assert abs(float(ce.data) - probability_space_cross_entropy(logits, targets)) < 1e-12
        class_logits = rng.normal(size=5) * 2
        labels = rng.integers(0, 2, size=5)
        bce = label_bce(Tensor(class_logits), labels)
        assert abs(float(bce.data) - probability_space_bce(class_logits, labels)) < 1e-12


def test_composite_weighted_sum_hand_case():
    total, breakdown = composite_loss(Tensor(2.0), Tensor(0.3), Tensor(0.4), lam=1.0, delta=0.15)
    assert float(total.data) == pytest.approx(2.36, abs=1e-12)
    assert breakdown.total == pytest.approx(2.36, abs=1e-12)


def test_composite_identity_exact(rng):
    ce, bce, mse = (Tensor(float(v)) for v in rng.uniform(0.1, 3.0, 3))
    lam, delta = 0.7, 0.3
    total, breakdown = composite_loss(ce, bce, mse, lam, delta)
    assert abs(breakdown.total - (breakdown.ce + lam * breakdown.bce + delta * breakdown.mse)) <= 1e-12
    assert abs(float(total.data) - breakdown.total) <= 1e-12


def test_composite_delta_zero_gates_mse():
    total_a, _ = composite_loss(Tensor(1.0), Tensor(0.5), Tensor(9.0), lam=1.0, delta=0.0)
    total_b, _ = composite_loss(Tensor(1.0), Tensor(0.5), Tensor(1.0), lam=1.0, delta=0.0)
    assert float(total_a.data) == float(total_b.data)


# -- integrated model ---------------------------------------------------------------


def micro_setup(variant="full", seed=0):
    spec = SyntheticSpec(grid=8, patches=2, classes=("solid", "cross", "dot"),
                         glyph_min=1, glyph_max=2, samples=6, seed=3)
    samples, _ = generate_synthetic(spec)
    vocab = build_vocab([s.report for s in samples])
    cfg = ModelSection(layers=1, heads=2, dim=8, feat_dim=6, patch=4, classes=3, max_len=12)
    model = CaptionModel(cfg, len(vocab), variant, np.random.default_rng(seed))
    return model, samples, vocab


def run_forward(model, sample, vocab, **kw):
    ids = tokenize(sample.report, vocab)
    args = dict(lam=1.0, delta=0.15, k=0.25)
    args.update(kw)
    return model.forward_train(sample.images, ids, sample.labels, **args)


def test_variant_gating():
    for variant, has_bce, has_mse in (("base", False, False),
                                      ("vdmae", True, False),
                                      ("full", True, True)):
        model, samples, vocab = micro_setup(variant)
        result = run_forward(model, samples[0], vocab)
        assert (result.breakdown.bce != 0.0) == has_bce
        assert (result.breakdown.mse != 0.0) == has_mse
        if variant == "base":
            assert result.maps is None and result.summary is None


def test_loss_breakdown_identity_on_model():
    model, samples, vocab = micro_setup("full")
    result = run_forward(model, samples[0], vocab)
    b = result.breakdown
    assert abs(float(result.total.data) - (b.ce + b.lam * b.bce + b.delta * b.mse)) <= 1e-12


def test_memory_width_equals_map_length_both_modes():
    model, samples, vocab = micro_setup("full")
    result = run_forward(model, samples[0], vocab)
    assert result.memory.shape[0] == result.maps.visual_map.shape[0]
    base, samples_b, vocab_b = micro_setup("base")
    result_b = run_forward(base, samples_b[0], vocab_b)
    assert result_b.memory.shape[0] == base.extractor([samples_b[0].images[0]]).shape[0]


def test_detach_contract_on_model():
    model, samples, vocab = micro_setup("full")
    result = run_forward(model, samples[0], vocab)
    ids = tokenize(samples[0].report, vocab)
    ce_only = report_cross_entropy(result.decoder.log_probs, ids[1:])
    backward(ce_only)
    assert np.array_equal(grad_of(result.summary), np.zeros_like(result.summary.data))

    model2, samples2, vocab2 = micro_setup("full")
    result2 = run_forward(model2, samples2[0], vocab2)
    from camalign.consistency import consistency_loss
    backward(consistency_loss(result2.text_map, result2.maps.visual_map))
    assert np.abs(grad_of(result2.summary)).sum() > 0


def test_perturbing_summary_never_changes_decoder_output():
    model, samples, vocab = micro_setup("full")
    sample = samples[0]
    memory, summary, _ = model.encode_images(sample.images)
    ids = tokenize(sample.report, vocab)
    before = model.decoder(ids[:-1], memory).log_probs.data
    summary.data += 1e6
    after = model.decoder(ids[:-1], memory).log_probs.data
    assert np.array_equal(before, after)


def test_pinned_map_overrides_computed():
    model, samples, vocab = micro_setup("full")
    n = model.extractor([samples[0].images[0]]).shape[0]
    pinned = np.linspace(0.0, 1.0, n)
    result = run_forward(model, samples[0], vocab, pinned_map=pinned)
    assert np.array_equal(result.maps.visual_map, pinned)


def test_parameter_overhead_exact():
    full, _, _ = micro_setup("full")
    vdmae, _, _ = micro_setup("vdmae")
    base, _, _ = micro_setup("base")
    c, nc = full.cfg.feat_dim, full.cfg.classes
    assert vdmae.parameter_count() == full.parameter_count()
    assert full.parameter_count() - base.parameter_count() == nc * c + 2 * c


def test_checkpoint_roundtrip_through_model(tmp_path):
    from camalign.checkpoint import load_params, save_params
    model, samples, vocab = micro_setup("full")
    result = run_forward(model, samples[0], vocab)
    path = tmp_path / "ckpt.bin"
    save_params(path, model.params())
    clone, _, _ = micro_setup("full", seed=99)
    clone.load_state(load_params(path))
    result_clone = run_forward(clone, samples[0], vocab)
    assert float(result.total.data) == float(result_clone.total.data)


def test_two_view_sample_forward():
    spec = SyntheticSpec(grid=8, patches=2, classes=("solid", "cross", "dot"),
                         glyph_min=1, glyph_max=2, samples=4, seed=5, views=2)
    samples, _ = generate_synthetic(spec)
    vocab = build_vocab([s.report for s in samples])
    cfg = ModelSection(layers=1, heads=2, dim=8, feat_dim=6, patch=4, classes=3, max_len=16)
    model = CaptionModel(cfg, len(vocab), "full", np.random.default_rng(0))
    sample = next(s for s in samples if len(s.images) == 2)
    result = run_forward(model, sample, vocab)
    assert result.maps.visual_map.shape == (8,)       # 2 views x 4 patches
    assert result.memory.shape[0] == 8
    assert np.isfinite(float(result.total.data))


def test_all_special_report_skips_consistency_term():
    # every content word unknown -> UNK -> masked -> the map term is skipped
    model, samples, vocab = micro_setup("full")
    sample = samples[0]
    ids = tokenize("zzz qqq", vocab)
    result = model.forward_train(sample.images, ids, sample.labels,
                                 lam=1.0, delta=0.15, k=0.25)
    assert result.breakdown.mse == 0.0
    assert result.text_map is None
    assert np.isfinite(float(result.total.data))


def test_step_fn_consistent_with_decoder():
    model, samples, vocab = micro_setup("full")
    step = model.step_fn(samples[0].images)
    assert step([[1]]).shape == (1, len(vocab))
    logp = step([[1, 5], [1, 4]])
    assert logp.shape == (2, len(vocab))
    np.testing.assert_allclose(np.exp(logp).sum(axis=1), 1.0, rtol=0, atol=1e-9)
    assert step([]).shape == (0, len(vocab))


# -- cached decoder step -------------------------------------------------------------


def reference_logp(model, prefix, memory):
    """The teacher-forced decoder's last row: what a step must return."""
    return model.decoder(list(prefix), Tensor(memory)).log_probs.data[-1]


def step_setup(layers, pos_enc, views):
    spec = SyntheticSpec(grid=8, patches=2, classes=("solid", "cross", "dot"),
                         glyph_min=1, glyph_max=2, samples=6, seed=3, views=views)
    samples, _ = generate_synthetic(spec)
    vocab = build_vocab([s.report for s in samples])
    cfg = ModelSection(layers=layers, heads=2, dim=8, feat_dim=6, patch=4, classes=3,
                       max_len=12, pos_enc=pos_enc)
    model = CaptionModel(cfg, len(vocab), "full", np.random.default_rng(layers))
    return model, samples[0]


@pytest.mark.parametrize("views", [1, 2])
@pytest.mark.parametrize("pos_enc", [True, False])
@pytest.mark.parametrize("layers", [0, 2])
def test_step_equals_decoder_on_every_visited_prefix(layers, pos_enc, views):
    model, sample = step_setup(layers, pos_enc, views)
    memory = model.encode_images(sample.images)[0].data
    assert memory.shape[0] == 4 * views
    step = model.step_fn(sample.images)
    for width in (1, 3, 5):            # every search on one closure: each [BOS] call starts over
        calls = []

        def recording(prefixes):
            out = step(prefixes)
            calls.append(([tuple(p) for p in prefixes], out))
            return out

        greedy_decode(recording, 8)
        beam_search(recording, width, 8)
        assert len({p for prefixes, _ in calls for p in prefixes}) > 8 or width == 1
        assert max(len(prefixes) for prefixes, _ in calls) == width
        for prefixes, out in calls:
            for prefix, row in zip(prefixes, out, strict=True):
                np.testing.assert_allclose(row, reference_logp(model, prefix, memory),
                                           rtol=0, atol=1e-12)


def test_saturated_step_log_probs_are_not_clipped():
    model, sample = step_setup(2, True, 1)
    model.decoder.out_w.data = model.decoder.out_w.data * 1e4
    memory = model.encode_images(sample.images)[0].data
    step = model.step_fn(sample.images)
    step([[1]])
    logp = step([[1, 5]])[0]
    assert logp.min() < -1000.0
    np.testing.assert_allclose(logp, reference_logp(model, [1, 5], memory), rtol=0, atol=1e-8)


def test_step_keeps_only_the_last_call():
    model, sample = step_setup(2, True, 1)
    memory = model.encode_images(sample.images)[0].data
    step = model.step_fn(sample.images)
    with pytest.raises(ContractError, match=r"prefix \(1, 5\) is not a row of the last call"):
        step([[1, 5]])                                   # cold: no [BOS] call first
    step([[1]])
    for mixed, named in (([[1, 5], [1, 5, 7]], r"\(1, 5, 7\)"), ([[1], [1, 5]], r"\(1, 5\)")):
        with pytest.raises(ContractError, match=f"prefix {named} is not a row"):
            step(mixed)                                  # one call, two lengths
    step([[1, 5]])
    np.testing.assert_allclose(step([[1, 5, 7]])[0], reference_logp(model, [1, 5, 7], memory),
                               rtol=0, atol=1e-12)
    with pytest.raises(ContractError, match=r"prefix \(1, 5, 9\) is not a row"):
        step([[1, 5, 9]])                                # its parent was a row two calls back


def test_step_rejects_empty_and_out_of_range_prefixes():
    model, samples, vocab = micro_setup("full")
    step = model.step_fn(samples[0].images)
    for prefix in ([], [1, len(vocab)], [1, -1]):
        with pytest.raises(ContractError, match=r"prefix must be non-empty ids in \[0, "):
            step([[1, 2], prefix])


def test_step_closure_is_freed_without_the_cycle_collector():
    # a cycle through the closure would keep every sample's cache alive until gc runs
    model, samples, _ = micro_setup("full")
    step = model.step_fn(samples[0].images)
    beam_search(step, 3, 6)
    alive = weakref.ref(step)
    gc.disable()
    try:
        del step
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("max_len", [1, 6, 12])
def test_beam_search_makes_one_step_call_per_position(max_len):
    model, samples, _ = micro_setup("full")
    step, calls = model.step_fn(samples[0].images), []

    def counting(prefixes):
        calls.append(len(prefixes))
        return step(prefixes)

    beam_search(counting, 3, max_len)
    assert 1 <= len(calls) <= max_len


@pytest.mark.parametrize("beam,value", [
    pytest.param(beam, value, id=f"{beam}{name}") for name, value in
    (("", np.nan), ("-inf", np.inf), ("-neg_inf", -np.inf)) for beam in (1, 3)])
def test_non_finite_decoder_weight_fails_generation(beam, value):
    # a NaN or -inf in ffn.w1 would otherwise be zeroed by the ReLU and decode garbage
    model, samples, vocab = micro_setup("full")
    model.decoder.blocks[0].ffn.w1.data[:, 0] = value
    with pytest.raises(ContractError, match="ffn.w1"):
        generate_report(model, samples[0], vocab, beam, 8)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_decoder_step_fails_generation():
    model, samples, vocab = micro_setup("full")
    model.decoder.out_w.data = np.full_like(model.decoder.out_w.data, 1e308)
    with pytest.raises(ContractError, match="non-finite"):
        generate_report(model, samples[0], vocab, 1, 8)
