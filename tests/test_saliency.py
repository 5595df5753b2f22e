import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camalign.autodiff import Tensor, backward
from camalign.saliency import (class_activation_map, classify_global, normalize_map,
                               visual_map_from_features)


def test_global_pool_is_arithmetic_mean():
    result = classify_global(Tensor([[1.0, 3.0], [3.0, 5.0]]), Tensor(np.zeros((2, 2))))
    # with zero head weights the pooled vector only shows through the logits,
    # so check the pooling directly
    from camalign.autodiff import mean
    pooled = mean(Tensor([[1.0, 3.0], [3.0, 5.0]]), axis=0)
    assert np.array_equal(pooled.data, [2.0, 4.0])
    assert np.allclose(result.probs, 0.5)


def test_probability_exactly_half_means_absent():
    # zero weights force every probability to exactly sigmoid(0) = 0.5
    result = classify_global(Tensor(np.ones((3, 4))), Tensor(np.zeros((2, 4))))
    assert np.array_equal(result.presence, [0, 0])


def test_presence_strictly_above_threshold(rng):
    head = Tensor(rng.normal(size=(3, 4)))
    result = classify_global(Tensor(rng.normal(size=(5, 4))), head)
    assert np.array_equal(result.presence, (result.probs > 0.5).astype(np.int64))


def test_cam_logit_identity(rng):
    feats = rng.normal(size=(6, 5))
    head = rng.normal(size=(3, 5))
    probs = classify_global(Tensor(feats), Tensor(head))
    for c in range(3):
        cam = class_activation_map(feats, head, c)
        assert abs(cam.mean() - probs.logits.data[c]) < 1e-10


def test_cam_basis_vector_reads_a_channel(rng):
    feats = rng.normal(size=(4, 3))
    head = np.zeros((2, 3))
    head[0, 0] = 1.0
    assert np.allclose(class_activation_map(feats, head, 0), feats[:, 0])


def test_cam_locality(rng):
    feats = np.zeros((5, 3))
    feats[2] = rng.normal(size=3)
    cam = class_activation_map(feats, rng.normal(size=(2, 3)), 1)
    assert np.count_nonzero(cam) <= 1


def test_cam_rejects_bad_class_index(rng):
    with pytest.raises(IndexError):
        class_activation_map(np.zeros((3, 2)), np.zeros((2, 2)), 2)


def test_normalize_map_hand_case():
    out = normalize_map(np.array([-2.0, 0.0, 1.0, 3.0]))
    assert np.allclose(out, [0.0, 0.0, 1.0 / 3.0, 1.0], atol=1e-15)


def test_normalize_map_degenerate_cases():
    assert np.array_equal(normalize_map(np.array([-1.0, -5.0, 0.0])), np.zeros(3))
    assert np.array_equal(normalize_map(np.full(4, 2.0)), np.zeros(4))


def test_normalize_map_min_zero_divides_by_max():
    out = normalize_map(np.array([0.0, 2.0, 4.0]))
    assert np.allclose(out, [0.0, 0.5, 1.0])


def test_normalize_map_idempotent_on_normalized(rng):
    m = normalize_map(rng.normal(size=12))
    if m.max() > m.min():
        assert np.allclose(normalize_map(m), m, atol=1e-12)


def test_fallback_uses_argmax_probability_class(rng):
    # tiny weights keep every probability near 0.5 from below or above;
    # scale head so probabilities all land at or below 0.5
    feats = rng.normal(size=(4, 3))
    head = -np.abs(rng.normal(size=(3, 3)))
    tokens = Tensor(np.abs(feats))
    result = visual_map_from_features(tokens, Tensor(head))
    if result.probs.presence.sum() == 0:
        best = int(np.argmax(result.probs.probs))
        assert np.allclose(result.visual_map, normalize_map(result.cams[best]))


def test_visual_map_is_max_of_chosen_normalised_cams(rng):
    """Per sample: the elementwise max of the chosen classes' normalised CAMs."""
    for _ in range(10):
        feats = rng.normal(size=(2, 8, 4))
        head = rng.normal(size=(5, 4))
        result = visual_map_from_features(Tensor(feats), Tensor(head))
        for b in range(2):
            chosen = np.flatnonzero(result.probs.presence[b])
            if chosen.size == 0:
                chosen = [int(np.argmax(result.probs.probs[b]))]
            expected = np.max([normalize_map(class_activation_map(feats[b], head, c))
                               for c in chosen], axis=0)
            assert np.allclose(result.visual_map[b], expected, rtol=0, atol=1e-12)



@pytest.mark.parametrize("leading", [(), (3,)], ids=["one_sample", "batch"])
def test_pipeline_cams_are_the_class_activation_maps(rng, leading):
    """The raw maps the pipeline normalises are the CAMs whose mean is the
    class logit, each at its own scale (min-max normalisation would hide one)."""
    tokens = Tensor(rng.normal(size=(*leading, 6, 5)))
    head = Tensor(rng.normal(size=(4, 5)))
    result = visual_map_from_features(tokens, head)
    assert result.cams.shape == (*leading, 4, 6)
    for c in range(4):
        assert np.array_equal(result.cams[..., c, :],
                              class_activation_map(tokens.data, head.data, c))

def test_visual_map_in_unit_interval(rng):
    for _ in range(20):
        tokens = Tensor(rng.normal(size=(8, 4)))
        head = Tensor(rng.normal(size=(5, 4)))
        result = visual_map_from_features(tokens, head)
        assert result.visual_map.min() >= 0.0
        assert result.visual_map.max() <= 1.0


def test_visual_map_max_is_one_for_nonconstant_maps(rng):
    tokens = Tensor(rng.normal(size=(8, 4)))
    head = Tensor(rng.normal(size=(5, 4)))
    result = visual_map_from_features(tokens, head)
    chosen = np.flatnonzero(result.probs.presence)
    if chosen.size == 0:
        chosen = [int(np.argmax(result.probs.probs))]
    if any(normalize_map(result.cams[i]).max() > 0 for i in chosen):
        assert result.visual_map.max() == 1.0


def test_permutation_equivariance(rng):
    feats = rng.normal(size=(6, 4))
    head = rng.normal(size=(3, 4))
    perm = rng.permutation(6)
    for c in range(3):
        cam = class_activation_map(feats, head, c)
        cam_perm = class_activation_map(feats[perm], head, c)
        assert np.allclose(cam_perm, cam[perm])
    a = visual_map_from_features(Tensor(feats), Tensor(head)).visual_map
    b = visual_map_from_features(Tensor(feats[perm]), Tensor(head)).visual_map
    assert np.allclose(b, a[perm])


@given(hnp.arrays(np.float64, st.integers(2, 16),
                  elements=st.floats(-100, 100)))
@settings(max_examples=100, deadline=None)
def test_normalize_map_range_property(raw):
    out = normalize_map(raw)
    assert (out >= 0.0).all() and (out <= 1.0).all()
    if np.maximum(raw, 0).max() > np.maximum(raw, 0).min():
        assert out.max() == 1.0


def test_bce_gradient_reaches_class_head(rng):
    from camalign.losses import label_bce
    head = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    tokens = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    result = classify_global(tokens, head)
    backward(label_bce(result.logits, np.array([1, 0, 1])))
    assert np.abs(head.grad).sum() > 0
    assert np.abs(tokens.grad).sum() > 0
