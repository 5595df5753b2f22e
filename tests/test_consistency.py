import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camalign.autodiff import ContractError, ShapeError, Tensor, backward, softmax, tsum
from camalign.consistency import (consistency_loss, select_important_words,
                                  textual_map, word_similarities)
from conftest import check_grads


def sims_of(embeds, summary):
    embeds = Tensor(np.asarray(embeds, dtype=float))
    summary = Tensor(np.asarray(summary, dtype=float).reshape(1, -1))
    return word_similarities(embeds, summary)


def every_word(sims):
    return np.ones(sims.shape, dtype=bool)


def test_self_similarity_is_one():
    v = np.array([0.3, -1.2, 0.7])
    out = sims_of([v], v)
    assert out.data[0] == pytest.approx(1.0, abs=1e-12)


def test_orthogonal_vectors_zero():
    out = sims_of([[1.0, 0.0]], [0.0, 1.0])
    assert out.data[0] == pytest.approx(0.0, abs=1e-12)


def test_cosine_closed_form():
    out = sims_of([[1.0, 0.0]], [1.0, 1.0])
    assert out.data[0] == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)


def test_zero_vectors_are_safe():
    """A zero word or summary gets similarity 0 and exactly zero, finite gradients."""
    for embeds, summary in (([[0.0, 0.0]], [[0.0, 0.0]]),
                            ([[0.0, 0.0], [1.0, 2.0]], [[0.5, -1.0]]),
                            ([[1.0, 2.0]], [[0.0, 0.0]])):
        words = Tensor(embeds, requires_grad=True)
        target = Tensor(summary, requires_grad=True)
        out = word_similarities(words, target)
        backward(tsum(out * np.arange(1.0, len(embeds) + 1.0)))
        assert out.data[0] == 0.0
        assert np.array_equal(words.grad[0], [0.0, 0.0])
        assert np.isfinite(words.grad).all() and np.isfinite(target.grad).all()
        if not target.data.any():
            assert np.array_equal(target.grad, [[0.0, 0.0]])


def test_dim_mismatch_rejected():
    with pytest.raises(ShapeError):
        word_similarities(Tensor(np.zeros((2, 3))), Tensor(np.zeros((1, 4))))


# -- selection ---------------------------------------------------------------------


def test_gamma_is_ceiling_of_fraction(rng):
    sims = sims_of(rng.normal(size=(10, 4)), rng.normal(size=4))
    assert select_important_words(sims, every_word(sims), 0.25).size == 3     # ceil(2.5)


def test_selection_tie_break_lower_index():
    embeds = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    sims = sims_of(embeds, [1.0, 0.0])
    picked = select_important_words(sims, every_word(sims), 0.34)   # gamma = 2 of 3
    assert np.array_equal(np.sort(picked), [0, 1])


def test_selection_prefix_property(rng):
    sims = sims_of(rng.normal(size=(12, 4)), rng.normal(size=4))
    previous = set()
    for k in (0.1, 0.25, 0.5, 0.75, 1.0):
        picked = set(int(i) for i in select_important_words(sims, every_word(sims), k))
        assert previous <= picked
        previous = picked


def test_selection_respects_mask(rng):
    mask = np.array([True, False, True, False])
    sims = sims_of(rng.normal(size=(4, 3)), rng.normal(size=3))
    picked = select_important_words(sims, mask, 1.0)
    assert set(int(i) for i in picked) == {0, 2}


def test_masked_best_word_never_selected():
    # position 1 holds the highest similarity (exactly 1) but is masked out
    sims = sims_of([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [-1.0, 0.0]], [1.0, 0.0])
    mask = np.array([True, False, True, True])
    for k in (0.1, 0.5, 1.0):
        picked = select_important_words(sims, mask, k)
        assert 1 not in set(int(i) for i in picked)
    assert int(select_important_words(sims, mask, 0.1)[0]) == 2    # best unmasked word


def test_all_masked_raises():
    sims = sims_of(np.zeros((2, 3)), np.zeros(3))
    with pytest.raises(ContractError):
        select_important_words(sims, np.zeros(2, dtype=bool), 0.5)


def test_k_out_of_range_rejected(rng):
    sims = sims_of(rng.normal(size=(4, 3)), rng.normal(size=3))
    with pytest.raises(ContractError):
        select_important_words(sims, every_word(sims), 0.0)


# -- textual map --------------------------------------------------------------------


def build_map(attn_rows, embeds, summary, selected):
    sims = sims_of(embeds, summary)
    return textual_map(Tensor(np.asarray(attn_rows, dtype=float)), sims,
                       np.asarray(selected))


def test_single_word_weighted_map():
    # similarity 0.5 via unit vectors at 60 degrees
    embeds = [[1.0, 0.0]]
    summary = [0.5, np.sqrt(3) / 2.0]
    out = build_map([[0.0, 1.0]], embeds, summary, [0])
    assert np.allclose(out.data, [0.0, 0.5], atol=1e-12)


def test_two_word_elementwise_max():
    embeds = [[1.0, 0.0], [1.0, 0.0]]
    out = build_map([[1.0, 0.0], [0.0, 1.0]], embeds, [1.0, 0.0], [0, 1])
    assert np.allclose(out.data, [1.0, 1.0])


def test_negative_similarity_zero_weight():
    out = build_map([[0.3, 0.9]], [[1.0, 0.0]], [-1.0, 0.0], [0])
    assert np.allclose(out.data, [0.0, 0.0])


def test_attention_row_normalized_before_scaling():
    # row [0.2, 0.6]: min-max to [0, 1], then scaled by similarity 1
    out = build_map([[0.2, 0.6]], [[1.0, 0.0]], [1.0, 0.0], [0])
    assert np.allclose(out.data, [0.0, 1.0], atol=1e-12)


def test_empty_selection_rejected(rng):
    sims = sims_of(rng.normal(size=(2, 3)), rng.normal(size=3))
    with pytest.raises(ContractError):
        textual_map(Tensor(np.zeros((2, 4))), sims, np.array([], dtype=int))


def test_map_stays_in_unit_interval(rng):
    for _ in range(50):
        t, n = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        attn = rng.normal(size=(t, n))
        embeds = rng.normal(size=(t, 4))
        summary = rng.normal(size=4)
        sims = sims_of(embeds, summary)
        selected = select_important_words(sims, every_word(sims), float(rng.uniform(0.2, 1.0)))
        out = textual_map(Tensor(attn), sims, selected)
        assert (out.data >= 0.0).all() and (out.data <= 1.0).all()


def test_degenerate_attention_row_gives_zeros():
    out = build_map([[-1.0, -2.0, -3.0]], [[1.0, 0.0]], [1.0, 0.0], [0])
    assert np.array_equal(out.data, np.zeros(3))
    out = build_map([[0.4, 0.4, 0.4]], [[1.0, 0.0]], [1.0, 0.0], [0])
    assert np.array_equal(out.data, np.zeros(3))


def _per_word_reference(attn, weights, selected):
    """The textual map one selected word at a time, in plain numpy."""
    rows = []
    for j in selected:
        active = np.maximum(attn[j], 0.0)
        lo, hi = active.min(), active.max()
        normd = np.zeros_like(active) if hi == lo else (active - lo) / (hi - lo)
        rows.append(normd * max(weights[j], 0.0))
    return np.max(rows, axis=0)


def test_map_equals_per_word_reference(rng):
    for _ in range(30):
        t, n = int(rng.integers(1, 7)), int(rng.integers(2, 9))
        attn = rng.normal(size=(t, n))
        attn[rng.random(t) < 0.3] = rng.normal()             # some flat rows
        sims = sims_of(rng.normal(size=(t, 4)), rng.normal(size=4))
        selected = select_important_words(sims, every_word(sims), float(rng.uniform(0.2, 1.0)))
        out = textual_map(Tensor(attn), sims, selected)
        assert np.array_equal(out.data, _per_word_reference(attn, sims.data, selected))


def test_flat_selected_row_gets_exactly_zero_gradient():
    # row 1 is constant after the ReLU; rows 0 and 2 are ordinary and both
    # normalise to 0 at column 1, where the flat row, selected first, wins
    # the max-pool tie, so only the flat-row mask keeps its gradient at zero
    attn = Tensor([[0.5, 0.1, 0.9], [0.4, 0.4, 0.4], [0.2, 0.1, 0.3]], requires_grad=True)
    sims = sims_of([[1.0, 0.0], [1.0, 0.3], [1.0, 0.6]], [1.0, 0.0])
    out = textual_map(attn, sims, np.array([1, 0, 2]))
    without_flat = textual_map(Tensor(attn.data), sims, np.array([0, 2]))
    assert np.array_equal(out.data, without_flat.data)
    backward(consistency_loss(out, np.array([0.2, 0.9, 0.3])))
    assert np.array_equal(attn.grad[1], np.zeros(3))
    assert np.abs(attn.grad[0]).max() > 1e-3          # row 0 wins column 0 mid-range


# -- consistency loss ----------------------------------------------------------------


def test_loss_zero_iff_equal(rng):
    v = rng.random(6)
    assert consistency_loss(Tensor(v), v).data == pytest.approx(0.0, abs=0)
    w = v.copy()
    w[2] += 0.25
    assert consistency_loss(Tensor(w), v).data > 0


def test_loss_hand_case():
    out = consistency_loss(Tensor([0.0, 1.0]), np.array([1.0, 1.0]))
    assert float(out.data) == pytest.approx(0.5, abs=1e-15)


def test_loss_symmetric_in_arguments(rng):
    a, b = rng.random(5), rng.random(5)
    ab = consistency_loss(Tensor(a), b).data
    ba = consistency_loss(Tensor(b), a).data
    assert float(ab) == pytest.approx(float(ba), abs=1e-15)


def test_loss_length_mismatch():
    with pytest.raises(ShapeError):
        consistency_loss(Tensor(np.zeros(3)), np.zeros(4))


def test_target_receives_exactly_zero_gradient(rng):
    from camalign.autodiff import backward, grad_of
    pred = Tensor(rng.random(5), requires_grad=True)
    target = Tensor(rng.random(5), requires_grad=True)
    backward(consistency_loss(pred, target))
    assert np.abs(pred.grad).sum() > 0
    assert np.array_equal(grad_of(target), np.zeros(5))


def test_gradient_through_attention_logits(rng):
    # full differentiable path: logits -> softmax rows -> normalise -> weight -> max-pool -> mse
    logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    embeds = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    summary = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    target = rng.random(5)
    mask = np.ones(3, dtype=bool)

    def build_loss():
        attn = softmax(logits)
        sims = word_similarities(embeds, summary)
        selected = select_important_words(sims, mask, 0.7)
        return consistency_loss(textual_map(attn, sims, selected), target)

    check_grads(build_loss, [logits, embeds, summary], h=1e-5, tol=1e-4)


@given(st.integers(1, 40), st.floats(0.01, 1.0))
@settings(max_examples=80, deadline=None)
def test_gamma_bounds_property(n_words, k):
    gamma = int(np.ceil(k * n_words))
    assert 1 <= gamma <= n_words
