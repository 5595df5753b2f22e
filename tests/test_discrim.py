import numpy as np
import pytest

from camalign.autodiff import ShapeError, Tensor, backward, grad_of, tsum, zero_grads
from camalign.discrim import (discriminative_representation, inject_token,
                              normalize_representation, split_memory)


def test_weighted_sum_selects_row():
    tokens = Tensor([[1.0, 2.0], [3.0, 4.0]])
    rep = discriminative_representation(np.array([1.0, 0.0]), tokens)
    assert np.array_equal(rep.data, [[1.0, 2.0]])


def test_weighted_sum_zero_map_annihilates(rng):
    tokens = Tensor(rng.normal(size=(5, 3)))
    rep = discriminative_representation(np.zeros(5), tokens)
    assert np.array_equal(rep.data, np.zeros((1, 3)))


def test_weighted_sum_hand_case():
    tokens = Tensor([[1.0, 2.0], [3.0, 4.0]])
    rep = discriminative_representation(np.array([0.5, 0.5]), tokens)
    assert np.array_equal(rep.data, [[2.0, 3.0]])


def test_weighted_sum_length_mismatch():
    with pytest.raises(ShapeError):
        discriminative_representation(np.zeros(3), Tensor(np.zeros((2, 4))))


def test_normalized_representation_zero_mean(rng):
    rep = Tensor(rng.normal(size=(1, 8)))
    out = normalize_representation(rep, Tensor(np.ones(8)), Tensor(np.zeros(8)))
    assert abs(out.data.mean()) < 1e-9


def test_zero_map_gives_image_independent_summary(rng):
    gain = Tensor(rng.normal(size=4))
    bias = Tensor(rng.normal(size=4))
    outs = []
    for _ in range(2):
        tokens = Tensor(rng.normal(size=(6, 4)))
        rep = discriminative_representation(np.zeros(6), tokens)
        outs.append(normalize_representation(rep, gain, bias).data)
    assert np.allclose(outs[0], outs[1])


def test_inject_token_prepends(rng):
    tokens = Tensor(rng.normal(size=(4, 3)))
    summary = Tensor(rng.normal(size=(1, 3)))
    out = inject_token(summary, tokens)
    assert out.shape == (5, 3)
    assert np.array_equal(out.data[0], summary.data[0])
    assert np.array_equal(out.data[1:], tokens.data)


def test_inject_token_dim_mismatch():
    with pytest.raises(ShapeError):
        inject_token(Tensor(np.zeros((1, 4))), Tensor(np.zeros((3, 5))))


def test_split_memory_shapes(rng):
    encoded = Tensor(rng.normal(size=(5, 6)))
    summary, memory = split_memory(encoded)
    assert summary.shape == (1, 6)
    assert memory.shape == (4, 6)
    assert np.array_equal(summary.data[0], encoded.data[0])
    assert np.array_equal(memory.data, encoded.data[1:])


def test_split_memory_rejects_short_input():
    with pytest.raises(ShapeError):
        split_memory(Tensor(np.zeros((1, 4))))


def test_perturbing_summary_leaves_memory_bits_unchanged(rng):
    encoded = Tensor(rng.normal(size=(4, 5)))
    summary, memory = split_memory(encoded)
    before = memory.data.copy()
    summary.data += 100.0
    assert np.array_equal(memory.data, before)


def test_no_gradient_path_from_memory_to_summary(rng):
    encoded = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    summary, memory = split_memory(encoded)
    loss = tsum(memory * memory)
    backward(loss)
    # summary node untouched by a loss that uses only the memory rows
    assert summary.grad is None
    assert np.array_equal(grad_of(summary), np.zeros((1, 5)))
    # while a summary-consuming loss does reach it
    zero_grads([encoded, summary])
    backward(tsum(summary * 3.0))
    assert np.abs(grad_of(summary)).sum() > 0
