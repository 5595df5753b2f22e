import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camalign import autodiff as ad
from camalign.autodiff import (ContractError, ShapeError, Tensor, backward,
                               clip, concat, gather_rows, grad_of, layer_norm,
                               matmul, mean, relu, reshape, sigmoid, softmax,
                               tmax, tmin, trace, transpose, tsum)
from conftest import check_grads


# -- primitive semantics -------------------------------------------------------


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, a).data, a.data)


def test_matmul_hand_product():
    out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_zero_annihilates(rng):
    z = Tensor(np.zeros((3, 4)))
    b = Tensor(rng.normal(size=(4, 2)))
    assert np.array_equal(matmul(z, b).data, np.zeros((3, 2)))


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_matmul_stacked_equals_per_slice_product(rng):
    a, b = rng.normal(size=(3, 2, 4)), rng.normal(size=(3, 4, 5))
    out = matmul(Tensor(a), Tensor(b)).data
    assert out.shape == (3, 2, 5)
    assert all(np.array_equal(out[h], a[h] @ b[h]) for h in range(3))


@pytest.mark.parametrize("shape_a,shape_b", [
    ((3, 2, 4), (2, 4, 5)),        # leading axes differ
    ((2, 4), (3, 4, 5)),           # no broadcasting of a missing leading axis
    ((3, 2, 4), (3, 3, 5)),        # inner dimensions differ
])
def test_matmul_stacked_shape_error_names_both_shapes(shape_a, shape_b):
    pattern = rf"{re.escape(str(shape_a))}.*{re.escape(str(shape_b))}"
    with pytest.raises(ShapeError, match=pattern):
        matmul(Tensor(np.zeros(shape_a)), Tensor(np.zeros(shape_b)))


def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)


def test_softmax_closed_form():
    out = softmax(Tensor([0.0, np.log(3.0)])).data
    assert np.allclose(out, [0.25, 0.75], atol=1e-12)


def test_softmax_no_overflow_on_large_inputs():
    out = softmax(Tensor([1000.0, 1000.0])).data
    assert np.allclose(out, [0.5, 0.5], atol=1e-15)


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.floats(-30, 30))
@settings(max_examples=100, deadline=None)
def test_softmax_sums_to_one_and_shift_invariant(values, shift):
    x = np.array(values)
    p = softmax(Tensor(x)).data
    q = softmax(Tensor(x + shift)).data
    assert abs(p.sum() - 1.0) <= 1e-12
    assert (p >= 0).all()
    assert np.abs(p - q).max() < 1e-12


def test_softmax_mask_zeroes_entries():
    p = softmax(Tensor([[1.0, 2.0, 3.0]]), mask=np.array([[True, False, True]])).data
    assert p[0, 1] == 0.0
    assert abs(p.sum() - 1.0) <= 1e-12


def test_softmax_all_masked_row_rejected():
    with pytest.raises(ContractError):
        softmax(Tensor([[1.0, 2.0]]), mask=np.array([[False, False]]))


def test_relu_cases():
    assert np.array_equal(relu(Tensor([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0])
    assert np.array_equal(relu(Tensor([-3.0, -0.5])).data, [0.0, 0.0])
    x = np.array([1.0, 2.5])
    assert np.array_equal(relu(Tensor(x)).data, x)


def test_layer_norm_constant_vector_is_zero():
    out = layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, 0.0, atol=1e-9)


def test_layer_norm_hand_case_eps_zero():
    out = layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)), eps=0.0)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-12)


def test_layer_norm_zero_gain_gives_bias(rng):
    bias = rng.normal(size=4)
    out = layer_norm(Tensor(rng.normal(size=(2, 4))), Tensor(np.zeros(4)), Tensor(bias))
    assert np.allclose(out.data, np.broadcast_to(bias, (2, 4)))


def test_layer_norm_rejects_single_channel():
    with pytest.raises(ShapeError):
        layer_norm(Tensor([[1.0]]), Tensor([1.0]), Tensor([0.0]))


def test_tensor_rejects_non_finite():
    with pytest.raises(ContractError):
        Tensor([1.0, np.nan])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_result_names_its_primitive_and_operand_shapes():
    with pytest.raises(ContractError, match=r"^exp produced non-finite values from \(1,\)$"):
        ad.exp(Tensor([800.0], requires_grad=True))
    big = Tensor([1e308], requires_grad=True)
    with pytest.raises(ContractError, match=r"^add produced non-finite values from \(1,\), \(\)$"):
        big + 1e308


# -- backward contracts ------------------------------------------------------------


def test_backward_of_sum_is_ones():
    theta = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    backward(tsum(theta))
    assert np.array_equal(theta.grad, np.ones((2, 3)))


def test_backward_quadratic_hand_gradient():
    theta = Tensor([[1.0], [2.0]], requires_grad=True)
    loss = tsum(matmul(transpose(theta), theta))
    backward(loss)
    assert np.allclose(theta.grad, [[2.0], [4.0]], atol=1e-14)


def test_unreachable_parameter_gets_exact_zero():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0], requires_grad=True)
    backward(tsum(a * a))
    assert np.array_equal(grad_of(b), np.zeros(1))


def test_backward_rejects_non_scalar_seed():
    a = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ContractError):
        backward(a * 2.0)


def test_backward_linearity_exact():
    rng = np.random.default_rng(7)
    theta = Tensor(rng.normal(size=(3, 3)), requires_grad=True)

    def loss_a():
        return tsum(theta * theta)

    def loss_b():
        return tsum(relu(theta) * 2.0)

    ad.zero_grads([theta])
    backward(loss_a())
    ga = theta.grad.copy()
    ad.zero_grads([theta])
    backward(loss_b())
    gb = theta.grad.copy()
    ad.zero_grads([theta])
    backward(loss_a() + loss_b())
    assert np.abs(theta.grad - (ga + gb)).max() <= 1e-12


def test_tape_is_topologically_ordered(rng):
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    z = matmul(x, y)
    loss = tsum(softmax(z) * relu(z) + mean(z))
    tape = trace(loss)
    assert tape.verify()
    assert tape.nodes[-1] is loss


def test_detach_blocks_gradient(rng):
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    y = x * 2.0
    loss = tsum(y.detach() * 5.0)
    backward(loss)
    assert np.array_equal(grad_of(x), np.zeros(3))


# -- finite-difference checks for every primitive ------------------------------------


def _weighted(out, rng):
    w = Tensor(rng.normal(size=out.shape))
    return tsum(out * w)


PRIMITIVE_CASES = [
    ("add_broadcast", lambda a, b: a + b, (2, 3), (3,)),
    ("sub", lambda a, b: a - b, (2, 3), (2, 3)),
    ("mul_broadcast", lambda a, b: a * b, (2, 3), (1, 3)),
    ("div", lambda a, b: a / (b * b + 1.0), (2, 3), (2, 3)),
    ("matmul", matmul, (2, 3), (3, 4)),
    ("matmul_stacked", matmul, (3, 2, 4), (3, 4, 5)),         # (H,T,d) @ (H,d,S)
]


@pytest.mark.parametrize("name,op,shape_a,shape_b", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_binary_primitive_gradients(name, op, shape_a, shape_b, rng):
    a = Tensor(rng.normal(size=shape_a), requires_grad=True)
    b = Tensor(rng.normal(size=shape_b), requires_grad=True)
    w = Tensor(rng.normal(size=op(a, b).shape))
    check_grads(lambda: tsum(op(a, b) * w), [a, b])


UNARY_CASES = [
    ("exp", ad.exp, lambda r: r.normal(size=(2, 3))),
    ("log", ad.log, lambda r: r.uniform(0.5, 3.0, size=(2, 3))),
    ("sqrt", ad.sqrt, lambda r: r.uniform(0.5, 3.0, size=(2, 3))),
    ("relu", relu, lambda r: r.normal(size=(2, 3)) + 0.3),
    ("sigmoid", sigmoid, lambda r: r.normal(size=(2, 3)) * 3),
    ("clip", lambda t: clip(t, -0.5, 0.5), lambda r: r.normal(size=(2, 3))),
    ("softmax", softmax, lambda r: r.normal(size=(2, 5))),
    ("sum_axis", lambda t: tsum(t, axis=1), lambda r: r.normal(size=(3, 4))),
    ("sum_keepdims", lambda t: tsum(t, axis=0, keepdims=True), lambda r: r.normal(size=(3, 4))),
    ("mean", lambda t: mean(t, axis=1, keepdims=True), lambda r: r.normal(size=(3, 4))),
    ("max_axis", lambda t: tmax(t, axis=1), lambda r: r.normal(size=(3, 5))),
    ("min_axis", lambda t: tmin(t, axis=0), lambda r: r.normal(size=(3, 5))),
    ("max_all", tmax, lambda r: r.normal(size=(4,))),
    ("transpose", transpose, lambda r: r.normal(size=(2, 4))),
    ("reshape", lambda t: reshape(t, (4, 2)), lambda r: r.normal(size=(2, 4))),
    ("getitem", lambda t: t[1:3, ::2], lambda r: r.normal(size=(4, 5))),
]


@pytest.mark.parametrize("name,op,sample", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_primitive_gradients(name, op, sample, rng):
    x = Tensor(sample(rng), requires_grad=True)
    w = Tensor(np.random.default_rng(0).normal(size=op(x).shape))
    check_grads(lambda: tsum(op(x) * w), [x])


def test_masked_softmax_gradient(rng):
    x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    mask = rng.random((3, 5)) > 0.3
    mask[:, 0] = True
    w = Tensor(rng.normal(size=(3, 5)))
    check_grads(lambda: tsum(softmax(x, mask=mask) * w), [x])


def test_concat_gradient(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 3)))
    check_grads(lambda: tsum(concat([a, b], axis=0) * w), [a, b])


def test_gather_rows_gradient(rng):
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ids = np.array([0, 2, 2, 4])
    w = Tensor(rng.normal(size=(4, 3)))
    check_grads(lambda: tsum(gather_rows(table, ids) * w), [table])


def test_gather_rows_rejects_out_of_range():
    with pytest.raises(ContractError):
        gather_rows(Tensor(np.zeros((3, 2))), np.array([3]))


def test_layer_norm_gradient(rng):
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 6)))
    check_grads(lambda: tsum(layer_norm(x, gain, bias) * w), [x, gain, bias])
