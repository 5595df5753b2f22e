import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camalign import autodiff as ad
from camalign.autodiff import (ContractError, ShapeError, Tensor, backward,
                               add, attention_probs, concat, cosine, grad_of,
                               layer_norm, linear, linear_relu, log_softmax, matmul, mean, minmax,
                               mix_heads, relu, reshape, self_attention, softmax, tmax, trace,
                               transpose, tsum)
from camalign.saliency import normalize_map
from conftest import check_grads, composed_attention


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


def test_matmul_shared_weight_gradient_is_the_sum_of_slice_products(rng):
    a = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    g = rng.normal(size=(3, 5, 6))
    backward(tsum(matmul(a, b) * g))
    expected = sum(a.data[i].T @ g[i] for i in range(3))
    assert b.grad.shape == (4, 6)
    assert np.abs(b.grad - expected).max() <= 1e-12


def test_matmul_stacked_gradient_equals_per_slice_products(rng):
    a = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4, 6)), requires_grad=True)
    g = rng.normal(size=(3, 5, 6))
    backward(tsum(matmul(a, b) * g))
    assert all(np.array_equal(b.grad[h], a.data[h].T @ g[h]) for h in range(3))
    assert all(np.array_equal(a.grad[h], g[h] @ b.data[h].T) for h in range(3))


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


def test_minmax_flat_and_all_negative_rows_are_zeros_with_zero_gradient(rng):
    x = Tensor([[2.0, 2.0, 2.0], [-1.0, -3.0, 0.0], [-1.0, 1.0, 3.0]], requires_grad=True)
    out = minmax(x)
    backward(tsum(out * rng.normal(size=(3, 3))))
    assert np.array_equal(out.data, [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1 / 3, 1.0]])
    assert np.array_equal(x.grad[:2], np.zeros((2, 3))) and x.grad[2, 1:].all()


def test_minmax_tied_row_routes_to_the_first_min_and_first_max():
    """(x - 1) / 2 on [1, 3, 1, 3, 2]: each entry gets 1/2 from the numerator;
    the first min also gets d/d(lo) = -1.25 and the first max d/d(hi) = -1.25."""
    x = Tensor([1.0, 3.0, 1.0, 3.0, 2.0], requires_grad=True)
    out = minmax(x)
    backward(tsum(out))
    assert np.array_equal(out.data, [0.0, 1.0, 0.0, 1.0, 0.5])
    assert np.array_equal(x.grad, [-0.75, -0.75, 0.5, 0.5, 0.5])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_normalize_map_is_minmax_bit_for_bit(dtype, rng):
    """One ReLU + min-max: the class maps' ``normalize_map`` is ``minmax``'s
    values, which equal the textbook formula; a float32 graph stays float32."""
    x = (rng.normal(size=(2, 3, 5)) * 3).astype(dtype)
    x[0, 0] = 1.5                                                  # a flat row
    x[0, 1] = -np.abs(x[0, 1])                                     # an all-negative row
    t = Tensor(x, requires_grad=True)
    out = minmax(t)
    backward(tsum(out * rng.normal(size=x.shape).astype(dtype)))
    m = np.maximum(x, 0.0)
    lo, hi = m.min(axis=-1, keepdims=True), m.max(axis=-1, keepdims=True)
    textbook = np.where(hi == lo, 0.0, (m - lo) / np.where(hi == lo, 1.0, hi - lo))
    assert out.data.dtype == t.grad.dtype == normalize_map(x).dtype == dtype
    assert normalize_map(x).tobytes() == out.data.tobytes()
    assert np.array_equal(out.data, textbook)


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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_tensor_rejects_non_finite():
    for dtype in (np.float64, np.float32):
        for values in ([1.0, np.nan], [np.inf, -np.inf], [np.nan], [1.0, np.inf], [[3e38, np.nan]]):
            with pytest.raises(ContractError):
                Tensor(np.array(values, dtype=dtype))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_tensor_accepts_finite_values_whose_sum_overflows():
    """Finite values whose sum or squares overflow pass, and keep their dtype."""
    for values, dtype in (([1e308, 1e308], np.float64), ([-1e308, -1e308], np.float64),
                          ([1e200], np.float64), ([3e38, 3e38], np.float32),
                          ([-3e38, 1.0, 3e38], np.float32), ([[2e19, -2e19]], np.float32)):
        arr = np.array(values, dtype=dtype)
        out = Tensor(arr).data
        assert out.dtype == dtype and np.array_equal(out, arr)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_result_names_its_primitive_and_operand_shapes():
    with pytest.raises(ContractError, match=r"^mul produced non-finite values from \(1,\), \(\)$"):
        Tensor([1e200], requires_grad=True) * 1e200
    big = Tensor([1e308], requires_grad=True)
    with pytest.raises(ContractError, match=r"^add produced non-finite values from \(1,\), \(\)$"):
        big + 1e308


# -- no_graph ----------------------------------------------------------------------


def test_no_graph_results_are_leaves_with_the_recorded_values(rng):
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(np.zeros(4), requires_grad=True)
    x = Tensor(rng.normal(size=(2, 3)))

    def build():
        return [linear(x, w, b), softmax(matmul(x, w), scale=0.5), layer_norm(x @ w, b + 1.0, b)]

    recorded = build()
    with ad.no_graph():
        free = build()
    for got, want in zip(free, recorded, strict=True):
        assert got._parents == () and got._backward is None and not got.requires_grad
        assert want.requires_grad and np.array_equal(got.data, want.data)
    assert w.requires_grad and b.requires_grad


def test_no_graph_is_restored_after_an_exception_and_when_nested(rng):
    w = Tensor(rng.normal(size=3), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with ad.no_graph():
            raise RuntimeError("raised inside the scope")
    assert (w * 2.0)._backward is not None
    with ad.no_graph():
        with ad.no_graph():
            assert not (w * 2.0).requires_grad
        assert not (w * 2.0).requires_grad           # the inner exit keeps the outer scope
    assert (w * 2.0).requires_grad


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


@pytest.mark.parametrize("order", ["add_first", "mul_first"])
def test_owned_first_gradient_is_never_written_through(order, rng):
    """``a + b`` hands both operands the same gradient array; ``a`` then
    receives a second gradient, which must not reach ``b``."""
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)

    def loss():
        shared, scaled = tsum(a + b), tsum(a * 3.0)
        return shared + scaled if order == "add_first" else scaled + shared

    backward(loss())
    assert np.array_equal(b.grad, np.ones((2, 3)))
    assert np.array_equal(a.grad, np.full((2, 3), 4.0))
    backward(loss())   # no zero_grads: a second pass adds onto the first
    assert np.array_equal(b.grad, np.full((2, 3), 2.0))
    assert np.array_equal(a.grad, np.full((2, 3), 8.0))


def test_accumulate_rejects_a_gradient_of_the_wrong_shape():
    t = Tensor(np.zeros((2, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match=r"\(3,\).*\(2, 3\)"):
        ad._accumulate(t, np.ones(3))


def test_scalar_gradient_keeps_the_tensor_shape():
    s = Tensor(2.0, requires_grad=True)
    backward(tsum(s + Tensor([1.0, 2.0, 3.0])))
    assert isinstance(s.grad, np.ndarray) and s.grad.shape == () and s.grad == 3.0


def test_no_source_writes_into_a_grad_in_place():
    """A tensor keeps its first gradient by reference, and that array may be
    another tensor's gradient, so ``.grad`` arrays are only ever rebound."""
    in_place = re.compile(r"\.grad\b(\[[^\]]*\])?\s*[-+*/]="      # augmented assignment
                          r"|\.grad\[[^\]]*\]\s*=(?!=)"             # item assignment
                          r"|\bout\s*=\s*[\w.]*\.grad\b")            # a ufunc's out=
    offenders = [f"{path.name}:{n}: {line.strip()}"
                 for path in sorted(Path(ad.__file__).parent.glob("*.py"))
                 for n, line in enumerate(path.read_text().splitlines(), 1)
                 if in_place.search(line)]
    assert not offenders, f"in-place writes into a .grad: {offenders}"


def test_tape_is_topologically_ordered(rng):
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    z = matmul(x, y)
    loss = tsum(softmax(z) * relu(z) + mean(z))
    tape = trace(loss)
    seen = set()
    for node in tape.nodes:   # every parent precedes its users
        assert all(id(p) in seen for p in node._parents)
        seen.add(id(node))
    assert tape.nodes[-1] is loss


# -- finite-difference checks for every primitive ------------------------------------


def _weighted(out, rng):
    w = Tensor(rng.normal(size=out.shape))
    return tsum(out * w)


PRIMITIVE_CASES = [
    ("add_broadcast", lambda a, b: a + b, (2, 3), (3,)),
    ("sub", lambda a, b: a - b, (2, 3), (2, 3)),              # add(a, mul(b, -1))
    ("mul_broadcast", lambda a, b: a * b, (2, 3), (1, 3)),
    ("matmul", matmul, (2, 3), (3, 4)),
    ("matmul_stacked", matmul, (3, 2, 4), (3, 4, 5)),         # (H,T,d) @ (H,d,S)
    ("matmul_shared", matmul, (2, 3, 4), (4, 5)),             # (B,T,D) @ one weight
    ("cosine", cosine, (4, 3), (1, 3)),
    ("cosine_batched", cosine, (2, 4, 3), (2, 1, 3)),
]


@pytest.mark.parametrize("name,op,shape_a,shape_b", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_binary_primitive_gradients(name, op, shape_a, shape_b, rng):
    a = Tensor(rng.normal(size=shape_a), requires_grad=True)
    b = Tensor(rng.normal(size=shape_b), requires_grad=True)
    w = Tensor(rng.normal(size=op(a, b).shape))
    check_grads(lambda: tsum(op(a, b) * w), [a, b])


UNARY_CASES = [
    ("relu", relu, lambda r: r.normal(size=(2, 3)) + 0.3),
    ("softmax", softmax, lambda r: r.normal(size=(2, 5))),
    ("softmax_scaled", lambda t: softmax(t, scale=0.35), lambda r: r.normal(size=(2, 5)) * 3),
    ("softmax_scaled_masked",                       # a causal (T, T) mask over (H, T, T) scores
     lambda t: softmax(t, mask=np.tril(np.ones((4, 4), dtype=bool)), scale=0.35),
     lambda r: r.normal(size=(2, 4, 4)) * 3),
    ("log_softmax", log_softmax, lambda r: r.normal(size=(2, 5)) * 3),
    ("log_softmax_saturated", log_softmax, lambda r: r.choice([-800.0, 800.0], size=(2, 5))),
    ("sum_axis", lambda t: tsum(t, axis=1), lambda r: r.normal(size=(3, 4))),
    ("sum_keepdims", lambda t: tsum(t, axis=0, keepdims=True), lambda r: r.normal(size=(3, 4))),
    ("mean", lambda t: mean(t, axis=1, keepdims=True), lambda r: r.normal(size=(3, 4))),
    ("max_axis", lambda t: tmax(t, axis=1), lambda r: r.normal(size=(3, 5))),
    ("max_all", tmax, lambda r: r.normal(size=(4,))),
    ("minmax", minmax, lambda r: r.normal(size=(2, 3, 5)) + 0.3),
    ("transpose", transpose, lambda r: r.normal(size=(2, 4))),
    ("reshape", lambda t: reshape(t, (4, 2)), lambda r: r.normal(size=(2, 4))),
    ("getitem", lambda t: t[1:3, ::2], lambda r: r.normal(size=(4, 5))),
    ("getitem_int_arrays", lambda t: t[[0, 2, 0], [1, 1, 1]], lambda r: r.normal(size=(3, 4))),
]


@pytest.mark.parametrize("name,op,sample", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_primitive_gradients(name, op, sample, rng):
    x = Tensor(sample(rng), requires_grad=True)
    w = Tensor(np.random.default_rng(0).normal(size=op(x).shape))
    check_grads(lambda: tsum(op(x) * w), [x])


@pytest.mark.parametrize("shape_x", [(4, 3), (2, 4, 3)], ids=["rows", "batched"])
def test_linear_gradient(shape_x, rng):
    x = Tensor(rng.normal(size=shape_x), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=5), requires_grad=True)
    weights = Tensor(rng.normal(size=(*shape_x[:-1], 5)))
    check_grads(lambda: tsum(linear(x, w, b) * weights), [x, w, b])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape_x", [(4, 3), (2, 4, 3)], ids=["rows", "batched"])
def test_linear_is_add_of_matmul_bit_for_bit(shape_x, dtype, rng):
    """One node, the same value and the same x, w and b gradients as ``add(matmul(x, w), b)``."""
    arrays = [rng.normal(size=s).astype(dtype) for s in (shape_x, (3, 5), (5,))]
    g = rng.normal(size=(*shape_x[:-1], 5)).astype(dtype)
    results = []
    for build in (linear, lambda x, w, b: add(matmul(x, w), b)):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = build(x, w, b)
        backward(tsum(out * g))
        results.append([out.data, x.grad, w.grad, b.grad])
    for fused, composed in zip(*results):
        assert fused.dtype == composed.dtype == dtype
        assert np.array_equal(fused, composed)


def test_linear_rejects_mismatched_shapes():
    x = Tensor(np.zeros((2, 3)))
    for w, b in (((4, 5), (5,)), ((3, 5), (4,)), ((3, 5), (1, 5)), ((2, 3, 5), (5,))):
        with pytest.raises(ShapeError, match="linear needs"):
            linear(x, Tensor(np.zeros(w)), Tensor(np.zeros(b)))


def _off_the_kink(xw: np.ndarray, b: np.ndarray, margin: float = 0.05) -> np.ndarray:
    """``b`` with each entry shifted until no pre-activation ``xw + b`` of its column
    lies within ``margin`` of the ReLU kink."""
    b = b.copy()
    for j in range(b.size):
        while np.abs(xw[..., j] + b[j]).min() < margin:
            b[j] += margin
    return b


@pytest.mark.parametrize("shape_x", [(4, 3), (2, 4, 3)], ids=["rows", "batched"])
def test_linear_relu_gradient(shape_x, rng):
    x = Tensor(rng.normal(size=shape_x), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(_off_the_kink(x.data @ w.data, rng.normal(size=5)), requires_grad=True)
    out = linear_relu(x, w, b).data
    assert (out > 0).any() and (out == 0).any()
    weights = Tensor(rng.normal(size=(*shape_x[:-1], 5)))
    check_grads(lambda: tsum(linear_relu(x, w, b) * weights), [x, w, b])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape_x", [(4, 3), (2, 4, 3)], ids=["rows", "batched"])
def test_linear_relu_is_relu_of_linear_bit_for_bit(shape_x, dtype, rng):
    """One node, the same value and the same x, w and b gradients as
    ``relu(linear(x, w, b))``.  A zero row of ``x`` against bias entries
    0.0 and -0.0 gives exact-zero pre-activations (the product's +0.0 plus
    -0.0 is +0.0, so ``x @ w + b`` reads no -0.0 here); ``x`` also feeds the
    loss directly, so it receives two gradients."""
    arrays = [rng.normal(size=s).astype(dtype) for s in (shape_x, (3, 5), (5,))]
    arrays[0][..., 0, :] = 0.0
    arrays[2][:2] = [0.0, -0.0]
    pre = arrays[0] @ arrays[1] + arrays[2]
    assert (pre[..., 0, :2] == 0).all() and (pre > 0).any() and (pre < 0).any()
    g = rng.normal(size=(*shape_x[:-1], 5)).astype(dtype)
    g_x = rng.normal(size=shape_x).astype(dtype)
    results = []
    for build in (linear_relu, lambda x, w, b: relu(linear(x, w, b))):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        out = build(x, w, b)
        backward(tsum(out * g) + tsum(x * g_x))
        results.append([out.data, x.grad, w.grad, b.grad])
    for fused, composed in zip(*results, strict=True):
        assert fused.dtype == composed.dtype == dtype
        assert fused.shape == composed.shape and fused.tobytes() == composed.tobytes()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("signs, want", [((1.0, -1.0), np.isnan), ((-1.0, -1.0), np.isneginf)],
                         ids=["nan", "-inf"])
def test_a_non_finite_pre_activation_names_linear_relu(signs, want, dtype):
    """The ReLU would turn NaN and -inf into 0; the pre-activation is screened first.
    Products that overflow with alternating signs sum to NaN in a vectorised
    product (a fused multiply-add of one running sum would give inf)."""
    big = np.sqrt(np.finfo(dtype).max) * 4
    x = np.full((2, 64), big, dtype=dtype)
    w = np.ones((64, 3), dtype=dtype)
    w[:, 0] = np.resize(np.array(signs, dtype=dtype), 64) * big
    assert want(x @ w)[:, 0].all()
    with pytest.raises(ContractError, match=r"^linear_relu produced non-finite values "
                                            r"from \(2, 64\), \(64, 3\), \(3,\)$"):
        linear_relu(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True),
                    Tensor(np.zeros(3, dtype=dtype), requires_grad=True))


def test_scaled_softmax_is_softmax_of_the_scaled_scores_bit_for_bit(rng):
    mask = np.tril(np.ones((4, 4), dtype=bool))
    for dtype in (np.float64, np.float32):
        scores, g = (rng.normal(size=(2, 4, 4)).astype(dtype) for _ in range(2))
        results = []
        for build in (lambda a: softmax(a, mask=mask, scale=0.35),
                      lambda a: softmax(a * 0.35, mask=mask)):
            a = Tensor(scores.copy(), requires_grad=True)
            out = build(a)
            backward(tsum(out * g))
            results.append([out.data, a.grad])
        for fused, composed in zip(*results):
            assert fused.dtype == composed.dtype == dtype
            assert np.array_equal(fused, composed)


# (query rows, key rows, heads, causal): T != S with one head, a batch axis with
# several heads, and a causal (T, T) mask broadcast over heads and the batch
ATTENTION_CASES = [
    ((3, 4), (5, 4), 1, False),
    ((2, 3, 6), (2, 5, 6), 3, False),
    ((2, 4, 6), (2, 4, 6), 2, True),
]
ATTENTION_IDS = ["one_head", "batched_heads", "causal"]


def _causal(rows, causal):
    return np.tril(np.ones((rows, rows), dtype=bool)) if causal else None


@pytest.mark.parametrize("constant", [None, 0, 1], ids=["both", "q_constant", "k_constant"])
@pytest.mark.parametrize("q_shape,k_shape,heads,causal", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_attention_probs_gradient(q_shape, k_shape, heads, causal, constant, rng):
    q, k = (Tensor(rng.normal(size=s) * 2, requires_grad=i != constant)
            for i, s in enumerate((q_shape, k_shape)))
    mask = _causal(q_shape[-2], causal)
    w = Tensor(rng.normal(size=(*q_shape[:-2], heads, q_shape[-2], k_shape[-2])))
    check_grads(lambda: tsum(attention_probs(q, k, heads, 0.35, mask) * w),
                [t for t in (q, k) if t.requires_grad])
    assert [t.grad is None for t in (q, k)] == [i == constant for i in range(2)]


@pytest.mark.parametrize("constant", [None, 0, 1], ids=["both", "p_constant", "v_constant"])
@pytest.mark.parametrize("q_shape,k_shape,heads,causal", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_mix_heads_gradient(q_shape, k_shape, heads, causal, constant, rng):
    p_shape = (*q_shape[:-2], heads, q_shape[-2], k_shape[-2])
    p, v = (Tensor(rng.normal(size=s), requires_grad=i != constant)
            for i, s in enumerate((p_shape, k_shape)))
    w = Tensor(rng.normal(size=q_shape))
    check_grads(lambda: tsum(mix_heads(p, v) * w), [t for t in (p, v) if t.requires_grad])
    assert [t.grad is None for t in (p, v)] == [i == constant for i in range(2)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("q_shape,k_shape,heads,causal", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_attention_nodes_are_the_composed_chain_bit_for_bit(q_shape, k_shape, heads, causal,
                                                             dtype, rng):
    """The probabilities, the merged rows and every input's gradient equal the
    chain's byte for byte; the probabilities also feed the loss directly, as
    the cross-attention does, so they receive two gradients."""
    arrays = [(rng.normal(size=s) * 2).astype(dtype) for s in (q_shape, k_shape, k_shape)]
    mask = _causal(q_shape[-2], causal)
    g_out = rng.normal(size=q_shape).astype(dtype)
    g_p = rng.normal(size=(*q_shape[:-2], heads, q_shape[-2], k_shape[-2])).astype(dtype)

    def fused(q, k, v):
        p = attention_probs(q, k, heads, 0.35, mask)
        return p, mix_heads(p, v)

    results = []
    for build in (fused, lambda q, k, v: composed_attention(q, k, v, heads, 0.35, mask)):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        p, out = build(*inputs)
        backward(tsum(out * g_out) + tsum(p * g_p))
        results.append([p.data, out.data] + [t.grad for t in inputs])
    for got, want in zip(*results, strict=True):
        assert got.dtype == want.dtype == dtype
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", [(), (2,)], ids=["rows", "batched"])
@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("causal", [False, True], ids=["open", "causal"])
def test_self_attention_gradient(lead, heads, causal, rng):
    q, k, v = (Tensor(rng.normal(size=(*lead, 4, 4)) * 2, requires_grad=True) for _ in range(3))
    mask = _causal(4, causal)
    w = Tensor(rng.normal(size=(*lead, 4, 4)))
    check_grads(lambda: tsum(self_attention(q, k, v, heads, 0.35, mask) * w), [q, k, v])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("q_shape,k_shape,heads,causal", ATTENTION_CASES, ids=ATTENTION_IDS)
def test_self_attention_is_the_node_pair_bit_for_bit(q_shape, k_shape, heads, causal, dtype, rng):
    """The merged rows and the gradients of q, k and v equal those of
    ``mix_heads(attention_probs(q, k, ...), v)`` byte for byte."""
    arrays = [(rng.normal(size=s) * 2).astype(dtype) for s in (q_shape, k_shape, k_shape)]
    mask = _causal(q_shape[-2], causal)
    g_out = rng.normal(size=q_shape).astype(dtype)
    results = []
    for build in (self_attention,
                  lambda q, k, v, *rest: mix_heads(attention_probs(q, k, *rest), v)):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*inputs, heads, 0.35, mask)
        backward(tsum(out * g_out))
        results.append([out.data] + [t.grad for t in inputs])
    for got, want in zip(*results, strict=True):
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)


def test_self_attention_values_of_another_shape_are_a_shape_error():
    with pytest.raises(ShapeError, match=r"\(5, 4\).*\(5, 2\)"):
        self_attention(*(Tensor(np.zeros(s)) for s in ((3, 4), (5, 4), (5, 2))), 2, 1.0)


@pytest.mark.parametrize("q_shape,k_shape,heads", [
    ((3, 4), (5, 6), 2),           # widths differ
    ((2, 3, 4), (3, 5, 4), 2),     # leading axes differ
    ((3, 4), (2, 5, 4), 2),        # a missing leading axis
    ((3, 6), (5, 6), 4),           # width not divisible by the heads
])
def test_attention_probs_shape_error_names_both_shapes(q_shape, k_shape, heads):
    pattern = rf"{re.escape(str(q_shape))}.*{re.escape(str(k_shape))}"
    with pytest.raises(ShapeError, match=pattern):
        attention_probs(Tensor(np.zeros(q_shape)), Tensor(np.zeros(k_shape)), heads, 1.0)


@pytest.mark.parametrize("p_shape,v_shape", [
    ((2, 3, 5), (4, 6)),           # the key axis differs from v's rows
    ((2, 2, 3, 5), (3, 5, 6)),     # leading axes differ
    ((4, 3, 5), (5, 6)),           # width not divisible by the heads
])
def test_mix_heads_shape_error_names_both_shapes(p_shape, v_shape):
    pattern = rf"{re.escape(str(p_shape))}.*{re.escape(str(v_shape))}"
    with pytest.raises(ShapeError, match=pattern):
        mix_heads(Tensor(np.zeros(p_shape)), Tensor(np.zeros(v_shape)))


def test_attention_probs_mask_that_removes_a_whole_row_is_a_contract_error():
    mask = np.array([[True, False], [False, False]])
    with pytest.raises(ContractError, match="entire row"):
        attention_probs(Tensor(np.ones((2, 4))), Tensor(np.ones((2, 4))), 2, 1.0, mask)

def test_getitem_repeated_indices_accumulate():
    t = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(tsum(t[[0, 0, 2]]))
    assert np.array_equal(t.grad, [2.0, 0.0, 1.0])
    m = Tensor(np.zeros((2, 3)), requires_grad=True)
    backward(tsum(m[np.array([1, 1, 0]), np.array([2, 2, 0])]))
    assert np.array_equal(m.grad, [[1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])


def test_log_softmax_is_log_of_softmax_and_finite_when_saturated(rng):
    x = rng.normal(size=(3, 5)) * 3
    np.testing.assert_allclose(log_softmax(Tensor(x)).data, np.log(softmax(Tensor(x)).data),
                               rtol=0, atol=1e-12)
    assert np.array_equal(log_softmax(Tensor([[800.0, -800.0, 0.0]])).data,
                          [[0.0, -1600.0, -800.0]])


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


def test_getitem_repeated_rows_gradient(rng):
    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    ids = np.array([0, 2, 2, 4])
    w = Tensor(rng.normal(size=(4, 3)))
    check_grads(lambda: tsum(table[ids] * w), [table])


def test_layer_norm_gradient(rng):
    """Random rows, constant rows (zero variance: only eps keeps them finite),
    and a 3-D input with gain and bias broadcast over both leading axes."""
    constant = np.repeat(rng.normal(size=(2, 1)), 6, axis=1)
    for sample in (rng.normal(size=(3, 6)), constant, rng.normal(size=(2, 3, 6))):
        x = Tensor(sample, requires_grad=True)
        gain = Tensor(rng.normal(size=6), requires_grad=True)
        bias = Tensor(rng.normal(size=6), requires_grad=True)
        w = Tensor(rng.normal(size=sample.shape))
        check_grads(lambda: tsum(layer_norm(x, gain, bias) * w), [x, gain, bias])


def test_layer_norm_keeps_the_composed_op_order(rng):
    """The fused forward is bit-identical to the chain of ops it replaced."""
    x, gain, bias = rng.normal(size=(2, 3, 5)), rng.normal(size=5), rng.normal(size=5)
    centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / 5)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / 5)
    composed = centered / np.sqrt(var + 1e-5) * gain + bias
    assert np.array_equal(layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data, composed)


@pytest.mark.parametrize("constant", [None, 0, 1], ids=["both", "constant_x", "constant_residual"])
def test_layer_norm_gradient_with_a_residual(constant, rng):
    """The residual's sum is normalised; each operand that requires grad receives
    its gradient, and a constant one keeps ``.grad`` None."""
    x, residual = (Tensor(rng.normal(size=(2, 3, 6)), requires_grad=i != constant) for i in range(2))
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 3, 6)))
    live = [t for i, t in enumerate((x, residual)) if i != constant]
    check_grads(lambda: tsum(layer_norm(x, gain, bias, residual) * w), [*live, gain, bias])
    ad.zero_grads([x, residual])
    backward(tsum(layer_norm(x, gain, bias, residual) * w))
    assert [t.grad is None for t in (x, residual)] == [i == constant for i in range(2)]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("same", [False, True], ids=["residual", "residual_is_x"])
def test_layer_norm_of_a_residual_is_the_norm_of_add_bit_for_bit(same, dtype, rng):
    """One node, the same value and every operand's gradient as
    ``layer_norm(add(x, residual), ...)``, also when the residual is ``x``
    itself; ``x`` also feeds the loss directly, so it receives two gradients."""
    arrays = [rng.normal(size=s).astype(dtype) for s in ((2, 3, 6), (2, 3, 6), (6,), (6,))]
    g = rng.normal(size=(2, 3, 6)).astype(dtype)
    g_x = rng.normal(size=(2, 3, 6)).astype(dtype)
    results = []
    for build in (lambda x, r, gain, bias: layer_norm(x, gain, bias, r),
                  lambda x, r, gain, bias: layer_norm(add(x, r), gain, bias)):
        x, r, gain, bias = (Tensor(a.copy(), requires_grad=True) for a in arrays)
        if same:
            r = x
        out = build(x, r, gain, bias)
        backward(tsum(out * g) + tsum(x * g_x))
        results.append([out.data] + [t.grad for t in (x, r, gain, bias)])
    for fused, composed in zip(*results, strict=True):
        assert fused.dtype == composed.dtype == dtype
        assert fused.shape == composed.shape and fused.tobytes() == composed.tobytes()


def test_cosine_gradient_parallel_vectors(rng):
    summary = Tensor(rng.normal(size=(1, 4)), requires_grad=True)
    words = Tensor(np.concatenate([summary.data * 2.5, -summary.data, rng.normal(size=(1, 4))]),
                   requires_grad=True)
    out = cosine(words, summary).data
    assert np.allclose(out[:2], [1.0, -1.0], rtol=0, atol=1e-15) and np.abs(out).max() <= 1.0
    w = Tensor(rng.normal(size=3))
    check_grads(lambda: tsum(cosine(words, summary) * w), [words, summary])


@pytest.mark.parametrize("size", [0.0, 1e-13], ids=["zero", "below_floor"])
@pytest.mark.parametrize("zero", ["word", "summary"])
def test_cosine_gradient_with_a_zero_operand(zero, size, rng):
    """A vector with norm below ``NORM_FLOOR`` gets cosine 0 and exactly zero
    gradient; every gradient stays finite."""
    words = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    summary = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    null = Tensor(np.full((1, 3), size), requires_grad=True)

    def operands():
        return (concat([null, words]), summary) if zero == "word" else (words, null)

    w = Tensor(rng.normal(size=cosine(*operands()).shape))
    ad.zero_grads([words, summary, null])
    out = cosine(*operands())
    backward(tsum(out * w))
    zero_rows = out.data[:1] if zero == "word" else out.data
    assert np.array_equal(zero_rows, np.zeros_like(zero_rows))
    assert np.array_equal(null.grad, np.zeros((1, 3)))
    assert all(np.isfinite(grad_of(t)).all() for t in (words, summary))
    check_grads(lambda: tsum(cosine(*operands()) * w), [words, summary])


def _node_builders() -> set:
    """Every ``autodiff`` function whose source calls ``_make``."""
    return {name for name, fn in vars(ad).items()
            if inspect.isfunction(fn) and name != "_make" and "_make(" in inspect.getsource(fn)}


def test_every_primitive_has_a_gradient_check(monkeypatch, rng):
    """Each node builder runs in a ``PRIMITIVE_CASES`` or ``UNARY_CASES`` row,
    or is named by a ``test_*<name>_gradient*`` test in this module."""
    built, make = set(), ad._make

    def recording_make(data, parents, backward_fn):
        built.add(sys._getframe(1).f_code.co_name)
        return make(data, parents, backward_fn)

    monkeypatch.setattr(ad, "_make", recording_make)
    for _, op, shape_a, shape_b in PRIMITIVE_CASES:
        op(Tensor(rng.normal(size=shape_a)), Tensor(rng.normal(size=shape_b)))
    for _, op, sample in UNARY_CASES:
        op(Tensor(sample(rng)))
    named = [n for n in globals() if n.startswith("test_")]
    missing = sorted(name for name in _node_builders() - built
                     if not any(re.fullmatch(rf"test_(\w+_)?{name}_gradients?(_\w+)?", n)
                                for n in named))
    assert _node_builders() >= {"layer_norm", "cosine", "softmax", "tmax", "minmax", "linear",
                                "linear_relu", "attention_probs", "mix_heads", "self_attention"}
    assert not missing, f"primitives without a finite-difference check: {missing}"
