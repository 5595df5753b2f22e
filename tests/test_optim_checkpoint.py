import struct

import numpy as np
import pytest

from camalign.autodiff import ContractError, ShapeError, Tensor, backward, tsum
from camalign.checkpoint import CheckpointError, load_params, save_params
from camalign.config import load_config
from camalign.optim import BETA1, BETA2, EPS, Adam
from camalign.training import run_model


def one_tensor(value, lr=0.1):
    """An optimiser over one parameter, and the parameter."""
    p = Tensor(np.asarray(value, dtype=float), requires_grad=True)
    return Adam([({"p": p}, lr)]), p


def step_with(opt, p, grad):
    p.grad = np.asarray(grad, dtype=float)
    opt.step()
    return p.data


def test_zero_gradient_first_step_is_noop():
    opt, p = one_tensor(1.5)
    assert step_with(opt, p, 0.0) == pytest.approx(1.5, abs=0)
    assert opt.t == 1


def test_first_step_magnitude_matches_closed_form():
    # bias-corrected moments both equal g at t=1, so the move is -lr*g/(|g|+eps)
    opt, p = one_tensor(0.0)
    assert step_with(opt, p, 1.0) == pytest.approx(-0.1, rel=1e-6)


def test_constant_gradient_moves_monotonically():
    opt, p = one_tensor(0.0)
    previous = p.data
    for _ in range(2):
        theta = step_with(opt, p, 1.0)
        assert theta < previous
        previous = theta
    assert opt.t == 2


def test_step_counter_increments_by_one():
    opt, p = one_tensor(np.zeros(2))
    for expected in range(1, 4):
        step_with(opt, p, np.zeros(2))
        assert opt.t == expected


def test_shape_mismatch_rejected():
    opt, p = one_tensor(np.zeros(2))
    p.data = np.zeros(3)   # rebound to a shape its moments do not have
    with pytest.raises(ShapeError):
        step_with(opt, p, np.zeros(3))


@pytest.mark.parametrize("grad", [1e21, 2e19], ids=["moment_overflows", "debiased_moment_overflows"])
def test_an_overflowing_update_names_its_parameter(grad):
    """In float32 ``(1 - BETA2) * g * g`` overflows for g = 1e21, and its first-step
    debiased value ``g * g`` for g = 2e19; either would make v inf and the
    update a silent 0.  Adam fails instead, naming the parameter."""
    keep = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    big = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
    opt = Adam([({"keep": keep, "big": big}, 0.1)])
    keep.grad = np.ones(2, dtype=np.float32)
    big.grad = np.array([1.0, grad, -1.0], dtype=np.float32)
    with pytest.raises(ContractError, match=r"^adam: the gradient of big overflows float32 "):
        opt.step()


def test_a_large_gradient_within_range_steps_normally():
    p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    opt = Adam([({"p": p}, 0.1)])
    p.grad = np.array([1e19, -1e19], dtype=np.float32)
    opt.step()
    np.testing.assert_allclose(p.data, [-0.1, 0.1], rtol=1e-6)


def test_matches_a_per_parameter_reference_bit_for_bit(rng):
    """One shared step count gives the same bits as a step count per parameter."""
    def reference_step(state, param, grad):
        state["step"] += 1
        state["m"] = BETA1 * state["m"] + (1.0 - BETA1) * grad
        state["v"] = BETA2 * state["v"] + (1.0 - BETA2) * grad * grad
        m_hat = state["m"] / (1.0 - BETA1 ** state["step"])
        v_hat = state["v"] / (1.0 - BETA2 ** state["step"])
        return param - state["lr"] * m_hat / (np.sqrt(v_hat) + EPS)

    shapes = {"a": (3, 2), "b": (4,), "c": ()}
    params = {n: Tensor(rng.normal(size=s), requires_grad=True) for n, s in shapes.items()}
    opt = Adam([({"a": params["a"]}, 1e-3), ({"b": params["b"], "c": params["c"]}, 2e-3)])
    lrs = {"a": 1e-3, "b": 2e-3, "c": 2e-3}
    ref = {n: p.data.copy() for n, p in params.items()}
    states = {n: {"m": np.zeros(s), "v": np.zeros(s), "step": 0, "lr": lrs[n]}
              for n, s in shapes.items()}
    for _ in range(20):
        for n, p in params.items():
            grad = rng.normal(size=shapes[n])
            p.grad = grad
            ref[n] = reference_step(states[n], ref[n], grad)
        opt.step()
        for n, p in params.items():
            assert np.array_equal(p.data, ref[n]), n


def test_optimizer_zero_lr_changes_nothing(rng):
    p = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    before = p.data.copy()
    opt = Adam([({"p": p}, 0.0)])
    backward(tsum(p * p))
    opt.step()
    assert np.array_equal(p.data, before)


def test_optimizer_groups_use_their_own_lr(rng):
    a = Tensor(rng.normal(size=(2,)), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    opt = Adam([({"a": a}, 0.1), ({"b": b}, 0.001)])
    backward(tsum(a) + tsum(b))
    before_a, before_b = a.data.copy(), b.data.copy()
    opt.step()
    assert np.abs(a.data - before_a).max() == pytest.approx(0.1, rel=1e-6)
    assert np.abs(b.data - before_b).max() == pytest.approx(0.001, rel=1e-6)


# -- checkpoint archive ----------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, rng):
    params = {
        "layer.w": rng.normal(size=(3, 4)),
        "layer.b": rng.normal(size=(4,)),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "model.bin"
    save_params(path, params)
    loaded = load_params(path)
    assert list(loaded) == list(params)      # order preserved
    for name in params:
        assert np.array_equal(loaded[name], params[name])


def test_checkpoint_accepts_tensors(tmp_path):
    path = tmp_path / "model.bin"
    save_params(path, {"t": Tensor([[1.0, 2.0]])})
    assert np.array_equal(load_params(path)["t"], [[1.0, 2.0]])


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.bin"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ValueError, match="magic"):
        load_params(path)


def test_checkpoint_rejects_unknown_version(tmp_path):
    path = tmp_path / "future.bin"
    path.write_bytes(b"FTAR" + bytes([9]) + bytes(4))
    with pytest.raises(ValueError, match="version"):
        load_params(path)


def test_checkpoint_bytes_reproducible(tmp_path, rng):
    params = {"w": rng.normal(size=(4, 4))}
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_params(p1, params)
    save_params(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_every_truncation_is_named(tmp_path, rng):
    # every proper prefix, so every field boundary and every cut inside a field
    path = tmp_path / "full.bin"
    save_params(path, {"layer.w": rng.normal(size=(2, 3)), "scalar": np.array(2.5)})
    data = path.read_bytes()
    cut = tmp_path / "cut.bin"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError, match="truncated"):
            load_params(cut)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "model.bin"
    save_params(path, {"w": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(CheckpointError, match="1 trailing bytes"):
        load_params(path)


def test_checkpoint_rejects_a_repeated_record_name(tmp_path):
    record = struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 1)
    path = tmp_path / "twice.bin"
    path.write_bytes(b"FTAR" + struct.pack("<BI", 1, 2)
                     + record + struct.pack("<d", 1.0) + record + struct.pack("<d", 2.0))
    with pytest.raises(CheckpointError, match=r"record 1 repeats the name 'w'$"):
        load_params(path)


def test_checkpoint_failed_save_keeps_previous_archive(tmp_path):
    path = tmp_path / "model.bin"
    save_params(path, {"w": np.ones(2)})
    before = path.read_bytes()
    with pytest.raises(ValueError):
        save_params(path, {"w": np.zeros(2), "bad": "not a number"})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]


@pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, -np.inf, 1e39], ids=["nan", "inf", "overflows_float32"])
def test_loading_a_non_finite_record_names_it_and_binds_nothing(tmp_path, bad):
    cfg = load_config(None, {"model.layers": 1, "model.heads": 2, "model.dim": 8,
                             "model.feat_dim": 6, "model.patch": 4, "model.classes": 3})
    model = run_model(cfg, 10)
    state = {name: p.data for name, p in model.params().items()}
    path = tmp_path / "checkpoint_best.bin"
    save_params(path, {**state, "extractor.w1": np.full_like(state["extractor.w1"], bad)})
    with pytest.raises(ContractError, match=r"record extractor\.w1 holds non-finite values as float32"):
        model.load_state(load_params(path))
    assert all(p.data is state[name] for name, p in model.params().items())
