import struct

import numpy as np
import pytest

from camalign.autodiff import ShapeError, Tensor, backward, tsum
from camalign.checkpoint import CheckpointError, load_params, save_params
from camalign.optim import Adam, AdamState, adam_step


def make_state(shape, lr=0.1):
    return AdamState(m=np.zeros(shape), v=np.zeros(shape), lr=lr)


def test_zero_gradient_first_step_is_noop():
    state = make_state(())
    theta = np.array(1.5)
    assert adam_step(state, theta, np.array(0.0)) == pytest.approx(1.5, abs=0)
    assert state.step == 1


def test_first_step_magnitude_matches_closed_form():
    # bias-corrected moments both equal g at t=1, so the move is -lr*g/(|g|+eps)
    state = make_state(())
    new = adam_step(state, np.array(0.0), np.array(1.0))
    assert new == pytest.approx(-0.1, rel=1e-6)


def test_constant_gradient_moves_monotonically():
    state = make_state(())
    theta = np.array(0.0)
    previous = theta
    for _ in range(2):
        theta = adam_step(state, theta, np.array(1.0))
        assert theta < previous
        previous = theta
    assert state.step == 2


def test_step_counter_increments_by_one():
    state = make_state((2,))
    for expected in range(1, 4):
        adam_step(state, np.zeros(2), np.zeros(2))
        assert state.step == expected


def test_shape_mismatch_rejected():
    with pytest.raises(ShapeError):
        adam_step(make_state((2,)), np.zeros(2), np.zeros(3))


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
