"""Reverse-mode automatic differentiation over dense float64 arrays.

A ``Tensor`` wraps a numpy array and, when produced by a primitive, records
its parents and a backward closure.  ``backward`` linearises the implied
graph into a ``Tape`` (reverse topological order is the creation order of
the trace) and sweeps it once, accumulating gradients into ``.grad``.

Everything is double precision: correctness is established by finite
difference checks, not by speed.  Tensors are immutable values: the package
never writes into a tensor's ``.data`` (``Adam.step`` and ``load_state``
rebind it to a new array), so ``reshape`` may return a view of its input's
storage.  Every other primitive returns storage of its own; ``transpose``
copies so that later products see a contiguous operand.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

class ShapeError(ValueError):
    """Operand shapes violate a primitive's contract."""


class ContractError(ValueError):
    """An operation precondition other than shape was violated."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        # Validated after every primitive; trips early on exp/log blowups
        # instead of letting NaNs propagate into the optimiser.
        if not np.all(np.isfinite(arr)):
            raise ContractError("tensor holds non-finite values")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    # -- introspection -----------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def detach(self) -> "Tensor":
        """Constant leaf sharing this tensor's values; no gradient path."""
        return Tensor(self.data.copy())


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents, backward) -> Tensor:
    """Assemble an op result; constants fold to leaves (no closure kept).

    A non-finite result names its primitive (where ``backward`` was defined)
    and the operands' shapes.
    """
    try:
        out = Tensor(data)
    except ContractError as err:
        op = backward.__qualname__.split(".")[0]
        shapes = ", ".join(str(p.shape) for p in parents)
        raise ContractError(f"{op} produced non-finite values from {shapes}") from err
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# -- elementwise primitives -------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), backward)


def exp(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.exp(a.data)

    def backward(g):
        _accumulate(a, g * out_data)

    return _make(out_data, (a,), backward)


def log(a) -> Tensor:
    a = as_tensor(a)

    def backward(g):
        _accumulate(a, g / a.data)

    return _make(np.log(a.data), (a,), backward)


def sqrt(a) -> Tensor:
    a = as_tensor(a)
    out_data = np.sqrt(a.data)

    def backward(g):
        _accumulate(a, g * 0.5 / out_data)

    return _make(out_data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    keep = a.data > 0.0

    def backward(g):
        _accumulate(a, g * keep)

    return _make(np.where(keep, a.data, 0.0), (a,), backward)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # stable in both tails
    x = a.data
    out_data = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp to [lo, hi]; gradient passes only strictly inside the interval."""
    a = as_tensor(a)
    inside = (a.data > lo) & (a.data < hi)

    def backward(g):
        _accumulate(a, g * inside)

    return _make(np.clip(a.data, lo, hi), (a,), backward)


# -- structural primitives ----------------------------------------------------


def matmul(a, b) -> Tensor:
    """``(..., m, k) @ (..., k, n)``, slice by slice; leading axes must be equal."""
    a, b = as_tensor(a), as_tensor(b)
    if (a.ndim < 2 or a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2]
            or a.shape[-1] != b.shape[-2]):
        raise ShapeError(f"matmul needs (...,m,k)x(...,k,n), got {a.shape} x {b.shape}")

    def backward(g):
        if a.requires_grad:
            _accumulate(a, g @ b.data.swapaxes(-1, -2))
        if b.requires_grad:
            _accumulate(b, a.data.swapaxes(-1, -2) @ g)

    return _make(a.data @ b.data, (a, b), backward)


def transpose(a, axes=None) -> Tensor:
    a = as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    inverse = np.argsort(axes)

    def backward(g):
        _accumulate(a, g.transpose(inverse))

    return _make(a.data.transpose(axes).copy(), (a,), backward)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def backward(g):
        _accumulate(a, g.reshape(in_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def getitem(a, key) -> Tensor:
    """Basic slicing; the result owns its storage."""
    a = as_tensor(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] += g
        _accumulate(a, full)

    return _make(np.array(a.data[key]), (a,), backward)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, start, stop in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(start, stop)
                _accumulate(p, g[tuple(index)])

    return _make(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), backward)


def gather_rows(table, ids) -> Tensor:
    """Row lookup (embedding); gradient scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ShapeError(f"gather_rows needs 1-D ids, got shape {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ContractError(f"row id out of range [0, {table.shape[0]}): {ids}")

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids, g)
        _accumulate(table, full)

    return _make(table.data[ids].copy(), (table,), backward)


# -- reductions --------------------------------------------------------------


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    in_shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, in_shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    n = a.size if axis is None else a.shape[axis]
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def _extremum(a, axis, keepdims, argfn, redfn):
    a = as_tensor(a)
    out_data = redfn(a.data, axis=axis, keepdims=keepdims)
    # subgradient: route to the first winning element along the axis
    if axis is None:
        mask = np.zeros_like(a.data)
        mask.reshape(-1)[argfn(a.data)] = 1.0
    else:
        idx = np.expand_dims(argfn(a.data, axis=axis), axis)
        mask = np.zeros_like(a.data)
        np.put_along_axis(mask, idx, 1.0, axis=axis)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, mask * g)

    return _make(out_data, (a,), backward)


def tmax(a, axis=None, keepdims: bool = False) -> Tensor:
    return _extremum(a, axis, keepdims, np.argmax, np.max)


def tmin(a, axis=None, keepdims: bool = False) -> Tensor:
    return _extremum(a, axis, keepdims, np.argmin, np.min)


# -- fused numerical primitives ----------------------------------------------


def softmax(a, mask=None) -> Tensor:
    """Row-wise softmax over the last axis, stabilised by max-subtraction.

    ``mask`` is an optional boolean array (broadcastable to ``a``); masked-out
    entries get exactly zero probability and zero gradient.  Every row must
    keep at least one entry.
    """
    a = as_tensor(a)
    x = a.data
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ContractError("softmax mask removes an entire row")
        masked = np.where(mask, x, -np.inf)
        shifted = np.where(mask, masked - masked.max(axis=-1, keepdims=True), 0.0)
        e = np.where(mask, np.exp(shifted), 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(a, p * (g - inner))

    return _make(p, (a,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalise the last axis to zero mean / unit variance, then affine.

    Population variance (divide by C).  ``gain`` and ``bias`` broadcast over
    leading axes.
    """
    x = as_tensor(x)
    if x.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs at least 2 channels, got shape {x.shape}")
    mu = mean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = mean(mul(centered, centered), axis=-1, keepdims=True)
    normed = div(centered, sqrt(add(var, eps)))
    return add(mul(normed, gain), bias)


# -- the tape and reverse sweep -----------------------------------------------


@dataclass
class Tape:
    """Execution trace in topological order: parents precede their users."""

    nodes: list

    def verify(self) -> bool:
        seen = set()
        for node in self.nodes:
            if any(id(p) not in seen for p in node._parents):
                return False
            seen.add(id(node))
        return True


def trace(root: Tensor) -> Tape:
    """Linearise the graph reachable from ``root`` (iterative post-order)."""
    nodes, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if id(node) in visited:
            continue
        if expanded:
            visited.add(id(node))
            nodes.append(node)
        else:
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
    return Tape(nodes)


def backward(loss: Tensor, tape: Tape = None) -> Tape:
    """Accumulate d(loss)/d(node) into ``.grad`` for every node on the tape.

    ``loss`` must be a scalar.  Parameters not reachable from the loss keep
    ``grad is None``; read them through ``grad_of`` for an exact zero.
    """
    if loss.size != 1:
        raise ContractError(f"backward seed must be scalar, got shape {loss.shape}")
    if tape is None:
        tape = trace(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    return tape


def grad_of(t: Tensor) -> np.ndarray:
    """Gradient of the last backward pass; exact zeros when unreachable."""
    return t.grad if t.grad is not None else np.zeros_like(t.data)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
