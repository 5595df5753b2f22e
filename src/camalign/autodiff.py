"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

A ``Tensor`` wraps a numpy array and, when produced by a primitive, records
its parents and a backward closure.  ``backward`` linearises the implied
graph into a ``Tape`` (reverse topological order is the creation order of
the trace) and sweeps it once, accumulating gradients into ``.grad``.

A float32 array stays float32 and every other input becomes float64; a
constant operand of ``add``, ``sub``, ``mul`` or ``div`` takes the dtype of
its tensor operand, so a float32 graph stays float32 (numpy 2 would promote
it on meeting a float64 array or scalar).  Training runs in float32; models
built directly, and every finite-difference check, run in float64, which is
where correctness is established.  Tensors are immutable values: the package
never writes into a tensor's ``.data`` (``Adam.step`` and ``load_state``
rebind it to a new array), so ``reshape`` may return a view of its input's
storage.  Every other primitive returns storage of its own; ``transpose``
copies so that later products see a contiguous operand.  Gradients follow
the same rule: a tensor keeps the first gradient it receives by reference
(often another node's ``.grad``, or a view of it) and adds every later one
out of place, so no code writes into a ``.grad`` array in place.  Every
tensor is screened for NaN and inf as it is built, by one self-dot of its
values; only values whose squares overflow take the exact elementwise check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NORM_FLOOR = 1e-12   # ``cosine`` reads a vector with a smaller norm as zero

class ShapeError(ValueError):
    """Operand shapes violate a primitive's contract."""


class ContractError(ValueError):
    """An operation precondition other than shape was violated."""


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        # Validated after every primitive; trips early on overflow
        # instead of letting NaNs propagate into the optimiser.  Any NaN or
        # inf makes the self-dot (one BLAS call) non-finite; finite values
        # whose squares overflow fall through to the exact check.
        if not np.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _operands(a, b) -> tuple:
    """Both operands as tensors; a constant one takes the other's dtype."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if isinstance(b, Tensor) and not isinstance(a, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return as_tensor(a), as_tensor(b)


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
    if g.shape != t.shape:
        raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {t.shape}")
    t.grad = np.asarray(g) if t.grad is None else t.grad + g


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
    a, b = _operands(a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _operands(a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def div(a, b) -> Tensor:
    a, b = _operands(a, b)

    def backward(g):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g / b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.shape))

    return _make(a.data / b.data, (a, b), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)
    keep = a.data > 0.0

    def backward(g):
        _accumulate(a, g * keep)

    return _make(np.where(keep, a.data, 0.0), (a,), backward)


# -- structural primitives ----------------------------------------------------


def _product_grads(a: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Accumulate the gradients of ``a @ b`` from the product's gradient ``g``."""
    if a.requires_grad:
        _accumulate(a, g @ b.data.swapaxes(-1, -2))
    if b.requires_grad and a.ndim > b.ndim:   # one shared weight: one product over all rows
        _accumulate(b, a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1]))
    elif b.requires_grad:
        _accumulate(b, a.data.swapaxes(-1, -2) @ g)


def matmul(a, b) -> Tensor:
    """``(..., m, k) @ (..., k, n)``, slice by slice; leading axes must be equal,
    or ``b`` is one ``(k, n)`` matrix shared by every slice of ``a``."""
    a, b = as_tensor(a), as_tensor(b)
    if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
            or b.ndim > 2 and (a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2])):
        raise ShapeError(f"matmul needs (...,m,k)x(...,k,n), got {a.shape} x {b.shape}")

    def backward(g):
        _product_grads(a, b, g)

    return _make(a.data @ b.data, (a, b), backward)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: rows ``(..., m, k)``, one weight ``(k, n)``, bias ``(n,)``.

    Values and gradients equal ``add(matmul(x, w), b)`` bit for bit; the
    bias-free product is never kept.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs (...,m,k)x(k,n)+(n,), got {x.shape} x {w.shape} + {b.shape}")

    def backward(g):
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g, b.shape))
        _product_grads(x, w, g)

    return _make(x.data @ w.data + b.data, (x, w, b), backward)


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
    """Slicing or integer-array indexing; the result owns its storage."""
    a = as_tensor(a)
    fancy = any(np.ndim(k) for k in (key if isinstance(key, tuple) else (key,)))

    def backward(g):
        full = np.zeros_like(a.data)
        if fancy:   # repeated indices accumulate; slices cannot repeat and skip slow add.at
            np.add.at(full, key, g)
        else:
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
    """Row lookup (embedding), shape ``ids.shape + (D,)``; gradient scatter-adds into the table."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
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


def softmax_values(x: np.ndarray, mask=None) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilised by max-subtraction.

    ``mask`` (boolean, broadcastable to ``x``) gives masked-out entries exactly
    zero probability; every row must keep at least one entry.
    """
    if mask is not None:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        if not mask.any(axis=-1).all():
            raise ContractError("softmax mask removes an entire row")
        masked = np.where(mask, x, -np.inf)
        shifted = np.where(mask, masked - masked.max(axis=-1, keepdims=True), 0.0)
        e = np.where(mask, np.exp(shifted), 0.0)
    else:
        e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a, mask=None, scale: float = 1.0) -> Tensor:
    """``softmax_values`` of ``a * scale`` on the graph; masked-out entries get zero gradient.

    The scaled scores are a temporary: only ``a`` and the probabilities stay on the graph.
    """
    a = as_tensor(a)
    p = softmax_values(a.data * scale, mask)

    def backward(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(a, p * (g - inner) * scale)

    return _make(p, (a,), backward)


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis: shifted log-sum-exp, never clipped."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax(a) -> Tensor:
    """``log_softmax_values`` on the graph: log-probabilities from logits."""
    a = as_tensor(a)
    out_data = log_softmax_values(a.data)

    def backward(g):
        _accumulate(a, g - np.exp(out_data) * g.sum(axis=-1, keepdims=True))

    return _make(out_data, (a,), backward)


def layer_norm_values(x: np.ndarray, gain, bias, eps: float = 1e-5):
    """Layer norm over the last axis: the output, the normalised rows and their std."""
    n = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n) + eps)
    normed = centered / std
    return normed * gain + bias, normed, std


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """``layer_norm_values`` on the graph, with the analytic backward (Ba et al. 2016)."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if x.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs at least 2 channels, got shape {x.shape}")
    out, normed, std = layer_norm_values(x.data, gain.data, bias.data, eps)

    def backward(g):
        if x.requires_grad:
            gn = g * gain.data
            _accumulate(x, (gn - gn.mean(axis=-1, keepdims=True)
                            - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std)
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    return _make(out, (x, gain, bias), backward)


def cosine(a, b) -> Tensor:
    """Cosine of each row of ``a`` (..., T, D) with the one row of ``b`` (..., 1, D); shape (..., T).

    A vector whose norm is below ``NORM_FLOOR`` gets cosine 0 and exactly zero gradient.
    Values are clamped to [-1, 1] against rounding; the gradient is analytic, never clamped.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.shape != (*a.shape[:-2], 1, a.shape[-1]):
        raise ShapeError(f"cosine needs (..., T, D) and (..., 1, D), got {a.shape} and {b.shape}")
    na = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))           # (..., T, 1)
    nb = np.sqrt((b.data * b.data).sum(axis=-1, keepdims=True))           # (..., 1, 1)
    live = (na >= NORM_FLOOR) & (nb >= NORM_FLOOR)
    na, nb = np.maximum(na, NORM_FLOOR), np.maximum(nb, NORM_FLOOR)
    cos = np.where(live, (a.data @ b.data.swapaxes(-1, -2)) / (na * nb), 0.0)   # (..., T, 1)

    def backward(g):
        g = np.where(live, g[..., None], 0.0)
        if a.requires_grad:
            _accumulate(a, g * (b.data / nb - cos * a.data / na) / na)
        if b.requires_grad:
            _accumulate(b, (g * (a.data / na - cos * b.data / nb)).sum(axis=-2, keepdims=True) / nb)

    return _make(np.clip(cos, -1.0, 1.0)[..., 0], (a, b), backward)


# -- the tape and reverse sweep -----------------------------------------------


@dataclass
class Tape:
    """Execution trace in topological order: parents precede their users."""

    nodes: list


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


def backward(loss: Tensor) -> Tape:
    """Accumulate d(loss)/d(node) into ``.grad`` for every node on the tape.

    ``loss`` must be a scalar.  Parameters not reachable from the loss keep
    ``grad is None``; read them through ``grad_of`` for an exact zero.
    """
    if loss.size != 1:
        raise ContractError(f"backward seed must be scalar, got shape {loss.shape}")
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
