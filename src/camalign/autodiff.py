"""Reverse-mode automatic differentiation over dense float32 or float64 arrays.

A ``Tensor`` wraps a numpy array and, when produced by a primitive, records
its parents and a backward closure.  ``backward`` linearises the implied
graph into a ``Tape`` (reverse topological order is the creation order of
the trace) and sweeps it once, accumulating gradients into ``.grad``.  The
plain sweep leaves every node's gradient readable; ``backward(loss,
release=True)``, the sweep a training step runs, keeps only the leaves'
gradients and drops each interior one as soon as it has been passed on, so
the step's peak never holds all activations and all gradients at once.

A float32 array stays float32 and every other input becomes float64; a
constant operand of ``add``, ``sub`` or ``mul`` takes the dtype of its
tensor operand, so a float32 graph stays float32 (numpy 2 would promote
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
        # instead of letting NaNs propagate into the optimiser.
        if not _finite(arr):
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

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)


def _finite(arr: np.ndarray) -> bool:
    """Whether every value is finite.  Any NaN or inf makes the self-dot (one
    BLAS call) non-finite; finite values whose squares overflow fall through
    to the exact check."""
    return bool(np.isfinite(np.vdot(arr, arr)) or np.isfinite(arr).all())


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
        raise _non_finite(backward.__qualname__.split(".")[0], parents) from err
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _non_finite(op: str, parents) -> ContractError:
    shapes = ", ".join(str(p.shape) for p in parents)
    return ContractError(f"{op} produced non-finite values from {shapes}")


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


def _linear_operands(op: str, x, w, b) -> tuple:
    """Rows ``(..., m, k)``, one weight ``(k, n)`` and a bias ``(n,)``, as tensors."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(f"{op} needs (...,m,k)x(k,n)+(n,), got {x.shape} x {w.shape} + {b.shape}")
    return x, w, b


def _linear_grads(x: Tensor, w: Tensor, b: Tensor, g: np.ndarray) -> None:
    """Accumulate the gradients of ``x @ w + b`` from the result's gradient ``g``."""
    if b.requires_grad:
        _accumulate(b, _unbroadcast(g, b.shape))
    _product_grads(x, w, g)


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: rows ``(..., m, k)``, one weight ``(k, n)``, bias ``(n,)``.

    Values and gradients equal ``add(matmul(x, w), b)`` bit for bit; the
    bias-free product is never kept.
    """
    x, w, b = _linear_operands("linear", x, w, b)

    def backward(g):
        _linear_grads(x, w, b, g)

    return _make(x.data @ w.data + b.data, (x, w, b), backward)


def linear_relu(x, w, b) -> Tensor:
    """``relu(linear(x, w, b))`` as one node that keeps only its output.

    Values and gradients equal the composed chain bit for bit: backward masks
    with ``out > 0``, the same booleans as ``pre > 0``.  The pre-activation
    is a temporary, screened as the chain's ``linear`` node screened it,
    since the ReLU would turn NaN and -inf into 0.
    """
    x, w, b = _linear_operands("linear_relu", x, w, b)
    pre = x.data @ w.data + b.data
    if not _finite(pre):
        raise _non_finite("linear_relu", (x, w, b))
    out = np.where(pre > 0.0, pre, 0.0)

    def backward(g):
        _linear_grads(x, w, b, g * (out > 0.0))

    return _make(out, (x, w, b), backward)


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


def tmax(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    # subgradient: route to the first winning element along the axis
    mask = np.zeros_like(a.data)
    if axis is None:
        mask.reshape(-1)[np.argmax(a.data)] = 1.0
    else:
        np.put_along_axis(mask, np.expand_dims(np.argmax(a.data, axis=axis), axis), 1.0, axis=axis)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, mask * g)

    return _make(a.data.max(axis=axis, keepdims=keepdims), (a,), backward)


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
        _accumulate(a, _softmax_grad(p, g, scale))

    return _make(p, (a,), backward)


def _softmax_grad(p: np.ndarray, g: np.ndarray, scale: float) -> np.ndarray:
    """The gradient at ``x`` of probabilities ``p = softmax(x * scale)`` that receive ``g``."""
    inner = (g * p).sum(axis=-1, keepdims=True)
    return p * (g - inner) * scale


def _head_order(ndim: int, keys_last: bool) -> tuple:
    """Axes from rows split into heads, (..., T, H, d), to (..., H, T, d) or (..., H, d, T)."""
    n = ndim - 2
    return (*range(n), n + 1, n + 2, n) if keys_last else (*range(n), n + 1, n, n + 2)


def _split_heads(x: np.ndarray, heads: int, keys_last: bool = False) -> np.ndarray:
    """Rows (..., T, D) as a view per head, (..., H, T, d) or, keys last, (..., H, d, T)."""
    return x.reshape(*x.shape[:-1], heads, -1).transpose(_head_order(x.ndim, keys_last))


def _merge_heads(x: np.ndarray, shape: tuple, keys_last: bool = False) -> np.ndarray:
    """``_split_heads`` undone: per-head rows back to rows of ``shape`` (..., T, D)."""
    return x.transpose(np.argsort(_head_order(len(shape), keys_last))).reshape(shape)


def attention_probs(q, k, heads: int, scale: float, mask=None) -> Tensor:
    """Per-head ``softmax_values((q_h @ k_h^T) * scale, mask)`` of rows q (..., T, D)
    over rows k (..., S, D), as one (..., H, T, S) node.

    Values and gradients equal ``softmax(matmul(q_h, k_h), mask, scale)`` on
    contiguous head copies bit for bit.  Only the probabilities stay on the
    graph: the raw scores are a temporary, and backward rebuilds the head copies.
    """
    q, k = as_tensor(q), as_tensor(k)
    if (q.ndim < 2 or k.ndim != q.ndim or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1] or heads < 1 or q.shape[-1] % heads):
        raise ShapeError(f"attention_probs needs (...,T,D) and (...,S,D) with D divisible "
                         f"by {heads} heads, got {q.shape} and {k.shape}")
    p = softmax_values(
        (_split_heads(q.data, heads).copy() @ _split_heads(k.data, heads, True).copy()) * scale, mask)

    def backward(g):
        g = _softmax_grad(p, g, scale)
        if q.requires_grad:
            keys = _split_heads(k.data, heads, True).copy().swapaxes(-1, -2)
            _accumulate(q, _merge_heads(g @ keys, q.shape))
        if k.requires_grad:
            queries = _split_heads(q.data, heads).copy().swapaxes(-1, -2)
            _accumulate(k, _merge_heads(queries @ g, k.shape, True))

    return _make(p, (q, k), backward)


def mix_heads(p, v) -> Tensor:
    """Probabilities p (..., H, T, S) mix the head copies of rows v (..., S, D):
    merged rows (..., T, D), as one node.

    Values and gradients equal merging ``matmul(p, v_h)`` back into rows bit
    for bit; backward rebuilds the head copies of ``v``.
    """
    p, v = as_tensor(p), as_tensor(v)
    if (p.ndim < 3 or v.ndim != p.ndim - 1 or p.shape[:-3] != v.shape[:-2]
            or p.shape[-1] != v.shape[-2] or p.shape[-3] < 1 or v.shape[-1] % p.shape[-3]):
        raise ShapeError(f"mix_heads needs (...,H,T,S) and (...,S,D) with D divisible by H, "
                         f"got {p.shape} and {v.shape}")
    heads, shape = p.shape[-3], (*p.shape[:-3], p.shape[-2], v.shape[-1])

    def backward(g):
        g = _split_heads(g, heads)
        if p.requires_grad:
            _accumulate(p, g @ _split_heads(v.data, heads).copy().swapaxes(-1, -2))
        if v.requires_grad:
            _accumulate(v, _merge_heads(p.data.swapaxes(-1, -2) @ g, v.shape))

    return _make(_merge_heads(p.data @ _split_heads(v.data, heads).copy(), shape), (p, v), backward)


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


def minmax(a) -> Tensor:
    """ReLU, then min-max to [0, 1] over the last axis, as one node.

    A row that is constant after the ReLU becomes zeros with exactly zero
    gradient.  Values and gradient keep the arithmetic order of the composed
    ``(m - lo) / (hi - lo + flat) * ~flat`` on ``m = relu(a)``, with the row's
    first min and first max taking ``lo``'s and ``hi``'s gradients.
    """
    a = as_tensor(a)
    keep = a.data > 0.0
    m = np.where(keep, a.data, 0.0)
    lo, hi = m.min(axis=-1, keepdims=True), m.max(axis=-1, keepdims=True)
    flat = hi == lo
    num, den = m - lo, hi - lo + flat
    at = np.arange(m.shape[-1])
    at_lo, at_hi = at == m.argmin(axis=-1)[..., None], at == m.argmax(axis=-1)[..., None]

    def backward(g):
        g = g * ~flat
        g_num = g / den
        g_den = (-g * num / (den * den)).sum(axis=-1, keepdims=True)
        g_lo = (-g_num).sum(axis=-1, keepdims=True) + -g_den
        _accumulate(a, (g_num + at_lo * g_lo + at_hi * g_den) * keep)

    return _make(num / den * ~flat, (a,), backward)


def layer_norm_values(x: np.ndarray, gain, bias, eps: float = 1e-5):
    """Layer norm over the last axis: the output, the normalised rows and their std."""
    n = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    std = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n) + eps)
    normed = centered / std
    return normed * gain + bias, normed, std


def layer_norm(x, gain, bias, residual=None, eps: float = 1e-5) -> Tensor:
    """``layer_norm_values`` of ``x``, or of ``x + residual``, on the graph, with
    the analytic backward (Ba et al. 2016).

    The sum is a temporary, and both operands receive its gradient as ``add``
    gives it, so values and gradients equal ``layer_norm(add(x, residual), ...)``
    bit for bit.
    """
    inputs = (as_tensor(x),) if residual is None else _operands(x, residual)
    gain, bias = as_tensor(gain), as_tensor(bias)
    total = inputs[0].data if residual is None else inputs[0].data + inputs[1].data
    if total.shape[-1] < 2:
        raise ShapeError(f"layer_norm needs at least 2 channels, got shape {total.shape}")
    out, normed, std = layer_norm_values(total, gain.data, bias.data, eps)

    def backward(g):
        if any(t.requires_grad for t in inputs):
            gn = g * gain.data
            g_in = (gn - gn.mean(axis=-1, keepdims=True)
                    - normed * (gn * normed).mean(axis=-1, keepdims=True)) / std
            for t in inputs:
                if t.requires_grad:
                    _accumulate(t, _unbroadcast(g_in, t.shape))
        if gain.requires_grad:
            _accumulate(gain, _unbroadcast(g * normed, gain.shape))
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.shape))

    return _make(out, (*inputs, gain, bias), backward)


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


def backward(loss: Tensor, release: bool = False) -> Tape:
    """Accumulate d(loss)/d(node) into ``.grad`` for every node on the tape.

    ``loss`` must be a scalar.  Parameters not reachable from the loss keep
    ``grad is None``; read them through ``grad_of`` for an exact zero.  With
    ``release`` each interior node drops its ``.grad`` once its backward has
    passed it to the parents, so only leaves keep gradients; the tape still
    lists every node with its closure.
    """
    if loss.size != 1:
        raise ContractError(f"backward seed must be scalar, got shape {loss.shape}")
    tape = trace(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(tape.nodes):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            if release:
                node.grad = None
    return tape


def grad_of(t: Tensor) -> np.ndarray:
    """Gradient of the last backward pass; exact zeros when unreachable."""
    return t.grad if t.grad is not None else np.zeros_like(t.data)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None
