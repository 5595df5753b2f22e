import numpy as np
import pytest

from camalign import autodiff as ad


def numeric_grad(scalar_fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central differences of scalar_fn() with respect to array x, in place."""
    grad = np.zeros_like(x)
    flat, grad_flat = x.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = scalar_fn()
        flat[i] = orig - h
        lo = scalar_fn()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2.0 * h)
    return grad


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.abs(a - b).max(initial=0.0) / scale.max(initial=1.0)) if a.size else 0.0


def check_grads(build_loss, params, h: float = 1e-5, tol: float = 1e-6):
    """Analytic gradients of build_loss() vs central differences, per param."""
    loss = build_loss()
    ad.zero_grads(params)
    ad.backward(loss)
    for p in params:
        analytic = ad.grad_of(p).copy()
        numeric = numeric_grad(lambda: float(build_loss().data), p.data, h=h)
        err = np.abs(analytic - numeric) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        assert err.max(initial=0.0) < tol, f"gradient mismatch: max rel err {err.max():.3g}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def composed_attention(q, k, v, heads: int, scale: float, mask=None):
    """The op chain ``attention_probs`` and ``mix_heads`` replace, on rows (..., T, D):
    contiguous head copies, one product, the scaled softmax, one product, heads merged.
    Returns the probabilities and the merged rows."""
    n = q.ndim - 2
    split = (*q.shape[:n], -1, heads, q.shape[-1] // heads)
    swap = (*range(n), n + 1, n, n + 2)
    qh = ad.transpose(ad.reshape(q, split), swap)
    kh = ad.transpose(ad.reshape(k, split), (*range(n), n + 1, n + 2, n))
    vh = ad.transpose(ad.reshape(v, split), swap)
    p = ad.softmax(ad.matmul(qh, kh), mask=mask, scale=scale)
    return p, ad.reshape(ad.transpose(ad.matmul(p, vh), swap), (*q.shape[:n], -1, q.shape[-1]))
