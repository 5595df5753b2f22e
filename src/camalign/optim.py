"""Adam with bias correction and per-group learning rates."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, grad_of

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Moment accumulators for one parameter; shapes mirror the parameter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One bias-corrected update; returns the new parameter value."""
    if grad.shape != param.shape or state.m.shape != param.shape:
        raise ShapeError(f"adam_step shape mismatch: param {param.shape}, grad {grad.shape}")
    state.step += 1
    state.m = BETA1 * state.m + (1.0 - BETA1) * grad
    state.v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = state.m / (1.0 - BETA1 ** state.step)
    v_hat = state.v / (1.0 - BETA2 ** state.step)
    return param - state.lr * m_hat / (np.sqrt(v_hat) + EPS)


class Adam:
    """Optimises named parameter groups, each with its own learning rate.

    groups: list of (params dict name->Tensor, lr).  Parameters are leaf
    tensors; ``step`` rebinds each one's ``.data`` to a new array between
    graph constructions and reads its ``.grad`` without writing into it.
    """

    def __init__(self, groups: list):
        self.groups = groups
        self.states = {name: AdamState(m=np.zeros_like(p.data), v=np.zeros_like(p.data), lr=lr)
                       for params, lr in groups for name, p in params.items()}

    def step(self) -> None:
        for params, _ in self.groups:
            for name, p in params.items():
                p.data = adam_step(self.states[name], p.data, grad_of(p))

    def zero_grad(self) -> None:
        for params, _ in self.groups:
            for p in params.values():
                p.grad = None
