"""Adam with bias correction and per-group learning rates."""
from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, grad_of, zero_grads

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


class Adam:
    """Optimises named parameter groups, each with its own learning rate.

    groups: list of (params dict name->Tensor, lr).  Parameters are leaf
    tensors; ``step`` rebinds each one's ``.data`` to a new array between
    graph constructions and reads its ``.grad`` without writing into it.
    ``m`` and ``v`` hold each parameter's moments by name; ``t`` counts the
    steps taken, one count for every parameter.
    """

    def __init__(self, groups: list):
        self.groups = groups
        self.m = {name: np.zeros_like(p.data) for params, _ in groups for name, p in params.items()}
        self.v = {name: np.zeros_like(m) for name, m in self.m.items()}
        self.t = 0

    def step(self) -> None:
        self.t += 1
        debias1, debias2 = 1.0 - BETA1 ** self.t, 1.0 - BETA2 ** self.t
        for params, lr in self.groups:
            for name, p in params.items():
                grad = grad_of(p)
                if grad.shape != p.shape or self.m[name].shape != p.shape:
                    raise ShapeError(f"adam shape mismatch for {name}: param {p.shape}, "
                                     f"grad {grad.shape}, moments {self.m[name].shape}")
                m = self.m[name] = BETA1 * self.m[name] + (1.0 - BETA1) * grad
                v = self.v[name] = BETA2 * self.v[name] + (1.0 - BETA2) * grad * grad
                p.data = p.data - lr * (m / debias1) / (np.sqrt(v / debias2) + EPS)

    def zero_grad(self) -> None:
        zero_grads(p for params, _ in self.groups for p in params.values())
