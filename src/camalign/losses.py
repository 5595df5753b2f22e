"""The three objective terms and their weighted combination."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ContractError, ShapeError, Tensor, concat, log_softmax, mean,
                       reshape)
from .data import PAD


@dataclass
class LossBreakdown:
    ce: float
    bce: float
    mse: float
    lam: float
    delta: float

    @property
    def total(self) -> float:
        return self.ce + self.lam * self.bce + self.delta * self.mse

    def as_dict(self) -> dict:
        return {"ce": self.ce, "bce": self.bce, "mse": self.mse, "total": self.total}


def report_cross_entropy(log_probs: Tensor, targets) -> Tensor:
    """Mean -log p(target) over non-pad positions (teacher forcing)."""
    targets = np.asarray(targets, dtype=np.int64)
    if log_probs.ndim != 2 or log_probs.shape[0] != targets.shape[0]:
        raise ShapeError(f"log-probabilities {log_probs.shape} vs targets {targets.shape}")
    rows = np.flatnonzero(targets != PAD)
    if rows.size == 0:
        raise ContractError("cross entropy over an all-pad target")
    return -mean(log_probs[rows, targets[rows]])


def label_bce(logits: Tensor, labels) -> Tensor:
    """Mean binary cross entropy over classes, from logits.

    Class c is a two-way log-softmax over ``(0, logit_c)``, whose entries are
    ``(log(1 - p_c), log p_c)``; the 0/1 label picks one.
    """
    labels = np.asarray(labels)
    if logits.shape != labels.shape or logits.ndim != 1:
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ContractError(f"labels must be 0 or 1, got {labels.tolist()}")
    n = labels.size
    pairs = concat([Tensor(np.zeros((n, 1))), reshape(logits, (n, 1))], axis=1)
    return -mean(log_softmax(pairs)[np.arange(n), labels.astype(np.int64)])


def composite_loss(ce: Tensor, bce, mse, lam: float, delta: float):
    """Weighted total as a graph node plus a float breakdown.

    ``bce``/``mse`` may be None when the variant gates the term off.
    """
    total = ce
    if bce is not None and lam != 0.0:
        total = total + lam * bce
    if mse is not None and delta != 0.0:
        total = total + delta * mse
    breakdown = LossBreakdown(
        ce=float(ce.data), bce=float(bce.data) if bce is not None else 0.0,
        mse=float(mse.data) if mse is not None else 0.0, lam=lam, delta=delta)
    return total, breakdown
