"""The three objective terms and their weighted combination, each one value
per sample: a scalar, or (B,) for inputs with a leading batch axis."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ContractError, ShapeError, Tensor, concat, log_softmax, mean,
                       reshape, tsum)
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
    """Mean -log p(target) over each report's non-pad positions (teacher forcing).

    ``log_probs`` is (..., T, vocab) and ``targets`` (..., T); PAD targets weigh 0.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if log_probs.ndim < 2 or log_probs.shape[:-1] != targets.shape:
        raise ShapeError(f"log-probabilities {log_probs.shape} vs targets {targets.shape}")
    keep = targets != PAD
    count = keep.sum(axis=-1)
    if not count.all():
        raise ContractError("cross entropy over an all-pad target")
    picked = log_probs[np.indices(targets.shape, sparse=True) + (targets,)]    # (..., T)
    return tsum(picked * (keep / -count[..., None]), axis=-1)


def label_bce(logits: Tensor, labels) -> Tensor:
    """Mean binary cross entropy over classes (the last axis), from logits.

    Class c is a two-way log-softmax over ``(0, logit_c)``, whose entries are
    ``(log(1 - p_c), log p_c)``; the 0/1 label picks one.
    """
    labels = np.asarray(labels)
    if logits.shape != labels.shape or logits.ndim < 1:
        raise ShapeError(f"logits {logits.shape} vs labels {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ContractError(f"labels must be 0 or 1, got {labels.tolist()}")
    column = (*labels.shape, 1)
    pairs = concat([Tensor(np.zeros(column, logits.data.dtype)), reshape(logits, column)], axis=-1)
    picked = log_softmax(pairs)[np.indices(labels.shape, sparse=True) + (labels.astype(np.int64),)]
    return -mean(picked, axis=-1)


def composite_loss(ce: Tensor, bce, mse, lam: float, delta: float):
    """Weighted total as a graph node plus a float breakdown, per sample.

    ``bce``/``mse`` may be None when the variant gates the term off.  Batched
    terms give a (B,) total and a list of B breakdowns.
    """
    total = ce
    if bce is not None and lam != 0.0:
        total = total + lam * bce
    if mse is not None and delta != 0.0:
        total = total + delta * mse
    terms = [np.zeros(ce.shape) if t is None else t.data for t in (ce, bce, mse)]
    breakdowns = [LossBreakdown(float(c), float(b), float(m), lam=lam, delta=delta)
                  for c, b, m in zip(*(t.reshape(-1) for t in terms))]
    return total, breakdowns if ce.ndim else breakdowns[0]
