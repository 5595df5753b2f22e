"""Attention consistency: select report words similar to the encoded
discriminative summary, aggregate their decoder attention into a textual
saliency map, and pull it toward the visual map with an MSE loss.

Training-time only (it needs teacher-forced attention rows).  Similarities
and word weights stay on the graph, so the consistency loss trains both the
attention and the summary path; the visual map target is a constant.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .autodiff import (ContractError, ShapeError, Tensor, add, clip, div,
                       matmul, mul, relu, sqrt, sub, tmax, tmin, transpose,
                       tsum)

NORM_FLOOR = 1e-12
MASKED_SENTINEL = -np.inf


@dataclass
class WordSimilarities:
    values: Tensor           # (T,) cosine similarity per word position
    masked: np.ndarray       # (T,) values with -inf at special-token positions


def word_similarities(embeddings: Tensor, summary: Tensor, content_mask) -> WordSimilarities:
    """Cosine similarity of each word embedding to the summary vector.

    Norms are floored at 1e-12, so zero vectors are safe.  ``content_mask``
    flags positions eligible for selection; others carry a -inf sentinel in
    the ``masked`` view.
    """
    if embeddings.shape[1] != summary.shape[1]:
        raise ShapeError(f"dim mismatch: words {embeddings.shape} vs summary {summary.shape}")
    dots = matmul(embeddings, transpose(summary))                        # (T, 1)
    word_norms = sqrt(tsum(mul(embeddings, embeddings), axis=1, keepdims=True))
    summary_norm = sqrt(tsum(mul(summary, summary)))
    denom = mul(clip(word_norms, NORM_FLOOR, np.inf), clip(summary_norm, NORM_FLOOR, np.inf))
    # rounding can push |cos| a hair past 1; the clamp keeps weights in [0, 1]
    values = clip(div(dots, denom), -1.0, 1.0)[:, 0]
    content_mask = np.asarray(content_mask, dtype=bool)
    masked = np.where(content_mask, values.data, MASKED_SENTINEL)
    return WordSimilarities(values=values, masked=masked)


def select_important_words(sims: WordSimilarities, k: float) -> np.ndarray:
    """Indices of the top ceil(k * content count) words; ties keep lower index.

    Raises when every position is masked (the caller skips the sample).
    """
    if not 0.0 < k <= 1.0:
        raise ContractError(f"selection fraction k must lie in (0, 1], got {k}")
    content = np.flatnonzero(np.isfinite(sims.masked))
    if content.size == 0:
        raise ContractError("no unmasked words to select from")
    gamma = ceil(k * content.size)
    order = np.argsort(-sims.masked, kind="stable")       # stable: lower index wins ties
    return order[:gamma]


def textual_map(attention: Tensor, sims: WordSimilarities, selected: np.ndarray) -> Tensor:
    """Weighted max-pool of the selected words' normalised attention rows.

    Each selected row is ReLU'd and min-max normalised (a row that is
    constant after the ReLU becomes zeros, with zero gradient), scaled by its
    word weight ReLU(similarity), then pooled elementwise-max into a single
    map over visual tokens.
    """
    if selected.size == 0:
        raise ContractError("textual map needs at least one selected word")
    active = relu(attention[selected])                                  # (gamma, N)
    lo, hi = tmin(active, axis=1, keepdims=True), tmax(active, axis=1, keepdims=True)
    flat = hi.data == lo.data                                           # (gamma, 1)
    normd = mul(div(sub(active, lo), add(sub(hi, lo), flat)), ~flat)
    weights = relu(sims.values[selected[:, None]])                      # (gamma, 1)
    return tmax(mul(normd, weights), axis=0)


def consistency_loss(text_map: Tensor, visual_map) -> Tensor:
    """Mean squared difference between the two maps; the visual map is a
    gradient-free target (a Tensor argument is read as a constant)."""
    if isinstance(visual_map, Tensor):
        visual_map = visual_map.data
    target = np.asarray(visual_map, dtype=np.float64)
    if text_map.shape != target.shape:
        raise ShapeError(f"map lengths differ: {text_map.shape} vs {target.shape}")
    diff = sub(text_map, Tensor(target))
    return tsum(mul(diff, diff)) * (1.0 / target.shape[0])
