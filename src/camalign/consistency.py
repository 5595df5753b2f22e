"""Attention consistency: select report words similar to the encoded
discriminative summary, aggregate their decoder attention into a textual
saliency map, and pull it toward the visual map with an MSE loss.

Training-time only (it needs teacher-forced attention rows).  Similarities
and word weights stay on the graph, so the consistency loss trains both the
attention and the summary path; the visual map target is a constant.  Every
input may carry a leading batch axis; each sample then gets its own map and
loss.
"""
from __future__ import annotations

import numpy as np

from .autodiff import (ContractError, ShapeError, Tensor, add, cosine, minmax, mul, relu,
                       tmax, tsum)

def word_similarities(embeddings: Tensor, summary: Tensor) -> Tensor:
    """Cosine similarity of each word embedding to the summary vector, (..., T).

    A zero embedding or summary gets similarity 0 and exactly zero gradient.
    """
    return cosine(embeddings, summary)


def select_important_words(sims: Tensor, content, k: float) -> np.ndarray:
    """Indices of each row's top ceil(k * content count) words; ties keep lower index.

    Only positions on the ``content`` mask (same shape as ``sims``) compete.

    A batch of rows (B, T) gives (B, most selected): a row that selects fewer
    repeats its first pick, which changes neither the textual map's max nor
    its gradient, and a row without content words holds position 0 (its
    sample skips the consistency term).  Raises when every position of
    every row is masked (the caller skips the sample).
    """
    if not 0.0 < k <= 1.0:
        raise ContractError(f"selection fraction k must lie in (0, 1], got {k}")
    content = np.asarray(content, dtype=bool)
    count = content.sum(axis=-1)
    if not count.any():
        raise ContractError("no unmasked words to select from")
    gamma = np.ceil(k * count).astype(np.int64)
    # masked positions sort last; stable: lower index wins ties
    order = np.argsort(np.where(content, -sims.data, np.inf), axis=-1, kind="stable")
    order = order[..., :gamma.max()]
    return np.where(np.arange(gamma.max()) < gamma[..., None], order, order[..., :1])


def textual_map(attention: Tensor, sims: Tensor, selected: np.ndarray) -> Tensor:
    """Weighted max-pool of the selected words' normalised attention rows.

    Each selected row is ReLU'd and min-max normalised by ``minmax`` (a row
    that is constant after the ReLU becomes zeros, with zero gradient), as
    ``saliency.normalize_map`` does for the class maps, scaled by its
    word weight ReLU(similarity), then pooled elementwise-max into a single
    map over visual tokens.
    """
    if selected.size == 0:
        raise ContractError("textual map needs at least one selected word")
    rows = np.indices(selected.shape, sparse=True)[:-1] + (selected,)   # each sample's own rows
    normd = minmax(attention[rows])                                     # (..., gamma, N)
    weights = relu(sims[tuple(r[..., None] for r in rows)])             # (..., gamma, 1)
    return tmax(mul(normd, weights), axis=-2)


def consistency_loss(text_map: Tensor, visual_map) -> Tensor:
    """Mean squared difference between the two maps over the last axis, one
    per sample; the visual map is a gradient-free target (a Tensor argument
    is read as a constant)."""
    if isinstance(visual_map, Tensor):
        visual_map = visual_map.data
    target = np.asarray(visual_map, dtype=text_map.data.dtype)
    if text_map.shape != target.shape:
        raise ShapeError(f"map lengths differ: {text_map.shape} vs {target.shape}")
    diff = add(text_map, -target)   # IEEE a - b is a + (-b), bit for bit
    return tsum(mul(diff, diff), axis=-1) * (1.0 / target.shape[-1])
