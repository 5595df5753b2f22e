"""Discriminative token: saliency-weighted patch summary injected into the
encoder, and the split that keeps it out of the decoder's memory.

The visual map enters as a constant, so its construction contributes no
gradient; gradients still reach the extractor through the patch features.
The encoded summary token feeds only the attention-consistency path — the
decoder never sees it, which keeps decoder attention width equal to the
visual map length.  Tokens may carry a leading batch axis, (..., N, C).
"""
from __future__ import annotations

import numpy as np

from .autodiff import ShapeError, Tensor, concat, layer_norm, matmul


def discriminative_representation(visual_map: np.ndarray, tokens: Tensor) -> Tensor:
    """Map-weighted sum of patch features: (..., 1, N) x (..., N, C) -> (..., 1, C)."""
    visual_map = np.asarray(visual_map)
    if visual_map.shape != tokens.shape[:-1]:
        raise ShapeError(
            f"visual map shape {visual_map.shape} does not match patch tokens {tokens.shape}")
    return matmul(Tensor(visual_map[..., None, :]), tokens)


def normalize_representation(rep: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    return layer_norm(rep, gain, bias)


def inject_token(summary: Tensor, tokens: Tensor) -> Tensor:
    """Prepend the summary as token 0 of the encoder input."""
    if summary.shape != (*tokens.shape[:-2], 1, tokens.shape[-1]):
        raise ShapeError(f"summary shape {summary.shape} incompatible with tokens {tokens.shape}")
    return concat([summary, tokens], axis=-2)


def split_memory(encoded: Tensor) -> tuple:
    """(summary (..., 1, D), memory (..., N, D)): row 0, then the decoder's rows.

    The slice severs the graph between the two halves: nothing downstream of
    ``memory`` can route gradient into ``summary``.
    """
    if encoded.shape[-2] < 2:
        raise ShapeError(f"need the summary plus at least one visual token, got {encoded.shape}")
    return encoded[..., 0:1, :], encoded[..., 1:, :]
