"""Multi-label classification over pooled patch features and the class
activation map pipeline that turns its weights into a visual saliency map.

The map aggregation (ReLU, min-max per class, elementwise max over present
classes) runs on plain arrays: the aggregated map is consumed everywhere as
a constant target, so no gradient flows through it.  The classification
logits stay on the autodiff graph for the label loss.  Features may carry a
leading batch axis, (..., N, C); every result then carries it too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, matmul, mean, minmax, transpose

PRESENCE_THRESHOLD = 0.5


@dataclass
class ClassProbabilities:
    probs: np.ndarray        # (..., classes) sigmoid of the logits, off the graph
    logits: Tensor           # (..., classes) on-graph, for the label loss
    presence: np.ndarray     # (..., classes) 0/1, strictly-above-threshold rule


def classify_global(tokens: Tensor, class_head: Tensor) -> ClassProbabilities:
    """Global average pool over patches, then a bias-free linear head.

    Presence is 1 only for probability strictly above 0.5; exactly 0.5 maps
    to absent.
    """
    pooled = mean(tokens, axis=-2, keepdims=True)               # (..., 1, C)
    logits = matmul(pooled, transpose(class_head))[..., 0, :]   # (..., classes)
    e = np.exp(-np.abs(logits.data))                        # stable in both tails
    probs = np.where(logits.data >= 0, 1.0, e) / (1.0 + e)
    presence = (probs > PRESENCE_THRESHOLD).astype(np.int64)
    return ClassProbabilities(probs=probs, logits=logits, presence=presence)


def class_activation_map(feats: np.ndarray, class_head: np.ndarray, class_idx) -> np.ndarray:
    """Per-patch evidence for a class: patch features dotted with its head row.

    ``class_idx`` is one class, giving (..., N), or a slice of classes, giving
    (..., classes, N).  The mean of a class's map over patches equals its
    pooled logit (the global-average-pooling decomposition).
    """
    if not isinstance(class_idx, slice) and not 0 <= class_idx < class_head.shape[0]:
        raise IndexError(f"class index {class_idx} out of range [0, {class_head.shape[0]})")
    return np.swapaxes(feats @ class_head.T, -1, -2)[..., class_idx, :]


def normalize_map(raw: np.ndarray) -> np.ndarray:
    """ReLU then min-max to [0, 1] over the last axis; constant-after-ReLU maps become all zeros.
    The values of ``autodiff.minmax``, which also normalises the textual map's rows."""
    return minmax(raw).data


@dataclass
class VisualMapResult:
    visual_map: np.ndarray   # (..., N) in [0, 1]
    cams: np.ndarray         # (..., classes, N) raw per-class maps
    probs: ClassProbabilities


def visual_map_from_features(tokens: Tensor, class_head: Tensor) -> VisualMapResult:
    """Full pipeline: classify, per-class maps, normalise, max-pool present set.

    When no class clears the threshold, the argmax-probability class supplies
    the map so the alignment target never vanishes.
    """
    result = classify_global(tokens, class_head)
    cams = class_activation_map(tokens.data, class_head.data, slice(None))   # (..., classes, N)
    chosen = result.presence.astype(bool)
    classes = np.arange(chosen.shape[-1])
    chosen |= ~chosen.any(axis=-1, keepdims=True) & (
        classes == np.argmax(result.probs, axis=-1)[..., None])
    # normalised maps are >= 0, so an unchosen class read as 0 never raises the max
    maps = np.where(chosen[..., None], normalize_map(cams), 0.0)
    return VisualMapResult(visual_map=maps.max(axis=-2), cams=cams, probs=result)
