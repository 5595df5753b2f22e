"""The full captioning model: variant-gated assembly of extractor, encoder,
decoder, classification head, discriminative token, and attention
consistency.

Variants:
  base   - extractor + encoder-decoder only
  vdmae  - adds the classification head, visual map, and injected token
  full   - adds word selection and the attention-consistency loss
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import consistency, discrim, saliency
from .autodiff import ContractError, Tensor
from .backbone import (Decoder, DecoderOutput, Encoder, PatchExtractor,
                       PatchFeatures, ones_param, xavier, zeros_param)
from .config import ModelSection, RunConfig
from .data import BOS, EOS, PAD, UNK
from .losses import LossBreakdown, composite_loss, label_bce, report_cross_entropy


@dataclass
class ForwardResult:
    decoder: DecoderOutput
    breakdown: LossBreakdown
    total: Tensor
    features: PatchFeatures
    memory: Tensor
    summary: Tensor = None           # encoded discriminative token (vdmae/full)
    visual_map: np.ndarray = None
    cams: np.ndarray = None
    presence: np.ndarray = None
    probs: Tensor = None
    sims: "consistency.WordSimilarities" = None
    selected: np.ndarray = None
    text_map: Tensor = None


class CaptionModel:
    def __init__(self, cfg: ModelSection, vocab: int, variant: str, rng):
        if variant not in ("base", "vdmae", "full"):
            raise ContractError(f"unknown variant {variant!r}")
        self.cfg = cfg
        self.variant = variant
        self.extractor = PatchExtractor(cfg, rng)
        self.encoder = Encoder(cfg, rng)
        self.decoder = Decoder(cfg, vocab, rng)
        if variant != "base":
            self.class_head = xavier(rng, cfg.feat_dim, cfg.classes,
                                     shape=(cfg.classes, cfg.feat_dim))
            self.summary_gain = ones_param((cfg.feat_dim,))
            self.summary_bias = zeros_param((cfg.feat_dim,))

    # -- parameters ---------------------------------------------------------

    def extractor_params(self) -> dict:
        return self.extractor.params()

    def encdec_params(self) -> dict:
        out = self.encoder.params()
        out.update(self.decoder.params())
        if self.variant != "base":
            out["class_head.w"] = self.class_head
            out["summary_norm.gain"] = self.summary_gain
            out["summary_norm.bias"] = self.summary_bias
        return out

    def params(self) -> dict:
        out = self.extractor_params()
        out.update(self.encdec_params())
        return out

    def parameter_count(self) -> int:
        return sum(p.size for p in self.params().values())

    def load_state(self, state: dict) -> None:
        params = self.params()
        missing = set(params) ^ set(state)
        if missing:
            raise ContractError(f"checkpoint does not match model: {sorted(missing)}")
        for name, value in state.items():
            if params[name].data.shape != value.shape:
                raise ContractError(f"checkpoint shape mismatch for {name}")
            params[name].data = np.array(value, dtype=np.float64)

    # -- encoding -----------------------------------------------------------

    def encode_images(self, images, pinned_map: np.ndarray = None):
        """Extract, build the visual map (non-base), inject, encode, split.

        Returns (memory, summary, VisualMapResult-or-None, features).
        ``pinned_map`` overrides the computed visual map; finite-difference
        checks use it to hold the constant target fixed.
        """
        features = self.extractor(images)
        if self.variant == "base":
            memory = self.encoder(features.tokens, segments=features.segments)
            return memory, None, None, features
        map_result = saliency.visual_map_from_features(features.tokens, self.class_head)
        visual = pinned_map if pinned_map is not None else map_result.visual_map
        rep = discrim.discriminative_representation(visual, features.tokens)
        rep = discrim.normalize_representation(rep, self.summary_gain, self.summary_bias)
        injected = discrim.inject_token(rep, features.tokens)
        encoded = self.encoder(injected, segments=features.segments, leading_tokens=1)
        parts = discrim.split_memory(encoded)
        map_result.visual_map = visual
        return parts.memory, parts.summary, map_result, features

    # -- training forward ---------------------------------------------------

    def forward_train(self, images, report_ids, labels, lam: float, delta: float,
                      k: float, pinned_map: np.ndarray = None) -> ForwardResult:
        """Teacher-forced pass producing the composite loss.

        ``report_ids`` is the tokenised report including BOS/EOS framing.
        """
        if len(report_ids) < 2:
            raise ContractError("report must contain at least BOS and EOS")
        memory, summary, map_result, features = self.encode_images(images, pinned_map)
        prefix = report_ids[:-1]
        targets = np.asarray(report_ids[1:], dtype=np.int64)
        out = self.decoder(prefix, memory)
        ce = report_cross_entropy(out.dists, targets)

        bce = mse = None
        visual = cams = presence = probs = sims = selected = text_map = None
        if self.variant != "base":
            probs = map_result.probs.probs
            presence, cams, visual = map_result.presence, map_result.cams, map_result.visual_map
            bce = label_bce(probs, labels)
        if self.variant == "full":
            embeddings = self.decoder.embed_words(prefix)
            content = np.array([t not in (PAD, BOS, EOS, UNK) for t in prefix])
            if content.any():
                sims = consistency.word_similarities(embeddings, summary, content)
                selected = consistency.select_important_words(sims, k)
                text_map = consistency.textual_map(out.cross_final_avg, sims, selected)
                mse = consistency.consistency_loss(text_map, visual)
            # all-special report: consistency term skipped for this sample

        total, breakdown = composite_loss(ce, bce, mse, lam, delta)
        return ForwardResult(
            decoder=out, breakdown=breakdown, total=total, features=features,
            memory=memory, summary=summary, visual_map=visual, cams=cams,
            presence=presence, probs=probs, sims=sims, selected=selected,
            text_map=text_map)

    # -- generation ---------------------------------------------------------

    def step_fn(self, images):
        """Next-token log-probability closure over a frozen encoding."""
        memory, _, _, _ = self.encode_images(images)
        return self.decoder.step_fn(memory.data)


def build_model(cfg: RunConfig, vocab_size: int, rng) -> CaptionModel:
    return CaptionModel(cfg.model, vocab_size, cfg.train.variant, rng)
