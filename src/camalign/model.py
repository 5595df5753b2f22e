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
from .autodiff import ContractError, Tensor, no_graph
from .backbone import (Decoder, DecoderOutput, Encoder, PatchExtractor, ones_param,
                       xavier, zeros_param)
from .config import VARIANTS, ModelSection, RunConfig
from .data import BOS, EOS, PAD, UNK
from .losses import LossBreakdown, composite_loss, label_bce, report_cross_entropy


@dataclass
class ForwardResult:
    decoder: DecoderOutput
    breakdown: LossBreakdown         # a list of them for a batch
    total: Tensor                    # per sample: scalar, or (B,) for a batch
    memory: Tensor
    summary: Tensor = None           # encoded discriminative token (vdmae/full)
    maps: saliency.VisualMapResult = None    # visual map, CAMs, class probabilities (vdmae/full)
    sims: Tensor = None              # (..., T) word-to-summary cosine similarities
    selected: np.ndarray = None
    text_map: Tensor = None


class CaptionModel:
    def __init__(self, cfg: ModelSection, vocab: int, variant: str, rng):
        if variant not in VARIANTS:
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
        """Rebind every parameter to its record, narrowed to the parameter's dtype."""
        params = self.params()
        missing = set(params) ^ set(state)
        if missing:
            raise ContractError(f"checkpoint does not match model: {sorted(missing)}")
        narrowed = {}                     # every record checked before any is bound
        for name, value in state.items():
            if params[name].data.shape != value.shape:
                raise ContractError(f"checkpoint shape mismatch for {name}")
            narrowed[name] = np.array(value, dtype=params[name].data.dtype)
            if not np.all(np.isfinite(narrowed[name])):
                raise ContractError(f"checkpoint record {name} holds non-finite values "
                                    f"as {narrowed[name].dtype}")
        for name, value in narrowed.items():
            params[name].data = value

    # -- encoding -----------------------------------------------------------

    def encode_images(self, images, pinned_map: np.ndarray = None):
        """Extract, build the visual map (non-base), inject, encode, split.

        Returns (memory, summary, VisualMapResult-or-None).
        ``images`` is one sample's list of views, or a (B, views, G, G) batch.
        ``pinned_map`` overrides the computed visual map; finite-difference
        checks use it to hold the constant target fixed.
        """
        tokens, views = self.extractor(images), np.shape(images)[-3]
        if self.variant == "base":
            return self.encoder(tokens, views=views), None, None
        map_result = saliency.visual_map_from_features(tokens, self.class_head)
        if pinned_map is not None:
            map_result.visual_map = pinned_map
        rep = discrim.discriminative_representation(map_result.visual_map, tokens)
        rep = discrim.normalize_representation(rep, self.summary_gain, self.summary_bias)
        injected = discrim.inject_token(rep, tokens)
        summary, memory = discrim.split_memory(self.encoder(injected, views=views, leading_tokens=1))
        return memory, summary, map_result

    # -- training forward ---------------------------------------------------

    def forward_train(self, images, report_ids, labels, lam: float, delta: float,
                      k: float, pinned_map: np.ndarray = None) -> ForwardResult:
        """Teacher-forced pass producing the composite loss.

        ``report_ids`` is the tokenised report including BOS/EOS framing.  A
        batch stacks its samples on a leading axis: images (B, views, G, G),
        reports (B, T + 1) padded with PAD after EOS, labels (B, classes).
        Every field then carries that axis, and ``breakdown`` is a list.
        """
        ids = np.asarray(report_ids, dtype=np.int64)
        if ids.shape[-1] < 2:
            raise ContractError("report must contain at least BOS and EOS")
        memory, summary, map_result = self.encode_images(images, pinned_map)
        prefix, targets = ids[..., :-1], ids[..., 1:]
        out = self.decoder(prefix, memory)
        ce = report_cross_entropy(out.log_probs, targets)

        bce = mse = sims = selected = text_map = None
        if map_result is not None:
            bce = label_bce(map_result.probs.logits, labels)
        if self.variant == "full":
            content = ~np.isin(prefix, (PAD, BOS, EOS, UNK))
            if content.any():
                sims = consistency.word_similarities(self.decoder.embed_words(prefix), summary)
                selected = consistency.select_important_words(sims, content, k)
                text_map = consistency.textual_map(out.cross_final_avg, sims, selected)
                mse = consistency.consistency_loss(text_map, map_result.visual_map)
                has_words = content.any(axis=-1)
                if not has_words.all():
                    mse = mse * has_words
            # all-special report: consistency term skipped for this sample

        total, breakdown = composite_loss(ce, bce, mse, lam, delta)
        return ForwardResult(
            decoder=out, breakdown=breakdown, total=total, memory=memory, summary=summary,
            maps=map_result, sims=sims, selected=selected, text_map=text_map)

    # -- generation ---------------------------------------------------------

    def step_fn(self, images):
        """Next-token log-probability closure over a frozen encoding (recorded on no graph)."""
        with no_graph():
            memory = self.encode_images(images)[0].data
        return self.decoder.step_fn(memory)


def build_model(cfg: RunConfig, vocab_size: int, rng) -> CaptionModel:
    return CaptionModel(cfg.model, vocab_size, cfg.train.variant, rng)
