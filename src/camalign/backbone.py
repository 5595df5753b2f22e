"""Visual extractor and transformer encoder-decoder.

The decoder's attention over visual tokens (textual queries, visual
keys/values) is returned as a first-class output so downstream modules can
supervise it.  Vanilla post-norm blocks, sinusoidal position encodings.
Every module takes an optional leading batch axis, which runs a batch of
samples as one graph.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .autodiff import (ContractError, ShapeError, Tensor, _finite, _split_heads, add,
                       attention_probs, getitem, layer_norm, layer_norm_values, linear, linear_relu,
                       log_softmax, log_softmax_values, mean, mix_heads, reshape,
                       self_attention, softmax_values, transpose)
from .config import ModelSection


def xavier(rng, fan_in: int, fan_out: int, shape=None) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape or (fan_in, fan_out)), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


@cache
def sinusoid_positions(n: int, dim: int) -> np.ndarray:
    """Standard sin/cos interleaved position table, shape (n, dim), shared read-only per shape."""
    pos = np.arange(n)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    table.flags.writeable = False
    return table


def _blockify(x: Tensor, lead: tuple, side: int, block: int) -> Tensor:
    """Cut grids into ``block x block`` cells: (..., C) -> (*lead[:-1], views * cells, block*block*C).

    ``x`` holds ``lead`` grids of ``side x side`` pixels, row-major, C channels
    each.  ``lead`` ends with the view axis; each sample's cells run view-major.
    """
    h, channels, n = side // block, x.shape[-1], len(lead)
    x = reshape(x, (*lead, h, block, h, block, channels))
    x = transpose(x, (*range(n), n, n + 2, n + 1, n + 3, n + 4))
    return reshape(x, (*lead[:-1], -1, block * block * channels))


class PatchExtractor:
    """Two strided (kernel = stride) convolution stages with a ReLU between.

    Equivalent to hierarchical patch embedding: non-overlapping blocks are
    flattened and linearly mapped, so each output token sees exactly one
    ``patch x patch`` pixel cell.
    """

    def __init__(self, cfg: ModelSection, rng):
        self.patch = cfg.patch
        if cfg.patch % 2 == 0 and cfg.patch > 1:
            self.p1, self.p2 = cfg.patch // 2, 2
        else:
            self.p1, self.p2 = cfg.patch, 1
        mid = max(4, cfg.feat_dim // 2)
        self.w1 = xavier(rng, self.p1 * self.p1, mid)
        # non-zero bias init: zero-background patches would otherwise sit
        # exactly on the ReLU kink, where subgradients are ill-defined
        self.b1 = Tensor(rng.normal(0.0, 0.02, mid), requires_grad=True)
        self.w2 = xavier(rng, self.p2 * self.p2 * mid, cfg.feat_dim)
        self.b2 = Tensor(rng.normal(0.0, 0.02, cfg.feat_dim), requires_grad=True)

    def params(self, prefix="extractor"):
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}

    def __call__(self, images) -> Tensor:
        """Extract every view of (..., views, G, G) grids; tokens (..., views * cells, C), view-major."""
        grids = np.asarray(images, dtype=self.w1.data.dtype)
        if grids.ndim < 3 or grids.shape[-1] != grids.shape[-2]:
            raise ShapeError(f"expected square single-channel grids, got {grids.shape}")
        side, lead = grids.shape[-1], grids.shape[:-2]
        if side % self.patch != 0:
            raise ShapeError(f"grid side {side} not divisible by patch {self.patch}")
        x = _blockify(Tensor(grids[..., None]), lead, side, self.p1)
        x = linear_relu(x, self.w1, self.b1)
        x = _blockify(x, lead, side // self.p1, self.p2)
        return linear(x, self.w2, self.b2)


class MultiHeadAttention:
    """Scaled dot-product attention, all heads (and samples) in one batched product.

    ``attn(x, memory)`` is cross-attention over ``memory``: between the projections, two
    nodes, ``attention_probs`` (keeps only the per-head probabilities) and ``mix_heads``,
    returning the output, (..., T, D), with the probabilities, (..., H, T, S).  ``attn(x)``
    is self-attention, one ``self_attention`` node, returning ``None`` for them.
    """

    def __init__(self, dim: int, heads: int, rng):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = dim // heads
        self.scale = 1.0 / math.sqrt(self.head_dim)
        self.wq = xavier(rng, dim, dim)
        self.wk = xavier(rng, dim, dim)
        self.wv = xavier(rng, dim, dim)
        self.wo = xavier(rng, dim, dim)
        self.bq, self.bk, self.bv, self.bo = (zeros_param((dim,)) for _ in range(4))

    def params(self, prefix):
        names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        return {f"{prefix}.{n}": getattr(self, n) for n in names}

    def __call__(self, x: Tensor, memory: Tensor | None = None, mask=None):
        kv = x if memory is None else memory
        q = linear(x, self.wq, self.bq)
        k = linear(kv, self.wk, self.bk)
        v = linear(kv, self.wv, self.bv)
        # one softmax for every head; a (T, T) causal mask broadcasts over H and the batch
        if memory is None:
            mixed = self_attention(q, k, v, self.heads, self.scale, mask)
            return linear(mixed, self.wo, self.bo), None
        scores = attention_probs(q, k, self.heads, self.scale, mask)
        return linear(mix_heads(scores, v), self.wo, self.bo), scores


class FeedForward:
    def __init__(self, dim: int, rng):
        hidden = 4 * dim
        self.w1 = xavier(rng, dim, hidden)
        self.b1 = zeros_param((hidden,))
        self.w2 = xavier(rng, hidden, dim)
        self.b2 = zeros_param((dim,))

    def params(self, prefix):
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}

    def __call__(self, x: Tensor) -> Tensor:
        return linear(linear_relu(x, self.w1, self.b1), self.w2, self.b2)


class _Norm:
    def __init__(self, dim: int):
        self.gain = ones_param((dim,))
        self.bias = zeros_param((dim,))

    def params(self, prefix):
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}

    def __call__(self, x: Tensor, residual: Tensor) -> Tensor:
        """The post-norm residual: ``layer_norm(x + residual)`` as one node."""
        return layer_norm(x, self.gain, self.bias, residual)


class EncoderBlock:
    def __init__(self, cfg: ModelSection, rng):
        self.attn = MultiHeadAttention(cfg.dim, cfg.heads, rng)
        self.ffn = FeedForward(cfg.dim, rng)
        self.norm1, self.norm2 = _Norm(cfg.dim), _Norm(cfg.dim)

    def params(self, prefix):
        out = self.attn.params(f"{prefix}.attn")
        out.update(self.ffn.params(f"{prefix}.ffn"))
        out.update(self.norm1.params(f"{prefix}.norm1"))
        out.update(self.norm2.params(f"{prefix}.norm2"))
        return out

    def __call__(self, x: Tensor) -> Tensor:
        attended, _ = self.attn(x)
        x = self.norm1(x, attended)
        return self.norm2(x, self.ffn(x))


class Encoder:
    """Input projection C -> D, position encodings, then self-attention blocks.

    Position indices restart per view; an injected leading token (a
    summary, not a spatial location) receives no position encoding.
    """

    def __init__(self, cfg: ModelSection, rng):
        self.cfg = cfg
        self.proj_w = xavier(rng, cfg.feat_dim, cfg.dim)
        self.proj_b = zeros_param((cfg.dim,))
        self.blocks = [EncoderBlock(cfg, rng) for _ in range(cfg.layers)]

    def params(self, prefix="encoder"):
        out = {f"{prefix}.proj.w": self.proj_w, f"{prefix}.proj.b": self.proj_b}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}.block{i}"))
        return out

    def position_table(self, tokens: int, views: int, leading_tokens: int) -> np.ndarray:
        """Zero rows for the leading tokens, then one sinusoid table per view of the rest."""
        per_view = sinusoid_positions((tokens - leading_tokens) // views, self.cfg.dim)
        return np.concatenate([np.zeros((leading_tokens, self.cfg.dim)), *[per_view] * views])

    def __call__(self, tokens: Tensor, views: int = 1, leading_tokens: int = 0) -> Tensor:
        """(..., tokens, C) -> (..., tokens, D); after the leading tokens, ``views`` equal runs."""
        if tokens.shape[-2] < 1:
            raise ShapeError("encoder needs at least one token")
        x = linear(tokens, self.proj_w, self.proj_b)
        if self.cfg.pos_enc:
            x = add(x, self.position_table(tokens.shape[-2], views, leading_tokens))
        for block in self.blocks:
            x = block(x)
        return x


class DecoderBlock:
    def __init__(self, cfg: ModelSection, rng):
        self.self_attn = MultiHeadAttention(cfg.dim, cfg.heads, rng)
        self.cross_attn = MultiHeadAttention(cfg.dim, cfg.heads, rng)
        self.ffn = FeedForward(cfg.dim, rng)
        self.norm1, self.norm2, self.norm3 = (_Norm(cfg.dim) for _ in range(3))

    def params(self, prefix):
        out = self.self_attn.params(f"{prefix}.self")
        out.update(self.cross_attn.params(f"{prefix}.cross"))
        out.update(self.ffn.params(f"{prefix}.ffn"))
        for i, norm in enumerate((self.norm1, self.norm2, self.norm3), start=1):
            out.update(norm.params(f"{prefix}.norm{i}"))
        return out

    def __call__(self, x: Tensor, memory: Tensor, causal_mask):
        attended, _ = self.self_attn(x, mask=causal_mask)
        x = self.norm1(x, attended)
        crossed, cross_scores = self.cross_attn(x, memory)
        x = self.norm2(x, crossed)
        return self.norm3(x, self.ffn(x)), cross_scores


@dataclass
class DecoderOutput:
    """Next-token log-probabilities and the final layer's per-head cross-attention."""

    log_probs: Tensor            # (..., T, vocab) next-token log-probabilities
    cross_final: Tensor          # (..., H, T, N) final-layer attention over visual tokens

    @property
    def cross_final_avg(self) -> Tensor:
        """Head-averaged final-layer attention over visual tokens, (..., T, N)."""
        return mean(self.cross_final, axis=-3)


# -- numpy mirrors of the graph ops, in the same op order, for Decoder.step_fn --


def _attend(q, k, v, scale: float, wo, bo) -> np.ndarray:
    """Query heads q (R,H,d) attend over keys (R,H,d,S) and values (R,H,S,d), or shared
    (H,d,S), (H,S,d); the mixed rows are projected with ``wo`` and ``bo``."""
    scores = softmax_values((q[:, :, None] @ k) * scale)                   # (R,H,1,S)
    return (scores @ v).reshape(len(q), -1) @ wo + bo


class Decoder:
    """Embedding lookup, causal blocks over the prefix, vocabulary log-softmax."""

    def __init__(self, cfg: ModelSection, vocab: int, rng):
        self.cfg = cfg
        self.embedding = Tensor(rng.normal(0.0, 0.02, (vocab, cfg.dim)), requires_grad=True)
        self.blocks = [DecoderBlock(cfg, rng) for _ in range(cfg.layers)]
        self.out_w = xavier(rng, cfg.dim, vocab)
        self.out_b = zeros_param((vocab,))

    def params(self, prefix="decoder"):
        out = {f"{prefix}.embedding": self.embedding,
               f"{prefix}.out.w": self.out_w, f"{prefix}.out.b": self.out_b}
        for i, block in enumerate(self.blocks):
            out.update(block.params(f"{prefix}.block{i}"))
        return out

    def embed_words(self, ids) -> Tensor:
        """Raw embedding rows, ids.shape + (D,); no position information.  Ids outside
        [0, vocab) raise ``ContractError``, since indexing would wrap a negative id."""
        ids = np.asarray(ids, dtype=np.int64)
        vocab = self.embedding.shape[0]
        if ids.size and (ids.min() < 0 or ids.max() >= vocab):
            raise ContractError(f"row id out of range [0, {vocab}): {ids}")
        return getitem(self.embedding, ids)

    def __call__(self, prefix_ids, memory: Tensor) -> DecoderOutput:
        """Teacher-forced pass of (..., T) prefixes over (..., N, D) memory.

        Positions attend causally, so PAD after a shorter report's end
        changes none of its rows.
        """
        if memory.shape[-2] < 1:
            raise ShapeError("decoder memory is empty")
        t = np.shape(prefix_ids)[-1]
        x = self.embed_words(prefix_ids)
        if self.cfg.pos_enc:
            x = add(x, sinusoid_positions(t, self.cfg.dim))
        causal = np.tril(np.ones((t, t), dtype=bool))
        cross_scores = None
        for block in self.blocks:
            x, cross_scores = block(x, memory, causal)
        logits = linear(x, self.out_w, self.out_b)
        return DecoderOutput(log_probs=log_softmax(logits), cross_final=cross_scores)

    def step_fn(self, memory: np.ndarray):
        """``step(prefixes)`` -> (R, vocab) next-token log-probs over a fixed memory (N, D).

        Plain numpy on the parameters' values, in the memory's dtype: no graph.
        The memory's cross-attention keys/values are projected once; a step
        projects self-attention's q|k|v with one product.  Between calls the
        closure keeps only the last call's prefixes and, per block, their stacked
        self-attention keys (R,H,d,t) and values (R,H,t,d).  A call's prefixes
        share one length: one token starts over, and a longer prefix must be a
        row of the last call plus one token.  Row r equals
        ``self(prefixes[r], memory).log_probs[-1]`` up to rounding.
        """
        for name, p in self.params().items():
            if not _finite(p.data):
                raise ContractError(f"decoder parameter {name} holds non-finite values")
        if memory.shape[0] < 1:
            raise ShapeError("decoder memory is empty")
        vocab, dim = self.embedding.shape
        heads, cross, arrays = self.cfg.heads, [], []   # each block's arrays, bound once
        for b in self.blocks:
            sa, ca, f = b.self_attn, b.cross_attn, b.ffn
            cross.append((_split_heads(memory @ ca.wk.data + ca.bk.data, heads, True).copy(),
                          _split_heads(memory @ ca.wv.data + ca.bv.data, heads).copy()))
            arrays.append((np.hstack([sa.wq.data, sa.wk.data, sa.wv.data]),   # q|k|v: one (D, 3D)
                           np.hstack([sa.bq.data, sa.bk.data, sa.bv.data]),
                           (sa.scale, sa.wo.data, sa.bo.data), (ca.wq.data, ca.bq.data),
                           (ca.scale, ca.wo.data, ca.bo.data),
                           (f.w1.data, f.b1.data, f.w2.data, f.b2.data),
                           [(n.gain.data, n.bias.data) for n in (b.norm1, b.norm2, b.norm3)]))
        embedding, out_w, out_b = self.embedding.data, self.out_w.data, self.out_b.data
        empty = ({(): 0}, [(k[None, ..., :0], v[None, :, :0]) for k, v in cross])  # one-token parent
        last = empty                                   # previous call's ({prefix: row}, [(K, V)])

        def step(prefixes):
            nonlocal last
            keys = [tuple(int(i) for i in p) for p in prefixes]
            for prefix in keys:
                if not prefix or min(prefix) < 0 or max(prefix) >= vocab:
                    raise ContractError(f"prefix must be non-empty ids in [0, {vocab}): {prefix}")
            if not keys:
                return np.zeros((0, vocab), memory.dtype)
            t = len(keys[0])
            rows, kv = empty if t == 1 else last
            for prefix in keys:
                if prefix[:-1] not in rows:
                    raise ContractError(f"prefix {prefix} is not a row of the last call plus one token")
            parents = [rows[p[:-1]] for p in keys]
            if parents == list(range(len(rows))):   # the last call's rows in order: no gather
                parents = slice(None)
            x = embedding[[p[-1] for p in keys]]
            if self.cfg.pos_enc:
                x = x + sinusoid_positions(t, dim)[t - 1].astype(memory.dtype)
            grown = []
            for (pk, pv), (mem_k, mem_v), (wqkv, bqkv, so, cq, co, (w1, b1, w2, b2), (n1, n2, n3)) \
                    in zip(kv, cross, arrays):
                qkv = (x @ wqkv + bqkv).reshape(len(x), 3, heads, -1)   # (R, q|k|v, H, d)
                k = np.concatenate([pk[parents], qkv[:, 1, ..., None]], axis=3)
                v = np.concatenate([pv[parents], qkv[:, 2, :, None]], axis=2)
                grown.append((k, v))
                x = layer_norm_values(x + _attend(qkv[:, 0], k, v, *so), *n1)[0]
                cross_q = (x @ cq[0] + cq[1]).reshape(len(x), heads, -1)          # (R, H, d)
                x = layer_norm_values(x + _attend(cross_q, mem_k, mem_v, *co), *n2)[0]
                hidden = x @ w1 + b1
                hidden = np.where(hidden > 0.0, hidden, 0.0)
                x = layer_norm_values(x + (hidden @ w2 + b2), *n3)[0]
            logp = log_softmax_values(x @ out_w + out_b)
            bad = ~np.isfinite(logp).all(axis=1)
            if bad.any():
                raise ContractError(f"decoder step produced non-finite log-probs at {keys[bad.argmax()]}")
            last = ({p: r for r, p in enumerate(keys)}, grown)
            return logp

        return step
