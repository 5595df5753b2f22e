"""Visual extractor and transformer encoder-decoder.

The decoder's attention over visual tokens (textual queries, visual
keys/values) is returned as a first-class output so downstream modules can
supervise it.  Vanilla post-norm blocks, sinusoidal position encodings.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ContractError, ShapeError, Tensor, add, concat, gather_rows,
                       layer_norm, matmul, mean, relu, reshape, softmax, transpose)
from .config import ModelSection


def xavier(rng, fan_in: int, fan_out: int, shape=None) -> Tensor:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-limit, limit, shape or (fan_in, fan_out)), requires_grad=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def ones_param(shape) -> Tensor:
    return Tensor(np.ones(shape), requires_grad=True)


def sinusoid_positions(n: int, dim: int) -> np.ndarray:
    """Standard sin/cos interleaved position table, shape (n, dim)."""
    if n == 0:
        return np.zeros((0, dim))
    pos = np.arange(n)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


@dataclass
class PatchFeatures:
    """Visual token sequence with per-image segment lengths."""

    tokens: Tensor               # (sum of segments, C)
    segments: list               # token count per image


def _blockify(x: Tensor, side: int, block: int, channels: int) -> Tensor:
    """(side, side, channels) -> (cells, block*block*channels), row-major cells."""
    h = side // block
    x = reshape(x, (h, block, h, block, channels))
    x = transpose(x, (0, 2, 1, 3, 4))
    return reshape(x, (h * h, block * block * channels))


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
        self.mid = mid
        self.w1 = xavier(rng, self.p1 * self.p1, mid)
        # non-zero bias init: zero-background patches would otherwise sit
        # exactly on the ReLU kink, where subgradients are ill-defined
        self.b1 = Tensor(rng.normal(0.0, 0.02, mid), requires_grad=True)
        self.w2 = xavier(rng, self.p2 * self.p2 * mid, cfg.feat_dim)
        self.b2 = Tensor(rng.normal(0.0, 0.02, cfg.feat_dim), requires_grad=True)

    def params(self, prefix="extractor"):
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}

    def extract_one(self, image: np.ndarray) -> Tensor:
        side = image.shape[0]
        if image.ndim != 2 or image.shape[0] != image.shape[1]:
            raise ShapeError(f"expected a square single-channel grid, got {image.shape}")
        if side % self.patch != 0:
            raise ShapeError(f"grid side {side} not divisible by patch {self.patch}")
        x = Tensor(image[:, :, None])
        x = _blockify(x, side, self.p1, 1)
        x = relu(add(matmul(x, self.w1), self.b1))
        side1 = side // self.p1
        x = reshape(x, (side1, side1, self.mid))
        x = _blockify(x, side1, self.p2, self.mid)
        return add(matmul(x, self.w2), self.b2)

    def __call__(self, images) -> PatchFeatures:
        """Extract each view and concatenate the visual tokens."""
        parts = [self.extract_one(np.asarray(img, dtype=np.float64)) for img in images]
        tokens = parts[0] if len(parts) == 1 else concat(parts, axis=0)
        return PatchFeatures(tokens=tokens, segments=[p.shape[0] for p in parts])


class MultiHeadAttention:
    """Scaled dot-product attention, all heads in one batched product.

    Returns the output, (T, D), and the per-head scores as one (H, T, S) tensor.
    """

    def __init__(self, dim: int, heads: int, rng):
        if dim % heads != 0:
            raise ShapeError(f"dim {dim} not divisible by heads {heads}")
        self.dim, self.heads = dim, heads
        self.head_dim = dim // heads
        self.wq = xavier(rng, dim, dim)
        self.wk = xavier(rng, dim, dim)
        self.wv = xavier(rng, dim, dim)
        self.wo = xavier(rng, dim, dim)
        self.bq, self.bk, self.bv, self.bo = (zeros_param((dim,)) for _ in range(4))

    def params(self, prefix):
        names = ("wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo")
        return {f"{prefix}.{n}": getattr(self, n) for n in names}

    def __call__(self, query: Tensor, keys: Tensor, values: Tensor, mask=None):
        split = (-1, self.heads, self.head_dim)
        q = transpose(reshape(add(matmul(query, self.wq), self.bq), split), (1, 0, 2))  # (H,T,d)
        k = transpose(reshape(add(matmul(keys, self.wk), self.bk), split), (1, 2, 0))   # (H,d,S)
        v = transpose(reshape(add(matmul(values, self.wv), self.bv), split), (1, 0, 2))  # (H,S,d)
        # one softmax for every head; a (T, T) causal mask broadcasts over H
        scores = softmax(matmul(q, k) * (1.0 / np.sqrt(self.head_dim)), mask=mask)
        mixed = reshape(transpose(matmul(scores, v), (1, 0, 2)), (-1, self.dim))      # (T,D)
        return add(matmul(mixed, self.wo), self.bo), scores


class FeedForward:
    def __init__(self, dim: int, rng, hidden: int = None):
        hidden = hidden or 4 * dim
        self.w1 = xavier(rng, dim, hidden)
        self.b1 = zeros_param((hidden,))
        self.w2 = xavier(rng, hidden, dim)
        self.b2 = zeros_param((dim,))

    def params(self, prefix):
        return {f"{prefix}.w1": self.w1, f"{prefix}.b1": self.b1,
                f"{prefix}.w2": self.w2, f"{prefix}.b2": self.b2}

    def __call__(self, x: Tensor) -> Tensor:
        return add(matmul(relu(add(matmul(x, self.w1), self.b1)), self.w2), self.b2)


class _Norm:
    def __init__(self, dim: int):
        self.gain = ones_param((dim,))
        self.bias = zeros_param((dim,))

    def params(self, prefix):
        return {f"{prefix}.gain": self.gain, f"{prefix}.bias": self.bias}

    def __call__(self, x: Tensor) -> Tensor:
        return layer_norm(x, self.gain, self.bias)


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
        attended, _ = self.attn(x, x, x)
        x = self.norm1(add(x, attended))
        return self.norm2(add(x, self.ffn(x)))


class Encoder:
    """Input projection C -> D, position encodings, then self-attention blocks.

    Position indices restart per image segment; an injected leading token
    (a summary, not a spatial location) receives no position encoding.
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

    def position_table(self, segments, leading_tokens: int) -> np.ndarray:
        rows = [np.zeros((leading_tokens, self.cfg.dim))]
        rows += [sinusoid_positions(n, self.cfg.dim) for n in segments]
        return np.concatenate(rows, axis=0)

    def __call__(self, tokens: Tensor, segments=None, leading_tokens: int = 0) -> Tensor:
        if tokens.shape[0] < 1:
            raise ShapeError("encoder needs at least one token")
        segments = segments or [tokens.shape[0] - leading_tokens]
        x = add(matmul(tokens, self.proj_w), self.proj_b)
        if self.cfg.pos_enc:
            x = add(x, Tensor(self.position_table(segments, leading_tokens)))
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
        attended, _ = self.self_attn(x, x, x, mask=causal_mask)
        x = self.norm1(add(x, attended))
        crossed, cross_scores = self.cross_attn(x, memory, memory)
        x = self.norm2(add(x, crossed))
        return self.norm3(add(x, self.ffn(x))), cross_scores


@dataclass
class DecoderOutput:
    """Next-token distributions and the final layer's per-head cross-attention."""

    dists: Tensor                # (T, vocab) next-token distributions
    cross_final: Tensor          # (H, T, N) final-layer attention over visual tokens

    @property
    def cross_final_avg(self) -> Tensor:
        """Head-averaged final-layer attention over visual tokens, (T, N)."""
        return mean(self.cross_final, axis=0)


# -- numpy mirrors of the graph ops, in the same op order, for Decoder.step_fn --


def _heads(x: np.ndarray, attn: MultiHeadAttention, name: str, axes) -> np.ndarray:
    """Project rows with ``attn.w<name>`` and split them into heads, as ``__call__`` does."""
    y = x @ getattr(attn, "w" + name).data + getattr(attn, "b" + name).data
    return y.reshape(-1, attn.heads, attn.head_dim).transpose(axes).copy()


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _attend(attn: MultiHeadAttention, x, k, v) -> np.ndarray:
    """Rows x (T,D) attend over keys (H,d,S) and values (H,S,d); output (T,D)."""
    scores = _softmax((_heads(x, attn, "q", (1, 0, 2)) @ k) * (1.0 / np.sqrt(attn.head_dim)))
    mixed = (scores @ v).transpose(1, 0, 2).reshape(-1, attn.dim)
    return mixed @ attn.wo.data + attn.bo.data


def _norm(x: np.ndarray, norm: _Norm, eps: float = 1e-5) -> np.ndarray:
    n = x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    return centered / np.sqrt(var + eps) * norm.gain.data + norm.bias.data


class Decoder:
    """Embedding lookup, causal blocks over the prefix, vocabulary softmax."""

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
        """Raw embedding rows, (len(ids), D); no position information."""
        return gather_rows(self.embedding, np.asarray(ids, dtype=np.int64))

    def __call__(self, prefix_ids, memory: Tensor) -> DecoderOutput:
        if memory.shape[0] < 1:
            raise ShapeError("decoder memory is empty")
        t = len(prefix_ids)
        x = self.embed_words(prefix_ids)
        if self.cfg.pos_enc:
            x = add(x, Tensor(sinusoid_positions(t, self.cfg.dim)))
        causal = np.tril(np.ones((t, t), dtype=bool))
        cross_scores = None
        for block in self.blocks:
            x, cross_scores = block(x, memory, causal)
        logits = add(matmul(x, self.out_w), self.out_b)
        return DecoderOutput(dists=softmax(logits), cross_final=cross_scores)

    def step_fn(self, memory: np.ndarray):
        """``step(prefix_ids)`` -> next-token log-probs over a fixed memory (N, D).

        Plain numpy on the parameters' values: no graph.  The memory's
        cross-attention keys/values are projected once; every prefix seen keeps
        its log-probs and per-layer self-attention keys/values, so a call
        extends its longest cached ancestor one position at a time.  Equals
        ``log(clip(self(prefix, memory).dists[-1]))`` up to rounding.
        """
        for name, p in self.params().items():
            if not np.all(np.isfinite(p.data)):
                raise ContractError(f"decoder parameter {name} holds non-finite values")
        if memory.shape[0] < 1:
            raise ShapeError("decoder memory is empty")
        cross = [(_heads(memory, b.cross_attn, "k", (1, 2, 0)),
                  _heads(memory, b.cross_attn, "v", (1, 0, 2))) for b in self.blocks]
        # prefix -> (log-probs, per block (K (H,d,t), V (H,t,d)))
        cache = {(): (None, [(k[..., :0], v[:, :0]) for k, v in cross])}
        vocab = self.embedding.shape[0]

        def step(prefix_ids):
            prefix = tuple(int(i) for i in prefix_ids)
            if not prefix or min(prefix) < 0 or max(prefix) >= vocab:
                raise ContractError(f"prefix must be non-empty ids in [0, {vocab}): {prefix}")
            t = len(prefix)
            while prefix[:t] not in cache:
                t -= 1
            logp, kv = cache[prefix[:t]]
            while t < len(prefix):
                t += 1
                x = self.embedding.data[[prefix[t - 1]]]
                if self.cfg.pos_enc:
                    x = x + sinusoid_positions(t, self.cfg.dim)[t - 1:]
                grown = []
                for block, (k, v), (mem_k, mem_v) in zip(self.blocks, kv, cross):
                    k = np.concatenate([k, _heads(x, block.self_attn, "k", (1, 2, 0))], axis=2)
                    v = np.concatenate([v, _heads(x, block.self_attn, "v", (1, 0, 2))], axis=1)
                    grown.append((k, v))
                    x = _norm(x + _attend(block.self_attn, x, k, v), block.norm1)
                    x = _norm(x + _attend(block.cross_attn, x, mem_k, mem_v), block.norm2)
                    ffn = block.ffn
                    hidden = x @ ffn.w1.data + ffn.b1.data
                    hidden = np.where(hidden > 0.0, hidden, 0.0)
                    x = _norm(x + (hidden @ ffn.w2.data + ffn.b2.data), block.norm3)
                kv = grown
                dists = _softmax(x @ self.out_w.data + self.out_b.data)
                logp = np.log(np.clip(dists[-1], 1e-300, 1.0))
                if not np.all(np.isfinite(logp)):
                    raise ContractError(f"decoder step produced non-finite log-probs at {prefix[:t]}")
                logp.flags.writeable = False   # shared with the cache
                cache[prefix[:t]] = (logp, kv)
            return logp

        return step
