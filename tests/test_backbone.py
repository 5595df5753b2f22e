import numpy as np
import pytest

from camalign.autodiff import (ContractError, ShapeError, Tensor, attention_probs, linear,
                               mix_heads, tsum)
from camalign.backbone import (Decoder, Encoder, MultiHeadAttention,
                               PatchExtractor, sinusoid_positions, xavier)
from camalign.config import ModelSection
from conftest import check_grads

VOCAB = 12


def micro_cfg(**kw):
    base = dict(layers=1, heads=2, dim=8, feat_dim=6, patch=4, classes=3,
                max_len=10, pos_enc=True)
    base.update(kw)
    return ModelSection(**base)


@pytest.fixture
def cfg():
    return micro_cfg()


# -- patch extractor ----------------------------------------------------------------


def test_extractor_produces_7x7_tokens_from_28_grid(rng):
    cfg = micro_cfg(patch=4, feat_dim=6)
    extractor = PatchExtractor(cfg, rng)
    assert extractor([rng.random((28, 28))]).shape == (49, 6)


def test_extractor_zero_image_zero_bias_gives_zero_tokens(rng):
    cfg = micro_cfg()
    extractor = PatchExtractor(cfg, rng)
    extractor.b1.data[:] = 0.0
    extractor.b2.data[:] = 0.0
    tokens = extractor([np.zeros((8, 8))])
    assert np.array_equal(tokens.data, np.zeros((4, 6)))


def test_extractor_two_views_concatenate(rng):
    cfg = micro_cfg()
    extractor = PatchExtractor(cfg, rng)
    assert extractor([rng.random((28, 28)), rng.random((28, 28))]).shape == (98, 6)


def test_extractor_rejects_indivisible_grid(rng):
    extractor = PatchExtractor(micro_cfg(patch=4), rng)
    with pytest.raises(ShapeError, match="not divisible"):
        extractor([np.zeros((30, 30))])


def test_extractor_deterministic_given_parameters(rng):
    extractor = PatchExtractor(micro_cfg(), rng)
    image = rng.random((8, 8))
    a = extractor([image]).data
    b = extractor([image]).data
    assert np.array_equal(a, b)


def test_extractor_odd_patch_supported(rng):
    extractor = PatchExtractor(micro_cfg(patch=3), rng)
    assert extractor([rng.random((9, 9))]).shape == (9, 6)


# -- attention ---------------------------------------------------------------------


def test_attention_rejects_dim_not_divisible_by_heads(rng):
    with pytest.raises(ShapeError, match="not divisible"):
        MultiHeadAttention(dim=6, heads=4, rng=rng)


def test_single_key_attention_row_is_one(rng):
    attn = MultiHeadAttention(8, 2, rng)
    q = Tensor(rng.normal(size=(3, 8)))
    kv = Tensor(rng.normal(size=(1, 8)))
    _, scores = attn(q, kv)
    assert scores.shape == (2, 3, 1)
    assert np.allclose(scores.data, 1.0, atol=1e-15)


def test_identical_keys_give_uniform_rows(rng):
    attn = MultiHeadAttention(8, 2, rng)
    q = Tensor(rng.normal(size=(2, 8)))
    row = rng.normal(size=8)
    kv = Tensor(np.tile(row, (5, 1)))
    _, scores = attn(q, kv)
    assert scores.shape == (2, 2, 5)
    assert np.allclose(scores.data, 0.2, atol=1e-12)


def test_attention_rows_are_probability_vectors(rng):
    attn = MultiHeadAttention(8, 4, rng)
    q = Tensor(rng.normal(size=(5, 8)))
    kv = Tensor(rng.normal(size=(7, 8)))
    _, scores = attn(q, kv)
    assert scores.shape == (4, 5, 7)
    assert np.abs(scores.data.sum(axis=-1) - 1.0).max() < 1e-9
    assert (scores.data >= 0).all() and (scores.data <= 1).all()


def _per_head_reference(attn, query, keys, mask=None):
    """Textbook multi-head attention, one head at a time, in plain numpy."""
    q = query @ attn.wq.data + attn.bq.data
    k = keys @ attn.wk.data + attn.bk.data
    v = keys @ attn.wv.data + attn.bv.data
    heads, scores = [], []
    for h in range(attn.heads):
        cols = slice(h * attn.head_dim, (h + 1) * attn.head_dim)
        logits = q[:, cols] @ k[:, cols].T / np.sqrt(attn.head_dim)
        if mask is not None:
            logits = np.where(mask, logits, -np.inf)
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        scores.append(e / e.sum(axis=1, keepdims=True))
        heads.append(scores[-1] @ v[:, cols])
    return np.concatenate(heads, axis=1) @ attn.wo.data + attn.bo.data, np.stack(scores)


@pytest.mark.parametrize("kind", ["cross", "causal_self"])
def test_attention_matches_per_head_reference(rng, kind):
    attn = MultiHeadAttention(12, 3, rng)
    query = rng.normal(size=(5, 12))
    keys = rng.normal(size=(7, 12)) if kind == "cross" else query
    mask = np.tril(np.ones((5, 5), dtype=bool)) if kind == "causal_self" else None
    want_out, want_scores = _per_head_reference(attn, query, keys, mask)
    if kind == "cross":
        out, scores = attn(Tensor(query), Tensor(keys))
        assert scores.shape == want_scores.shape == (3, 5, 7)
        assert np.abs(scores.data - want_scores).max() <= 1e-12
    else:                                   # self-attention keeps its probabilities inside
        out, scores = attn(Tensor(query), mask=mask)
        assert scores is None
    assert np.abs(out.data - want_out).max() <= 1e-12


@pytest.mark.parametrize("heads", [1, 2])
def test_attention_gradient(rng, heads):
    """Cross-attention, whose probabilities a loss may read; ``autodiff``'s
    ``test_self_attention_gradient`` checks the one-node self-attention."""
    attn = MultiHeadAttention(4, heads, rng)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    memory = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    w_out, w_scores = (Tensor(rng.normal(size=shape)) for shape in ((3, 4), (heads, 3, 5)))

    def build_loss():
        out, scores = attn(x, memory)
        return tsum(out * w_out) + tsum(scores * w_scores)

    check_grads(build_loss, [x, memory, attn.wq, attn.wk, attn.wv, attn.wo], h=1e-5, tol=1e-6)


def test_self_attention_is_one_node_that_returns_no_probabilities(rng):
    attn = MultiHeadAttention(4, 2, rng)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out, scores = attn(x)
    assert scores is None
    mixed = out._parents[0]
    assert mixed._backward.__qualname__.split(".")[0] == "self_attention"
    q, k, v = (linear(x, w, b) for w, b in ((attn.wq, attn.bq), (attn.wk, attn.bk),
                                            (attn.wv, attn.bv)))
    pair = mix_heads(attention_probs(q, k, attn.heads, attn.scale), v)
    assert np.array_equal(out.data, linear(pair, attn.wo, attn.bo).data)


def test_a_memory_equal_to_the_query_is_still_cross_attention(rng):
    """The call's arguments choose the path: an equal-valued copy of ``x`` as the
    memory gives the two-node cross-attention and its probabilities."""
    attn = MultiHeadAttention(4, 2, rng)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out, scores = attn(x, Tensor(x.data))
    assert scores is not None and scores.shape == (2, 3, 3)
    assert out._parents[0]._backward.__qualname__.split(".")[0] == "mix_heads"
    assert np.array_equal(out.data, attn(x)[0].data)


def test_softmax_logit_closed_form_on_scores():
    # one query, two keys with q.k logits [0, ln 3] -> [0.25, 0.75]
    from camalign.autodiff import softmax
    s = softmax(Tensor([[0.0, np.log(3.0)]]))
    assert np.allclose(s.data, [[0.25, 0.75]], atol=1e-12)


# -- encoder -----------------------------------------------------------------------


def test_encoder_preserves_length(cfg, rng):
    enc = Encoder(cfg, rng)
    for n in (4, 5):
        out = enc(Tensor(rng.normal(size=(n, cfg.feat_dim))), leading_tokens=n - 4)
        assert out.shape == (n, cfg.dim)


def test_encoder_zero_layers_is_projection(rng):
    cfg = micro_cfg(layers=0, pos_enc=False)
    enc = Encoder(cfg, rng)
    x = Tensor(rng.normal(size=(4, cfg.feat_dim)))
    out = enc(x)
    expected = x.data @ enc.proj_w.data + enc.proj_b.data
    assert np.allclose(out.data, expected, atol=1e-14)


def test_encoder_permutation_equivariance_without_positions(rng):
    cfg = micro_cfg(pos_enc=False)
    enc = Encoder(cfg, rng)
    x = rng.normal(size=(5, cfg.feat_dim))
    out = enc(Tensor(x)).data
    perm = [1, 0, 2, 3, 4]
    out_perm = enc(Tensor(x[perm])).data
    assert np.allclose(out_perm, out[perm], atol=1e-12)


def test_encoder_rejects_empty_sequence(cfg, rng):
    with pytest.raises(ShapeError):
        Encoder(cfg, rng)(Tensor(np.zeros((0, cfg.feat_dim))))


def test_position_table_restarts_per_view(cfg, rng):
    enc = Encoder(cfg, rng)
    table = enc.position_table(7, views=2, leading_tokens=1)
    assert table.shape == (7, cfg.dim)
    assert np.array_equal(table[0], np.zeros(cfg.dim))      # injected token: no position
    assert np.array_equal(table[1:4], sinusoid_positions(3, cfg.dim))
    assert np.array_equal(table[1:4], table[4:7])            # per-view restart


def test_sinusoid_positions_shape_and_range():
    table = sinusoid_positions(10, 8)
    assert table.shape == (10, 8)
    assert (np.abs(table) <= 1.0).all()


def test_sinusoid_positions_are_one_shared_read_only_table_per_shape():
    table = sinusoid_positions(9, 8)
    assert sinusoid_positions(9, 8) is table
    assert sinusoid_positions(9, 4) is not table and sinusoid_positions(8, 8) is not table
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 2.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [1, 3])
def test_one_qkv_product_equals_the_three_products_bit_for_bit(rng, rows, dtype):
    """The decoder step projects q, k and v with one (D, 3D) weight; its output
    bytes rest on each column block equalling its own product, at the step's shapes."""
    dim = 64
    x = rng.normal(size=(rows, dim)).astype(dtype)
    weights = [xavier(rng, dim, dim).data.astype(dtype) for _ in range(3)]
    biases = [rng.normal(0.0, 0.02, dim).astype(dtype) for _ in range(3)]
    fused = x @ np.concatenate(weights, axis=1) + np.concatenate(biases)
    for i, (w, b) in enumerate(zip(weights, biases)):
        assert np.array_equal(fused[:, i * dim:(i + 1) * dim], x @ w + b), i


# -- decoder -----------------------------------------------------------------------


def test_decoder_distributions_and_cross_rows_sum_to_one(cfg, rng):
    dec = Decoder(cfg, VOCAB, rng)
    memory = Tensor(rng.normal(size=(4, cfg.dim)))
    out = dec([1, 5, 6], memory)
    assert out.log_probs.shape == (3, VOCAB)
    assert np.abs(np.exp(out.log_probs.data).sum(axis=1) - 1.0).max() < 1e-9
    assert out.cross_final.shape == (cfg.heads, 3, 4)
    assert np.abs(out.cross_final.data.sum(axis=-1) - 1.0).max() < 1e-9
    avg = out.cross_final_avg
    assert avg.shape == (3, 4)
    assert np.abs(avg.data.sum(axis=1) - 1.0).max() < 1e-9
    assert np.array_equal(avg.data, out.cross_final.data.sum(axis=0) * (1.0 / cfg.heads))


def test_decoder_causality_by_perturbation(cfg, rng):
    dec = Decoder(cfg, VOCAB, rng)
    memory = Tensor(rng.normal(size=(4, cfg.dim)))
    base = dec([1, 5, 6, 7], memory).log_probs.data
    changed = dec([1, 5, 9, 7], memory).log_probs.data    # edit position 2
    assert np.array_equal(base[:2], changed[:2])      # positions before stay bit-identical
    assert not np.allclose(base[2:], changed[2:])


def test_decoder_memory_width_matches_attention_width(cfg, rng):
    dec = Decoder(cfg, VOCAB, rng)
    for n in (3, 6):
        out = dec([1, 5], Tensor(rng.normal(size=(n, cfg.dim))))
        assert out.cross_final_avg.shape == (2, n)


def test_decoder_rejects_empty_memory(cfg, rng):
    dec = Decoder(cfg, VOCAB, rng)
    with pytest.raises(ShapeError):
        dec([1, 2], Tensor(np.zeros((0, cfg.dim))))


def test_embed_words_lookup_semantics(cfg, rng):
    dec = Decoder(cfg, VOCAB, rng)
    rows = dec.embed_words([4, 4, 7])
    assert np.array_equal(rows.data[0], rows.data[1])
    assert rows.shape == (3, cfg.dim)
    assert dec.embed_words([]).shape == (0, cfg.dim)
    for ids in ([VOCAB], [-1]):
        with pytest.raises(ContractError, match="row id out of range"):
            dec.embed_words(ids)


def test_decode_deterministic(cfg, rng):
    dec = Decoder(cfg, VOCAB, rng)
    memory = Tensor(rng.normal(size=(4, cfg.dim)))
    a = dec([1, 5, 6], memory).log_probs.data
    b = dec([1, 5, 6], memory).log_probs.data
    assert np.array_equal(a, b)


# -- whole-backbone gradient check on the micro config --------------------------------


def test_backbone_gradient_check_micro(rng):
    cfg = micro_cfg()
    extractor = PatchExtractor(cfg, rng)
    enc = Encoder(cfg, rng)
    dec = Decoder(cfg, VOCAB, rng)
    image = rng.random((8, 8))
    weight = Tensor(rng.normal(size=(3, VOCAB)))

    def build_loss():
        memory = enc(extractor([image]))
        out = dec([1, 5, 6], memory)
        return tsum(out.log_probs * weight)

    params = {**extractor.params(), **enc.params(), **dec.params()}
    sampled = [params[name] for name in
               ("extractor.w1", "extractor.b2", "encoder.proj.w",
                "encoder.block0.attn.wq", "encoder.block0.norm1.gain",
                "decoder.embedding", "decoder.block0.cross.wk",
                "decoder.block0.ffn.w1", "decoder.out.b")]
    check_grads(build_loss, sampled, h=1e-5, tol=1e-4)
