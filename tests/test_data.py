import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camalign.data import (BOS, EOS, GLYPH_NAMES, PAD, UNK, DataError,
                           SyntheticSpec, build_vocab, detokenize,
                           generate_synthetic, load_alignment, load_dataset,
                           normalize, render_glyph, save_alignment,
                           save_dataset, split_dataset, tokenize)


# -- vocabulary ---------------------------------------------------------------


def test_build_vocab_frequency_threshold():
    vocab = build_vocab(["a a b"], min_freq=2)
    assert "a" in vocab.token_to_id
    assert vocab.id_of("b") == UNK


def test_build_vocab_min_freq_one_keeps_everything():
    vocab = build_vocab(["x y z z"], min_freq=1)
    assert all(vocab.id_of(t) != UNK for t in ("x", "y", "z"))


def test_build_vocab_deterministic():
    corpus = ["the dot is near the cross", "a cross sits alone"]
    v1, v2 = build_vocab(corpus), build_vocab(corpus)
    assert v1.id_to_token == v2.id_to_token


def test_build_vocab_reserved_ids_fixed():
    vocab = build_vocab(["word"])
    assert [vocab.id_to_token[i] for i in (PAD, BOS, EOS, UNK)] == \
        ["<pad>", "<bos>", "<eos>", "<unk>"]


def test_build_vocab_literal_reserved_tokens_keep_their_ids():
    vocab = build_vocab(["<unk> word <pad> <unk>"])
    assert vocab.id_to_token == ["<pad>", "<bos>", "<eos>", "<unk>", "word"]
    assert tokenize("<unk> word", vocab) == [BOS, UNK, 4, EOS]


def test_literal_control_tokens_tokenize_to_unk():
    vocab = build_vocab(["a b <eos> c"])
    assert tokenize("a <eos> c", vocab) == [BOS, vocab.id_of("a"), UNK, vocab.id_of("c"), EOS]
    assert tokenize("<pad> <BOS> <eos>", vocab) == [BOS, UNK, UNK, UNK, EOS]


def test_build_vocab_rejects_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([""])


def test_tokenize_frames_with_bos_eos():
    vocab = build_vocab(["there is a square ."])
    ids = tokenize("there is a square .", vocab)
    assert ids[0] == BOS and ids[-1] == EOS
    assert len(ids) == 7


def test_tokenize_roundtrip_on_in_vocab_text():
    text = "there is a cross in r2c3 ."
    vocab = build_vocab([text])
    assert detokenize(tokenize(text, vocab), vocab) == text


def test_unknown_word_becomes_unk_literal():
    vocab = build_vocab(["known words only"])
    ids = tokenize("known mystery", vocab)
    assert ids[2] == UNK
    assert detokenize(ids, vocab) == "known <unk>"


def test_tokenize_empty_report_is_framing_only():
    vocab = build_vocab(["hello"])
    assert tokenize("", vocab) == [BOS, EOS]


@given(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_roundtrip_property(words):
    text = " ".join(words)
    vocab = build_vocab([text])
    assert detokenize(tokenize(text, vocab), vocab) == " ".join(normalize(text))


# -- glyph rendering ---------------------------------------------------------------


def test_all_glyphs_render_distinctly():
    cells = [render_glyph(name, 4) for name in GLYPH_NAMES]
    flat = {tuple(c.reshape(-1)) for c in cells}
    assert len(flat) == len(GLYPH_NAMES)
    for c in cells:
        assert c.min() >= 0.0 and c.max() == 1.0


# -- synthetic generation -------------------------------------------------------------


def small_spec(**kw):
    base = dict(grid=28, patches=7, classes=GLYPH_NAMES[:4],
                glyph_min=1, glyph_max=2, samples=40, seed=3)
    base.update(kw)
    return SyntheticSpec(**base)


def test_generation_deterministic():
    a, align_a = generate_synthetic(small_spec())
    b, align_b = generate_synthetic(small_spec())
    assert align_a == align_b
    for sa, sb in zip(a, b):
        assert sa.report == sb.report
        assert np.array_equal(sa.labels, sb.labels)
        assert all(np.array_equal(x, y) for x, y in zip(sa.images, sb.images))


def test_every_sample_has_a_positive_label():
    samples, _ = generate_synthetic(small_spec())
    assert all(s.labels.sum() >= 1 for s in samples)


def test_report_names_exactly_the_positive_classes():
    spec = small_spec()
    samples, _ = generate_synthetic(spec)
    for s in samples:
        mentioned = {w for w in normalize(s.report) if w in spec.classes}
        # the negative sentence names one absent glyph
        positives = {spec.classes[i] for i in np.flatnonzero(s.labels)}
        negatives = mentioned - positives
        assert positives <= mentioned
        assert len(negatives) == 1
        assert not (negatives & positives)


def test_alignment_sidecar_points_at_glyph_cells():
    spec = small_spec()
    samples, alignment = generate_synthetic(spec)
    p = spec.grid // spec.patches
    for s in samples:
        for name, cell in alignment[s.id].items():
            row, col = divmod(cell, spec.patches)
            block = s.images[0][row * p:(row + 1) * p, col * p:(col + 1) * p]
            assert np.array_equal(block, render_glyph(name, p))


def test_label_marginals_reasonable_from_seeded_generator():
    samples, _ = generate_synthetic(SyntheticSpec(
        grid=28, patches=7, classes=GLYPH_NAMES[:4],
        glyph_min=1, glyph_max=3, samples=200, seed=0))
    marginals = np.mean([s.labels for s in samples], axis=0)
    assert (marginals >= 0.1).all() and (marginals <= 0.9).all()


def test_two_view_samples_concatenate_cell_indices():
    spec = small_spec(views=2, samples=30, glyph_max=2)
    samples, alignment = generate_synthetic(spec)
    assert all(len(s.images) == 2 for s in samples)
    cells = [c for m in alignment.values() for c in m.values()]
    assert max(cells) >= spec.patches ** 2          # some glyph landed in view 1


def test_spec_rejects_bad_ranges():
    with pytest.raises(DataError):
        small_spec(glyph_min=0)
    with pytest.raises(DataError):
        small_spec(grid=30, patches=7)
    with pytest.raises(DataError):
        SyntheticSpec(grid=4, patches=2, classes=GLYPH_NAMES[:8],
                      glyph_min=1, glyph_max=8, samples=1)


# -- dataset files -------------------------------------------------------------------


def test_dataset_roundtrip(tmp_path):
    samples, _ = generate_synthetic(small_spec(samples=8))
    path = tmp_path / "data.jsonl"
    save_dataset(path, samples)
    loaded = load_dataset(path, expected_classes=4)
    assert len(loaded) == 8
    for a, b in zip(samples, loaded):
        assert a.id == b.id and a.report == b.report
        assert np.array_equal(a.labels, b.labels)
        assert all(np.array_equal(x, y) for x, y in zip(a.images, b.images))


def test_two_view_dataset_roundtrip(tmp_path):
    samples, _ = generate_synthetic(small_spec(samples=4, views=2))
    path = tmp_path / "two.jsonl"
    save_dataset(path, samples)
    loaded = load_dataset(path)
    assert all(len(s.images) == 2 for s in loaded)
    assert all(np.array_equal(a, b)
               for s1, s2 in zip(samples, loaded)
               for a, b in zip(s1.images, s2.images))


def test_missing_field_names_the_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "images": [[0.0]], "report": "hi"}\n')
    with pytest.raises(DataError, match="labels"):
        load_dataset(path)


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "images": [[0.0]], "report": "x", "labels": [1]}\nnot json\n')
    with pytest.raises(DataError, match=":2"):
        load_dataset(path)


def test_label_length_mismatch_is_schema_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "images": [[0.0]], "report": "x", "labels": [1, 0]}\n')
    with pytest.raises(DataError, match="labels length"):
        load_dataset(path, expected_classes=3)


@pytest.mark.parametrize("labels", ["[2, 0.7, -1]", "[1, 0.5]", '[1, "0"]', '"10"'])
def test_labels_other_than_zero_or_one_name_path_and_line(tmp_path, labels):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "images": [[0.0]], "report": "x", "labels": [1, 0]}'
    path.write_text(f'{good}\n{{"id": "b", "images": [[0.0]], "report": "x", "labels": {labels}}}\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:2: labels must be")):
        load_dataset(path)


@pytest.mark.parametrize("images", [
    "[]", "5", '"grid"', "[[0.0], [1.0], [0.5]]",      # not one or two grids
    "[[]]", "[7]", '[[0.0, "x", 1.0, 0.5]]', "[[true]]",   # a grid that is not numbers
    "[[0.0, 1.0]]",                                      # not square
    "[[0.0], [0.0, 1.0, 0.5, 0.2]]",                     # views of different sides
    "[[0.0, NaN, 0.5, 1.0]]", "[[Infinity]]", "[[0.0], [-Infinity]]",  # non-finite pixels
])
def test_images_other_than_one_or_two_square_grids_name_path_and_line(tmp_path, images):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "images": [[0.0]], "report": "x", "labels": [1, 0]}'
    path.write_text(f'{good}\n{{"id": "b", "images": {images}, "report": "x", "labels": [1, 0]}}\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:2: image")):
        load_dataset(path)


@pytest.mark.parametrize("report", ['["there is a dot"]', "5", "null", '{"text": "x"}'])
def test_report_other_than_a_string_names_path_and_line(tmp_path, report):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "images": [[0.0]], "report": "x", "labels": [1, 0]}'
    path.write_text(f'{good}\n{{"id": "b", "images": [[0.0]], "report": {report}, "labels": [1, 0]}}\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:2: field 'report' must be a string")):
        load_dataset(path)



@pytest.mark.parametrize("sample_id", ["7", "null", "[1]"])
def test_dataset_id_other_than_a_string_names_path_and_line(tmp_path, sample_id):
    path = tmp_path / "bad.jsonl"
    good = '{"id": "a", "images": [[0.0]], "report": "x", "labels": [1, 0]}'
    path.write_text(f'{good}\n{{"id": {sample_id}, "images": [[0.0]], "report": "x", "labels": [1, 0]}}\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:2: field 'id' must be a string")):
        load_dataset(path)

def test_repeated_sample_id_names_path_and_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    record = '{{"id": "{}", "images": [[0.0]], "report": "x", "labels": [1, 0]}}\n'
    path.write_text(record.format("a") + record.format("b") + record.format("a"))
    with pytest.raises(DataError, match=re.escape(f"{path}:3: duplicate id 'a'")):
        load_dataset(path)


def test_alignment_roundtrip(tmp_path):
    alignment = {"s1": {"cross": 3}, "s2": {"dot": 11, "solid": 40}}
    path = tmp_path / "cells.jsonl"
    save_alignment(path, alignment)
    assert load_alignment(path) == alignment


@pytest.mark.parametrize("second, message", [
    ('{"id": "s2"}', "missing field 'glyphs'"),
    ('{"glyphs": {"dot": 11}}', "missing field 'id'"),
    ('{"id": "s2", "glyphs": [11]}', "field 'glyphs' must map glyph names to cell indices"),
    ('{"id": "s2", "glyphs": {"dot": "11"}}', "field 'glyphs' must map glyph names"),
    ('{"id": 2, "glyphs": {"dot": 11}}', "field 'id' must be a string, got 2"),
    ('{not json', "malformed JSON"),
    ('["s2", {"dot": 11}]', "expected a JSON object"),
])
def test_bad_alignment_record_names_path_and_line(tmp_path, second, message):
    path = tmp_path / "cells.jsonl"
    path.write_text(f'{{"id": "s1", "glyphs": {{"cross": 3}}}}\n\n{second}\n')
    with pytest.raises(DataError, match=re.escape(f"{path}:3: {message}")):
        load_alignment(path)


def test_split_ratios_and_determinism():
    samples, _ = generate_synthetic(small_spec(samples=100))
    tr1, va1, te1 = split_dataset(samples, seed=5)
    tr2, va2, te2 = split_dataset(samples, seed=5)
    assert (len(tr1), len(va1), len(te1)) == (70, 10, 20)
    assert [s.id for s in tr1] == [s.id for s in tr2]
    ids = {s.id for s in tr1} | {s.id for s in va1} | {s.id for s in te1}
    assert len(ids) == 100
