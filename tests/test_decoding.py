import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camalign.data import BOS, EOS
from camalign.decoding import Beam, beam_search, greedy_decode


def rows(one):
    """Step function over a list of prefixes, one ``one(prefix)`` row each."""
    return lambda prefixes: np.array([one(p) for p in prefixes])


def toy_lm(seed, vocab=5):
    """Deterministic toy LM: the distribution depends on the whole prefix."""
    @rows
    def step(prefix):
        h = np.random.default_rng([seed, len(prefix), *prefix]).normal(size=vocab)
        e = np.exp(h - h.max())
        return np.log(e / e.sum())
    return step


def enumerate_best(step_fn, vocab, max_len):
    """Exhaustive oracle: best length-normalised sequence, beam's tie-break."""
    best = None

    def walk(ids, logp):
        nonlocal best
        finished = ids and ids[-1] == EOS
        if finished or len(ids) == max_len:
            score = logp / max(1, len(ids))
            key = (-score, tuple(ids))
            if best is None or key < best[0]:
                best = (key, list(ids))
            return
        logprobs = step_fn([[BOS, *ids]])[0]
        for token in range(vocab):
            walk(ids + [token], logp + float(logprobs[token]))

    walk([], 0.0)
    return best[1]


def test_width_one_equals_greedy_exactly():
    for seed in range(5):
        step = toy_lm(seed)
        assert beam_search(step, 1, 8) == greedy_decode(step, 8)


def test_width_one_equals_greedy_on_float32_rows_that_tie_after_a_float32_add():
    near = np.nextafter(np.float32(-1.0), np.float32(-2.0))   # just below -1, at a lower id

    @rows
    def step(prefix):
        logp = np.full(6, -1e4, dtype=np.float32)
        logp[{1: 4, 2: 5, 3: EOS}[len(prefix)]] = {1: -1000.0, 2: -1.0, 3: 0.0}[len(prefix)]
        if len(prefix) == 2:
            logp[3] = near
        return logp

    running, row = np.float32(-1000.0), step([[BOS, 4]])[0]
    assert row[5] > row[3] and running + row[5] == running + row[3]
    assert greedy_decode(step, 5) == [4, 5, EOS]
    assert beam_search(step, 1, 5) == [4, 5, EOS]


def test_beam_three_matches_exhaustive_enumeration():
    # seeds verified to place the global optimum within a width-3 search
    for seed in (0, 1, 3, 4, 5):
        step = toy_lm(seed)
        assert beam_search(step, 3, 4) == enumerate_best(step, 5, 4)


def test_wide_beam_is_exhaustive():
    # width >= candidate count => identical to enumeration, any seed
    for seed in (11, 23):
        step = toy_lm(seed)
        assert beam_search(step, 125, 3) == enumerate_best(step, 5, 3)


def test_eos_terminates_beam():
    @rows
    def step(prefix):
        logp = np.full(4, -10.0)
        logp[EOS] = -0.01
        return logp
    assert beam_search(step, 3, 10) == [EOS]
    assert greedy_decode(step, 10) == [EOS]


def test_deterministic_tie_break_prefers_low_token_id():
    @rows
    def step(prefix):
        return np.log(np.full(4, 0.25))
    out = beam_search(step, 2, 1)
    assert out == [0]


def test_max_len_caps_generation():
    @rows
    def step(prefix):
        logp = np.full(4, -10.0)
        logp[3] = -0.01
        return logp
    assert len(beam_search(step, 3, 6)) == 6
    assert len(greedy_decode(step, 6)) == 6


def test_invalid_arguments_rejected():
    step = toy_lm(0)
    with pytest.raises(ValueError):
        beam_search(step, 0, 5)
    with pytest.raises(ValueError):
        beam_search(step, 3, 0)
    with pytest.raises(ValueError):
        greedy_decode(step, 0)


def test_beam_score_is_length_normalized():
    beam = Beam(ids=(3, 4, EOS), log_prob=-1.5)
    assert beam.score == pytest.approx(-0.5)


def beam_search_whole_vocabulary(step_fn, width, max_len, bos=BOS, eos=EOS):
    """Reference: every beam, one one-row step call each, expands over the whole vocabulary."""
    beams = [Beam(ids=())]
    for _ in range(max_len):
        candidates = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            logp = step_fn([[bos, *beam.ids]])[0]
            for token in range(len(logp)):
                candidates.append(Beam(ids=beam.ids + (token,),
                                       log_prob=beam.log_prob + float(logp[token]),
                                       finished=token == eos))
        candidates.sort(key=lambda b: (-b.score, b.ids))
        beams = candidates[:width]
        if all(b.finished for b in beams):
            break
    return list(min(beams, key=lambda b: (-b.score, b.ids)).ids)


def tied_lm(seed, vocab, levels):
    """Toy LM whose log-probs take few distinct values, so scores tie often."""
    @rows
    def step(prefix):
        rng = np.random.default_rng([seed, len(prefix), *prefix])
        return -0.5 * rng.integers(0, levels, size=vocab)
    return step


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10_000), vocab=st.integers(2, 7), levels=st.integers(1, 4),
       width=st.integers(1, 6), max_len=st.integers(1, 6))
def test_beam_search_equals_whole_vocabulary_expansion(seed, vocab, levels, width, max_len):
    for step in (tied_lm(seed, vocab, levels), toy_lm(seed, vocab)):
        assert (beam_search(step, width, max_len)
                == beam_search_whole_vocabulary(step, width, max_len))
