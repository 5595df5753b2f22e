"""Greedy and beam-search sequence decoding.

Both work against a step function mapping R prefixes (lists of token ids,
starting with BOS) to an (R, vocab) array of next-token log-probabilities, one
row per prefix, so toy language models and the real decoder share the same
code path.  Greedy makes one-row calls.  Every call's prefixes share one
length, and each is ``[BOS]`` or a prefix of the previous call plus one token:
the model's step keeps only its last call's rows and rejects anything else.
Its state is per sample, so make one step function per sample.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import BOS, EOS


@dataclass
class Beam:
    ids: tuple                       # generated tokens (no BOS)
    log_prob: float = 0.0
    finished: bool = False

    @property
    def score(self) -> float:
        """Length-normalised log-probability."""
        return self.log_prob / max(1, len(self.ids))


def greedy_decode(step_fn, max_len: int) -> list:
    if max_len <= 0:
        raise ValueError(f"max_len must be positive, got {max_len}")
    prefix = [BOS]
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(step_fn([prefix])[0]))     # argmax ties -> lowest id
        out.append(nxt)
        if nxt == EOS:
            break
        prefix.append(nxt)
    return out


def beam_search(step_fn, width: int, max_len: int) -> list:
    """Breadth-limited search ranked by length-normalised log-probability.

    One step call per position scores every live beam.  EOS finishes a beam,
    which then competes unchanged.  Ties break on the token-id sequence, so
    the result is deterministic.
    """
    if max_len <= 0:
        raise ValueError(f"max_len must be positive, got {max_len}")
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    beams = [Beam(ids=())]
    for _ in range(max_len):
        live = [b for b in beams if not b.finished]
        candidates = [b for b in beams if b.finished]
        for beam, logp in zip(live, step_fn([[BOS, *b.ids] for b in live])):
            # Beam.score of every extension, in float64 so that a float32 row's
            # distinct log-probs stay distinct after the add; past this beam's own
            # best ``width`` an extension cannot reach the top ``width`` overall
            scores = (beam.log_prob + np.asarray(logp, dtype=np.float64)) / (len(beam.ids) + 1)
            for token in np.argsort(-scores, kind="stable")[:width].tolist():
                candidates.append(Beam(
                    ids=beam.ids + (token,),
                    log_prob=beam.log_prob + float(logp[token]),
                    finished=token == EOS))
        candidates.sort(key=lambda b: (-b.score, b.ids))
        beams = candidates[:width]
        if all(b.finished for b in beams):
            break
    return list(beams[0].ids)
