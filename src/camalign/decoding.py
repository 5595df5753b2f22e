"""Greedy and beam-search sequence decoding.

Both work against a step function mapping a prefix (list of token ids,
starting with BOS) to a log-probability vector over the vocabulary, so toy
language models and the real decoder share the same code path.  A step
function may keep state between calls (the model's caches every prefix it
has seen), so make one per sample.
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


def greedy_decode(step_fn, max_len: int, bos: int = BOS, eos: int = EOS) -> list:
    if max_len <= 0:
        raise ValueError(f"max_len must be positive, got {max_len}")
    prefix = [bos]
    out = []
    for _ in range(max_len):
        nxt = int(np.argmax(step_fn(prefix)))     # argmax ties -> lowest id
        out.append(nxt)
        if nxt == eos:
            break
        prefix.append(nxt)
    return out


def beam_search(step_fn, width: int, max_len: int, bos: int = BOS, eos: int = EOS) -> list:
    """Breadth-limited search ranked by length-normalised log-probability.

    EOS finishes a beam, which then competes unchanged.  Ties break on the
    token-id sequence, so the result is deterministic.
    """
    if max_len <= 0:
        raise ValueError(f"max_len must be positive, got {max_len}")
    if width < 1:
        raise ValueError(f"beam width must be at least 1, got {width}")
    beams = [Beam(ids=())]
    for _ in range(max_len):
        candidates = []
        for beam in beams:
            if beam.finished:
                candidates.append(beam)
                continue
            logp = step_fn([bos, *beam.ids])
            # Beam.score of every extension; past this beam's own best ``width``
            # an extension cannot reach the top ``width`` overall
            scores = (beam.log_prob + logp) / (len(beam.ids) + 1)
            for token in np.argsort(-scores, kind="stable")[:width].tolist():
                candidates.append(Beam(
                    ids=beam.ids + (token,),
                    log_prob=beam.log_prob + float(logp[token]),
                    finished=token == eos))
        candidates.sort(key=lambda b: (-b.score, b.ids))
        beams = candidates[:width]
        if all(b.finished for b in beams):
            break
    return list(min(beams, key=lambda b: (-b.score, b.ids)).ids)
