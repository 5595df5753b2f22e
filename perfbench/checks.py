"""Output checks.  Each returns a list of violations; empty means correct."""
from __future__ import annotations

import json
import math
import struct
from pathlib import Path

from camalign import checkpoint, decoding

LOSS_TERMS = ("ce", "bce", "mse", "total")


def loss_records(records) -> list:
    """Every logged train and validation loss term is finite."""
    bad = []
    for record in records:
        for term in LOSS_TERMS:
            value = record.get(term)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                bad.append(f"epoch {record.get('epoch')} {record.get('split')}: {term}={value!r}")
    return bad


def run_dir(path: Path, epochs: int) -> list:
    """``metrics.jsonl`` holds the expected records, both checkpoints load."""
    path = Path(path)
    bad = []
    try:
        records = [json.loads(line) for line in (path / "metrics.jsonl").read_text().splitlines()]
    except (OSError, json.JSONDecodeError) as err:
        return [f"metrics.jsonl unreadable: {err}"]
    expected = [(0, "val")] + [(e, s) for e in range(1, epochs + 1) for s in ("train", "val")]
    found = [(r.get("epoch"), r.get("split")) for r in records]
    if found != expected:
        bad.append(f"metrics.jsonl records {found} != expected {expected}")
    bad += loss_records(records)
    for name in ("checkpoint_best.bin", "checkpoint_last.bin"):
        try:
            if not checkpoint.load_params(path / name):
                bad.append(f"{name} holds no parameters")
        except (OSError, ValueError, struct.error) as err:
            bad.append(f"{name}: {err}")
    return bad


def candidate(ids, vocab_size: int, max_len: int) -> list:
    """A decoded candidate is within the cap and every id is in the vocabulary."""
    bad = []
    if not 1 <= len(ids) <= max_len:
        bad.append(f"candidate length {len(ids)} outside [1, {max_len}]")
    out_of_vocab = [i for i in ids if not 0 <= i < vocab_size]
    if out_of_vocab:
        bad.append(f"candidate ids outside the vocabulary: {out_of_vocab}")
    return bad


def greedy_matches_beam1(caption_model, sample, max_len: int) -> list:
    """Greedy decoding equals beam search of width 1."""
    greedy = decoding.greedy_decode(caption_model.step_fn(sample.images), max_len)
    beam = decoding.beam_search(caption_model.step_fn(sample.images), 1, max_len)
    return [] if greedy == beam else [f"{sample.id}: greedy {greedy} != beam-1 {beam}"]
