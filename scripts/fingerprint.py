#!/usr/bin/env python3
"""Byte-identity check: train small seeded runs and print hashes of what
they write, so a refactor that claims unchanged behaviour can be compared
against its parent commit line by line.

    python3 scripts/fingerprint.py --out runs/fingerprint

Each variant trains on the criterion-8 profile (run seed 5, data seed 5,
140 train / 20 validation samples, 2 epochs, patience 2), then decodes 8
held-out samples with beam 3.  One line per variant gives the first 16 hex
digits of the sha256 of ``metrics.jsonl``, ``checkpoint_best.bin``,
``checkpoint_last.bin`` and the beam-3 candidates joined by newlines.
"""
import argparse
import hashlib
import sys
from pathlib import Path

from camalign.config import load_config
from camalign.data import GLYPH_NAMES, SyntheticSpec, generate_synthetic
from camalign.training import generate_report, train

PROFILE = {"model.layers": 2, "model.heads": 4, "model.dim": 64,
           "model.feat_dim": 32, "model.classes": 6, "model.max_len": 24,
           "decode.max_len": 24, "train.seed": 5, "train.batch": 8,
           "train.epochs": 2, "train.patience": 2, "train.delta": 0.5, "vtac.k": 0.3}
N_TRAIN, N_VAL, N_HELD = 140, 20, 8
# variant, views, most glyphs per image
RUNS = (("full", 1, 2), ("vdmae", 1, 2), ("base", 2, 3))


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="runs/fingerprint")
    args = parser.parse_args()

    for variant, views, glyph_max in RUNS:
        spec = SyntheticSpec(grid=28, patches=7, classes=GLYPH_NAMES[:6], glyph_min=1,
                             glyph_max=glyph_max, views=views,
                             samples=N_TRAIN + N_VAL + N_HELD, seed=5)
        samples, _ = generate_synthetic(spec)
        cfg = load_config(None, {**PROFILE, "train.variant": variant})
        run_dir = Path(args.out) / variant
        result = train(cfg, samples[:N_TRAIN], samples[N_TRAIN:N_TRAIN + N_VAL], run_dir)
        beams = [generate_report(result.model, s, result.vocab, 3, cfg.decode.max_len)
                 for s in samples[N_TRAIN + N_VAL:]]
        hashes = [digest((run_dir / name).read_bytes())
                  for name in ("metrics.jsonl", "checkpoint_best.bin", "checkpoint_last.bin")]
        print(variant, *hashes, digest("\n".join(beams).encode()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
