#!/usr/bin/env python3
"""Byte-identity check: train small seeded runs and print hashes of what
they write, so a refactor that claims unchanged behaviour can be compared
against its parent commit line by line.

    python3 scripts/fingerprint.py --out runs/fingerprint
    python3 scripts/fingerprint.py --out runs/new --against runs/old

Each variant trains through ``train()``, so in float32, on the
criterion-8 profile (run seed 5, data seed 5, 140 train / 20 validation
samples, 2 epochs, patience 2), then decodes 8 held-out samples with beam 3
and writes them to ``beam3.txt`` in its run dir.  One line per variant gives the first 16 hex digits of the sha256 of
``metrics.jsonl``, ``checkpoint_best.bin``, ``checkpoint_last.bin`` and the
beam-3 candidates joined by newlines; a second gives (and ``step_peak.txt``
keeps) the bytes one more ``train_step`` on the first 8 training samples allocates
at its peak under tracemalloc, after a warm-up step.  A last line counts the lines of
``src/camalign/*.py`` plus ``scripts/*.py``, the project's line budget.

``--against DIR`` names an earlier ``--out`` directory.  For each variant it
then also prints the largest absolute difference of any numeric
``metrics.jsonl`` field, whether the beam-3 candidates are identical,
whether each checkpoint's bytes equal the earlier run's (so a change that
only moves rounding shows how far it moved) and the step peak's ratio to
the earlier run's.  The exit code is then 1 when
any variant's beam-3 candidates differ or its metrics log differs in
records, fields or text (drift ``inf``); differing checkpoint bytes alone
do not fail it, since a rounding-only change moves them.

BLAS runs on one thread, set before numpy loads, so the hashes do not depend
on the host's core count.
"""
import argparse
import hashlib
import json
import math
import os
import sys
import tracemalloc
from pathlib import Path

# One BLAS thread, set before numpy loads: a GEMM's rounding depends on its thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from camalign.config import load_config
from camalign.data import GLYPH_NAMES, SyntheticSpec, generate_synthetic
from camalign.training import generate_report, run_optimizer, train, train_step

PROFILE = {"model.layers": 2, "model.heads": 4, "model.dim": 64,
           "model.feat_dim": 32, "model.classes": 6, "model.max_len": 24,
           "decode.max_len": 24, "train.seed": 5, "train.batch": 8,
           "train.epochs": 2, "train.patience": 2, "train.delta": 0.5, "vtac.k": 0.3}
N_TRAIN, N_VAL, N_HELD = 140, 20, 8
CHECKPOINTS = ("checkpoint_best.bin", "checkpoint_last.bin")
# variant, views, most glyphs per image
RUNS = (("full", 1, 2), ("vdmae", 1, 2), ("base", 2, 3))


def digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()[:16]


def metric_drift(new: Path, old: Path) -> float:
    """Largest |new - old| over the numeric fields of two metrics logs; inf
    when they differ in records, fields or any text field."""
    new_rows, old_rows = ([json.loads(line) for line in path.read_text().splitlines()]
                          for path in (new, old))
    if [row.keys() for row in new_rows] != [row.keys() for row in old_rows]:
        return math.inf
    return max((abs(v - b[k]) if isinstance(v, (int, float)) else 0.0 if v == b[k] else math.inf)
               for a, b in zip(new_rows, old_rows) for k, v in a.items())


def step_peak(result, cfg, batch) -> int:
    """Bytes one ``train_step`` of the trained model allocates at its peak, after a warm-up step."""
    model = result.model
    opt = run_optimizer(model, cfg)
    train_step(model, opt, batch, result.vocab, cfg)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        train_step(model, opt, batch, result.vocab, cfg)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="runs/fingerprint")
    parser.add_argument("--against", type=Path,
                        help="an earlier --out directory to measure drift against")
    args = parser.parse_args()

    status = 0
    for variant, views, glyph_max in RUNS:
        spec = SyntheticSpec(grid=28, patches=7, classes=GLYPH_NAMES[:6], glyph_min=1,
                             glyph_max=glyph_max, views=views,
                             samples=N_TRAIN + N_VAL + N_HELD, seed=5)
        samples, _ = generate_synthetic(spec)
        cfg = load_config(None, {**PROFILE, "train.variant": variant})
        run_dir = Path(args.out) / variant
        result = train(cfg, samples[:N_TRAIN], samples[N_TRAIN:N_TRAIN + N_VAL], run_dir)
        beams = "\n".join(generate_report(result.model, s, result.vocab, 3, cfg.decode.max_len)
                          for s in samples[N_TRAIN + N_VAL:])
        (run_dir / "beam3.txt").write_text(beams)
        hashes = [digest((run_dir / name).read_bytes()) for name in ("metrics.jsonl", *CHECKPOINTS)]
        peak = step_peak(result, cfg, samples[:cfg.train.batch])
        (run_dir / "step_peak.txt").write_text(f"{peak}\n")
        print(variant, *hashes, digest(beams.encode()))
        print(f"  train_step peak {peak} bytes")
        if args.against:
            old = args.against / variant
            drift = metric_drift(run_dir / "metrics.jsonl", old / "metrics.jsonl")
            same = (old / "beam3.txt").read_text() == beams
            bytes_same = ", ".join(
                f"{name} {'identical' if (old / name).read_bytes() == (run_dir / name).read_bytes() else 'DIFFER'}"
                for name in CHECKPOINTS)
            old_peak = old / "step_peak.txt"
            ratio = f"{peak / int(old_peak.read_text()):.4f}" if old_peak.exists() else "n/a"
            print(f"  metric drift {drift:.3g}; beam-3 candidates {'identical' if same else 'DIFFER'}; "
                  f"{bytes_same}; step peak ratio {ratio}")
            if not same or math.isinf(drift):
                status = 1
    root = Path(__file__).resolve().parent.parent
    sources = [*root.glob("src/camalign/*.py"), *root.glob("scripts/*.py")]
    print("lines", sum(path.read_bytes().count(b"\n") for path in sources))
    return status


if __name__ == "__main__":
    sys.exit(main())
