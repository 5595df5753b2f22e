#!/usr/bin/env python3
"""Sanity experiment: memorise a 16-sample synthetic set and report the
steps needed to pass BLEU-4 0.95 with greedy decoding.

    python3 scripts/overfit_demo.py
"""
import argparse
import sys
import time

import numpy as np

from camalign.config import load_config
from camalign.data import GLYPH_NAMES, SyntheticSpec, build_vocab, generate_synthetic
from camalign.metrics import bleu_n
from camalign.model import build_model
from camalign.optim import Adam
from camalign.training import generate_report, train_step


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    spec = SyntheticSpec(grid=28, patches=7, classes=GLYPH_NAMES[:6],
                         glyph_min=1, glyph_max=2, samples=16, seed=args.seed)
    samples, _ = generate_synthetic(spec)
    cfg = load_config(None, {
        "model.layers": 2, "model.heads": 4, "model.dim": 64, "model.feat_dim": 32,
        "model.classes": 6, "model.max_len": 24, "decode.max_len": 24,
        "train.seed": 0, "train.batch": 16})
    vocab = build_vocab([s.report for s in samples])
    model = build_model(cfg, len(vocab), np.random.default_rng([0, 0]))
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])
    refs = [[s.report.lower()] for s in samples]

    start = time.time()
    for step in range(1, args.steps + 1):
        breakdowns = train_step(model, opt, samples, vocab, cfg)
        if step % 25 == 0:
            loss = sum(b.total for b in breakdowns) / len(samples)
            cands = [generate_report(model, s, vocab, 1, cfg.decode.max_len)
                     for s in samples]
            score = bleu_n(cands, refs, 4)
            print(f"step {step:4d}  loss {loss:7.4f}  "
                  f"train bleu_4 {score:6.4f}  ({time.time() - start:5.1f}s)")
            if score >= 0.95:
                print(f"reached 0.95 at step {step}")
                return 0
    print("did not reach 0.95 within the step budget")
    return 1


if __name__ == "__main__":
    sys.exit(main())
