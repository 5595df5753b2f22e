"""The three seeded, single-process, closed-loop workloads.

A unit is the work a single caller issues before it looks at the clock
again: on the train workloads one ``train()`` call followed by greedy and
beam-3 generation from the trained model (the ``camalign train`` then
``camalign generate`` path); on ``decode`` one round of greedy decoding over
the held-out set followed by beam-3 over a smaller set.  Every unit of a run
repeats the same inputs, so the spread between units is timing noise, and
the units must agree on their outputs.
"""
from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import layers
from camalign import data, training
from camalign.config import load_config
from camalign.model import build_model
from report import metric, summarize
from spans import Patcher, Recorder, Tracer, install

MAX_LEN = 24
BEAM = 3
SETUP_REPEATS = 21
GREEDY_CHECK_SAMPLES = 2

# Acceptance criterion 8's profile: L2 H4 D64 C32, batch 8, delta 0.5, k 0.3,
# run seed 5.  The workload seed only generates the samples the program gets.
PROFILE = {"model.layers": layers.LAYERS, "model.heads": 4, "model.dim": 64,
           "model.feat_dim": 32, "model.classes": 6, "model.max_len": MAX_LEN,
           "decode.max_len": MAX_LEN, "train.seed": 5, "train.batch": 8,
           "train.epochs": 1, "train.patience": 1, "train.delta": 0.5, "vtac.k": 0.3}


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str
    views: int
    glyph_max: int
    n_train: int
    n_val: int
    trains: bool
    n_greedy: int          # held-out greedy samples per unit, besides validation's
    n_beam: int            # held-out beam-3 samples per unit


WORKLOADS = {w.name: w for w in (
    Workload("train-full", "full", 1, 2, 140, 20, True, 0, 8),
    Workload("train-base-2view", "base", 2, 3, 140, 4, True, 12, 6),
    Workload("decode", "full", 1, 2, 140, 0, False, 24, 8),
)}


@dataclass
class Dataset:
    cfg: object
    train: list
    val: list
    held: list


@dataclass
class Unit:
    wall: float                     # seconds for the whole unit
    busy: float                     # seconds of train() (train) or of the unit (decode)
    samples: int                    # samples train() consumed or samples decoded
    steps: int
    decodes: list                   # (beam width, seconds, token ids)
    train_loss: float = None
    violations: list = field(default_factory=list)
    failed: int = 0

    @property
    def digest(self) -> str:
        payload = json.dumps([(beam, ids) for beam, _, ids in self.decodes])
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def make_dataset(wl: Workload, seed: int) -> Dataset:
    cfg = load_config(None, {**PROFILE, "train.variant": wl.variant})
    held = max(wl.n_greedy, wl.n_beam, GREEDY_CHECK_SAMPLES)
    spec = data.SyntheticSpec(grid=28, patches=7, classes=data.GLYPH_NAMES[:6],
                              glyph_min=1, glyph_max=wl.glyph_max, views=wl.views,
                              samples=wl.n_train + wl.n_val + held, seed=seed)
    samples, _ = data.generate_synthetic(spec)
    return Dataset(cfg, samples[:wl.n_train], samples[wl.n_train:wl.n_train + wl.n_val],
                   samples[wl.n_train + wl.n_val:])


def setup(wl: Workload, seed: int):
    """Data generation, vocabulary and model construction, as ``train()`` does them."""
    ds = make_dataset(wl, seed)
    vocab = data.build_vocab([s.report for s in ds.train], min_freq=ds.cfg.data.min_freq,
                             max_size=ds.cfg.model.vocab_max)
    caption_model = build_model(ds.cfg, len(vocab), np.random.default_rng([ds.cfg.train.seed, 0]))
    return ds, vocab, caption_model


def _decode(caption_model, vocab, samples, beam: int, unit: Unit) -> None:
    for sample in samples:
        try:
            training.generate_report(caption_model, sample, vocab, beam, MAX_LEN)
        except Exception as err:  # a failed decode is counted, the run goes on
            unit.violations.append(f"{sample.id}: beam {beam} raised {err!r}")
            unit.failed += 1


def train_unit(wl: Workload, ds: Dataset, work_dir: Path, recorder: Recorder, tracer=None):
    """One ``train()`` call, then greedy and beam-3 generation from the trained model."""
    first = len(recorder.decodes)
    epochs = ds.cfg.train.epochs
    steps = epochs * math.ceil(wl.n_train / ds.cfg.train.batch)
    unit = Unit(wall=0.0, busy=0.0, samples=epochs * wl.n_train, steps=steps, decodes=[])
    start = time.perf_counter()
    try:
        if tracer:
            tracer.phase = "train"
            result = tracer.call("training.train", training.train, ds.cfg, ds.train, ds.val, work_dir)
            tracer.phase = "generate"
        else:
            result = training.train(ds.cfg, ds.train, ds.val, work_dir)
    except Exception as err:  # the unit failed; report it instead of stopping the run
        unit.violations.append(f"train() raised {err!r}")
        unit.failed = steps
        return unit, None
    unit.busy = time.perf_counter() - start
    _decode(result.model, result.vocab, ds.held[:wl.n_greedy], 1, unit)
    _decode(result.model, result.vocab, ds.held[:wl.n_beam], BEAM, unit)
    unit.wall = time.perf_counter() - start
    unit.decodes = recorder.decodes[first:]
    unit.train_loss = [h for h in result.history if h["split"] == "train"][-1]["total"]
    run_bad = checks.run_dir(work_dir, epochs)
    if run_bad:
        unit.violations += run_bad
        unit.failed += steps
    _check_candidates(unit, len(result.vocab))
    return unit, result.model


def decode_unit(wl: Workload, ds: Dataset, vocab, caption_model, recorder: Recorder, tracer=None):
    """Greedy over the held-out set, then beam-3 over a smaller set."""
    first = len(recorder.decodes)
    unit = Unit(wall=0.0, busy=0.0, samples=wl.n_greedy + wl.n_beam, steps=0, decodes=[])
    if tracer:
        tracer.phase = "generate"
    start = time.perf_counter()
    _decode(caption_model, vocab, ds.held[:wl.n_greedy], 1, unit)
    _decode(caption_model, vocab, ds.held[:wl.n_beam], BEAM, unit)
    unit.wall = unit.busy = time.perf_counter() - start
    unit.decodes = recorder.decodes[first:]
    _check_candidates(unit, len(vocab))
    return unit


def _check_candidates(unit: Unit, vocab_size: int) -> None:
    for _, _, ids in unit.decodes:
        bad = checks.candidate(ids, vocab_size, MAX_LEN)
        if bad:
            unit.violations += bad
            unit.failed += 1


def _decodes(units, width: int) -> list:
    """(seconds, emitted tokens) of every decoded sample of one search width."""
    return [(t, max(1, len(ids))) for u in units for b, t, ids in u.decodes if b == width]


SEARCHES = (("greedy", 1), (f"beam{BEAM}", BEAM))


def end_to_end(units, setup_times) -> dict:
    """The user-facing metrics of an untraced run, each with its sample count.

    Rates are medians over units, which keeps a burst of interference on a
    shared host from moving them.  A unit's token rate pools all samples it
    decoded with one search width, so samples of different output lengths
    weigh by their time rather than one of them setting the median.
    """
    ok = [u for u in units if u.busy > 0]
    out = {
        "setup_s": metric(statistics.median(setup_times), "s", len(setup_times)),
        "samples_per_s": metric(statistics.median(u.samples / u.busy for u in ok), "1/s", len(ok)),
    }
    for label, width in SEARCHES:
        rates = []
        for u in ok:
            runs = _decodes([u], width)
            if runs:
                rates.append(sum(n for _, n in runs) / sum(t for t, _ in runs))
        out[f"{label}_tokens_per_s"] = metric(statistics.median(rates), "1/s",
                                             len(_decodes(ok, width)))
    out["peak_rss_mb"] = metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                "MB", 1)
    return out


def latencies(units) -> dict:
    """Per-sample and per-token latency percentiles, with counts."""
    out = {}
    for label, width in SEARCHES:
        runs = _decodes(units, width)
        for suffix, values in (("", [t for t, _ in runs]), ("_per_token", [t / n for t, n in runs])):
            for q in (50, 90):
                s = summarize([1e3 * v for v in values], q)
                out[f"{label}_ms{suffix}_p{q}"] = metric(s["value"], "ms", s["n"],
                                                        supported=s["supported"])
    return out


@dataclass
class RunResult:
    metrics: dict
    extra: dict
    attempted: int
    failed: int
    violations: list
    spans: list = None


def run(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> RunResult:
    """Set up, run units until ``seconds`` are spent, check outputs, summarise."""
    work_dir = out_dir / "work"
    patcher, recorder = Patcher(), Recorder()
    recorder.install(patcher)
    tracer = Tracer() if trace else None
    try:
        traced = Patcher()
        if tracer:
            install(tracer, traced)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            ds, vocab, caption_model = setup(wl, seed)
            setup_times.append(time.perf_counter() - start)
        traced.restore()
        if tracer:
            tracer.register_model(caption_model)

        def one_unit(tracer_=None):
            if not wl.trains:
                return decode_unit(wl, ds, vocab, caption_model, recorder, tracer_), caption_model
            shutil.rmtree(work_dir, ignore_errors=True)
            return train_unit(wl, ds, work_dir, recorder, tracer_)

        units, pairs, last_model = [], [], caption_model
        start = time.perf_counter()
        while True:
            unit, last_model = one_unit()
            units.append(unit)
            if tracer:
                install(tracer, traced)
                try:
                    traced_unit, _ = one_unit(tracer)
                finally:
                    traced.restore()
                pairs.append((unit, traced_unit))
            elapsed = time.perf_counter() - start
            if unit.failed and unit.busy == 0 or elapsed * (1 + 0.5 / len(units)) >= seconds:
                break

        violations = [v for u in units for v in u.violations]
        failed = sum(u.failed for u in units)
        attempted = sum(u.steps + len(u.decodes) for u in units)
        # units repeat the same inputs, so their outputs must agree
        if len({(u.digest, u.train_loss) for u in units}) > 1:
            violations.append("units with identical inputs disagree on their outputs")
            failed += sum(u.steps + len(u.decodes) for u in units[1:])
        if last_model is not None:
            for sample in ds.held[:GREEDY_CHECK_SAMPLES]:
                bad = checks.greedy_matches_beam1(last_model, sample, MAX_LEN)
                attempted += 1
                failed += bool(bad)
                violations += bad

        extra = {"digest": units[0].digest, **latencies(units),
                 "unit_seconds": [round(u.wall, 3) for u in units]}
        if wl.trains:
            extra["train_loss"] = units[0].train_loss
        if not tracer:
            return RunResult(end_to_end(units, setup_times), extra, attempted, failed, violations)

        for plain, with_spans in pairs:
            attempted += with_spans.steps + len(with_spans.decodes)
            failed += with_spans.failed
            violations += with_spans.violations
            if (plain.digest, plain.train_loss) != (with_spans.digest, with_spans.train_loss):
                violations.append("tracing changed the outputs")
                failed += with_spans.steps + len(with_spans.decodes)
        overhead = statistics.median(t.wall / p.wall for p, t in pairs if p.wall > 0)
        per_layer = layers.layer_metrics(tracer, per_token=not wl.trains, overhead=overhead)
        return RunResult(per_layer, extra, attempted, failed, violations, tracer.spans)
    finally:
        patcher.restore()
        shutil.rmtree(work_dir, ignore_errors=True)
