"""Teacher-forced training with early stopping and JSONL metric logs.

Each run directory receives the effective config, the vocabulary, per-epoch
metric records, and best/last checkpoints, so an entire run reproduces from
its own artifacts plus the dataset.  A run trains its parameters and Adam
moments in float32 (``RUN_DTYPE``); its checkpoints still hold float64 records.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np

from .autodiff import ContractError, add, backward, tsum
from .checkpoint import save_params
from .config import ConfigError, RunConfig, save_config
from .data import PAD, Vocab, build_vocab, detokenize, tokenize
from .decoding import beam_search, greedy_decode
from .losses import LossBreakdown
from .metrics import evaluate_corpus
from .model import CaptionModel, build_model
from .optim import Adam


RUN_DTYPE = np.float32      # a run's parameters and Adam moments; checks build float64 models


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class TrainState:
    epoch: int = 0
    best_metric: float = -np.inf
    best_epoch: int = -1
    epochs_since_best: int = 0

    def update(self, metric: float) -> bool:
        """Record a validation result; returns True when it improves."""
        if metric > self.best_metric:
            self.best_metric = metric
            self.best_epoch = self.epoch
            self.epochs_since_best = 0
            return True
        self.epochs_since_best += 1
        return False

    def should_stop(self, patience: int) -> bool:
        return self.epochs_since_best >= patience


@dataclass
class TrainResult:
    model: CaptionModel
    vocab: Vocab
    state: TrainState
    history: list = field(default_factory=list)
    run_dir: Path = None


def run_model(cfg: RunConfig, vocab_size: int) -> CaptionModel:
    """The model of a run: built from ``train.seed`` as ``build_model`` builds it,
    then narrowed to ``RUN_DTYPE``.  ``train()`` trains it and ``camalign``
    loads a run's checkpoints into it, so both decode the same model."""
    model = build_model(cfg, vocab_size, np.random.default_rng([cfg.train.seed, 0]))
    for p in model.params().values():
        p.data = p.data.astype(RUN_DTYPE)
    return model


def sample_losses(model: CaptionModel, samples, vocab: Vocab, cfg: RunConfig):
    """Each sample's loss breakdown, and the batch loss: the mean of their totals.

    Samples whose images share a shape form one group and run through
    ``forward_train`` as one graph, reports padded with PAD to the group's
    longest.  A ``ContractError`` leaves with ``.breakdowns`` of the groups
    whose forward pass finished.
    """
    groups = {}
    for i, s in enumerate(samples):
        groups.setdefault(tuple(np.shape(view) for view in s.images), []).append(i)
    breakdowns, sums = {}, []
    try:
        for members in groups.values():
            ids = [tokenize(samples[i].report, vocab) for i in members]
            width = max(map(len, ids))
            result = model.forward_train(
                np.stack([samples[i].images for i in members]),
                np.array([x + [PAD] * (width - len(x)) for x in ids]),
                np.stack([samples[i].labels for i in members]),
                lam=cfg.train.lambda_, delta=cfg.train.delta, k=cfg.vtac.k)
            breakdowns.update(zip(members, result.breakdown))
            sums.append(tsum(result.total))
        loss = reduce(add, sums) * (1.0 / len(samples))
    except ContractError as err:
        err.breakdowns = [breakdowns[i] for i in sorted(breakdowns)]
        raise
    return [breakdowns[i] for i in range(len(samples))], loss


def train_step(model: CaptionModel, opt: Adam, batch, vocab: Vocab, cfg: RunConfig) -> list:
    """One Adam step on the batch loss of ``sample_losses``; returns each sample's breakdown.

    The sweep releases each interior gradient once it is passed on, so only
    the parameters keep gradients for Adam, and the batch's graph is freed
    before Adam allocates its updates: only the float breakdowns leave.
    A ``ContractError`` leaves with ``.breakdowns``: as ``sample_losses`` set
    them, or every sample's when Adam raised.
    """
    breakdowns, loss = sample_losses(model, batch, vocab, cfg)
    opt.zero_grad()
    backward(loss, release=True)
    del loss
    try:
        opt.step()
    except ContractError as err:
        err.breakdowns = breakdowns
        raise
    return breakdowns


def generate_report(model: CaptionModel, sample, vocab: Vocab, beam: int, max_len: int) -> str:
    step = model.step_fn(sample.images)
    if beam == 1:
        ids = greedy_decode(step, max_len)
    else:
        ids = beam_search(step, beam, max_len)
    return detokenize(ids, vocab)


def evaluate_split(model: CaptionModel, samples, vocab: Vocab, cfg: RunConfig,
                   beam: int = 1):
    """Teacher-forced loss terms, in chunks of ``train.batch``, plus decoded text metrics."""
    terms = np.zeros(3)
    for start in range(0, len(samples), cfg.train.batch):
        for b in sample_losses(model, samples[start:start + cfg.train.batch], vocab, cfg)[0]:
            terms += (b.ce, b.bce, b.mse)
    candidates = [generate_report(model, s, vocab, beam, cfg.decode.max_len) for s in samples]
    references = [[s.report] for s in samples]
    terms /= max(1, len(samples))
    breakdown = LossBreakdown(ce=terms[0], bce=terms[1], mse=terms[2],
                              lam=cfg.train.lambda_, delta=cfg.train.delta)
    return breakdown, evaluate_corpus(candidates, references), candidates


def _dump_diverged(run_dir: Path, epoch: int, batch, losses, error: str) -> Path:
    path = run_dir / "diverged_batch.json"
    payload = {
        "epoch": epoch,
        "error": error,
        "samples": [{"id": s.id, "report": s.report, "labels": [int(y) for y in s.labels]}
                    for s in batch],
        "loss_terms": losses,
    }
    path.write_text(json.dumps(payload, indent=2))
    return path


def _log(fh, record: dict) -> dict:
    fh.write(json.dumps(record) + "\n")
    fh.flush()
    return record


def _val_record(model, val_samples, vocab, cfg, epoch, log_fh) -> dict:
    breakdown, report, _ = evaluate_split(model, val_samples, vocab, cfg, beam=1)
    return _log(log_fh, {"epoch": epoch, "split": "val",
                         **breakdown.as_dict(), **report.as_dict()})


def train(cfg: RunConfig, train_samples, val_samples, run_dir,
          log_fn=None) -> TrainResult:
    """Run the configured variant to early stop or the epoch budget."""
    if not train_samples or not val_samples:
        raise ValueError("empty train or validation split")
    for key, weight in (("train.lambda", cfg.train.lambda_), ("train.delta", cfg.train.delta)):
        if weight > float(np.finfo(RUN_DTYPE).max):
            raise ConfigError(f"{key}={weight:g} exceeds the {np.dtype(RUN_DTYPE)} range of a run")
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    save_config(cfg, run_dir / "config.json")

    vocab = build_vocab([s.report for s in train_samples],
                        min_freq=cfg.data.min_freq, max_size=cfg.model.vocab_max)
    (run_dir / "vocab.json").write_text(json.dumps({"id_to_token": vocab.id_to_token}))

    model = run_model(cfg, len(vocab))
    shuffle_rng = np.random.default_rng([cfg.train.seed, 1])
    opt = Adam([(model.extractor_params(), cfg.train.lr_ve),
                (model.encdec_params(), cfg.train.lr_ed)])

    state = TrainState()
    history = []
    with open(run_dir / "metrics.jsonl", "w") as log_fh:
        history.append(_val_record(model, val_samples, vocab, cfg, 0, log_fh))
        save_params(run_dir / "checkpoint_best.bin", model.params())
        for epoch in range(1, cfg.train.epochs + 1):
            state.epoch = epoch
            order = shuffle_rng.permutation(len(train_samples))
            epoch_terms = np.zeros(4)
            for start in range(0, len(order), cfg.train.batch):
                batch = [train_samples[i] for i in order[start:start + cfg.train.batch]]
                try:
                    breakdowns = train_step(model, opt, batch, vocab, cfg)
                except ContractError as err:
                    losses = [b.as_dict() for b in err.breakdowns]
                    path = _dump_diverged(run_dir, epoch, batch, losses, str(err))
                    raise TrainingDiverged(f"{err}; offending batch dumped to {path}") from err
                for b in breakdowns:
                    epoch_terms += (b.ce, b.bce, b.mse, b.total)
            epoch_terms /= len(order)
            history.append(_log(log_fh, {
                "epoch": epoch, "split": "train",
                "ce": epoch_terms[0], "bce": epoch_terms[1],
                "mse": epoch_terms[2], "total": epoch_terms[3]}))
            record = _val_record(model, val_samples, vocab, cfg, epoch, log_fh)
            history.append(record)
            if log_fn:
                log_fn(f"epoch {epoch}: val bleu_4={record['bleu_4']:.4f} "
                       f"ce={record['ce']:.4f} mse={record['mse']:.5f}")
            if state.update(record["bleu_4"]):
                save_params(run_dir / "checkpoint_best.bin", model.params())
            if state.should_stop(cfg.train.patience):
                break
        save_params(run_dir / "checkpoint_last.bin", model.params())
    return TrainResult(model=model, vocab=vocab, state=state,
                       history=history, run_dir=run_dir)
