"""Command-line entry point: synth, train, generate, evaluate,
inspect-maps, ablate.

Every command is reproducible from its echoed config and seed; outputs are
plain JSON/JSONL/CSV files so experiment comparisons are file diffs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .autodiff import no_graph
from .checkpoint import load_params
from .config import VARIANTS, ConfigError, RunConfig, load_config, to_flat
from .data import (DataError, GLYPH_NAMES, SyntheticSpec, Vocab,
                   generate_synthetic, load_dataset, read_jsonl, read_text, require_field,
                   require_id, save_alignment, save_dataset, split_dataset, tokenize)
from .metrics import evaluate_corpus
from .saliency import normalize_map
from .training import TrainingDiverged, evaluate_split, generate_report, run_model, train

METRIC_KEYS = ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider")


def _runs_root() -> Path:
    return Path(os.environ.get("CAMALIGN_RUNS", "runs"))


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _load_cfg(args) -> RunConfig:
    overrides = _parse_overrides(getattr(args, "set", None))
    if getattr(args, "variant", None):
        overrides["train.variant"] = args.variant
    return load_config(getattr(args, "config", None), overrides)


# -- synth ----------------------------------------------------------------------


def cmd_synth(args) -> int:
    if args.glyphs > len(GLYPH_NAMES):
        raise DataError(f"--glyphs {args.glyphs} exceeds the catalogue of {len(GLYPH_NAMES)} glyphs")
    spec = SyntheticSpec(
        grid=args.grid, patches=args.patches,
        classes=tuple(GLYPH_NAMES[: args.glyphs]),
        glyph_min=args.min_glyphs, glyph_max=args.max_glyphs,
        samples=args.samples, views=args.views, seed=args.seed)
    samples, alignment = generate_synthetic(spec)
    splits = split_dataset(samples, seed=spec.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, part in zip(("train", "val", "test"), splits):
        save_dataset(out / f"{name}.jsonl", part)
        save_alignment(out / f"{name}.cells.jsonl",
                       {s.id: alignment[s.id] for s in part})
    (out / "classes.json").write_text(json.dumps(list(spec.classes)))
    print(f"wrote {len(samples)} samples ({'/'.join(str(len(p)) for p in splits)}) to {out}")
    return 0


# -- train ----------------------------------------------------------------------


def _load_splits(data_dir: Path, classes: int):
    for name in ("train.jsonl", "val.jsonl"):
        if not (data_dir / name).exists():
            raise DataError(f"dataset file {data_dir / name} not found")
    return (load_dataset(data_dir / "train.jsonl", expected_classes=classes),
            load_dataset(data_dir / "val.jsonl", expected_classes=classes))


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    data_dir = Path(args.data)
    train_samples, val_samples = _load_splits(data_dir, cfg.model.classes)
    run_dir = Path(args.out) if args.out else _runs_root() / f"{cfg.train.variant}-seed{cfg.train.seed}"
    result = train(cfg, train_samples, val_samples, run_dir,
                   log_fn=None if args.quiet else print)
    print(f"run dir: {result.run_dir} (best epoch {result.state.best_epoch}, "
          f"val bleu_4 {result.state.best_metric:.4f})")
    return 0


def _read_json(path: Path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: malformed JSON ({e.msg})") from e


def _strings(path: Path, names, what: str) -> list:
    """``names`` if it is a list of distinct strings, else a ``DataError`` naming ``path``."""
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise DataError(f"{path}: {what} must be a list of strings")
    if len(set(names)) != len(names):
        repeated = next(n for i, n in enumerate(names) if n in names[:i])
        raise DataError(f"{path}: {what} repeats {repeated!r}")
    return names


def _load_run(run_dir: Path, checkpoint: str = "best"):
    cfg = load_config(run_dir / "config.json")
    path = run_dir / "vocab.json"
    data = _read_json(path)
    tokens = _strings(path, data.get("id_to_token") if isinstance(data, dict) else None,
                      "'id_to_token'")
    vocab = Vocab({t: i for i, t in enumerate(tokens)}, tokens)
    model = run_model(cfg, len(vocab))
    model.load_state(load_params(run_dir / f"checkpoint_{checkpoint}.bin"))
    return cfg, vocab, model


# -- generate / evaluate -----------------------------------------------------------


def cmd_generate(args) -> int:
    cfg, vocab, model = _load_run(Path(args.run), args.checkpoint)
    samples = load_dataset(args.data, expected_classes=cfg.model.classes)
    beam = args.beam if args.beam is not None else cfg.decode.beam
    with open(args.out, "w") as fh:
        for sample in samples:
            candidate = generate_report(model, sample, vocab, beam, cfg.decode.max_len)
            fh.write(json.dumps({"id": sample.id, "candidate": candidate,
                                 "references": [sample.report.lower()]}) + "\n")
    print(f"wrote {len(samples)} candidates to {args.out} (beam {beam})")
    return 0


def _put_once(table: dict, where: str, key, value) -> None:
    if key in table:
        raise DataError(f"{where}: duplicate id {key!r}")
    table[key] = value


def _text(where: str, record: dict, key: str) -> str:
    value = require_field(where, record, key)
    if not isinstance(value, str):
        raise DataError(f"{where}: field {key!r} must be a string")
    return value


def _reference_list(where: str, record: dict) -> list:
    refs = require_field(where, record, "references")
    if not (isinstance(refs, list) and all(isinstance(r, str) for r in refs)):
        raise DataError(f"{where}: field 'references' must be a list of strings")
    if not refs:
        raise DataError(f"{where}: field 'references' is empty")
    return refs


def cmd_evaluate(args) -> int:
    candidates, references = {}, {}
    for where, record in read_jsonl(args.candidates):
        sample_id, candidate = require_id(where, record), _text(where, record, "candidate")
        _put_once(candidates, where, sample_id, candidate)
        if not args.references:
            references[sample_id] = _reference_list(where, record)
    if not candidates:
        raise DataError(f"{args.candidates}: no candidate records")
    if args.references:
        for where, record in read_jsonl(args.references):
            refs = (_reference_list(where, record) if "references" in record
                    else [_text(where, record, "report")])
            _put_once(references, where, require_id(where, record), refs)
        missing = sorted(set(candidates) ^ set(references))
        if missing:
            raise DataError(f"candidate/reference id mismatch: {missing}")
    ordered = sorted(candidates)
    report = evaluate_corpus([candidates[i] for i in ordered],
                             [references[i] for i in ordered])
    payload = json.dumps(report.as_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n")
    print(payload)
    return 0


# -- inspect-maps ---------------------------------------------------------------------


def _write_grid_csv(path: Path, flat: np.ndarray):
    side = int(round(np.sqrt(len(flat))))
    np.savetxt(path, np.asarray(flat).reshape(side, side), delimiter=",", fmt="%.8g")


def cmd_inspect_maps(args) -> int:
    cfg, vocab, model = _load_run(Path(args.run), args.checkpoint)
    samples = load_dataset(args.data, expected_classes=cfg.model.classes)
    sample = next((s for s in samples if args.id in (None, s.id)), None)
    if sample is None:
        raise DataError(f"{args.data}: no samples" if args.id is None
                        else f"sample id {args.id!r} not found in {args.data}")
    classes = [f"class{i}" for i in range(cfg.model.classes)]
    if args.classes:
        classes = _strings(args.classes, _read_json(args.classes), "class names")
        if len(classes) != cfg.model.classes:
            raise DataError(f"{args.classes}: {len(classes)} class names, "
                            f"the model has {cfg.model.classes} classes")
        for name in classes:                       # each names a CAM dump file
            if "/" in name:
                raise DataError(f"{args.classes}: class name {name!r} holds a '/'")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    ids = tokenize(sample.report, vocab)
    with no_graph():
        result = model.forward_train(sample.images, ids, sample.labels,
                                     lam=cfg.train.lambda_, delta=cfg.train.delta, k=cfg.vtac.k)
    meta = {"id": sample.id, "variant": model.variant, "classes": classes,
            "loss_terms": result.breakdown.as_dict()}

    maps = result.maps
    if maps is None:
        (out / "note.txt").write_text(
            "visual/textual map dumps need the classification head; "
            "this run used the base variant, which has none.\n")
    else:
        meta["presence"] = [int(v) for v in maps.probs.presence]
        meta["probabilities"] = [float(v) for v in maps.probs.probs]
        views = len(sample.images)
        for seg, grid in enumerate(np.split(maps.visual_map, views)):
            _write_grid_csv(out / f"vdm_seg{seg}.csv", grid)
        for cname, cam in zip(classes, normalize_map(maps.cams)):
            for seg, grid in enumerate(np.split(cam, views)):
                _write_grid_csv(out / f"cam_{cname}_seg{seg}.csv", grid)
        if result.text_map is not None:
            for seg, grid in enumerate(np.split(result.text_map.data, views)):
                _write_grid_csv(out / f"tdm_seg{seg}.csv", grid)
            selected = [int(j) for j in result.selected]
            np.savetxt(out / "word_attention.csv", result.decoder.cross_final_avg.data[selected],
                       delimiter=",", fmt="%.8g")
            words = {}                                 # each word at its first selected position
            for j in selected:
                words.setdefault(vocab.id_to_token[ids[j]], {
                    "position": j, "weight": float(max(0.0, result.sims.data[j]))})
            (out / "selected_words.json").write_text(
                json.dumps([{"word": w, **rest} for w, rest in words.items()], indent=2))
        elif model.variant == "vdmae":
            (out / "note.txt").write_text(
                "textual map requires the attention-consistency variant (full); "
                "this run used vdmae, so only visual maps are dumped.\n")
        else:
            (out / "note.txt").write_text(
                "no textual map: no content word of this report was selected, since every "
                "word is special or out of the vocabulary; only visual maps are dumped.\n")
    (out / "meta.json").write_text(json.dumps(meta, indent=2))
    print(f"wrote map dumps for sample {sample.id} to {out}")
    return 0


# -- ablate ----------------------------------------------------------------------


def ablation_table(rows) -> str:
    headers = ["variant", *METRIC_KEYS, "avg_delta"]
    lines = ["  ".join(f"{h:>9}" for h in headers)]
    for row in rows:
        cells = [f"{row['variant']:>9}"]
        if row.get("failed"):
            cells += [f"{'failed':>9}"] * (len(headers) - 1)
        else:
            cells += [f"{row[m]:>9.4f}" for m in METRIC_KEYS]
            cells += [f"{row['avg_delta']:>9.4f}" if row["avg_delta"] is not None else f"{'-':>9}"]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def run_ablation(cfg: RunConfig, data_dir: Path, out_dir: Path, log_fn=None) -> list:
    """Train base/vdmae/full with identical seeds; tabulate test metrics."""
    train_samples, val_samples = _load_splits(data_dir, cfg.model.classes)
    test_samples = load_dataset(data_dir / "test.jsonl", expected_classes=cfg.model.classes)
    rows = []
    for variant in VARIANTS:
        variant_cfg = load_config(None, {**to_flat(cfg), "train.variant": variant})
        row = {"variant": variant}
        try:
            result = train(variant_cfg, train_samples, val_samples,
                           out_dir / variant, log_fn=log_fn)
            _, report, _ = evaluate_split(result.model, test_samples, result.vocab,
                                          variant_cfg, beam=variant_cfg.decode.beam)
            row.update(report.as_dict())
            row["parameters"] = result.model.parameter_count()
        except (TrainingDiverged, ValueError) as err:
            row["failed"] = str(err)
        rows.append(row)
    base = rows[0]
    for row in rows:
        if row.get("failed") or base.get("failed") or row["variant"] == "base":
            row["avg_delta"] = None
            continue
        deltas = [(row[m] - base[m]) / base[m] for m in METRIC_KEYS if base[m] != 0]
        row["avg_delta"] = float(np.mean(deltas)) if deltas else None
    return rows


def cmd_ablate(args) -> int:
    cfg = _load_cfg(args)
    out_dir = Path(args.out) if args.out else _runs_root() / "ablation"
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = run_ablation(cfg, Path(args.data), out_dir,
                        log_fn=None if args.quiet else print)
    (out_dir / "ablation.json").write_text(json.dumps(rows, indent=2))
    table = ablation_table(rows)
    (out_dir / "ablation.txt").write_text(table + "\n")
    print(table)
    return 0 if not any(r.get("failed") for r in rows) else 1


# -- argument parsing ----------------------------------------------------------------


def _positive(value):
    n = int(value)
    if n <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


def _non_negative(value):
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="camalign",
        description="CAM-guided cross-modal attention alignment for grid-image captioning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic glyph dataset with splits")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=_positive, required=True)
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--glyphs", type=_positive, default=14, help="catalogue size (max 14)")
    p.add_argument("--grid", type=_positive, default=28)
    p.add_argument("--patches", type=_positive, default=7)
    p.add_argument("--min-glyphs", type=_positive, default=1)
    p.add_argument("--max-glyphs", type=_positive, default=3)
    p.add_argument("--views", type=int, choices=(1, 2), default=1)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train one variant on a dataset directory")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None, help="run directory (default $CAMALIGN_RUNS)")
    p.add_argument("--config", default=None)
    p.add_argument("--set", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--variant", choices=VARIANTS, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="decode reports for a dataset file")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beam", type=_positive, default=None, help="beam width (default from config, 3)")
    p.add_argument("--checkpoint", choices=("best", "last"), default="best")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score candidates against references")
    p.add_argument("--candidates", required=True)
    p.add_argument("--references", default=None,
                   help="JSONL with id+report or id+references; defaults to candidates' embedded references")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("inspect-maps", help="dump visual/textual maps and word attention")
    p.add_argument("--run", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--id", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--classes", default=None, help="classes.json for readable names")
    p.add_argument("--checkpoint", choices=("best", "last"), default="best")
    p.set_defaults(func=cmd_inspect_maps)

    p = sub.add_parser("ablate", help="train all three variants and tabulate")
    p.add_argument("--data", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--set", nargs="*", metavar="KEY=VALUE")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrainingDiverged, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
