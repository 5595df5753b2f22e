import json

import numpy as np
import pytest

from camalign.cli import _load_run, ablation_table, main
from camalign.data import load_alignment, load_dataset, tokenize
from camalign.saliency import normalize_map

MICRO_SET = ["model.layers=1", "model.heads=2", "model.dim=8",
             "model.feat_dim=6", "model.patch=4", "model.classes=3",
             "model.max_len=14", "decode.max_len=14",
             "train.epochs=2", "train.batch=4", "train.seed=7"]


def synth_args(out, samples=20, seed=1):
    return ["synth", "--out", str(out), "--samples", str(samples),
            "--seed", str(seed), "--glyphs", "3", "--grid", "8",
            "--patches", "2", "--max-glyphs", "2"]


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "data"
    assert main(synth_args(out)) == 0
    return out


@pytest.fixture
def run_dir(tmp_path, dataset_dir):
    out = tmp_path / "run"
    args = ["train", "--data", str(dataset_dir), "--out", str(out),
            "--quiet", "--set", *MICRO_SET]
    assert main(args) == 0
    return out


def test_synth_writes_split_files(dataset_dir):
    train = load_dataset(dataset_dir / "train.jsonl")
    val = load_dataset(dataset_dir / "val.jsonl")
    test = load_dataset(dataset_dir / "test.jsonl")
    assert (len(train), len(val), len(test)) == (14, 2, 4)
    align = load_alignment(dataset_dir / "train.cells.jsonl")
    assert set(align) == {s.id for s in train}
    assert json.loads((dataset_dir / "classes.json").read_text()) == ["solid", "hollow", "cross"]


def test_synth_same_seed_same_membership(tmp_path):
    main(synth_args(tmp_path / "a", seed=9))
    main(synth_args(tmp_path / "b", seed=9))
    for name in ("train", "val", "test"):
        a = (tmp_path / "a" / f"{name}.jsonl").read_bytes()
        b = (tmp_path / "b" / f"{name}.jsonl").read_bytes()
        assert a == b


def test_synth_zero_samples_is_argument_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(synth_args(tmp_path / "x", samples=0))
    assert exc.value.code == 2


def test_negative_seeds_are_named_before_anything_is_written(tmp_path, dataset_dir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(synth_args(tmp_path / "x", seed=-3))
    assert exc.value.code == 2
    assert "argument --seed: expected a non-negative integer, got -3" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    out = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--out", str(out), "--quiet",
                 "--set", *MICRO_SET, "train.seed=-1"]) == 1
    assert "train.seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_synth_more_glyphs_than_the_catalogue_is_an_error(tmp_path, capsys):
    args = synth_args(tmp_path / "x")
    args[args.index("--glyphs") + 1] = "20"
    assert main(args) == 1
    assert "--glyphs 20" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_train_on_non_finite_pixel_is_a_data_error(tmp_path, dataset_dir, capsys):
    path = dataset_dir / "train.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record["images"][0][0] = float("nan")
    lines[1] = json.dumps(record)                       # writes the literal NaN
    path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "run"
    assert main(["train", "--data", str(dataset_dir), "--out", str(out),
                 "--quiet", "--set", *MICRO_SET]) == 1
    assert f"{path}:2: image holds a non-finite pixel" in capsys.readouterr().err
    assert not (out / "diverged_batch.json").exists()


def test_train_missing_dataset_fails_before_compute(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nowhere"), "--out",
                 str(tmp_path / "run"), "--quiet"])
    assert code == 1
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_with_zero_heads_exits_with_an_error(tmp_path, capsys):
    code = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "run"),
                 "--quiet", "--set", "model.heads=0"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_writes_run_dir(run_dir):
    for name in ("config.json", "vocab.json", "metrics.jsonl", "checkpoint_best.bin"):
        assert (run_dir / name).exists()
    cfg = json.loads((run_dir / "config.json").read_text())
    assert cfg["model.dim"] == 8 and cfg["train.variant"] == "full"


def test_generate_schema_feeds_evaluate(tmp_path, dataset_dir, run_dir, capsys):
    cand_path = tmp_path / "cands.jsonl"
    assert main(["generate", "--run", str(run_dir), "--data",
                 str(dataset_dir / "test.jsonl"), "--out", str(cand_path),
                 "--beam", "2"]) == 0
    records = [json.loads(line) for line in cand_path.read_text().splitlines()]
    assert all({"id", "candidate", "references"} <= set(r) for r in records)
    out_path = tmp_path / "metrics.json"
    assert main(["evaluate", "--candidates", str(cand_path),
                 "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    assert set(report) == {"bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l", "cider"}


def test_generate_beam_one_equals_greedy(tmp_path, dataset_dir, run_dir):
    from camalign.cli import _load_run
    from camalign.decoding import greedy_decode
    from camalign.data import detokenize
    cand_path = tmp_path / "greedy.jsonl"
    main(["generate", "--run", str(run_dir), "--data",
          str(dataset_dir / "test.jsonl"), "--out", str(cand_path), "--beam", "1"])
    cfg, vocab, model = _load_run(run_dir)
    for record in (json.loads(line) for line in cand_path.read_text().splitlines()):
        sample = next(s for s in load_dataset(dataset_dir / "test.jsonl") if s.id == record["id"])
        ids = greedy_decode(model.step_fn(sample.images), cfg.decode.max_len)
        assert record["candidate"] == detokenize(ids, vocab)


def test_generate_on_truncated_checkpoint_fails_cleanly(tmp_path, dataset_dir, run_dir, capsys):
    ckpt = run_dir / "checkpoint_best.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:6])
    code = main(["generate", "--run", str(run_dir), "--data",
                 str(dataset_dir / "test.jsonl"), "--out", str(tmp_path / "c.jsonl")])
    assert code == 1
    assert "truncated archive" in capsys.readouterr().err


def test_generate_on_a_malformed_vocab_names_the_file(tmp_path, dataset_dir, run_dir, capsys):
    vocab_path = run_dir / "vocab.json"
    tokens = json.loads(vocab_path.read_text())["id_to_token"]
    not_strings = "'id_to_token' must be a list of strings"
    for payload, message in (('{"tokens": []}', not_strings), ("[1, 2]", not_strings),
                             (json.dumps({"id_to_token": [*tokens[:-1], 7]}), not_strings),
                             (json.dumps({"id_to_token": [*tokens, tokens[4]]}),
                              f"'id_to_token' repeats {tokens[4]!r}"),
                             ('{"id_to_token": [', "malformed JSON")):
        vocab_path.write_text(payload)
        assert main(["generate", "--run", str(run_dir), "--data",
                     str(dataset_dir / "test.jsonl"), "--out", str(tmp_path / "c.jsonl")]) == 1
        assert f"{vocab_path}: {message}" in capsys.readouterr().err, payload



def test_generate_on_a_truncated_config_names_the_file(tmp_path, dataset_dir, run_dir, capsys):
    config_path = run_dir / "config.json"
    config_path.write_text(config_path.read_text()[:15])
    assert main(["generate", "--run", str(run_dir), "--data",
                 str(dataset_dir / "test.jsonl"), "--out", str(tmp_path / "c.jsonl")]) == 1
    assert f"{config_path}: malformed JSON" in capsys.readouterr().err

def test_evaluate_identical_files_score_one(tmp_path, capsys):
    path = tmp_path / "same.jsonl"
    with open(path, "w") as fh:
        for i in range(3):
            fh.write(json.dumps({"id": f"s{i}", "candidate": f"report number {i} here",
                                 "references": [f"report number {i} here"]}) + "\n")
    assert main(["evaluate", "--candidates", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in ("bleu_1", "bleu_2", "bleu_3", "bleu_4", "rouge_l"):
        assert report[key] == pytest.approx(1.0)


def test_evaluate_mismatched_ids_listed(tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text(json.dumps({"id": "a", "candidate": "x", "references": ["x"]}) + "\n")
    refs.write_text(json.dumps({"id": "b", "report": "x"}) + "\n")
    assert main(["evaluate", "--candidates", str(cands), "--references", str(refs)]) == 1
    err = capsys.readouterr().err
    assert "a" in err and "b" in err


@pytest.mark.parametrize("second, message", [
    ('{"id": "b", "references": ["x"]}', "missing field 'candidate'"),
    ('{"candidate": "x", "references": ["x"]}', "missing field 'id'"),
    ('{"id": "b", "candidate": "x"}', "missing field 'references'"),
    ('{not json', "malformed JSON"),
    ('["b", "x"]', "expected a JSON object"),
    ('{"id": "b", "candidate": 5, "references": ["x"]}', "field 'candidate' must be a string"),
    ('{"id": [1], "candidate": "x", "references": ["x"]}', "field 'id' must be a string, got [1]"),
    ('{"id": "b", "candidate": "x", "references": "there is a dot"}',
     "field 'references' must be a list of strings"),
    ('{"id": "b", "candidate": "x", "references": ["x", 3]}',
     "field 'references' must be a list of strings"),
])
def test_evaluate_bad_candidate_record_names_path_and_line(tmp_path, capsys, second, message):
    cands = tmp_path / "c.jsonl"
    first = json.dumps({"id": "a", "candidate": "x", "references": ["x"]})
    cands.write_text(f"{first}\n{second}\n")
    assert main(["evaluate", "--candidates", str(cands)]) == 1
    assert f"{cands}:2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("repeated, with_refs", [("c", False), ("c", True), ("r", True)])
def test_evaluate_repeated_id_names_path_and_line(tmp_path, capsys, repeated, with_refs):
    # a repeated id used to overwrite the earlier record and score fewer candidates
    files = {"c": tmp_path / "c.jsonl", "r": tmp_path / "r.jsonl"}
    for name, path in files.items():
        ids = "aba" if name == repeated else "ab"
        path.write_text("".join(json.dumps({"id": i, "candidate": "x", "references": ["x"],
                                            "report": "x"}) + "\n" for i in ids))
    args = ["evaluate", "--candidates", str(files["c"])]
    if with_refs:
        args += ["--references", str(files["r"])]
    assert main(args) == 1
    assert f"{files[repeated]}:3: duplicate id 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("second, message", [
    ('{"id": "b", "report": ["there is a dot"]}', "field 'report' must be a string"),
    ('{"id": "b", "references": "there is a dot"}', "field 'references' must be a list of strings"),
    ('{"id": {"a": 1}, "report": "x"}', "field 'id' must be a string, got {'a': 1}"),
])
def test_evaluate_wrong_reference_file_type_names_path_and_line(tmp_path, capsys, second, message):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text("".join(json.dumps({"id": i, "candidate": "x"}) + "\n" for i in "ab"))
    refs.write_text(json.dumps({"id": "a", "report": "x"}) + f"\n{second}\n")
    assert main(["evaluate", "--candidates", str(cands), "--references", str(refs)]) == 1
    assert f"{refs}:2: {message}" in capsys.readouterr().err


def test_evaluate_ignores_case(tmp_path, capsys):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "a", "candidate": "There is a DOT in r1c2 .",
                                "references": ["there IS a dot in R1C2 ."]}) + "\n")
    assert main(["evaluate", "--candidates", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["bleu_4"] == pytest.approx(1.0) and report["rouge_l"] == pytest.approx(1.0)


def test_evaluate_reference_record_without_report_names_path_and_line(tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    refs = tmp_path / "r.jsonl"
    cands.write_text(json.dumps({"id": "a", "candidate": "x"}) + "\n")
    refs.write_text(json.dumps({"id": "a"}) + "\n")
    assert main(["evaluate", "--candidates", str(cands), "--references", str(refs)]) == 1
    assert f"{refs}:1: missing field 'report'" in capsys.readouterr().err


@pytest.mark.parametrize("with_refs", [False, True])
def test_evaluate_empty_reference_list_names_path_and_line(tmp_path, capsys, with_refs):
    cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    cands.write_text(json.dumps({"id": "a", "candidate": "x", "references": []}) + "\n")
    refs.write_text(json.dumps({"id": "a", "references": []}) + "\n")
    args = ["evaluate", "--candidates", str(cands)] + (["--references", str(refs)] if with_refs else [])
    assert main(args) == 1
    assert f"{refs if with_refs else cands}:1: field 'references' is empty" in capsys.readouterr().err


def test_evaluate_empty_candidates_file_names_it(tmp_path, capsys):
    cands = tmp_path / "c.jsonl"
    cands.write_text("\n")
    assert main(["evaluate", "--candidates", str(cands)]) == 1
    assert f"error: {cands}: no candidate records" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["synth --out file", "train --out file", "generate --out dir",
                                  "evaluate --out dir", "evaluate --candidates dir"])
def test_a_path_taken_by_a_file_or_directory_is_named(tmp_path, request, capsys, case):
    command, flag, kind = case.split()
    path = tmp_path / "taken"
    if kind == "file":
        path.touch()
    else:
        path.mkdir()
    cands = tmp_path / "c.jsonl"
    cands.write_text(json.dumps({"id": "a", "candidate": "x", "references": ["x"]}) + "\n")
    fixture = request.getfixturevalue
    args = {"synth": lambda: synth_args(path),
            "train": lambda: ["train", "--data", str(fixture("dataset_dir")), "--out", str(path),
                              "--quiet", "--set", *MICRO_SET],
            "generate": lambda: ["generate", "--run", str(fixture("run_dir")), "--data",
                                 str(fixture("dataset_dir") / "test.jsonl"), "--out", str(path)],
            "evaluate": lambda: ["evaluate", "--candidates", str(cands), flag, str(path)]}[command]()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("case", ["evaluate --candidates", "train --config", "inspect-maps --classes"])
def test_a_file_that_is_not_utf8_is_named(tmp_path, request, capsys, case):
    command, flag = case.split()
    path = tmp_path / "binary"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00")
    fixture = request.getfixturevalue
    args = {"evaluate": lambda: ["evaluate", flag, str(path)],
            "train": lambda: ["train", "--data", str(fixture("dataset_dir")), flag, str(path),
                              "--out", str(tmp_path / "run2"), "--quiet"],
            "inspect-maps": lambda: ["inspect-maps", "--run", str(fixture("run_dir")), "--data",
                                     str(fixture("dataset_dir") / "test.jsonl"),
                                     "--out", str(tmp_path / "maps"), flag, str(path)]}[command]()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_inspect_maps_full_variant(tmp_path, dataset_dir, run_dir):
    out = tmp_path / "maps"
    sample = load_dataset(dataset_dir / "test.jsonl")[0]
    assert main(["inspect-maps", "--run", str(run_dir), "--data",
                 str(dataset_dir / "test.jsonl"), "--id", sample.id,
                 "--out", str(out), "--classes", str(dataset_dir / "classes.json")]) == 0
    vdm = np.loadtxt(out / "vdm_seg0.csv", delimiter=",")
    assert vdm.shape == (2, 2)
    assert vdm.min() >= 0.0 and vdm.max() <= 1.0
    tdm = np.loadtxt(out / "tdm_seg0.csv", delimiter=",")
    assert tdm.shape == (2, 2) and tdm.min() >= 0.0 and tdm.max() <= 1.0
    words = json.loads((out / "selected_words.json").read_text())
    names = [w["word"] for w in words]
    assert len(names) == len(set(names))           # deduplicated
    meta = json.loads((out / "meta.json").read_text())
    assert len(meta["presence"]) == 3

    # every dump is the forward record's array, at the CSV's %.8g precision
    cfg, vocab, model = _load_run(run_dir)
    result = model.forward_train(sample.images, tokenize(sample.report, vocab), sample.labels,
                                 lam=cfg.train.lambda_, delta=cfg.train.delta, k=cfg.vtac.k)

    def dumped(values):
        return np.array([float("%.8g" % v) for v in values]).reshape(2, 2)

    assert np.array_equal(vdm, dumped(result.maps.visual_map))
    assert np.array_equal(tdm, dumped(result.text_map.data))
    for c, name in enumerate(("solid", "hollow", "cross")):
        cam = np.loadtxt(out / f"cam_{name}_seg0.csv", delimiter=",")
        assert np.array_equal(cam, dumped(normalize_map(result.maps.cams[c])))


def test_inspect_maps_names_an_empty_file_and_an_unknown_id(tmp_path, dataset_dir, run_dir,
                                                           capsys):
    empty, test, out = tmp_path / "empty.jsonl", dataset_dir / "test.jsonl", tmp_path / "maps"
    empty.write_text("")
    for data, extra, message in ((empty, [], f"{empty}: no samples"),
                                 (test, ["--id", "nope"], f"sample id 'nope' not found in {test}")):
        assert main(["inspect-maps", "--run", str(run_dir), "--data", str(data),
                     "--out", str(out), *extra]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def test_inspect_maps_rejects_class_names_that_do_not_fit_the_model(tmp_path, dataset_dir,
                                                                    run_dir, capsys):
    path, out = tmp_path / "classes.json", tmp_path / "maps"
    for names, message in ((["a", "b", "c", "d", "e"], "5 class names, the model has 3 classes"),
                           ({"solid": 0}, "class names must be a list of strings"),
                           (["solid", 1, "cross"], "class names must be a list of strings"),
                           (["solid", "cross", "solid"], "class names repeats 'solid'"),
                           (["solid", "a/b", "cross"], "class name 'a/b' holds a '/'")):
        path.write_text(json.dumps(names))
        assert main(["inspect-maps", "--run", str(run_dir), "--data",
                     str(dataset_dir / "test.jsonl"), "--out", str(out),
                     "--classes", str(path)]) == 1
        assert f"{path}: {message}" in capsys.readouterr().err, names
        assert not out.exists()


@pytest.mark.parametrize("variant", ["base", "vdmae", "full"])
def test_inspect_maps_notes_absent_maps(tmp_path, dataset_dir, variant):
    run = tmp_path / f"{variant}_run"
    main(["train", "--data", str(dataset_dir), "--out", str(run), "--quiet",
          "--variant", variant, "--set", *MICRO_SET])
    data = dataset_dir / "test.jsonl"
    if variant == "full":        # a report of unknown words only: no content word to select
        record = json.loads(data.read_text().splitlines()[0])
        data = tmp_path / "unknown_words.jsonl"
        data.write_text(json.dumps({**record, "report": "zzz qqq"}) + "\n")
    out = tmp_path / f"maps_{variant}"
    assert main(["inspect-maps", "--run", str(run), "--data", str(data), "--out", str(out)]) == 0
    visual = variant != "base"
    note = {"base": "which has none", "vdmae": "only visual maps are dumped",
            "full": "no content word of this report was selected"}[variant]
    assert note in (out / "note.txt").read_text()
    assert not (out / "tdm_seg0.csv").exists()
    assert not (out / "selected_words.json").exists()
    assert (out / "vdm_seg0.csv").exists() == visual
    assert all((out / f"cam_class{c}_seg0.csv").exists() == visual for c in range(3))


def test_ablate_emits_three_variant_table(tmp_path, dataset_dir):
    out = tmp_path / "ablation"
    assert main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                 "--quiet", "--set", *MICRO_SET, "train.epochs=1"]) == 0
    rows = json.loads((out / "ablation.json").read_text())
    assert [r["variant"] for r in rows] == ["base", "vdmae", "full"]
    assert rows[0]["avg_delta"] is None
    for row in rows[1:]:
        assert "avg_delta" in row
    # identical seeds per variant
    seeds = {json.loads((out / v / "config.json").read_text())["train.seed"]
             for v in ("base", "vdmae", "full")}
    assert len(seeds) == 1
    table = (out / "ablation.txt").read_text()
    assert "avg_delta" in table and "base" in table


def test_ablate_partial_failure_marked(tmp_path, dataset_dir, monkeypatch):
    import camalign.cli as cli_mod
    real_train = cli_mod.train

    def failing_train(cfg, *args, **kw):
        if cfg.train.variant == "vdmae":
            raise ValueError("intentional failure")
        return real_train(cfg, *args, **kw)

    monkeypatch.setattr(cli_mod, "train", failing_train)
    out = tmp_path / "ablation"
    code = main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                 "--quiet", "--set", *MICRO_SET, "train.epochs=1"])
    assert code == 1
    rows = json.loads((out / "ablation.json").read_text())
    assert rows[1]["variant"] == "vdmae" and "failed" in rows[1]
    assert "failed" in ablation_table(rows)
    assert not rows[0].get("failed") and not rows[2].get("failed")


def test_runs_root_env_var(tmp_path, dataset_dir, monkeypatch):
    monkeypatch.setenv("CAMALIGN_RUNS", str(tmp_path / "env_runs"))
    assert main(["train", "--data", str(dataset_dir), "--quiet",
                 "--set", *MICRO_SET, "train.epochs=1"]) == 0
    assert (tmp_path / "env_runs" / "full-seed7" / "metrics.jsonl").exists()
