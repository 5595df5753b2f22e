"""Tests of the benchmark's own machinery: python -m pytest perfbench"""
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import report  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from camalign import data, training  # noqa: E402
from camalign.config import load_config  # noqa: E402
from camalign.model import build_model  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


# -- percentiles with sample counts ---------------------------------------------


def test_percentiles_carry_sample_counts():
    values = list(range(1, 101))
    p50 = report.summarize(values, 50)
    assert p50 == {"value": 50.5, "n": 100, "supported": True}
    p90 = report.summarize(values, 90)
    assert p90["n"] == 100 and p90["supported"]
    assert math.isclose(p90["value"], 90.1)


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert not report.summarize(list(range(99)), 90)["supported"]
    assert report.summarize(list(range(100)), 90)["supported"]
    assert report.summarize([3.0], 50) == {"value": 3.0, "n": 1, "supported": True}


def test_printed_metrics_show_unit_and_count(capsys):
    report.print_metrics("m:", {"greedy_ms_p90": report.metric(12.5, "ms", 40, supported=False)})
    line = capsys.readouterr().out.splitlines()[1]
    assert "greedy_ms_p90" in line and "ms" in line and "n=40" in line
    assert "fewer than 10 samples" in line


def test_result_line_has_exactly_the_contract_keys():
    line = json.loads(report.result_line(True, 3, 0, {"setup_s": report.metric(0.5, "s", 7)}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"] == {"setup_s": {"value": 0.5, "unit": "s"}}


def test_token_rates_pool_each_unit_and_take_the_median_over_units():
    def unit(*greedy):
        return workloads.Unit(wall=1.0, busy=1.0, samples=1, steps=0,
                              decodes=[(1, t, [4] * n) for t, n in greedy] + [(3, 1.0, [4] * 6)])

    # pooled greedy rates 40/4 = 10, 10/2 = 5 and 20/1 = 20 tokens/s; the
    # median of the four per-sample rates (30, 3.3, 5, 20) would be 12.5
    units = [unit((1.0, 30), (3.0, 10)), unit((2.0, 10)), unit((1.0, 20))]
    out = workloads.end_to_end(units, [0.3, 0.1, 0.2])
    assert out["greedy_tokens_per_s"]["value"] == 10.0
    assert out["greedy_tokens_per_s"]["n"] == 4
    assert out["beam3_tokens_per_s"]["value"] == 6.0
    assert out["setup_s"]["value"] == 0.2 and out["setup_s"]["n"] == 3


# -- self time of nested spans ----------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer = tracer.begin("outer")            # 0 .. 100
    clock.now = 10
    child = tracer.begin("child")            # 10 .. 60
    clock.now = 20
    grandchild = tracer.begin("grandchild")  # 20 .. 50
    clock.now = 50
    tracer.end(grandchild)
    clock.now = 60
    tracer.end(child)
    clock.now = 70
    tracer.call("second", lambda: setattr(clock, "now", 90))   # 70 .. 90
    clock.now = 100
    tracer.end(outer)
    assert spans.self_times(tracer.spans) == [100 - 50 - 20, 50 - 30, 30, 20]
    assert spans.root_names(tracer.spans) == ["outer"] * 4


def test_self_time_counts_overlapping_children_once():
    raw = [["p", 0, 100, -1, 0], ["a", 10, 50, 0, 0], ["b", 40, 70, 0, 0], ["c", 90, 120, 0, 0]]
    assert spans.self_times(raw)[0] == 100 - (70 - 10) - (100 - 90)


def test_end_closes_spans_left_open_inside():
    clock = FakeClock()
    tracer = spans.Tracer(clock=clock)
    outer = tracer.begin("outer")
    tracer.begin("step")
    clock.now = 5
    tracer.end(outer)
    assert [s[spans.END] for s in tracer.spans] == [5, 5]


def test_spans_of_one_step_share_a_group():
    tracer = spans.Tracer(clock=FakeClock())
    train = tracer.begin("training.train")
    for _ in range(2):
        step = tracer.begin("training.step")
        tracer.call("model.forward_train", lambda: tracer.call("backbone.decoder", lambda: None))
        tracer.end(step)
    tracer.end(train)
    groups = [s[spans.GROUP] for s in tracer.spans]
    assert groups == [0, 1, 1, 1, 2, 2, 2]


# -- output checks ------------------------------------------------------------------


def test_candidate_check_trips_on_corruption():
    assert checks.candidate([5, 6, 2], vocab_size=10, max_len=24) == []
    assert checks.candidate([5, 10, 2], vocab_size=10, max_len=24)      # id outside vocab
    assert checks.candidate([-1], vocab_size=10, max_len=24)
    assert checks.candidate([5] * 25, vocab_size=10, max_len=24)        # over the cap
    assert checks.candidate([], vocab_size=10, max_len=24)


def test_loss_check_trips_on_non_finite_terms():
    good = {"epoch": 1, "split": "train", "ce": 1.0, "bce": 0.5, "mse": 0.0, "total": 1.5}
    assert checks.loss_records([good]) == []
    for bad_value in (float("nan"), float("inf"), None):
        assert checks.loss_records([{**good, "mse": bad_value}])


TINY = {"model.layers": 1, "model.heads": 2, "model.dim": 8, "model.feat_dim": 8,
        "model.classes": 3, "model.max_len": 8, "decode.max_len": 8, "train.batch": 4,
        "train.epochs": 1, "train.patience": 1}


def _tiny_data(n=10):
    spec = data.SyntheticSpec(grid=8, patches=2, classes=data.GLYPH_NAMES[:3],
                              glyph_min=1, glyph_max=1, samples=n, seed=3)
    return data.generate_synthetic(spec)[0]


def test_run_dir_check_passes_a_real_run_and_trips_on_damage(tmp_path):
    samples = _tiny_data()
    cfg = load_config(None, TINY)
    training.train(cfg, samples[:8], samples[8:], tmp_path)
    assert checks.run_dir(tmp_path, epochs=1) == []
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    (tmp_path / "metrics.jsonl").write_text(
        "\n".join(lines[:-1] + [lines[-1].replace('"ce": ', '"ce": NaN, "was": ')]))
    assert any("ce=nan" in v for v in checks.run_dir(tmp_path, epochs=1))
    (tmp_path / "checkpoint_last.bin").write_bytes(b"FTAR")
    assert any("checkpoint_last.bin" in v for v in checks.run_dir(tmp_path, epochs=1))


def test_greedy_matches_beam_width_one():
    samples = _tiny_data(4)
    cfg = load_config(None, TINY)
    vocab = data.build_vocab([s.report for s in samples])
    caption_model = build_model(cfg, len(vocab), np.random.default_rng(0))
    assert checks.greedy_matches_beam1(caption_model, samples[0], max_len=8) == []


# -- tracing leaves outputs and the program unchanged ---------------------------------


def test_tracing_changes_no_output_and_uninstalls_cleanly(tmp_path):
    samples = _tiny_data()
    cfg = load_config(None, TINY)
    before = {name: getattr(training, name) for name in dir(training)}
    make, init = spans.autodiff._make, spans.autodiff.Tensor.__init__

    plain = training.train(cfg, samples[:8], samples[8:], tmp_path / "plain")
    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    try:
        tracer.phase = "train"
        traced = tracer.call("training.train", training.train, cfg, samples[:8], samples[8:],
                             tmp_path / "traced")
    finally:
        patcher.restore()

    assert {name: getattr(training, name) for name in dir(training)} == before
    assert (spans.autodiff._make, spans.autodiff.Tensor.__init__) == (make, init)
    assert traced.history == plain.history
    assert (tmp_path / "plain" / "checkpoint_last.bin").read_bytes() == \
        (tmp_path / "traced" / "checkpoint_last.bin").read_bytes()
    counts = tracer.counts["train"]
    assert counts["steps"] == 2 and counts["tape_nodes"] > 0
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"training.step", "backbone.encoder.block0.attn", "backbone.decoder.block0.cross",
            "decoding.step", "optim.adam", "autodiff.backward"} <= names


def test_recorder_keeps_emitted_ids():
    samples = _tiny_data(4)
    cfg = load_config(None, TINY)
    vocab = data.build_vocab([s.report for s in samples])
    caption_model = build_model(cfg, len(vocab), np.random.default_rng(1))
    recorder, patcher = spans.Recorder(), spans.Patcher()
    recorder.install(patcher)
    try:
        text = training.generate_report(caption_model, samples[0], vocab, 3, 8)
    finally:
        patcher.restore()
    (beam, seconds, ids), = recorder.decodes
    assert beam == 3 and seconds > 0
    assert text == data.detokenize(ids, vocab)
