"""Per-layer metrics from a tracer's spans and counters.

On the train workloads a layer's time is its self time inside ``train()``
(validation and checkpoints included) per optimizer step; on ``decode`` it is
per emitted token.  ``*_per_sample``, ``*_per_epoch``, ``step_ms`` and the
``save``/``evaluate`` times are mean span durations per call.  A layer that
does not run on a workload reads 0.
"""
from __future__ import annotations

import statistics
from collections import Counter, defaultdict

from report import metric, summarize
from spans import END, NAME, START, root_names, self_times

OPS = ("add", "sub", "mul", "div", "exp", "log", "sqrt", "relu", "sigmoid", "clip",
       "matmul", "transpose", "reshape", "getitem", "concat", "gather_rows", "tsum",
       "tmax", "tmin", "softmax")
LAYERS = 2
SELF_TIME = {
    "backbone.extractor_ms": "backbone.extractor",
    **{f"backbone.encoder.block{i}.{part}_ms": f"backbone.encoder.block{i}.{part}"
       for i in range(LAYERS) for part in ("attn", "ffn", "norm")},
    **{f"backbone.decoder.block{i}.{part}_ms": f"backbone.decoder.block{i}.{part}"
       for i in range(LAYERS) for part in ("self", "cross", "ffn", "norm")},
    "backbone.decoder.out_ms": "backbone.decoder",
    "saliency.visual_map_ms": "saliency.visual_map",
    "discrim.ms": "discrim",
    "consistency.word_sim_ms": "consistency.word_sim",
    "consistency.textual_map_ms": "consistency.textual_map",
    "consistency.loss_ms": "consistency.loss",
    "losses.ce_ms": "losses.ce",
    "losses.bce_ms": "losses.bce",
}
MEAN_DURATION = {
    "model.forward_train_ms_per_sample": "model.forward_train",
    "model.encode_ms_per_sample": "model.encode",
    "training.val_ms_per_epoch": "training.evaluate_split",
    "checkpoint.save_ms": "checkpoint.save",
    "metrics.evaluate_ms": "metrics.evaluate",
    "decoding.step_ms": "decoding.step",
    "data.generate_ms": "data.generate",
}


def names_and_units() -> dict:
    """Every per-layer metric this module reports, with its unit."""
    units = {
        "autodiff.nodes_per_step": "count", "autodiff.tensors_per_step": "count",
        "autodiff.backward_ms_per_step": "ms", "autodiff.layer_norm_ms_per_step": "ms",
        "autodiff.nodes_per_token": "count",
    }
    units.update({f"autodiff.nodes.{op}": "count" for op in OPS + ("leaf", "other")})
    units.update({f"autodiff.backward_ms.{op}": "ms" for op in OPS + ("other",)})
    units.update({name: "ms" for name in SELF_TIME})
    units["consistency.selected_words_per_sample"] = "count"
    units.update({name: "ms" for name in MEAN_DURATION})
    units.update({
        "optim.adam_ms_per_step": "ms",
        "training.step_ms_p50": "ms", "training.step_ms_p90": "ms",
        "decoding.step_calls_per_token": "count", "decoding.positions_per_token": "count",
        "decoding.useful_position_ratio": "ratio",
        "decoding.search_self_ms_per_token": "ms", "decoding.candidates_per_step": "count",
        "tracing.overhead": "x",
    })
    return units


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer, per_token: bool, overhead: float) -> dict:
    spans = tracer.spans
    total = Counter()
    for counts in tracer.counts.values():
        total.update(counts)
    train = tracer.counts["train"]
    steps = train["steps"]
    tokens = total["greedy_tokens"] + total["beam_tokens"]
    norm = tokens if per_token else steps

    selfs = self_times(spans)
    self_ns, calls, durations = Counter(), Counter(), defaultdict(list)
    for span, own, root in zip(spans, selfs, root_names(spans)):
        durations[span[NAME]].append(span[END] - span[START])
        if per_token or root == "training.train":
            self_ns[span[NAME]] += own
            calls[span[NAME]] += 1

    out = {}
    for name, span_name in SELF_TIME.items():
        out[name] = metric(_ratio(self_ns[span_name] / 1e6, norm), "ms", calls[span_name])
    for name, span_name in MEAN_DURATION.items():
        d = durations[span_name]
        out[name] = metric(statistics.fmean(d) / 1e6 if d else 0.0, "ms", len(d))

    step_ms = [d / 1e6 for d in durations["training.step"]]
    for q in (50, 90):
        s = summarize(step_ms, q) if step_ms else {"value": 0.0, "n": 0, "supported": False}
        out[f"training.step_ms_p{q}"] = metric(s["value"], "ms", s["n"], supported=s["supported"])
    out["optim.adam_ms_per_step"] = metric(
        _ratio(sum(durations["optim.adam"]) / 1e6, steps), "ms", steps)

    out["autodiff.nodes_per_step"] = metric(_ratio(train["tape_nodes"], steps), "count", steps)
    out["autodiff.tensors_per_step"] = metric(_ratio(train["step_tensors"], steps), "count", steps)
    out["autodiff.backward_ms_per_step"] = metric(
        _ratio(sum(durations["autodiff.backward"]) / 1e6, steps), "ms", steps)
    out["autodiff.layer_norm_ms_per_step"] = metric(
        _ratio(train["layer_norm_ns"] / 1e6, steps), "ms", steps)
    out["autodiff.nodes_per_token"] = metric(_ratio(total["decode_nodes"], tokens), "count", tokens)
    nodes = {op: 0 for op in OPS + ("leaf", "other")}
    backward_ns = {op: 0 for op in OPS + ("other",)}
    for key, value in train.items():
        kind, _, op = key.partition(".")
        if kind == "nodes":
            nodes[op if op in nodes else "other"] += value
        elif kind == "backward_ns":
            backward_ns[op if op in backward_ns else "other"] += value
    for op, value in nodes.items():
        out[f"autodiff.nodes.{op}"] = metric(_ratio(value, steps), "count", steps)
    for op, value in backward_ns.items():
        out[f"autodiff.backward_ms.{op}"] = metric(_ratio(value / 1e6, steps), "ms", steps)

    forward_calls = len(durations["model.forward_train"])
    out["consistency.selected_words_per_sample"] = metric(
        _ratio(total["selected_words"], forward_calls), "count", forward_calls)
    out["decoding.step_calls_per_token"] = metric(_ratio(total["step_calls"], tokens), "count", tokens)
    out["decoding.positions_per_token"] = metric(_ratio(total["positions"], tokens), "count", tokens)
    out["decoding.useful_position_ratio"] = metric(_ratio(tokens, total["positions"]), "ratio", tokens)
    beam_self = sum(own for span, own in zip(spans, selfs) if span[NAME] == "decoding.beam")
    out["decoding.search_self_ms_per_token"] = metric(
        _ratio(beam_self / 1e6, total["beam_tokens"]), "ms", total["beam_tokens"])
    out["decoding.candidates_per_step"] = metric(
        _ratio(total["beams"], total["beam_iterations"]), "count", total["beam_iterations"])
    out["tracing.overhead"] = metric(overhead, "x", 1)

    return {name: out[name] for name in names_and_units()}
