"""In-memory spans around the calls into camalign's public functions.

The tracer patches module attributes and class methods of the imported
``camalign`` package from the benchmark's side, so the program's own files
stay untouched and an uninstalled tracer leaves no trace behind.  A span
records its name, start and end (``perf_counter_ns``), the index of the span
that was open when it began, and a group id that the spans of one optimizer
step or one decoded sample share.  Layer metrics are counts and self time:
a span's duration minus the part of it that its direct children cover.

``Recorder`` is the light hook the untraced run keeps: it times each decoded
sample and keeps the emitted token ids, which the caller of ``train`` cannot
see otherwise.
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from camalign import (autodiff, backbone, consistency, data, decoding, discrim,
                      model, optim, saliency, training)

# Spans that open a new group unless an enclosing span already has one.
GROUP_ROOTS = frozenset({"training.step", "training.generate_report", "model.forward_train"})

NAME, START, END, PARENT, GROUP = range(5)


class Patcher:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make):
        original = vars(owner)[name]
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []                    # [name, start, end, parent, group]
        self.counts = defaultdict(Counter)  # phase -> counter name -> value
        self.phase = "setup"
        self.names = {}                    # id(component) -> span name
        self._stack = []
        self._groups = 0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        group = self.spans[parent][GROUP] if parent >= 0 else 0
        if group == 0 and name in GROUP_ROOTS:
            self._groups += 1
            group = self._groups
        self.spans.append([name, self.clock(), None, parent, group])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        """Close ``index`` and any span still open inside it."""
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][END] = now
            if top == index:
                break

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def count(self, key: str, n=1) -> None:
        self.counts[self.phase][key] += n

    def register_model(self, caption_model) -> None:
        """Name the model's blocks so class-level wrappers know which one ran."""
        names = self.names
        names[id(caption_model.extractor)] = "backbone.extractor"
        names[id(caption_model.encoder)] = "backbone.encoder"
        for i, block in enumerate(caption_model.encoder.blocks):
            prefix = f"backbone.encoder.block{i}"
            names[id(block)] = prefix
            names[id(block.attn)] = prefix + ".attn"
            names[id(block.ffn)] = prefix + ".ffn"
            names[id(block.norm1)] = names[id(block.norm2)] = prefix + ".norm"
        names[id(caption_model.decoder)] = "backbone.decoder"
        for i, block in enumerate(caption_model.decoder.blocks):
            prefix = f"backbone.decoder.block{i}"
            names[id(block)] = prefix
            names[id(block.self_attn)] = prefix + ".self"
            names[id(block.cross_attn)] = prefix + ".cross"
            names[id(block.ffn)] = prefix + ".ffn"
            for norm in (block.norm1, block.norm2, block.norm3):
                names[id(norm)] = prefix + ".norm"


def self_times(spans) -> list:
    """Each span's duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0, start
        for s, e in sorted(children.get(index, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def root_names(spans) -> list:
    """Name of the outermost enclosing span of each span (itself when top-level)."""
    roots = []
    for span in spans:
        parent = span[PARENT]
        roots.append(span[NAME] if parent < 0 else roots[parent])
    return roots


class Recorder:
    """Times every ``generate_report`` call and keeps the emitted token ids."""

    def __init__(self):
        self.decodes = []       # (beam width, seconds, token ids)
        self._ids = None

    def install(self, patcher: Patcher) -> None:
        def searched(original):
            def wrapper(*args, **kwargs):
                self._ids = original(*args, **kwargs)
                return self._ids
            return wrapper

        def timed(original):
            def wrapper(m, sample, vocab, beam, max_len):
                start = time.perf_counter()
                text = original(m, sample, vocab, beam, max_len)
                self.decodes.append((beam, time.perf_counter() - start, list(self._ids)))
                return text
            return wrapper

        patcher.wrap(training, "greedy_decode", searched)
        patcher.wrap(training, "beam_search", searched)
        patcher.wrap(training, "generate_report", timed)


def _op_name() -> str:
    """Primitive that called ``_make``: the caller's caller's function name."""
    frame = sys._getframe(2)
    if frame.f_code.co_name == "_extremum":
        frame = frame.f_back
    return frame.f_code.co_name


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every layer boundary the per-layer metrics need."""
    clock = tracer.clock
    state = {"step": None, "val_depth": 0, "decode_depth": 0, "search_len": 0}

    def span(name):
        def make(original):
            def wrapper(*args, **kwargs):
                return tracer.call(name, original, *args, **kwargs)
            return wrapper
        return make

    def component(fallback):
        def make(original):
            def wrapper(self, *args, **kwargs):
                return tracer.call(tracer.names.get(id(self), fallback), original,
                                   self, *args, **kwargs)
            return wrapper
        return make

    # -- autodiff: tensors, graph nodes, per-op backward time, layer norm ------
    def counted_init(original):
        def wrapper(self, *args, **kwargs):
            if state["step"] is not None:
                tracer.count("step_tensors")
            original(self, *args, **kwargs)
        return wrapper

    def timed_make(original):
        def wrapper(data_, parents, backward_fn):
            out = original(data_, parents, backward_fn)
            if out._backward is not None:
                op = _op_name()
                if state["decode_depth"]:
                    tracer.count("decode_nodes")

                def timed_backward(g, _fn=out._backward, _op=op):
                    start = clock()
                    _fn(g)
                    tracer.count("backward_ns." + _op, clock() - start)

                timed_backward.op = op
                out._backward = timed_backward
            return out
        return wrapper

    def timed_layer_norm(original):
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                tracer.count("layer_norm_ns", clock() - start)
        return wrapper

    def counted_backward(original):
        def wrapper(loss, *args, **kwargs):
            tape = tracer.call("autodiff.backward", original, loss, *args, **kwargs)
            tracer.count("tape_nodes", len(tape.nodes))
            for node in tape.nodes:
                tracer.count("nodes." + getattr(node._backward, "op", "leaf"))
            return tape
        return wrapper

    patcher.wrap(autodiff.Tensor, "__init__", counted_init)
    patcher.wrap(autodiff, "_make", timed_make)
    for owner in (autodiff, backbone, discrim):
        patcher.wrap(owner, "layer_norm", timed_layer_norm)
    patcher.wrap(training, "backward", counted_backward)

    # -- backbone --------------------------------------------------------------
    patcher.wrap(backbone.PatchExtractor, "__call__", component("backbone.extractor"))
    patcher.wrap(backbone.Encoder, "__call__", component("backbone.encoder"))
    patcher.wrap(backbone.EncoderBlock, "__call__", component("backbone.encoder.block"))
    patcher.wrap(backbone.Decoder, "__call__", component("backbone.decoder"))
    patcher.wrap(backbone.DecoderBlock, "__call__", component("backbone.decoder.block"))
    patcher.wrap(backbone.MultiHeadAttention, "__call__", component("backbone.attention"))
    patcher.wrap(backbone.FeedForward, "__call__", component("backbone.ffn"))
    patcher.wrap(backbone._Norm, "__call__", component("backbone.norm"))

    # -- saliency, discrim, consistency, losses, model ----------------------------
    patcher.wrap(saliency, "visual_map_from_features", span("saliency.visual_map"))
    for name in ("discriminative_representation", "normalize_representation",
                 "inject_token", "split_memory"):
        patcher.wrap(discrim, name, span("discrim"))
    patcher.wrap(consistency, "word_similarities", span("consistency.word_sim"))
    patcher.wrap(consistency, "textual_map", span("consistency.textual_map"))
    patcher.wrap(consistency, "consistency_loss", span("consistency.loss"))

    def counted_select(original):
        def wrapper(*args, **kwargs):
            selected = original(*args, **kwargs)
            tracer.count("selected_words", len(selected))
            return selected
        return wrapper

    patcher.wrap(consistency, "select_important_words", counted_select)
    patcher.wrap(model, "report_cross_entropy", span("losses.ce"))
    patcher.wrap(model, "label_bce", span("losses.bce"))
    patcher.wrap(model.CaptionModel, "forward_train", span("model.forward_train"))
    patcher.wrap(model.CaptionModel, "encode_images", span("model.encode"))

    # -- decoding --------------------------------------------------------------
    def traced_step_fn(original):
        def wrapper(self, images):
            step = original(self, images)

            def traced_step(prefix_ids):
                tracer.count("step_calls")
                tracer.count("positions", len(prefix_ids))
                state["search_len"] = max(state["search_len"], len(prefix_ids))
                return tracer.call("decoding.step", step, prefix_ids)
            return traced_step
        return wrapper

    def traced_search(name, kind):
        def make(original):
            def wrapper(*args, **kwargs):
                state["search_len"] = 0
                ids = tracer.call(name, original, *args, **kwargs)
                tracer.count(kind + "_tokens", len(ids))
                tracer.count(kind + "_iterations", state["search_len"])
                return ids
            return wrapper
        return make

    def counted_beam(original):
        def wrapper(self, *args, **kwargs):
            tracer.count("beams")
            original(self, *args, **kwargs)
        return wrapper

    def traced_generate(original):
        def wrapper(*args, **kwargs):
            state["decode_depth"] += 1
            try:
                return tracer.call("training.generate_report", original, *args, **kwargs)
            finally:
                state["decode_depth"] -= 1
        return wrapper

    patcher.wrap(model.CaptionModel, "step_fn", traced_step_fn)
    patcher.wrap(training, "greedy_decode", traced_search("decoding.greedy", "greedy"))
    patcher.wrap(training, "beam_search", traced_search("decoding.beam", "beam"))
    patcher.wrap(decoding.Beam, "__init__", counted_beam)
    patcher.wrap(training, "generate_report", traced_generate)

    # -- training loop, optimizer, checkpoints, metrics, data ---------------------
    def step_opener(original):
        def wrapper(*args, **kwargs):
            if state["step"] is None and not state["val_depth"]:
                state["step"] = tracer.begin("training.step")
            return original(*args, **kwargs)
        return wrapper

    def step_closer(original):
        def wrapper(*args, **kwargs):
            tracer.call("optim.adam", original, *args, **kwargs)
            if state["step"] is not None:
                tracer.end(state["step"])
                state["step"] = None
                tracer.count("steps")
        return wrapper

    def traced_validation(original):
        def wrapper(*args, **kwargs):
            state["val_depth"] += 1
            try:
                return tracer.call("training.evaluate_split", original, *args, **kwargs)
            finally:
                state["val_depth"] -= 1
        return wrapper

    def registering_build(original):
        def wrapper(*args, **kwargs):
            built = original(*args, **kwargs)
            tracer.register_model(built)
            return built
        return wrapper

    patcher.wrap(training, "sample_losses", step_opener)
    patcher.wrap(optim.Adam, "step", step_closer)
    patcher.wrap(training, "evaluate_split", traced_validation)
    patcher.wrap(training, "build_model", registering_build)
    patcher.wrap(training, "save_params", span("checkpoint.save"))
    patcher.wrap(training, "evaluate_corpus", span("metrics.evaluate"))
    patcher.wrap(data, "generate_synthetic", span("data.generate"))
