"""Tokenizer, dataset files, and the synthetic glyph-grid generator.

Synthetic samples place named glyphs on disjoint patch-aligned cells of a
square grid and describe each one with a templated sentence, so every word,
label, and image region has an exact, known correspondence.  A sidecar file
records the glyph-to-patch mapping for alignment tests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

PAD, BOS, EOS, UNK = 0, 1, 2, 3
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<bos>", "<eos>", "<unk>"
RESERVED = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN)
CONTROL_TOKENS = frozenset((PAD_TOKEN, BOS_TOKEN, EOS_TOKEN))


class DataError(ValueError):
    pass


# -- vocabulary ----------------------------------------------------------------


@dataclass
class Vocab:
    token_to_id: dict
    id_to_token: list

    def __len__(self):
        return len(self.id_to_token)

    def id_of(self, token: str) -> int:
        return self.token_to_id.get(token, UNK)


def normalize(text: str) -> list:
    return text.lower().split()


def build_vocab(corpus, min_freq: int = 1, max_size: int = None) -> Vocab:
    """Frequency-thresholded vocab; deterministic order (freq desc, token asc).

    Literal reserved tokens in the corpus keep their reserved ids.
    """
    counts = {}
    for line in corpus:
        for token in normalize(line):
            if token not in RESERVED:
                counts[token] = counts.get(token, 0) + 1
    if not counts:
        raise DataError("empty corpus")
    kept = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    if max_size is not None:
        kept = kept[: max(0, max_size - len(RESERVED))]
    id_to_token = list(RESERVED) + kept
    return Vocab({t: i for i, t in enumerate(id_to_token)}, id_to_token)


def tokenize(text: str, vocab: Vocab) -> list:
    """BOS, the word ids, EOS; a literal ``<pad>``, ``<bos>`` or ``<eos>`` is UNK."""
    words = [UNK if t in CONTROL_TOKENS else vocab.id_of(t) for t in normalize(text)]
    return [BOS] + words + [EOS]


def detokenize(ids, vocab: Vocab) -> str:
    words = []
    for i in ids:
        if i in (BOS, PAD):
            continue
        if i == EOS:
            break
        words.append(vocab.id_to_token[i])
    return " ".join(words)


# -- samples and file formats ----------------------------------------------------


@dataclass
class Sample:
    id: str
    images: list            # one or two (G, G) float arrays in [0, 1]
    report: str
    labels: np.ndarray      # multi-hot over the class list

    def positive_classes(self):
        return [i for i, y in enumerate(self.labels) if y]


def save_dataset(path, samples) -> None:
    with open(path, "w") as fh:
        for s in samples:
            record = {
                "id": s.id,
                "images": [img.reshape(-1).tolist() for img in s.images],
                "report": s.report,
                "labels": [int(y) for y in s.labels],
            }
            fh.write(json.dumps(record) + "\n")


def read_jsonl(path) -> list:
    """(``path:line``, record) pairs for the non-blank lines of a JSONL file."""
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{where}: malformed JSON ({e.msg})") from e
            if not isinstance(record, dict):
                raise DataError(f"{where}: expected a JSON object")
            records.append((where, record))
    return records


def require_field(where: str, record: dict, key: str):
    """``record[key]``; a missing key is a ``DataError`` naming ``where``."""
    if key not in record:
        raise DataError(f"{where}: missing field {key!r}")
    return record[key]


def load_dataset(path, expected_classes: int = None) -> list:
    samples = []
    for where, record in read_jsonl(path):
        for key in ("id", "images", "report", "labels"):
            require_field(where, record, key)
        if expected_classes is not None and len(record["labels"]) != expected_classes:
            raise DataError(
                f"{where}: labels length {len(record['labels'])} != expected {expected_classes}")
        images = []
        for flat in record["images"]:
            side = int(round(len(flat) ** 0.5))
            if side * side != len(flat):
                raise DataError(f"{where}: image is not a square grid ({len(flat)} values)")
            images.append(np.asarray(flat, dtype=np.float64).reshape(side, side))
        samples.append(Sample(
            id=str(record["id"]), images=images,
            report=str(record["report"]),
            labels=np.asarray(record["labels"], dtype=np.int64)))
    return samples


def save_alignment(path, alignment: dict) -> None:
    """alignment: sample id -> {glyph name: patch index in the token sequence}."""
    with open(path, "w") as fh:
        for sample_id, cells in alignment.items():
            fh.write(json.dumps({"id": sample_id, "glyphs": cells}) + "\n")


def load_alignment(path) -> dict:
    alignment = {}
    for where, record in read_jsonl(path):
        sample_id = require_field(where, record, "id")
        glyphs = require_field(where, record, "glyphs")
        if not (isinstance(glyphs, dict) and all(type(v) is int for v in glyphs.values())):
            raise DataError(f"{where}: field 'glyphs' must map glyph names to cell indices")
        alignment[sample_id] = glyphs
    return alignment


# -- glyph catalogue ----------------------------------------------------------------

GLYPH_NAMES = (
    "solid", "hollow", "cross", "saltire", "hbar", "vbar", "slash",
    "corner", "tee", "ell", "dot", "comb", "bands", "checker",
)


def render_glyph(name: str, p: int) -> np.ndarray:
    """Draw one glyph on a p x p cell (values in {0, 1})."""
    cell = np.zeros((p, p))
    m = p // 2
    if name == "solid":
        cell[:, :] = 1.0
    elif name == "hollow":
        cell[0, :] = cell[-1, :] = cell[:, 0] = cell[:, -1] = 1.0
    elif name == "cross":
        cell[m, :] = cell[:, m] = 1.0
    elif name == "saltire":
        for i in range(p):
            cell[i, i] = cell[i, p - 1 - i] = 1.0
    elif name == "hbar":
        cell[m, :] = 1.0
    elif name == "vbar":
        cell[:, m] = 1.0
    elif name == "slash":
        for i in range(p):
            cell[i, i] = 1.0
    elif name == "corner":
        cell[: max(1, m), : max(1, m)] = 1.0
    elif name == "tee":
        cell[0, :] = cell[:, m] = 1.0
    elif name == "ell":
        cell[:, 0] = cell[-1, :] = 1.0
    elif name == "dot":
        lo, hi = max(0, m - 1), min(p, m + 1)
        cell[lo:hi, lo:hi] = 1.0
    elif name == "comb":
        cell[:, ::2] = 1.0
    elif name == "bands":
        cell[::2, :] = 1.0
    elif name == "checker":
        idx = np.indices((p, p)).sum(axis=0)
        cell[idx % 2 == 0] = 1.0
    else:
        raise DataError(f"unknown glyph {name!r}")
    return cell


# -- synthetic generation ----------------------------------------------------------


@dataclass
class SyntheticSpec:
    grid: int = 28                   # image side length G
    patches: int = 7                 # patch grid side (H = W)
    classes: tuple = GLYPH_NAMES     # glyph catalogue; labels use this order
    glyph_min: int = 1               # glyphs per image, inclusive range
    glyph_max: int = 3
    samples: int = 200
    views: int = 1                   # image grids per sample
    seed: int = 0

    def __post_init__(self):
        if self.grid % self.patches != 0:
            raise DataError(f"grid {self.grid} not divisible by patch grid {self.patches}")
        if not (1 <= self.glyph_min <= self.glyph_max <= len(self.classes)):
            raise DataError("glyph count range invalid (min 1, max at most the catalogue size)")
        if len(self.classes) > self.patches * self.patches:
            raise DataError("glyph catalogue larger than available cells")
        if self.views not in (1, 2):
            raise DataError("views must be 1 or 2")
        if self.samples < 1:
            raise DataError("need at least one sample")


def region_token(view: int, row: int, col: int, views: int) -> str:
    return f"r{row}c{col}" if views == 1 else f"v{view}r{row}c{col}"


def generate_synthetic(spec: SyntheticSpec):
    """Returns (samples, alignment sidecar dict); fully seeded."""
    rng = np.random.default_rng(spec.seed)
    h = spec.patches
    p = spec.grid // h
    samples, alignment = [], {}
    for index in range(spec.samples):
        count = int(rng.integers(spec.glyph_min, spec.glyph_max + 1))
        class_ids = rng.choice(len(spec.classes), size=count, replace=False)
        images = [np.zeros((spec.grid, spec.grid)) for _ in range(spec.views)]
        labels = np.zeros(len(spec.classes), dtype=np.int64)
        sentences, cells = [], {}
        used = set()
        for class_id in class_ids:
            name = spec.classes[class_id]
            while True:
                view = int(rng.integers(spec.views))
                row, col = (int(v) for v in rng.integers(h, size=2))
                if (view, row, col) not in used:
                    used.add((view, row, col))
                    break
            images[view][row * p:(row + 1) * p, col * p:(col + 1) * p] = render_glyph(name, p)
            labels[class_id] = 1
            sentences.append(f"there is a {name} in {region_token(view, row, col, spec.views)} .")
            cells[name] = view * h * h + row * h + col
        absent = [n for i, n in enumerate(spec.classes) if not labels[i]]
        if absent:
            sentences.append(f"there is no {absent[int(rng.integers(len(absent)))]} .")
        sample_id = f"s{index:05d}"
        samples.append(Sample(id=sample_id, images=images,
                              report=" ".join(sentences), labels=labels))
        alignment[sample_id] = cells
    return samples, alignment


def split_dataset(samples, ratios=(0.7, 0.1, 0.2), seed: int = 0):
    """Deterministic shuffled train/val/test split."""
    order = np.random.default_rng(seed).permutation(len(samples))
    n_train = int(round(ratios[0] * len(samples)))
    n_val = int(round(ratios[1] * len(samples)))
    picks = [order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]]
    return tuple([samples[i] for i in part] for part in picks)
