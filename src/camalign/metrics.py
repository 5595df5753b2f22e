"""Corpus-level caption metrics: BLEU-1..4, ROUGE-L, CIDEr.

BLEU follows the corpus protocol (clipped counts summed before ratios,
brevity penalty, no smoothing).  ROUGE-L is the LCS F-measure with the
conventional recall weighting ``ROUGE_BETA`` = 1.2, maxed over references and
averaged over samples.  CIDEr is the TF-IDF n-gram cosine over orders 1 to
``CIDER_MAX_N`` = 4, with the Gaussian length penalty (``CIDER_SIGMA`` = 6) and
x10 scale of the original scorer.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .data import normalize

ROUGE_BETA = 1.2
CIDER_MAX_N, CIDER_SIGMA = 4, 6.0


@dataclass
class MetricReport:
    bleu_1: float
    bleu_2: float
    bleu_3: float
    bleu_4: float
    rouge_l: float
    cider: float

    def as_dict(self) -> dict:
        return {"bleu_1": self.bleu_1, "bleu_2": self.bleu_2, "bleu_3": self.bleu_3,
                "bleu_4": self.bleu_4, "rouge_l": self.rouge_l, "cider": self.cider}


def _check_corpus(candidates, references):
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} reference sets")
    if not candidates:
        raise ValueError("empty corpus")


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu_n(candidates, references, n: int) -> float:
    """Corpus BLEU with uniform weights over 1..n-gram precisions."""
    if not 1 <= n <= 4:
        raise ValueError(f"BLEU order must be 1..4, got {n}")
    _check_corpus(candidates, references)
    matched = np.zeros(n)
    total = np.zeros(n)
    cand_len = ref_len = 0
    for cand, refs in zip(candidates, references):
        cand_tokens = normalize(cand)
        ref_token_lists = [normalize(r) for r in refs]
        cand_len += len(cand_tokens)
        # best-match reference length: closest, ties to the shorter
        if ref_token_lists:
            ref_len += min((abs(len(r) - len(cand_tokens)), len(r)) for r in ref_token_lists)[1]
        for order in range(1, n + 1):
            counts = ngram_counts(cand_tokens, order)
            best = Counter()
            for r in ref_token_lists:
                ref_counts = ngram_counts(r, order)
                for gram in counts:
                    best[gram] = max(best[gram], ref_counts.get(gram, 0))
            matched[order - 1] += sum(min(c, best[g]) for g, c in counts.items())
            total[order - 1] += sum(counts.values())
    if (total == 0).any() or (matched == 0).any():
        return 0.0
    log_precision = np.log(matched / total).mean()
    brevity = 1.0 if cand_len > ref_len else np.exp(1.0 - ref_len / max(1, cand_len))
    return float(brevity * np.exp(log_precision))


def _lcs_length(a, b) -> int:
    table = np.zeros((len(a) + 1, len(b) + 1), dtype=np.int64)
    for i, x in enumerate(a, start=1):
        for j, y in enumerate(b, start=1):
            table[i, j] = table[i - 1, j - 1] + 1 if x == y else max(table[i - 1, j], table[i, j - 1])
    return int(table[len(a), len(b)])


def rouge_l(candidates, references) -> float:
    """Mean over samples of the best-reference LCS F-measure."""
    _check_corpus(candidates, references)
    scores = []
    for cand, refs in zip(candidates, references):
        cand_tokens = normalize(cand)
        best = 0.0
        for r in refs:
            ref_tokens = normalize(r)
            if not cand_tokens or not ref_tokens:
                continue
            lcs = _lcs_length(cand_tokens, ref_tokens)
            if lcs == 0:
                continue
            precision = lcs / len(cand_tokens)
            recall = lcs / len(ref_tokens)
            f = (1 + ROUGE_BETA ** 2) * precision * recall / (recall + ROUGE_BETA ** 2 * precision)
            best = max(best, f)
        scores.append(best)
    return float(np.mean(scores))


def cider(candidates, references) -> float:
    """TF-IDF weighted n-gram cosine, length-penalised, averaged over orders.

    Document frequency counts, per n-gram, the reference sets containing it;
    vectors are raw counts times idf.  Per-sample scores are meaned over
    references and orders, scaled by 10, then meaned over the corpus.
    """
    _check_corpus(candidates, references)
    corpus_size = len(references)
    doc_freq = [Counter() for _ in range(CIDER_MAX_N)]
    for refs in references:
        seen = [set() for _ in range(CIDER_MAX_N)]
        for r in refs:
            tokens = normalize(r)
            for order in range(1, CIDER_MAX_N + 1):
                seen[order - 1].update(ngram_counts(tokens, order))
        for order in range(CIDER_MAX_N):
            for gram in seen[order]:
                doc_freq[order][gram] += 1
    log_corpus = np.log(float(corpus_size))

    def vectorise(tokens):
        vecs, norms = [], []
        for order in range(1, CIDER_MAX_N + 1):
            counts = ngram_counts(tokens, order)
            vec = {g: c * (log_corpus - np.log(max(1.0, doc_freq[order - 1].get(g, 0.0))))
                   for g, c in counts.items()}
            vecs.append(vec)
            norms.append(np.sqrt(sum(v * v for v in vec.values())))
        return vecs, norms, len(tokens)

    sample_scores = []
    for cand, refs in zip(candidates, references):
        cand_vecs, cand_norms, cand_len = vectorise(normalize(cand))
        per_order = np.zeros(CIDER_MAX_N)
        for r in refs:
            ref_vecs, ref_norms, ref_len = vectorise(normalize(r))
            penalty = np.exp(-((cand_len - ref_len) ** 2) / (2.0 * CIDER_SIGMA ** 2))
            for order in range(CIDER_MAX_N):
                dot = sum(v * ref_vecs[order].get(g, 0.0) for g, v in cand_vecs[order].items())
                if cand_norms[order] > 0 and ref_norms[order] > 0:
                    per_order[order] += penalty * dot / (cand_norms[order] * ref_norms[order])
        sample_scores.append(10.0 * per_order.mean() / max(1, len(refs)))
    return float(np.mean(sample_scores))


def evaluate_corpus(candidates, references) -> MetricReport:
    return MetricReport(
        bleu_1=bleu_n(candidates, references, 1),
        bleu_2=bleu_n(candidates, references, 2),
        bleu_3=bleu_n(candidates, references, 3),
        bleu_4=bleu_n(candidates, references, 4),
        rouge_l=rouge_l(candidates, references),
        cider=cider(candidates, references))
