"""Corpus-level BLEU-4 with clipped modified n-gram precisions pooled over
the corpus, exponential brevity penalty, whitespace tokenization, and no
smoothing: any order with zero matches gives BLEU 0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import DataError

MAX_ORDER = 4


@dataclass
class BleuReport:
    bleu: float                       # corpus BLEU in [0, 100]
    precisions: tuple[float, ...]     # modified n-gram precisions, n=1..4
    brevity_penalty: float
    candidate_len: int                # total candidate tokens
    reference_len: int                # total reference tokens
    matches: tuple[int, ...]          # clipped matches per order
    totals: tuple[int, ...]           # candidate n-gram counts per order

    def records(self) -> list[dict[str, object]]:
        return [{
            "bleu": round(self.bleu, 4),
            "precisions": [round(p, 6) for p in self.precisions],
            "brevity_penalty": round(self.brevity_penalty, 6),
            "candidate_len": self.candidate_len,
            "reference_len": self.reference_len,
        }]


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n])
                   for i in range(len(tokens) - n + 1))


def _combine(precisions, totals, bp: float) -> float:
    """Geometric mean over the orders that exist in the candidates.

    Orders where the corpus has no candidate n-grams at all (every sentence
    shorter than n) carry no evidence and are excluded, so identical short
    corpora still score 100. An existing order with zero matches gives
    BLEU 0: no smoothing.
    """
    logs = []
    for p, t in zip(precisions, totals):
        if t == 0:
            continue
        if p == 0.0:
            return 0.0
        logs.append(math.log(p))
    if not logs:
        return 0.0
    return bp * math.exp(sum(logs) / len(logs)) * 100.0


def bleu_corpus(candidates: list[str], references: list[str]) -> BleuReport:
    """Corpus BLEU with one reference per candidate.

    Clipped n-gram matches and totals are pooled over all pairs before the
    precision ratio is taken; the brevity penalty is exp(1 - r/c) when the
    candidate corpus is shorter than the reference corpus, else 1.
    """
    if len(candidates) != len(references):
        raise DataError(f"candidate/reference counts differ: "
                        f"{len(candidates)} vs {len(references)}")
    if not candidates:
        raise DataError("bleu_corpus needs a non-empty corpus")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    cand_len = 0
    ref_len = 0
    for cand, ref in zip(candidates, references):
        c_toks = cand.split()
        r_toks = ref.split()
        cand_len += len(c_toks)
        ref_len += len(r_toks)
        for n in range(1, MAX_ORDER + 1):
            c_counts = _ngrams(c_toks, n)
            if not c_counts:
                continue
            r_counts = _ngrams(r_toks, n)
            totals[n - 1] += sum(c_counts.values())
            matches[n - 1] += sum(min(count, r_counts[gram])
                                  for gram, count in c_counts.items())
    precisions = tuple(m / t if t else 0.0 for m, t in zip(matches, totals))
    if cand_len == 0 or cand_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / cand_len)
    bleu = _combine(precisions, totals, bp)
    return BleuReport(bleu, precisions, bp, cand_len, ref_len,
                      tuple(matches), tuple(totals))
