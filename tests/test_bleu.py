import math

import pytest

from codemix.bleu import _combine, bleu_corpus
from codemix.errors import DataError
from codemix.numerics import make_rng

from oracles import bleu_bruteforce


def recompute(report) -> float:
    """BLEU from a report's stored fields (consistency invariant)."""
    return _combine(report.precisions, report.totals, report.brevity_penalty)


class TestFixedCases:
    def test_identical_corpus_is_100(self):
        cands = ["red shoe cover for phone", "kala juta wala dori",
                 "battery for redmi phone"]
        report = bleu_corpus(cands, list(cands))
        assert report.bleu == pytest.approx(100.0, abs=1e-9)
        assert report.brevity_penalty == 1.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)

    def test_identical_short_corpus_still_100(self):
        # no 4-grams exist anywhere: the order is absent, not failed
        cands = ["red shoe", "kala juta wala"]
        report = bleu_corpus(cands, list(cands))
        assert report.bleu == pytest.approx(100.0, abs=1e-9)
        assert report.totals[3] == 0

    def test_disjoint_tokens_is_0(self):
        report = bleu_corpus(["a b c d", "e f g h"],
                             ["w x y z", "p q r s"])
        assert report.bleu == 0.0

    def test_clipping_case(self):
        # candidate "the the the the" vs reference "the cat sat":
        # unigram matches clip at 1 occurrence of "the" -> p1 = 1/4;
        # no bigram matches -> BLEU 0 without smoothing
        report = bleu_corpus(["the the the the"], ["the cat sat"])
        assert report.precisions[0] == pytest.approx(0.25)
        assert report.precisions[1] == 0.0
        assert report.bleu == 0.0

    def test_brevity_penalty_applied(self):
        # candidate shorter than reference with perfect precisions
        report = bleu_corpus(["a b c d e"], ["a b c d e f g"])
        assert report.brevity_penalty == pytest.approx(math.exp(1 - 7 / 5))
        assert 0 < report.bleu < 100

    def test_no_penalty_when_longer(self):
        report = bleu_corpus(["a b c d e f g"], ["a b c d e"])
        assert report.brevity_penalty == 1.0


class TestReportInvariants:
    def test_internal_consistency(self):
        rng = make_rng(50)
        vocab = [f"w{i}" for i in range(12)]
        cands, refs = [], []
        for _ in range(10):
            n = int(rng.integers(3, 9))
            cands.append(" ".join(vocab[int(i)]
                                  for i in rng.integers(0, 12, n)))
            refs.append(" ".join(vocab[int(i)]
                                 for i in rng.integers(0, 12, n)))
        report = bleu_corpus(cands, refs)
        assert abs(report.bleu - recompute(report)) < 1e-9

    def test_pair_permutation_invariance(self):
        rng = make_rng(51)
        vocab = [f"w{i}" for i in range(6)]
        cands, refs = [], []
        for _ in range(8):
            n = int(rng.integers(2, 7))
            cands.append(" ".join(vocab[int(i)] for i in rng.integers(0, 6, n)))
            refs.append(" ".join(vocab[int(i)] for i in rng.integers(0, 6, n)))
        base = bleu_corpus(cands, refs)
        order = rng.permutation(len(cands))
        shuf = bleu_corpus([cands[i] for i in order], [refs[i] for i in order])
        assert shuf.bleu == base.bleu
        assert shuf.matches == base.matches

    def test_errors(self):
        with pytest.raises(DataError):
            bleu_corpus(["a"], [])
        with pytest.raises(DataError):
            bleu_corpus([], [])


class TestOracleAgreement:
    def test_twenty_random_small_corpora(self):
        rng = make_rng(52)
        for trial in range(20):
            vocab = [f"t{i}" for i in range(int(rng.integers(3, 10)))]
            n_pairs = int(rng.integers(1, 9))
            cands, refs = [], []
            for _ in range(n_pairs):
                ln_c = int(rng.integers(1, 10))
                ln_r = int(rng.integers(1, 10))
                cands.append(" ".join(
                    vocab[int(i)] for i in rng.integers(0, len(vocab), ln_c)))
                refs.append(" ".join(
                    vocab[int(i)] for i in rng.integers(0, len(vocab), ln_r)))
            fast = bleu_corpus(cands, refs).bleu
            slow = bleu_bruteforce(cands, refs)
            assert fast == pytest.approx(slow, abs=1e-6), f"trial {trial}"

    def test_overlapping_repeated_ngrams(self):
        cands = ["a a b a a", "b b a"]
        refs = ["a a a b", "a b b"]
        assert bleu_corpus(cands, refs).bleu == pytest.approx(
            bleu_bruteforce(cands, refs), abs=1e-9)
