from collections import Counter

import pytest

from codemix.augment import (AugKind, LossWeights, aug_autoencoder,
                             aug_dropchar, aug_mask, aug_permute,
                             combined_loss, sample_augmented_batch)
from codemix.errors import DataError
from codemix.numerics import Tensor, make_rng, mul, tsum
from codemix.text import MASK_TOKEN, ParallelExample, build_vocab

from oracles import finite_diff_grad_check


def ex(source="juta bina dori", target="shoe without lace"):
    return ParallelExample(source, target)


class TestAutoencoder:
    def test_uses_target_as_input_and_output(self):
        inp, out = aug_autoencoder(ParallelExample("juta", "shoe"))
        assert (inp, out) == ("shoe", "shoe")

    def test_single_word_identity_pair(self):
        inp, out = aug_autoencoder(ParallelExample("x", "shoe"))
        assert inp == out == "shoe"

    def test_idempotent(self):
        once = aug_autoencoder(ex())
        twice = aug_autoencoder(ParallelExample(once[0], once[1]))
        assert once == twice

    def test_empty_target_rejected(self):
        with pytest.raises(DataError):
            aug_autoencoder(ParallelExample("a", " "))


class TestMask:
    def test_exactly_one_word_masked(self):
        rng = make_rng(0)
        for _ in range(50):
            inp, out = aug_mask(ex(target="red shoes"), rng)
            words = inp.split()
            assert out == "red shoes"
            assert sum(w == MASK_TOKEN for w in words) == 1
            assert len(words) == 2

    def test_single_word_target_fully_masked(self):
        inp, out = aug_mask(ParallelExample("j", "shoe"), make_rng(1))
        assert inp == MASK_TOKEN and out == "shoe"

    def test_fixed_seed_deterministic(self):
        a = aug_mask(ex(), make_rng(7))
        b = aug_mask(ex(), make_rng(7))
        assert a == b


class TestDropChar:
    def test_interior_only_on_single_word(self):
        word = "battery"
        allowed = {word[:i] + word[i + 1:] for i in range(1, len(word) - 1)}
        variants = set()
        rng = make_rng(2)
        for _ in range(300):
            inp, out = aug_dropchar(ParallelExample(word, "b"), rng)
            assert out == "b"
            assert inp in allowed
            variants.add(inp)
        assert variants == allowed  # every interior drop eventually seen

    def test_all_short_words_unchanged(self):
        inp, out = aug_dropchar(ParallelExample("ab cd ef", "t"), make_rng(3))
        assert inp == "ab cd ef"

    def test_fraction_of_words_corrupted(self):
        rng = make_rng(4)
        source = " ".join(["batteries"] * 10)
        counts = []
        for _ in range(300):
            inp, _ = aug_dropchar(ParallelExample(source, "t"), rng)
            counts.append(sum(len(w) == 8 for w in inp.split()))
        # ceil(f * 10) with f ~ U(0.3, 0.5): exactly 4 or 5 words hit
        assert set(counts) == {4, 5}

    def test_never_touches_first_last_quantified(self):
        rng = make_rng(5)
        words = ["semsung", "hajar", "vala", "redami", "biluthuth"]
        for _ in range(10_000 // len(words)):
            inp, _ = aug_dropchar(ParallelExample(" ".join(words), "t"), rng)
            for orig, got in zip(words, inp.split()):
                assert got[0] == orig[0] and got[-1] == orig[-1]

    def test_fixed_seed_deterministic(self):
        a = aug_dropchar(ex(), make_rng(8))
        b = aug_dropchar(ex(), make_rng(8))
        assert a == b


class TestPermute:
    def test_single_word_identity(self):
        inp, out = aug_permute(ParallelExample("x", "shoe"), make_rng(0))
        assert inp == out == "shoe"

    def test_multiset_preserved(self):
        rng = make_rng(1)
        for _ in range(100):
            inp, out = aug_permute(ex(target="a b c d e"), rng)
            assert sorted(inp.split()) == sorted(out.split())
            assert out == "a b c d e"

    def test_all_permutations_reachable(self):
        rng = make_rng(2)
        seen = Counter()
        n = 1000
        for _ in range(n):
            inp, _ = aug_permute(ParallelExample("s", "a b c"), rng)
            seen[inp] += 1
        assert len(seen) == 6
        # chi-square against uniform over 6 cells, p > 0.001
        expected = n / 6
        chi2 = sum((c - expected) ** 2 / expected for c in seen.values())
        assert chi2 < 20.52  # 5 dof, alpha = 0.001


class TestCombinedLoss:
    @staticmethod
    def value(loss_s, loss_d, weights):
        return combined_loss(Tensor(loss_s), Tensor(loss_d), weights).item()

    def test_lambda_extremes_and_midpoint(self):
        assert self.value(2.0, 4.0, LossWeights(0.0)) == 2.0
        assert self.value(2.0, 4.0, LossWeights(1.0)) == 4.0
        assert self.value(2.0, 4.0, LossWeights(0.5)) == 3.0

    def test_linear_in_each_argument(self):
        w = LossWeights(0.3)
        base = self.value(1.0, 1.0, w)
        assert self.value(2.0, 1.0, w) - base == pytest.approx(0.7)
        assert self.value(1.0, 2.0, w) - base == pytest.approx(0.3)

    def test_lambda_out_of_range_rejected(self):
        with pytest.raises(DataError):
            LossWeights(1.5)

    def test_gradient_flows_through_both_terms(self):
        c = Tensor(make_rng(3).standard_normal((4,)))

        def loss_fn(params):
            loss_s = tsum(mul(params["a"], params["a"]))
            loss_d = tsum(mul(params["b"], c))
            return combined_loss(loss_s, loss_d, LossWeights(0.4))

        params = {"a": Tensor(make_rng(4).standard_normal(4), requires_grad=True),
                  "b": Tensor(make_rng(5).standard_normal(4), requires_grad=True)}
        err = finite_diff_grad_check(loss_fn, params, epsilon=1e-6)
        assert err < 1e-8


class TestSampleBatch:
    def corpus(self):
        return [ParallelExample(f"src{i} word{i}", f"tgt{i} label{i}")
                for i in range(10)]

    def vocab(self):
        return build_vocab(self.corpus(), mode="word")

    def test_single_kind_always_used(self):
        rng = make_rng(6)
        for _ in range(20):
            b = sample_augmented_batch(self.corpus(), [AugKind.AUTOENCODER],
                                       4, rng, self.vocab())
            assert b.kind is AugKind.AUTOENCODER
            assert len(b.inputs) == len(b.outputs) == 4

    def test_fixed_seed_identical_batch(self):
        a = sample_augmented_batch(self.corpus(), list(AugKind), 8,
                                   make_rng(7), self.vocab())
        b = sample_augmented_batch(self.corpus(), list(AugKind), 8,
                                   make_rng(7), self.vocab())
        assert a.kind == b.kind and a.inputs == b.inputs and a.outputs == b.outputs

    def test_kind_frequency_binomial_bound(self):
        rng = make_rng(8)
        kinds = [AugKind.AUTOENCODER, AugKind.MASK]
        seen = Counter(sample_augmented_batch(self.corpus(), kinds, 2, rng,
                                              self.vocab()).kind
                       for _ in range(400))
        for k in kinds:
            assert 0.4 <= seen[k] / 400 <= 0.6

    def test_empty_inputs_rejected(self):
        with pytest.raises(DataError):
            sample_augmented_batch([], [AugKind.MASK], 2, make_rng(0),
                                   self.vocab())
        with pytest.raises(DataError):
            sample_augmented_batch(self.corpus(), [], 2, make_rng(0),
                                   self.vocab())

    def test_label_side_preserved(self):
        # every transform keeps the output side equal to the target text
        corpus = self.corpus()
        vocab = self.vocab()
        rng = make_rng(9)
        from codemix.text import decode
        targets = {ex.target for ex in corpus}
        for _ in range(40):
            b = sample_augmented_batch(corpus, list(AugKind), 6, rng, vocab)
            for out_ids in b.outputs:
                assert decode(out_ids, vocab) in targets
