from collections import Counter

import pytest

from codemix.augment import (AugKind, aug_autoencoder, aug_dropchar,
                             aug_mask, aug_permute, sample_augmented_batch)
from codemix.errors import DataError
from codemix.numerics import AdamWState, make_rng, step_tensors
from codemix.seq2seq import (Seq2SeqConfig, init_model, label_smoothed_ce,
                             make_batch, pad_batch)
from codemix.text import (MASK_TOKEN, ParallelExample, SynthTaskSpec,
                          build_vocab, gen_synthetic_corpus, synthetic_vocab)
from codemix.train import fit

from oracles import add, mul


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


KINDS = (AugKind.AUTOENCODER, AugKind.DROPCHAR, AugKind.MASK)


def same_bytes(a, b) -> bool:
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestObjective:
    """`fit` runs each term's backward right after its forward, seeded
    with its weight; its steps must be the ones of a single backward of
    the composed loss (1 - lambda) * loss_s + lambda * loss_d after both
    forwards, then AdamW."""

    SPEC = SynthTaskSpec(lexicon_size=8, seed=3)

    def model(self):
        cfg = Seq2SeqConfig(vocab=synthetic_vocab(self.SPEC), n_enc_layers=1,
                            n_dec_layers=1, d_model=16, n_heads=2, d_ff=32,
                            max_len=16, dropout_prob=0.1)
        return init_model(cfg, make_rng(4))

    def composed_steps(self, corpus, lam, batch_size, rngs):
        """One epoch, written out: fit's batching and streams, and per
        step both forwards, one backward of the composed loss and one
        AdamW step."""
        model = self.model()
        data_rng, aug_rng, drop_rng = rngs
        vocab = model.config.vocab
        opt = AdamWState(lr=1e-3, weight_decay=0.01)
        order = data_rng.permutation(len(corpus))
        for start in range(0, len(corpus), batch_size):
            rows = [corpus[i] for i in order[start:start + batch_size]]
            batch = make_batch(vocab, [ex.source for ex in rows],
                               [ex.target for ex in rows])
            loss_s = label_smoothed_ce(
                model.forward(batch["src"], batch["dec_in"], rng=drop_rng),
                batch["labels"], 0.1)
            aug = sample_augmented_batch(corpus, KINDS, len(rows), aug_rng,
                                         vocab)
            abatch = pad_batch(aug.inputs, aug.outputs)
            loss_d = label_smoothed_ce(
                model.forward(abatch["src"], abatch["dec_in"], rng=drop_rng),
                abatch["labels"], 0.1)
            add(mul(loss_s, 1.0 - lam), mul(loss_d, lam)).backward()
            step_tensors(model.params, opt)
        return model

    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_one_fit_step_matches_the_composed_loss(self, lam):
        # two steps with dropout on: the streams cross a step boundary
        corpus, _ = gen_synthetic_corpus(self.SPEC, 8)
        batch_size = len(corpus) // 2
        got = self.model()
        fit(got, corpus, epochs=1, lr=1e-3, batch_size=batch_size,
            kinds=KINDS, lam=lam, label_smoothing=0.1, weight_decay=0.01,
            rngs=make_rng(5).spawn(3))
        want = self.composed_steps(corpus, lam, batch_size,
                                   make_rng(5).spawn(3))
        for name, t in want.params.items():
            assert same_bytes(got.params[name].data, t.data), name


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
