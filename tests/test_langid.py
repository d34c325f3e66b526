import bisect
import itertools
import re

import numpy as np
import pytest

from codemix import langid
from codemix.errors import DataError, NonFiniteError
from codemix.langid import (_START_P, _STICKY, CRFModel, LabeledToken,
                            QueryLanguage, _Corpus, _choice_cdf,
                            _emission_sums, _forward_backward, _padded,
                            _word_features, aggregate_labels,
                            crf_batch_grad, crf_nll_grad,
                            detect_query_language, eval_prf,
                            extract_features,
                            gen_langid_corpus, load_crf, load_token_labels,
                            query_gold_language, save_crf, save_token_labels,
                            train_crf, viterbi, LABEL_INDEX, N_LABELS)
from codemix.numerics import make_rng

import oracles
from baseline import baseline_avg_embedding_classifier
from oracles import (crf_enumerate, reference_crf_nll_grad,
                     reference_emissions, reference_gen_langid_corpus,
                     reference_path_score, reference_train_crf, rng_drawing)


def drawable_near(values) -> list[float]:
    """Each of `values` and the doubles either side of it that `random()`
    can return (multiples of 2**-53 in [0, 1)), sorted."""
    near = {float(u) for c in values
            for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))}
    return sorted(u for u in near
                  if 0.0 <= u < 1.0 and (u * 2**53).is_integer())


class ScriptedStream:
    """A stand-in for a generator's stream: `random()` returns the values
    of `script` in turn, cycling, and `integers` and `choice(a)` come from
    a real stream. `choice(a, p=p)` is NumPy's own choice on a stream
    whose next `random()` is the next script value."""

    def __init__(self, script, seed: int):
        rng = make_rng(seed)
        self.integers, self._choice = rng.integers, rng.choice
        self._next = itertools.cycle(script).__next__

    def random(self) -> float:
        return self._next()

    def choice(self, a, p=None):
        if p is None:
            return self._choice(a)
        return rng_drawing(self._next()).choice(a, p=p)


def crf_log_partition(model, words):
    emis = model.emissions(model.feature_ids(words))
    return float(_forward_backward(emis[None], model.transitions,
                                   np.array([len(words)]))[2][0])


def crf_path_score(model, words, labels):
    return reference_path_score(model.emissions(model.feature_ids(words)),
                                model.transitions, labels)


def zero_crf(features=()):
    index = {f: i for i, f in enumerate(features)}
    return CRFModel(index, np.zeros((len(index), N_LABELS)),
                    np.zeros((N_LABELS, N_LABELS)))


def random_crf(words_queries, seed):
    """CRF with the corpus's feature set and random small weights."""
    feats = {}
    for words in words_queries:
        for t in range(len(words)):
            for f in extract_features(words, t):
                feats.setdefault(f, len(feats))
    rng = make_rng(seed)
    return CRFModel(feats, rng.normal(0, 0.4, size=(len(feats), N_LABELS)),
                    rng.normal(0, 0.5, size=(N_LABELS, N_LABELS)))


class TestFeatures:
    def test_template_for_tv(self):
        feats = set(extract_features(["tv"], 0))
        assert {"0:1:t", "0:1:v", "0:2:^t", "0:2:tv", "0:2:v$",
                "0:3:^tv", "0:3:tv$", "0:4:^tv$", "0:len:2"} <= feats
        assert not any(f.startswith("0:digit") for f in feats)
        assert not any(f.startswith("0:special") for f in feats)

    def test_digit_flag(self):
        feats = extract_features(["mi4"], 0)
        assert "0:digit" in feats

    def test_special_char_flag(self):
        feats = extract_features(["k-6"], 0)
        assert "0:special" in feats

    def test_boundary_dummies(self):
        first = extract_features(["alpha", "beta"], 0)
        assert "-1:<s>" in first
        last = extract_features(["alpha", "beta"], 1)
        assert "+1:</s>" in last

    def test_context_offsets_present(self):
        feats = extract_features(["red", "shoe", "cover"], 1)
        assert any(f.startswith("-1:") for f in feats)
        assert any(f.startswith("+1:") for f in feats)

    def test_lowercasing(self):
        assert set(extract_features(["TV"], 0)) == set(extract_features(["tv"], 0))

    def test_length_bucket_caps_at_six(self):
        feats = extract_features(["abcdefghij"], 0)
        assert "0:len:6+" in feats

    def test_deterministic(self):
        a = extract_features(["redmi", "cover"], 1)
        b = extract_features(["redmi", "cover"], 1)
        assert a == b

    def test_position_validated(self):
        with pytest.raises(DataError):
            extract_features(["a"], 1)


def tokens(words, label="EN"):
    return [LabeledToken(w, label) for w in words]


class TestFeatureIds:
    """The id path (`_query_ids`, built a word at a time) gives the ids of
    the string template `extract_features`, position by position."""

    CORPUS = [["kala", "juta", "kala", "kala"],  # a repeated word
              ["TV", "tv", "4g"],                # case variants
              ["<s>", "shoe", "</s>"],           # literal boundary words
              ["wala"],                          # one word
              ["mi-x", "TV", "juta"]]
    # words the index never saw, next to ones it did
    UNSEEN = [["zzq", "TV"], ["kala", "9-9x", "qq"], ["</s>"], ["xyzw"]]

    @staticmethod
    def template_ids(index, words):
        return [[index[f] for f in extract_features(words, t) if f in index]
                for t in range(len(words))]

    def test_train_crf_ids_follow_the_template(self, monkeypatch):
        """The padded matrix train_crf's batches gather from holds each
        query's template ids column by column, then padding."""
        import codemix.langid as langid
        seen = []

        def recorded(model, corpus, idxs):
            for i in idxs:
                cols = corpus.columns[i]
                n = corpus.counts[cols]
                pad = corpus.pad[:, cols]
                assert all(pad[c:, t].all() and not pad[:c, t].any()
                           for t, c in enumerate(n))
                seen.append((i, [corpus.feats[:c, col].tolist()
                                 for col, c in zip(cols, n)]))
            return crf_batch_grad(model, corpus, idxs)

        monkeypatch.setattr(langid, "crf_batch_grad", recorded)
        corpus = [tokens(q) for q in self.CORPUS]
        model = train_crf(corpus, epochs=1, batch_size=1, rng=make_rng(3))
        order = make_rng(3).permutation(len(corpus))
        assert [i for i, _ in seen] == order.tolist()
        for i, ids in seen:
            assert ids == self.template_ids(model.feature_index,
                                            self.CORPUS[i])

    def test_feature_ids_follow_the_template(self):
        model = train_crf([tokens(q) for q in self.CORPUS], epochs=1,
                          rng=make_rng(3))
        for words in self.CORPUS + self.UNSEEN:
            got = model.feature_ids(words)
            assert all(tok.dtype == np.int64 for tok in got)
            assert ([tok.tolist() for tok in got]
                    == self.template_ids(model.feature_index, words))

    def test_index_order_equals_reference(self):
        corpus = [tokens(q) for q in self.CORPUS] + gen_langid_corpus(
            30, seed=4)
        fast = train_crf(corpus, epochs=1, rng=make_rng(5))
        slow = reference_train_crf(corpus, epochs=1, rng=make_rng(5))
        assert list(fast.feature_index) == list(slow.feature_index)


class TestEmissions:
    """`CRFModel.emissions` and the batches of `crf_batch_grad` sum every
    token's weight rows in one gather from a padded id matrix. Each row
    must equal the per-token loop of `reference_emissions` byte for byte,
    and the batch gradient the reference gradient built on it."""

    @staticmethod
    def check(model, queries):
        """Emissions of each query, the padded gather of all their tokens
        at once, and the batch gradient of all the queries, each against
        the reference."""
        for ids in queries:
            got = model.emissions(ids)
            assert got.tobytes() == reference_emissions(model.weights,
                                                        ids).tobytes()
        data = [(ids, [t % N_LABELS for t in range(len(ids))])
                for ids in queries]
        corpus = _Corpus(data)
        cols = np.concatenate(corpus.columns)
        got = _emission_sums(model.weights, corpus.feats[:, cols],
                             corpus.pad[:, cols])
        want = np.concatenate([reference_emissions(model.weights, ids)
                               for ids in queries])
        assert got.tobytes() == want.tobytes()
        nll, grad_w, grad_trans = crf_batch_grad(model, corpus,
                                                 np.arange(len(data)))
        gw = np.zeros_like(model.weights)
        gt = np.zeros_like(model.transitions)
        for b, (ids, gold) in enumerate(data):
            ref_nll, ref_feats, ref_trans = reference_crf_nll_grad(model, ids,
                                                                   gold)
            assert nll[b] == ref_nll
            for fid, row in ref_feats.items():
                gw[fid] += row
            gt += ref_trans
        assert grad_w.tobytes() == gw.tobytes()
        assert grad_trans.tobytes() == gt.tobytes()

    def test_token_without_known_features_is_a_positive_zero_row(self):
        model = random_crf([["kala"]], seed=5)
        ids = model.feature_ids(["zzq", "xyz", "qq"])
        assert ids[1].size == 0  # no word of its window was indexed
        row = model.emissions(ids)[1]
        assert row.tobytes() == np.zeros(N_LABELS).tobytes()  # not -0.0
        self.check(model, [ids, model.feature_ids(["kala", "xyz"])])

    def test_one_token_query(self):
        model = random_crf([["kala", "juta"]], seed=6)
        self.check(model, [model.feature_ids(["juta"])])
        self.check(model, [model.feature_ids(["juta"]),
                           model.feature_ids(["kala", "juta", "kala"])])

    def test_batch_of_one_query(self):
        model = random_crf([["kala", "juta", "4g"]], seed=7)
        for words in (["kala"], ["kala", "juta", "4g", "kala"]):
            self.check(model, [model.feature_ids(words)])

    def test_weights_holding_negative_zero(self):
        words = ["kala", "juta", "4g", "mi-x"]
        model = random_crf([words], seed=8)
        rng = make_rng(9)
        model.weights[rng.random(model.weights.shape) < 0.3] = -0.0
        # every feature of "juta"'s window: its row sums -0.0 terms only
        model.weights[model.feature_ids(words)[1]] = -0.0
        model.transitions[0, 1] = -0.0
        self.check(model, [model.feature_ids(words),
                           model.feature_ids(["juta"]),
                           model.feature_ids(["4g", "zzq", "kala"])])

    def test_random_tokens_bitwise(self):
        """2,000 tokens of 0-40 random ids, some repeated, on weights
        with exact zeros of both signs."""
        rng = make_rng(10)
        weights = rng.normal(0, 1, size=(300, N_LABELS))
        weights[rng.random(weights.shape) < 0.1] = -0.0
        weights[rng.random(weights.shape) < 0.1] = 0.0
        toks = [rng.integers(0, 300, size=int(rng.integers(0, 41)))
                for _ in range(2000)]
        got = _emission_sums(weights, *_padded(toks))
        assert got.tobytes() == reference_emissions(weights, toks).tobytes()


class TestForwardAlgorithm:
    def test_zero_weights_single_token_log3(self):
        model = zero_crf()
        assert crf_log_partition(model, ["word"]) == pytest.approx(
            np.log(3.0), abs=1e-12)

    def test_matches_bruteforce_up_to_len6(self):
        rng = make_rng(40)
        pool = ["kala", "juta", "shoe", "red", "4g", "mi-x"]
        for trial in range(40):
            length = int(rng.integers(1, 7))
            words = [pool[int(rng.integers(len(pool)))] for _ in range(length)]
            model = random_crf([words], seed=trial)
            log_z = crf_log_partition(model, words)
            oracle_z, _, _ = crf_enumerate(model, words)
            assert log_z == pytest.approx(oracle_z, abs=1e-8)

    def test_partition_dominates_any_path(self):
        rng = make_rng(41)
        words = ["red", "juta", "4g"]
        model = random_crf([words], seed=9)
        log_z = crf_log_partition(model, words)
        import itertools
        for labels in itertools.product(range(N_LABELS), repeat=len(words)):
            assert log_z >= crf_path_score(model, words, list(labels))


def nll_grad(model, words, labels):
    return crf_nll_grad(model, model.feature_ids(words),
                        [LABEL_INDEX[lab] for lab in labels])


class TestNllGrad:
    def test_gradient_matches_finite_differences(self):
        words = ["kala", "shoe", "4g"]
        labels = ["HI", "EN", "OT"]
        model = random_crf([words], seed=11)

        def nll():
            return nll_grad(model, words, labels)[0]

        _, fids, rows, grad_trans = nll_grad(model, words, labels)
        grad_feats = dict(zip(fids.tolist(), rows))
        eps = 1e-6
        worst = 0.0
        rng = make_rng(42)
        fids = list(grad_feats)
        for fid in [fids[int(i)] for i in
                    rng.choice(len(fids), size=min(12, len(fids)),
                               replace=False)]:
            for lab in range(N_LABELS):
                orig = model.weights[fid, lab]
                model.weights[fid, lab] = orig + eps
                fp = nll()
                model.weights[fid, lab] = orig - eps
                fm = nll()
                model.weights[fid, lab] = orig
                numeric = (fp - fm) / (2 * eps)
                a = grad_feats[fid][lab]
                # floor 1e-4: central differences carry ~1e-10 of absolute
                # noise, unresolvable against smaller true gradients
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
                worst = max(worst, rel)
        for i in range(N_LABELS):
            for j in range(N_LABELS):
                orig = model.transitions[i, j]
                model.transitions[i, j] = orig + eps
                fp = nll()
                model.transitions[i, j] = orig - eps
                fm = nll()
                model.transitions[i, j] = orig
                numeric = (fp - fm) / (2 * eps)
                a = grad_trans[i, j]
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-4)
                worst = max(worst, rel)
        assert worst < 1e-5

    def test_features_extracted_once_per_token(self, monkeypatch):
        """A whole train_crf run builds each distinct word's features once
        (the <s> and </s> boundary dummies count as words), whatever the
        epoch count."""
        import codemix.langid as langid
        corpus = separable_corpus(12) * 2  # every word at least twice
        words = {t.word for q in corpus for t in q} | {"<s>", "</s>"}
        calls = []

        def counted(word):
            calls.append(word)
            return _word_features(word)

        monkeypatch.setattr(langid, "_word_features", counted)
        for epochs in (1, 3):
            calls.clear()
            train_crf(corpus, epochs=epochs, rng=make_rng(13))
            assert sorted(calls) == sorted(words)

    def test_ids_and_rows_equal_dict_reference_exactly(self):
        rng = make_rng(15)
        pool = ["kala", "juta", "shoe", "red", "4g", "mi-x", "wala"]
        for trial in range(30):
            length = int(rng.integers(1, 8))
            words = [pool[int(rng.integers(len(pool)))] for _ in range(length)]
            gold = [int(rng.integers(N_LABELS)) for _ in range(length)]
            # the index holds only the features of the first words, so
            # later tokens keep fewer ids or none
            model = random_crf([words[:1 + trial % length]], seed=200 + trial)
            ids = model.feature_ids(words)
            nll, fids, rows, grad_trans = crf_nll_grad(model, ids, gold)
            ref_nll, ref_feats, ref_trans = reference_crf_nll_grad(model, ids,
                                                                   gold)
            assert nll == ref_nll
            assert np.array_equal(grad_trans, ref_trans)
            assert fids.tolist() == sorted(ref_feats)
            assert np.array_equal(rows, np.array([ref_feats[f]
                                                  for f in sorted(ref_feats)]
                                                 ).reshape(-1, N_LABELS))

    def test_batch_grad_equals_summed_reference_exactly(self):
        """Mixed lengths 1-7, tokens with few or no known ids, batches of
        one, batches drawn in shuffled order from a larger corpus: the
        batch's gradient is the queries' reference gradients added one by
        one in batch order to zero arrays."""
        rng = make_rng(16)
        pool = ["kala", "juta", "shoe", "red", "4g", "mi-x", "wala"]
        for trial in range(25):
            queries = [[pool[int(rng.integers(len(pool)))]
                        for _ in range(int(rng.integers(1, 8)))]
                       for _ in range(2 + trial % 9)]
            # index only part of the words: later tokens lose ids
            model = random_crf([q[:1 + trial % 3] for q in queries],
                               seed=300 + trial)
            data = [(model.feature_ids(q),
                     [int(rng.integers(N_LABELS)) for _ in q])
                    for q in queries]
            idxs = rng.permutation(len(data))[:1 + trial % len(data)]
            nll, grad_w, grad_trans = crf_batch_grad(model, _Corpus(data),
                                                     idxs)
            gw = np.zeros_like(model.weights)
            gt = np.zeros_like(model.transitions)
            for b, i in enumerate(idxs):
                ref_nll, ref_feats, ref_trans = reference_crf_nll_grad(
                    model, *data[i])
                assert nll[b] == ref_nll
                for fid, row in ref_feats.items():
                    gw[fid] += row
                gt += ref_trans
            assert grad_w.tobytes() == gw.tobytes()
            assert grad_trans.tobytes() == gt.tobytes()

    def test_batch_grad_rejects_an_empty_query(self):
        model = random_crf([["kala"]], seed=1)
        with pytest.raises(DataError, match="at least one word"):
            crf_batch_grad(model, _Corpus([(model.feature_ids(["kala"]), [0]),
                                           ([], [])]), np.arange(2))

    def test_nll_is_partition_minus_gold_path_exactly(self):
        words = ["kala", "shoe", "4g", "juta", "wala"]
        labels = ["HI", "EN", "OT", "HI", "HI"]
        model = random_crf([words], seed=14)
        nll, _, _, _ = nll_grad(model, words, labels)
        gold = [LABEL_INDEX[lab] for lab in labels]
        assert nll == (crf_log_partition(model, words)
                       - crf_path_score(model, words, gold))

    def test_nll_nonnegative(self):
        words = ["kala", "shoe"]
        model = random_crf([words], seed=12)
        nll, _, _, _ = nll_grad(model, words, ["EN", "EN"])
        assert nll >= 0


class TestViterbi:
    def test_zero_weights_all_en(self):
        model = zero_crf()
        assert viterbi(model, ["a", "b", "c"]) == ["EN", "EN", "EN"]

    def test_matches_bruteforce(self):
        rng = make_rng(43)
        pool = ["kala", "juta", "shoe", "red", "4g"]
        for trial in range(40):
            length = int(rng.integers(1, 7))
            words = [pool[int(rng.integers(len(pool)))] for _ in range(length)]
            model = random_crf([words], seed=100 + trial)
            path = viterbi(model, words)
            _, oracle_path, oracle_score = crf_enumerate(model, words)
            got = crf_path_score(model, words, [LABEL_INDEX[l] for l in path])
            assert got == pytest.approx(oracle_score, abs=1e-9)
            assert path == oracle_path

    def test_dominant_emission_forces_label(self):
        model = zero_crf(extract_features(["juta"], 0))
        for f in extract_features(["juta"], 0):
            model.weights[model.feature_index[f], LABEL_INDEX["HI"]] = 5.0
        assert viterbi(model, ["juta"]) == ["HI"]

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            viterbi(zero_crf(), [])


def separable_corpus(n=60, seed=0):
    """Two disjoint character alruns: a-m words are EN, n-z words are HI."""
    rng = make_rng(seed)
    en_chars, hi_chars = "abcdefghij", "qrstuvwxyz"
    corpus = []
    for _ in range(n):
        length = int(rng.integers(1, 5))
        toks = []
        for _ in range(length):
            if rng.random() < 0.5:
                chars, lab = en_chars, "EN"
            else:
                chars, lab = hi_chars, "HI"
            w = "".join(chars[int(rng.integers(10))]
                        for _ in range(int(rng.integers(3, 7))))
            toks.append(LabeledToken(w, lab))
        corpus.append(toks)
    return corpus


class TestTrainCrf:
    def test_separable_data_reaches_full_accuracy(self):
        corpus = separable_corpus()
        model = train_crf(corpus, l2=1e-5, epochs=6, rng=make_rng(1))
        correct = total = 0
        for q in corpus:
            pred = viterbi(model, [t.word for t in q])
            for p, t in zip(pred, q):
                correct += (p == t.label)
                total += 1
        assert correct == total

    def test_l2_monotonically_shrinks_weights(self):
        corpus = separable_corpus(30)
        norms = []
        for l2 in (0.01, 0.1, 1.0):
            model = train_crf(corpus, l2=l2, epochs=4, rng=make_rng(2))
            norms.append(float(np.linalg.norm(model.weights)))
        assert norms[0] > norms[1] > norms[2]

    def test_same_seed_identical_weights(self):
        corpus = separable_corpus(20)
        a = train_crf(corpus, l2=1e-4, epochs=3, rng=make_rng(3))
        b = train_crf(corpus, l2=1e-4, epochs=3, rng=make_rng(3))
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.transitions, b.transitions)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("batch_size", [1, 3, 8, 64])
    def test_equals_per_query_reference_bitwise(self, seed, batch_size):
        """37 queries: every batch size but 1 ends on a partial batch,
        and 64 puts the whole corpus in one batch."""
        corpus = gen_langid_corpus(37, seed=seed)
        got = train_crf(corpus, epochs=2, rng=make_rng(seed),
                        batch_size=batch_size)
        ref = reference_train_crf(corpus, epochs=2, rng=make_rng(seed),
                                  batch_size=batch_size)
        assert got.weights.tobytes() == ref.weights.tobytes()
        assert got.transitions.tobytes() == ref.transitions.tobytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            train_crf([], epochs=1)

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5, "8"])
    def test_batch_size_must_be_a_positive_integer(self, batch_size):
        with pytest.raises(DataError,
                           match="batch_size must be an integer >= 1"):
            train_crf(separable_corpus(4), epochs=1, batch_size=batch_size)

    def test_empty_query_rejected_by_index(self):
        corpus = separable_corpus(3)
        corpus.insert(2, [])
        with pytest.raises(DataError, match="query 2 has no words"):
            train_crf(corpus, epochs=1)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_epochs_below_one_rejected(self, epochs):
        with pytest.raises(DataError, match="epochs must be an integer >= 1"):
            train_crf(separable_corpus(4), epochs=epochs)

    @pytest.mark.parametrize("l2,lr", [(1e-4, float("inf"))])
    def test_non_finite_step_stops_training(self, l2, lr):
        with pytest.raises(NonFiniteError, match="parameter 'weights'"):
            train_crf(separable_corpus(10), l2=l2, lr=lr, epochs=2,
                      rng=make_rng(4))

    @pytest.mark.parametrize("l2", [-1.0, -1e-12, float("nan"),
                                    float("inf"), "0.1", None])
    def test_l2_must_be_finite_and_non_negative(self, l2, monkeypatch):
        # checked before any step: the optimizer is never reached
        monkeypatch.setattr("codemix.langid.adamw_step", None)
        with pytest.raises(DataError,
                           match="l2 must be a finite number >= 0"):
            train_crf(separable_corpus(4), l2=l2, epochs=1)

    @pytest.mark.parametrize("l2", [0, 0.0, np.float32(1e-3)])
    def test_l2_zero_and_numpy_floats_accepted(self, l2):
        model = train_crf(separable_corpus(4), l2=l2, epochs=1,
                          rng=make_rng(5))
        assert np.isfinite(model.weights).all()


class TestAggregation:
    def test_any_hi_means_hinglish(self):
        assert aggregate_labels(["EN", "HI", "EN"]) is QueryLanguage.HINGLISH

    def test_all_en_means_english(self):
        assert aggregate_labels(["EN", "EN"]) is QueryLanguage.ENGLISH

    def test_en_ot_mixture_is_other(self):
        assert aggregate_labels(["EN", "OT"]) is QueryLanguage.OTHER

    def test_detect_empty_query_rejected(self):
        with pytest.raises(DataError):
            detect_query_language(zero_crf(), "   ")


class TestBaseline:
    def test_permutation_invariance_exact(self):
        corpus = separable_corpus(40)
        clf = baseline_avg_embedding_classifier(corpus, epochs=3,
                                                rng=make_rng(4))
        base = clf.classify("abc def qrs")
        import itertools
        for perm in itertools.permutations(["abc", "def", "qrs"]):
            assert clf.classify(" ".join(perm)) is base
        # logits themselves are bit-identical thanks to sorted-id averaging
        a = clf._logits(["abc def qrs"]).data
        b = clf._logits(["qrs abc def"]).data
        assert np.array_equal(a, b)

    def test_separable_data_reaches_full_accuracy(self):
        corpus = separable_corpus(60)
        clf = baseline_avg_embedding_classifier(corpus, epochs=20,
                                                rng=make_rng(5))
        texts = [" ".join(t.word for t in q) for q in corpus]
        gold = [query_gold_language(q) for q in corpus]
        preds = [clf.classify(t) for t in texts]
        assert sum(p is g for p, g in zip(preds, gold)) == len(gold)

    def test_single_word_queries(self):
        corpus = separable_corpus(40)
        clf = baseline_avg_embedding_classifier(corpus, epochs=10,
                                                rng=make_rng(6))
        assert clf.classify("abcdef") in list(QueryLanguage)

    def test_empty_query_rejected(self):
        corpus = separable_corpus(10)
        clf = baseline_avg_embedding_classifier(corpus, epochs=1,
                                                rng=make_rng(7))
        with pytest.raises(DataError):
            clf.classify("")


class TestEvalPrf:
    def test_all_correct(self):
        g = [QueryLanguage.HINGLISH, QueryLanguage.ENGLISH]
        assert eval_prf(g, g) == (1.0, 1.0, 1.0)

    def test_always_positive_with_half_gold(self):
        gold = [QueryLanguage.HINGLISH, QueryLanguage.ENGLISH] * 10
        preds = [QueryLanguage.HINGLISH] * 20
        p, r, f1 = eval_prf(preds, gold)
        assert (p, r) == (0.5, 1.0)
        assert f1 == pytest.approx(2 / 3)

    def test_zero_predicted_positives(self):
        gold = [QueryLanguage.HINGLISH, QueryLanguage.ENGLISH]
        preds = [QueryLanguage.ENGLISH, QueryLanguage.ENGLISH]
        p, r, f1 = eval_prf(preds, gold)
        assert p == 0.0 and f1 == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            eval_prf([QueryLanguage.ENGLISH], [])


class TestTokenLabelIO:
    def test_round_trip(self, tmp_path):
        queries = gen_langid_corpus(15, seed=5)
        p = tmp_path / "q.conll"
        save_token_labels(queries, p)
        back = load_token_labels(p)
        assert [(t.word, t.label) for q in back for t in q] == \
               [(t.word, t.label) for q in queries for t in q]
        assert len(back) == len(queries)

    def test_crlf_endings_load_like_lf(self, tmp_path):
        queries = gen_langid_corpus(15, seed=5)
        lf, crlf = tmp_path / "lf.conll", tmp_path / "crlf.conll"
        save_token_labels(queries, lf)
        crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in crlf.read_bytes()
        assert load_token_labels(crlf) == load_token_labels(lf) == queries

    def test_bad_label_named_line(self, tmp_path):
        p = tmp_path / "q.conll"
        p.write_text("juta\tHI\nshoe\tXX\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_token_labels(p)

    def test_crf_model_round_trip(self, tmp_path):
        corpus = separable_corpus(20)
        model = train_crf(corpus, epochs=2, rng=make_rng(8))
        save_crf(model, tmp_path / "crf.json")
        back = load_crf(tmp_path / "crf.json")
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.transitions, model.transitions)
        assert back.feature_index == model.feature_index

    def test_corrupt_crf_rejected(self, tmp_path):
        for text in ("{not json", "[]",
                     '{"features": 5, "weights": [], "transitions": []}'):
            (tmp_path / "crf.json").write_text(text, encoding="utf-8")
            with pytest.raises(DataError):
                load_crf(tmp_path / "crf.json")

    def test_integer_too_large_for_a_float_is_a_data_error(self, tmp_path):
        """JSON integers have no size limit; one past the float range is a
        corrupt file, not an OverflowError."""
        huge = "1" + "0" * 400
        for weights, transitions in (
                (f"[[{huge}, 0, 0]]", "[[0, 0, 0], [0, 0, 0], [0, 0, 0]]"),
                ("[[0, 0, 0]]", f"[[0, 0, 0], [0, -{huge}, 0], [0, 0, 0]]")):
            (tmp_path / "crf.json").write_text(
                '{"features": ["0:1:a"], "weights": ' + weights
                + ', "transitions": ' + transitions + '}', encoding="utf-8")
            with pytest.raises(DataError, match="corrupt CRF model file"):
                load_crf(tmp_path / "crf.json")


class TestSyntheticBenchmark:
    def test_zero_queries(self):
        assert gen_langid_corpus(0) == []

    @pytest.mark.parametrize("n", [-4, -1, 2.5, "3"])
    def test_query_count_must_be_a_non_negative_integer(self, n):
        with pytest.raises(DataError,
                           match="n_queries must be an integer >= 0"):
            gen_langid_corpus(n)

    @pytest.mark.parametrize("seed", [-3, -1, 1.5, "2"])
    def test_seed_checked_as_given(self, seed):
        """The caller's seed is checked, not the stream seed derived from
        it."""
        with pytest.raises(DataError, match=re.escape(
                f"seed must be an integer >= 0, got {seed!r}") + "$"):
            gen_langid_corpus(5, seed=seed)

    @pytest.mark.parametrize("seed", [0, 1, 5, 2208, 2**40])
    def test_matches_reference_generator(self, seed):
        """Bisecting the cumulative tables draws the labels, and every
        other value, that a `choice` per label drew."""
        for n in (0, 1, 37, 3500):
            assert gen_langid_corpus(n, seed=seed) == \
                reference_gen_langid_corpus(n, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2208])
    def test_shorter_corpus_is_a_prefix(self, seed):
        longest = gen_langid_corpus(400, seed=seed)
        for n in (0, 1, 37, 399):
            assert gen_langid_corpus(n, seed=seed) == longest[:n]

    @pytest.mark.parametrize("p", [
        _START_P, *_STICKY,
        # cumulative sums that end off 1.0, so the division shows
        (0.5, 0.5 - 4e-9, 0.0), (0.25, 0.25, 0.5 + 1e-9),
        (0.1, 0.2, 0.7), (1 / 3, 1 / 3, 1 / 3)])
    def test_cdf_bisects_to_what_choice_draws(self, p):
        """At every entry of the table, divided or not, and the doubles
        either side, the bisected label is `Generator.choice`'s draw for
        the same `random()`. Sampling would not land on an entry."""
        table = _choice_cdf(p)
        raw = np.cumsum(np.asarray(p, dtype=np.float64)).tolist()
        points = drawable_near([0.0, *table, *raw])
        assert set(points) & set(table[:-1])  # an entry below 1 is drawn
        for u in points:
            assert rng_drawing(u).random() == u
            assert bisect.bisect_right(table, u) == \
                rng_drawing(u).choice(len(p), p=p), u

    def test_labels_drawn_on_table_entries_match_choice(self, monkeypatch):
        """With every `random()` on an entry of a label table, or on the
        double either side of one, the generator draws the labels that
        `choice` draws: a draw on an entry takes the label above it."""
        script = drawable_near(itertools.chain.from_iterable(
            _choice_cdf(p) for p in (_START_P, *_STICKY)))
        assert {0.5, 0.78, 0.8, 0.88} <= set(script)

        def corpus(gen, module):
            monkeypatch.setattr(module, "make_rng",
                                lambda seed: ScriptedStream(script, seed))
            return gen(300, seed=4)
        got = corpus(gen_langid_corpus, langid)
        assert {t.label for q in got for t in q} == {"EN", "HI", "OT"}
        assert got == corpus(reference_gen_langid_corpus, oracles)

    def test_deterministic(self):
        a = gen_langid_corpus(50, seed=9)
        b = gen_langid_corpus(50, seed=9)
        assert [(t.word, t.label) for q in a for t in q] == \
               [(t.word, t.label) for q in b for t in q]

    def test_all_three_query_classes_present(self):
        from collections import Counter
        langs = Counter(query_gold_language(q).value
                        for q in gen_langid_corpus(400, seed=10))
        assert set(langs) == {"english", "hinglish", "other"}

    def test_ambiguous_words_cross_labels(self):
        corpus = gen_langid_corpus(600, seed=11)
        by_word: dict[str, set] = {}
        for q in corpus:
            for t in q:
                by_word.setdefault(t.word, set()).add(t.label)
        assert any(labels >= {"EN", "HI"} for labels in by_word.values())
