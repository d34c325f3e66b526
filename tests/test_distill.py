import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from codemix import distill as distill_mod
from codemix import train as train_mod
from codemix.checkpoint import load_checkpoint, save_checkpoint
from codemix.distill import (JS_UPPER_BOUND, DistillConfig, KDKind,
                             bench_latency, generate_pseudo_labels, kd_loss,
                             train_student)
from codemix.errors import DataError, TrainingDivergedError
from codemix.numerics import Tensor, grad_enabled, log_softmax, make_rng
from codemix.quant import (QuantizedTensor, dequantize, quantize_int8,
                           quantize_model)
from codemix.seq2seq import (Seq2SeqConfig, Seq2SeqModel, beam_search_batch,
                             encode_source, init_model, make_batch,
                             translate_corpus)
from codemix.text import (ParallelExample, SynthTaskSpec, Vocab,
                          gen_synthetic_corpus, synthetic_vocab)
from codemix.train import StageConfig, TrainingConfig, train_stage1

from oracles import (finite_diff_grad_check, js_reference,
                     reference_train_student, teacher_probs)

TEACHER = (Path(__file__).resolve().parents[1] / "perfbench" / "artifacts"
           / "teacher")


def random_dists(n, k, seed):
    rng = make_rng(seed)
    x = rng.dirichlet(np.ones(k), size=n)
    return x


def ce(t, s_logp):
    return kd_loss(KDKind.CE, t, Tensor(s_logp)).item()


def js(t, s):
    """JS loss of student probabilities s, passed as log-probabilities."""
    return kd_loss(KDKind.JS, t, Tensor(np.log(s))).item()


class TestKdLossCe:
    def test_uniform_pair_gives_log_vocab(self):
        u = np.full((3, 8), 1 / 8)
        assert ce(u, np.log(u)) == pytest.approx(np.log(8), abs=1e-7)

    def test_self_ce_is_entropy(self):
        t = random_dists(5, 7, seed=1)
        got = ce(t, np.log(t))
        entropy = -np.mean((t * np.log(t)).sum(axis=-1))
        assert got == pytest.approx(entropy, abs=1e-7)
        assert got >= 0

    def test_one_hot_teacher(self):
        t = np.array([[0.0, 1.0, 0.0]])
        s = np.array([[0.25, 0.6, 0.15]])
        assert ce(t, np.log(s)) == pytest.approx(-np.log(0.6), abs=1e-7)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError):
            ce(np.ones((2, 3)) / 3, np.log(np.ones((2, 4)) / 4))


class TestKdLossJs:
    def test_equal_distributions_zero(self):
        t = random_dists(4, 9, seed=2)
        assert abs(js(t, t)) < 1e-12

    def test_disjoint_extreme_is_two_ln_two(self):
        t = np.array([[1.0, 0.0]])
        # exp(-1000) underflows to exactly 0 in float64
        got = kd_loss(KDKind.JS, t,
                      Tensor(np.array([[-1000.0, 0.0]]))).item()
        assert got == pytest.approx(2 * np.log(2), abs=1e-9)

    def test_symmetry_exact(self):
        lt = np.log(random_dists(6, 5, seed=3))
        ls = np.log(random_dists(6, 5, seed=4))
        assert kd_loss(KDKind.JS, np.exp(lt), Tensor(ls)).item() == \
            kd_loss(KDKind.JS, np.exp(ls), Tensor(lt)).item()

    def test_bounds_on_1000_random_pairs(self):
        t = random_dists(1000, 11, seed=5)
        s = random_dists(1000, 11, seed=6)
        for i in range(0, 1000, 50):
            v = js(t[i:i + 50], s[i:i + 50])
            assert 0.0 <= v <= JS_UPPER_BOUND + 1e-12
        per_pair = [js(t[i:i + 1], s[i:i + 1]) for i in range(200)]
        assert all(0.0 <= v <= JS_UPPER_BOUND + 1e-12 for v in per_pair)

    def test_zero_iff_equal(self):
        t = random_dists(1, 6, seed=7)
        s = t.copy()
        assert js(t, s) < 1e-12
        s2 = random_dists(1, 6, seed=8)
        if not np.allclose(t, s2, atol=1e-9):
            assert js(t, s2) > 1e-9

    def test_matches_plain_loop_reference(self):
        t = random_dists(7, 6, seed=9)
        s = random_dists(7, 6, seed=10)
        assert js(t, s) == pytest.approx(js_reference(t, s), abs=1e-10)

    def test_gradient_wrt_student_logits(self):
        # teacher constant, student log-probs via log_softmax on the tape
        t = random_dists(3, 5, seed=11)

        def loss_fn(params):
            return kd_loss(KDKind.JS, t,
                           log_softmax(params["logits"]))

        params = {"logits": Tensor(make_rng(12).standard_normal((3, 5)),
                                   requires_grad=True)}
        err = finite_diff_grad_check(loss_fn, params, epsilon=1e-6,
                                     max_coords_per_tensor=10)
        assert err < 1e-4


SPEC = SynthTaskSpec(lexicon_size=12, code_mix_ratio=0.2,
                     noise_char_drop_prob=0.0, pseudo_label_error_rate=0.0,
                     min_len=2, max_len=4, seed=31)

_TEACHER_CACHE: dict = {}


def overfit_teacher(pairs=10, seed=0):
    key = (pairs, seed)
    if key not in _TEACHER_CACHE:
        vocab = synthetic_vocab(SPEC)
        cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=1,
                            d_model=48, n_heads=2, d_ff=96, max_len=16,
                            dropout_prob=0.0)
        model = init_model(cfg, make_rng(seed))
        corpus, _ = gen_synthetic_corpus(SPEC, pairs)
        tc = TrainingConfig(weight_decay=0.0)
        tc.stage1 = StageConfig(epochs=250, lr=1e-3, batch_size=pairs,
                                kinds=())
        train_stage1(model, corpus, tc, make_rng(seed + 1))
        _TEACHER_CACHE[key] = (model, corpus)
    return _TEACHER_CACHE[key]


class TestPseudoLabels:
    def test_overfit_teacher_reproduces_memorized_targets(self):
        teacher, corpus = overfit_teacher()
        hyps = translate_corpus(teacher, [ex.source for ex in corpus])
        assert hyps == [ex.target for ex in corpus]  # memorized
        pseudo, skipped = generate_pseudo_labels(
            teacher, [ex.source for ex in corpus])
        assert not skipped
        assert [p.target for p in pseudo] == [ex.target for ex in corpus]
        assert [p.source for p in pseudo] == [ex.source for ex in corpus]

    def test_decodes_to_the_teachers_limit(self, eos_banned):
        # nothing finishes, so every source decodes to the step limit
        teacher = init_model(Seq2SeqConfig(
            vocab=Vocab(["a", "b"]), n_enc_layers=1, n_dec_layers=1,
            d_model=8, n_heads=2, d_ff=16, max_len=48), make_rng(2))
        pseudo, skipped = generate_pseudo_labels(teacher, ["a b"], beam=1)
        assert (pseudo, skipped) == ([], [0])
        assert eos_banned == [1] * 47

    def test_empty_source_list(self):
        teacher, _ = overfit_teacher()
        pseudo, skipped = generate_pseudo_labels(teacher, [])
        assert pseudo == [] and skipped == []

    def test_unfinished_and_empty_decodes_are_skipped(self):
        # the read-only committed teacher cut to max_len 4, the first four
        # rows of its position tables: "beboero" translates to nothing, and
        # its own limit of three decoder steps finishes two-word outputs
        # but not longer ones
        full = load_checkpoint(TEACHER)
        params = dict(full.params)
        for name in ("enc_pos", "dec_pos"):
            params[name] = Tensor(full.params[name].data[:4])
        teacher = Seq2SeqModel(replace(full.config, max_len=4), params)
        vocab = teacher.config.vocab
        sources = ["beboero", "bere vpu", "bebogero fece jijaja",
                   "heheho xuqiku", "befone soro reso"]
        results = beam_search_batch(
            teacher, [encode_source(s, vocab) for s in sources])
        unfinished = [i for i, r in enumerate(results) if not r.finished]
        empty = [i for i, r in enumerate(results) if r.finished and not r.ids]
        assert unfinished and empty
        pseudo, skipped = generate_pseudo_labels(teacher, sources)
        assert skipped == sorted(unfinished + empty)
        assert len(pseudo) == len(sources) - len(skipped) > 0

        clean = [ParallelExample(s, s) for s in sources]
        student_cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1,
                                    n_dec_layers=1, d_model=16, n_heads=2,
                                    d_ff=32)
        _, report = train_student(student_cfg, teacher, clean, sources,
                                  KDKind.JS, make_rng(3),
                                  DistillConfig(epochs=1))
        assert report.skipped_sources == len(skipped)

    def test_sources_longer_than_the_teacher_are_skipped(self, monkeypatch):
        # max_len 16 holds 15 tokens plus EOS; longer sources are skipped
        # before decoding and the others decode as they would alone
        teacher, corpus = overfit_teacher()
        sources = [ex.source for ex in corpus]
        words = " ".join(sources).split() * 3
        pool = [sources[0], " ".join(words[:30]), sources[1],
                " ".join(words[:16]), " ".join(words[:15])]
        decoded = []

        def recording(model, srcs, **kw):
            decoded.extend(len(ids) for ids in srcs)
            return beam_search_batch(model, srcs, **kw)

        monkeypatch.setattr(distill_mod, "beam_search_batch", recording)
        pseudo, skipped = generate_pseudo_labels(teacher, pool)
        assert decoded == [len(sources[0].split()) + 1,
                           len(sources[1].split()) + 1, 16]
        assert skipped[:2] == [1, 3] and set(skipped) <= {1, 3, 4}
        alone, _ = generate_pseudo_labels(teacher, sources[:2])
        assert pseudo[:2] == alone

        clean = [ParallelExample(ex.source, ex.target) for ex in corpus]
        student_cfg = Seq2SeqConfig(vocab=teacher.config.vocab,
                                    n_enc_layers=1, n_dec_layers=1,
                                    d_model=16, n_heads=2, d_ff=32)
        _, report = train_student(student_cfg, teacher, clean, pool,
                                  KDKind.JS, make_rng(3),
                                  DistillConfig(epochs=1))
        assert report.skipped_sources == len(skipped)

        # a student with max_len 8 (7 tokens): a pair the teacher labels
        # but that is longer is skipped too, not a DataError mid-training
        pool = sources[:2] + [" ".join(words[:8])]
        pseudo, skipped = generate_pseudo_labels(teacher, pool)
        too_long = sum(max(len(ex.source.split()), len(ex.target.split())) > 7
                       for ex in pseudo)
        assert too_long == 1 and not skipped
        student_cfg.max_len = 8
        _, report = train_student(student_cfg, teacher, clean, pool,
                                  KDKind.JS, make_rng(3),
                                  DistillConfig(epochs=1))
        assert report.skipped_sources == 1

    def test_deterministic(self):
        teacher, corpus = overfit_teacher()
        sources = [ex.source for ex in corpus]
        a, _ = generate_pseudo_labels(teacher, sources)
        b, _ = generate_pseudo_labels(teacher, sources)
        assert [(p.source, p.target) for p in a] == \
               [(p.source, p.target) for p in b]


class TestQuantization:
    def test_all_zero_exact(self):
        q = quantize_int8(np.zeros((3, 4), dtype=np.float32))
        assert q.scale == 1.0
        assert np.array_equal(dequantize(q), np.zeros((3, 4)))

    def test_plus_minus_one_exact(self):
        q = quantize_int8(np.array([-1.0, 1.0], dtype=np.float32))
        assert q.scale == pytest.approx(1 / 127)
        assert np.array_equal(q.payload, [-127, 127])
        assert np.array_equal(dequantize(q), [-1.0, 1.0])

    def test_idempotent(self):
        x = make_rng(15).standard_normal((8, 8)).astype(np.float32)
        q1 = quantize_int8(x)
        q2 = quantize_int8(dequantize(q1))
        assert np.array_equal(q1.payload, q2.payload)
        assert q1.scale == q2.scale

    def test_error_bound_over_model_tensors(self):
        model, _ = overfit_teacher()
        qmodel = quantize_model(model)
        assert type(qmodel) is Seq2SeqModel and qmodel.quantized
        for name, q in qmodel.params.items():
            if not isinstance(q, QuantizedTensor):
                continue
            err = np.abs(dequantize(q) - model.params[name].data).max()
            assert err <= q.scale / 2 + 1e-9, name

    def test_embeddings_stay_float(self):
        model, _ = overfit_teacher()
        qmodel = quantize_model(model)
        assert isinstance(qmodel.params["tok_emb"], Tensor)
        assert isinstance(qmodel.params["enc0.attn.wq"], QuantizedTensor)

    def test_quantized_model_id(self):
        model, _ = overfit_teacher()
        assert quantize_model(model).model_id.endswith("-int8")


class TestTrainStudent:
    def _setup(self):
        teacher, corpus = overfit_teacher(pairs=12)
        clean = [ParallelExample(ex.source, ex.target) for ex in corpus]
        pool = [ex.source for ex in corpus]
        return teacher, clean, pool

    def test_identical_teacher_student_keeps_js_at_zero(self):
        # student cloned from the teacher, lambda=1 (KD only), no decay:
        # at T == S the JS gradient vanishes, so the loss stays ~0 at
        # every logged step
        teacher, clean, pool = self._setup()
        from codemix.numerics import Tensor as T
        clone = type(teacher)(teacher.config,
                              {k: T(t.data.copy(), requires_grad=True)
                               for k, t in teacher.params.items()})
        cfg = DistillConfig(epochs=2, lr=1e-3, lam=1.0, weight_decay=0.0,
                            kinds=())
        _, report = train_student(teacher.config, teacher, clean, pool,
                                  KDKind.JS, make_rng(16), cfg,
                                  initial_student=clone)
        assert report.steps
        assert all(abs(s.loss_kd) < 1e-5 for s in report.steps)

    def test_no_usable_pseudo_label_counts_each_cause(self):
        # the committed teacher translates "beboero" to nothing and "bere
        # vpu" to two words, which with their EOS or BOS do not fit a
        # max_len 2 student
        teacher = load_checkpoint(TEACHER)
        student_cfg = Seq2SeqConfig(vocab=teacher.config.vocab,
                                    n_enc_layers=1, n_dec_layers=1,
                                    d_model=16, n_heads=2, d_ff=32, max_len=2)
        pool = ["beboero", " ".join(["bere"] * 40), "bere vpu"]
        with pytest.raises(DataError, match=re.escape(
                "unlabeled_pool: teacher produced no usable pseudo-labels "
                "for its 3 sources: 1 too long for the teacher, 1 unfinished "
                "or empty, 1 too long for the student")):
            train_student(student_cfg, teacher,
                          [ParallelExample("bere", "vpu")], pool, KDKind.JS,
                          make_rng(3), DistillConfig(epochs=1))

    def test_int8_teacher(self, tmp_path, monkeypatch):
        # the pseudo-labels are the int8 teacher's own translations, the
        # losses stay finite, and a second seeded run writes the same bytes
        teacher, clean, pool = self._setup()
        qteacher = quantize_model(teacher)
        labelled = []
        real = distill_mod.generate_pseudo_labels

        def spy(model, sources, **kw):
            assert model is qteacher
            out = real(model, sources, **kw)
            labelled.append(out[0])
            return out

        monkeypatch.setattr(distill_mod, "generate_pseudo_labels", spy)
        student_cfg = Seq2SeqConfig(vocab=teacher.config.vocab,
                                    n_enc_layers=1, n_dec_layers=1,
                                    d_model=16, n_heads=2, d_ff=32,
                                    max_len=16)
        for out in ("a", "b"):
            student, report = train_student(
                student_cfg, qteacher, clean, pool, KDKind.JS, make_rng(17),
                DistillConfig(epochs=2, batch_size=6))
            assert report.steps and all(
                np.isfinite([s.loss_s, s.loss_d, s.loss_kd]).all()
                for s in report.steps)
            save_checkpoint(student, tmp_path / out)
        assert labelled[0] and labelled[0] == labelled[1]
        assert [ex.target for ex in labelled[0]] == translate_corpus(
            qteacher, [ex.source for ex in labelled[0]])
        for f in ("config.txt", "vocab.txt", "manifest.tsv", "weights.bin"):
            assert (tmp_path / "a" / f).read_bytes() == \
                   (tmp_path / "b" / f).read_bytes(), f

    def test_clone_teacher_js_stays_zero(self):
        teacher, clean, pool = self._setup()
        batch = make_batch(teacher.config.vocab,
                           [ex.source for ex in clean],
                           [ex.target for ex in clean])
        loss = kd_loss(KDKind.JS, teacher_probs(teacher, batch), log_softmax(
            teacher.forward(batch["src"], batch["dec_in"])))
        assert abs(loss.item()) < 1e-9

    @staticmethod
    def _student_cfg(teacher):
        return Seq2SeqConfig(vocab=teacher.config.vocab, n_enc_layers=1,
                             n_dec_layers=1, d_model=16, n_heads=2, d_ff=32,
                             max_len=16)

    @pytest.mark.parametrize("batch_size", [1, 5, 12, 64])
    def test_teacher_runs_once_per_chunk_of_pairs_before_fit(
            self, monkeypatch, batch_size):
        teacher, clean, pool = self._setup()
        calls, at_fit = [], []
        forward, fit = teacher.forward, distill_mod.fit

        def spy_forward(*args, **kwargs):
            calls.append(grad_enabled())
            return forward(*args, **kwargs)

        def spy_fit(*args, **kwargs):
            at_fit.append(len(calls))
            return fit(*args, **kwargs)

        monkeypatch.setattr(teacher, "forward", spy_forward)
        monkeypatch.setattr(distill_mod, "fit", spy_fit)
        for seed in (30, 31):
            _, report = train_student(
                self._student_cfg(teacher), teacher, clean, pool, KDKind.JS,
                make_rng(seed), DistillConfig(epochs=2, batch_size=batch_size))
            assert report.steps
        passes = math.ceil((len(pool) - report.skipped_sources) / batch_size)
        # each call's passes all come before fit, none during its steps
        assert at_fit == [passes, 2 * passes]
        assert calls == [False] * (2 * passes)

    def test_kd_targets_are_each_pairs_own_teacher_rows(self, monkeypatch):
        teacher, clean, pool = self._setup()
        vocab = teacher.config.vocab
        batches, kd_targets = [], []
        real_batch, real_kd = distill_mod.make_batch, distill_mod.kd_loss

        def spy_batch(vocab, sources, targets):
            batches.append(list(zip(sources, targets)))
            return real_batch(vocab, sources, targets)

        def spy_kd(kind, t_probs, s_logp):
            kd_targets.append((batches[-1], t_probs))
            return real_kd(kind, t_probs, s_logp)

        monkeypatch.setattr(distill_mod, "make_batch", spy_batch)
        monkeypatch.setattr(distill_mod, "kd_loss", spy_kd)
        train_student(self._student_cfg(teacher), teacher, clean, pool,
                      KDKind.JS, make_rng(32),
                      DistillConfig(epochs=2, batch_size=5))
        seen: dict[tuple[str, str], list[np.ndarray]] = {}
        for pairs, probs in kd_targets:
            for src, tgt in pairs:
                n = len(encode_source(tgt, vocab))  # BOS + target tokens
                rows, probs = probs[:n], probs[n:]
                alone = teacher_probs(teacher, make_batch(vocab, [src],
                                                          [tgt]))
                np.testing.assert_allclose(rows, alone, rtol=0, atol=1e-6)
                seen.setdefault((src, tgt), []).append(rows)
            assert len(probs) == 0
        # a pair's rows do not depend on the pairs that share its batch
        assert max(len(r) for r in seen.values()) > 1
        for pair, rows in seen.items():
            assert all(np.array_equal(r, rows[0]) for r in rows), pair

    def test_epoch_means_follow_the_batches_fit_cuts(self, monkeypatch):
        # one row, then batches of batch_size: 12 rows in batches of 5 make
        # 4 steps an epoch, not ceil(12 / 5) = 3
        teacher, clean, pool = self._setup()
        per_epoch = []

        def uneven(n, batch_size):
            cuts = [0, 1] + list(range(1 + batch_size, n, batch_size)) + [n]
            per_epoch.append(len(cuts) - 1)
            return [range(a, b) for a, b in zip(cuts, cuts[1:])]

        monkeypatch.setattr(train_mod, "_batches", uneven)
        student_cfg = Seq2SeqConfig(vocab=teacher.config.vocab,
                                    n_enc_layers=1, n_dec_layers=1,
                                    d_model=16, n_heads=2, d_ff=32,
                                    max_len=16)
        _, report = train_student(student_cfg, teacher, clean, pool,
                                  KDKind.JS, make_rng(20),
                                  DistillConfig(epochs=3, batch_size=5))
        assert per_epoch == [4, 4, 4]
        assert len(report.steps) == 12
        for e, means in enumerate(report.epoch_means):
            steps = report.steps[4 * e:4 * (e + 1)]
            assert means == {
                name: float(np.mean([getattr(st, name) for st in steps]))
                for name in ("loss_s", "loss_d", "loss_kd")}, e

    def test_ce_vs_js_differ_only_in_kd_term_at_step_one(self):
        teacher, clean, pool = self._setup()
        cfg = DistillConfig(epochs=1, lr=1e-3)
        _, rep_ce = train_student(teacher.config, teacher, clean, pool,
                                  KDKind.CE, make_rng(17), cfg)
        _, rep_js = train_student(teacher.config, teacher, clean, pool,
                                  KDKind.JS, make_rng(17), cfg)
        first_ce, first_js = rep_ce.steps[0], rep_js.steps[0]
        assert first_ce.loss_s == first_js.loss_s
        assert first_ce.loss_d == first_js.loss_d
        assert first_ce.loss_kd != first_js.loss_kd

    def test_divergence_rolls_back_initial_student_and_raises(self):
        # 12 pairs in batches of 6: step 1 blows the weights up to ~1e18,
        # step 2 overflows, so distillation dies inside epoch 1
        teacher, clean, pool = self._setup()
        student = init_model(teacher.config, make_rng(18))
        before = {k: t.data.copy() for k, t in student.params.items()}
        cfg = DistillConfig(epochs=2, lr=1e18, batch_size=6,
                            weight_decay=0.0, kinds=())
        with pytest.raises(TrainingDivergedError, match="rolled back"):
            train_student(teacher.config, teacher, clean, pool, KDKind.JS,
                          make_rng(19), cfg, initial_student=student)
        for k, t in student.params.items():
            assert np.array_equal(t.data, before[k]), k

    @pytest.mark.parametrize("lam", [-0.1, 1.5, float("nan")])
    def test_lambda_outside_unit_interval_rejected(self, lam):
        with pytest.raises(DataError, match="lambda"):
            DistillConfig(lam=lam)

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("epochs", -2), ("epochs", 1.0)])
    def test_loop_sizes_checked(self, field, value):
        with pytest.raises(DataError, match=field):
            DistillConfig(**{field: value})

    def test_lambda_bounds_accepted(self):
        assert DistillConfig(lam=0.0).lam == 0.0
        assert DistillConfig(lam=1.0).lam == 1.0

    def test_empty_inputs_rejected(self):
        teacher, clean, pool = self._setup()
        with pytest.raises(DataError, match="clean_corpus is empty"):
            train_student(teacher.config, teacher, [], pool, KDKind.JS,
                          make_rng(0))
        with pytest.raises(DataError, match="unlabeled_pool is empty"):
            train_student(teacher.config, teacher, clean, [], KDKind.JS,
                          make_rng(0))


    def test_over_long_clean_pair_refused_before_pseudo_labelling(
            self, monkeypatch):
        teacher = load_checkpoint(TEACHER)
        vocab = teacher.config.vocab
        student_cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1,
                                    n_dec_layers=1, d_model=8, n_heads=2,
                                    d_ff=16, max_len=8)
        words = vocab.id_to_token[5:14]
        clean = [ParallelExample(" ".join(words[:3]), words[0])] * 3
        clean.append(ParallelExample(" ".join(words), words[0]))
        monkeypatch.setattr(distill_mod, "generate_pseudo_labels",
                            lambda *a, **k: pytest.fail("pseudo-labelled"))
        with pytest.raises(DataError, match="^pair 3: sequence length 10 "
                                            "exceeds max_len 8$"):
            train_student(student_cfg, teacher, clean, [words[0]],
                          KDKind.JS, make_rng(0))


    @pytest.mark.parametrize("change,message", [
        # the same 29 tokens in another order: same size, other ids
        (lambda toks: (toks[::-1], "word"),
         r"^student vocabulary spells id 5 '\S+', the teacher's '\S+'$"),
        (lambda toks: (toks[:-1], "word"),
         "^student vocabulary has 28 tokens, the teacher's 29$"),
        (lambda toks: (toks, "char"),
         "^student vocab mode 'char' is not the teacher's 'word'$"),
    ], ids=["reordered", "smaller", "char-mode"])
    def test_student_vocab_must_be_the_teachers(self, monkeypatch, change,
                                                message):
        teacher, clean, pool = self._setup()
        tokens, mode = change(teacher.config.vocab.id_to_token[5:])
        cfg = replace(self._student_cfg(teacher), vocab=Vocab(tokens, mode))
        monkeypatch.setattr(distill_mod, "generate_pseudo_labels",
                            lambda *a, **k: pytest.fail("pseudo-labelled"))
        with pytest.raises(DataError, match=message):
            train_student(cfg, teacher, clean, pool, KDKind.JS, make_rng(0))
        student = init_model(cfg, make_rng(1))
        with pytest.raises(DataError, match=message.replace(
                "^student", "^initial_student")):
            train_student(self._student_cfg(teacher), teacher, clean, pool,
                          KDKind.JS, make_rng(0), initial_student=student)

    def test_int8_initial_student_refused_before_pseudo_labelling(
            self, monkeypatch):
        teacher, clean, pool = self._setup()
        student = quantize_model(init_model(self._student_cfg(teacher),
                                            make_rng(1)))
        monkeypatch.setattr(distill_mod, "generate_pseudo_labels",
                            lambda *a, **k: pytest.fail("pseudo-labelled"))
        with pytest.raises(DataError, match="^cannot train an int8"):
            train_student(self._student_cfg(teacher), teacher, clean, pool,
                          KDKind.JS, make_rng(0), initial_student=student)

    def test_initial_student_max_len_decides_the_skipped_pairs(
            self, monkeypatch):
        # the student that trains has max_len 5, the config 32: the 6-word
        # source (7 ids with EOS) is skipped, not run in a KD batch
        teacher = load_checkpoint(TEACHER)
        vocab = teacher.config.vocab
        words = vocab.id_to_token[5:11]

        def cfg(max_len):
            return Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=1,
                                 d_model=8, n_heads=2, d_ff=16,
                                 max_len=max_len)

        student = init_model(cfg(5), make_rng(21))
        clean = [ParallelExample(" ".join(words[:2]), words[0])] * 4
        pool = [" ".join(words[:2]), " ".join(words[:3]), " ".join(words)]
        seen = []
        real = distill_mod.make_batch

        def spy(vocab, sources, *rest):
            seen.extend(sources)
            return real(vocab, sources, *rest)

        monkeypatch.setattr(distill_mod, "make_batch", spy)
        trained, report = train_student(
            cfg(32), teacher, clean, pool, KDKind.JS, make_rng(22),
            DistillConfig(epochs=2, batch_size=4), initial_student=student)
        assert trained is student
        assert report.skipped_sources == 1
        assert len(report.steps) == 2
        assert set(seen) == set(pool[:2])


class TestTrainStudentMatchesReference:
    """train_student is train.fit plus a KD term; with the same seed it must
    take exactly the steps of the stand-alone distillation loop."""

    @staticmethod
    def _check(kd_kind, lam, kinds, batch_size):
        teacher, corpus = overfit_teacher(pairs=12)
        clean = [ParallelExample(ex.source, ex.target) for ex in corpus]
        pool = [ex.source for ex in corpus]
        student_cfg = Seq2SeqConfig(vocab=teacher.config.vocab,
                                    n_enc_layers=1, n_dec_layers=1,
                                    d_model=16, n_heads=2, d_ff=32,
                                    max_len=16, dropout_prob=0.1)
        cfg = DistillConfig(epochs=2, lr=1e-3, batch_size=batch_size,
                            lam=lam, kinds=kinds)
        got_model, got = train_student(student_cfg, teacher, clean, pool,
                                       kd_kind, make_rng(41), cfg)
        ref_model, ref = reference_train_student(
            student_cfg, teacher, clean, pool, kd_kind, make_rng(41), cfg)
        assert len(got.steps) == 2 * math.ceil(12 / batch_size)
        assert got.steps == ref.steps
        assert got.epoch_means == ref.epoch_means
        assert got.skipped_sources == ref.skipped_sources
        assert got.kd_kind == ref.kd_kind
        for name, t in ref_model.params.items():
            assert np.array_equal(got_model.params[name].data, t.data), name

    @pytest.mark.parametrize("kd_kind", [KDKind.JS, KDKind.CE])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("kinds", [(), DistillConfig().kinds],
                             ids=["no_aug", "default_aug"])
    def test_equal_to_reference_loop(self, kd_kind, lam, kinds):
        self._check(kd_kind, lam, kinds, batch_size=5)

    # 1: every KD batch holds one row; 3, 4 and 6: batch sizes at which a
    # teacher pass per KD batch moved a step's loss_kd by 1 ulp, so the
    # reference must build its table in train_student's chunks
    @pytest.mark.parametrize("batch_size", [1, 3, 4, 6])
    def test_equal_to_reference_at_other_batch_sizes(self, batch_size):
        self._check(KDKind.JS, 0.5, DistillConfig().kinds, batch_size)


class TestLatency:
    def test_p50_le_p95_and_format(self):
        model, corpus = overfit_teacher()
        queries = [ex.source for ex in corpus]
        rep = bench_latency(model, queries, warmup=10, samples=200)
        assert rep.p50_ms <= rep.p95_ms
        assert len(rep.samples_ms) == 200
        rec = rep.records()[0]
        assert rec["model"] == model.model_id
        assert rec["n_samples"] == 200

    def test_parameter_validation(self):
        model, corpus = overfit_teacher()
        queries = [ex.source for ex in corpus]
        with pytest.raises(DataError):
            bench_latency(model, queries, warmup=10, samples=100)
        with pytest.raises(DataError):
            bench_latency(model, queries, warmup=5, samples=200)
        with pytest.raises(DataError):
            bench_latency(model, [], warmup=10, samples=200)

    @pytest.mark.parametrize("counts,message", [
        ({"samples": 250.5}, "samples must be an integer >= 200, got 250.5"),
        ({"warmup": 10.0}, "warmup must be an integer >= 10, got 10.0")],
        ids=["samples-float", "warmup-float"])
    def test_counts_are_data_errors_naming_them(self, counts, message,
                                               monkeypatch):
        model, corpus = overfit_teacher()
        monkeypatch.setattr(distill_mod, "beam_search",
                            lambda *a, **k: pytest.fail("decoded"))
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            bench_latency(model, [corpus[0].source], **counts)

    def test_over_long_query_named_before_the_warm_up(self, monkeypatch):
        # max_len 16: 15 words and EOS fit, 16 words and EOS do not
        model, corpus = overfit_teacher()
        word = corpus[0].source.split()[0]
        queries = [corpus[0].source, " ".join([word] * 15),
                   " ".join([word] * 16)]
        monkeypatch.setattr(distill_mod, "beam_search",
                            lambda *a, **k: pytest.fail("decoded"))
        with pytest.raises(DataError, match="^query 2: sequence length 17 "
                                            "exceeds max_len 16$"):
            bench_latency(model, queries, warmup=10, samples=200)
