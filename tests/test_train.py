import re
import sys
import tracemalloc
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from codemix import train as train_mod
from codemix.augment import AugKind
from codemix.checkpoint import load_checkpoint, read_kv, save_checkpoint
from codemix.distill import DistillConfig, KDKind, kd_loss
from codemix.errors import (CheckpointError, CodemixError, DataError,
                            NonFiniteError, ShapeError,
                            TrainingDivergedError)
from codemix.langid import gen_langid_corpus, train_crf
from codemix.numerics import Tensor, log_softmax, make_rng, no_grad
from codemix.numerics import tensor as tensor_mod
from codemix.numerics.tensor import gelu_forward, layer_norm_forward
from codemix.quant import quantize_model
from codemix.seq2seq import (Seq2SeqConfig, Seq2SeqModel, beam_search,
                             encode_source, init_model, label_smoothed_ce,
                             make_batch)
from codemix.text import (BOS, ParallelExample, SynthTaskSpec, Vocab,
                          gen_clean_corpus, gen_synthetic_corpus,
                          synthetic_vocab)
from codemix.train import (DEFAULT_STAGE1_KINDS, Recipe, StageConfig,
                           TrainingConfig, config_from_items, evaluate_loss,
                           fit, train_stage1, train_stage2)
from codemix.translit import train_translit

from oracles import check_pure_backward, tape_nodes, teacher_probs


SPEC = SynthTaskSpec(lexicon_size=12, code_mix_ratio=0.2,
                     noise_char_drop_prob=0.1, pseudo_label_error_rate=0.05,
                     seed=21)


def small_setup(seed=0, d=32):
    vocab = synthetic_vocab(SPEC)
    cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=1,
                        d_model=d, n_heads=2, d_ff=2 * d, max_len=16,
                        dropout_prob=0.0)
    return init_model(cfg, make_rng(seed))


def weights_equal(a, b):
    return all(np.array_equal(a.params[k].data, b.params[k].data)
               for k in a.params)


class TestStage1:
    def test_clean_corpus_trains_as_fit_does(self):
        # the stage is the recipe alone: any corpus trains, bit for bit as
        # `fit` with stage 1's settings and the same three streams
        clean = gen_clean_corpus(SPEC, 40)
        cfg = TrainingConfig()
        cfg.stage1 = StageConfig(epochs=2, lr=1e-3, batch_size=16)
        m_a, m_b = small_setup(seed=4), small_setup(seed=4)
        train_stage1(m_a, clean, cfg, make_rng(6))
        fit(m_b, clean, Recipe(epochs=2, lr=1e-3, batch_size=16,
                               lam=cfg.lam,
                               label_smoothing=cfg.label_smoothing,
                               weight_decay=cfg.weight_decay,
                               kinds=cfg.stage1.kinds),
            make_rng(6).spawn(3), stage="stage1")
        assert weights_equal(m_a, m_b)
        assert not weights_equal(m_a, small_setup(seed=4))

    def test_lambda_zero_equals_no_kinds_run(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 120)
        cfg_a = TrainingConfig(lam=0.0)
        cfg_a.stage1 = StageConfig(epochs=2, lr=1e-3, batch_size=32)
        cfg_b = TrainingConfig()
        cfg_b.stage1 = StageConfig(epochs=2, lr=1e-3, batch_size=32, kinds=())
        m_a, m_b = small_setup(seed=3), small_setup(seed=3)
        train_stage1(m_a, corpus, cfg_a, make_rng(5))
        train_stage1(m_b, corpus, cfg_b, make_rng(5))
        assert weights_equal(m_a, m_b)

    def test_same_seed_bit_identical_weights(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 100)
        cfg = TrainingConfig()
        cfg.stage1 = StageConfig(epochs=2, lr=1e-3, batch_size=32)
        m_a, m_b = small_setup(seed=4), small_setup(seed=4)
        train_stage1(m_a, corpus, cfg, make_rng(6))
        train_stage1(m_b, corpus, cfg, make_rng(6))
        assert weights_equal(m_a, m_b)

    def test_overfit_halves_loss(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 100)
        cfg = TrainingConfig()
        cfg.stage1 = StageConfig(epochs=50, lr=1e-3, batch_size=32, kinds=())
        model = small_setup(seed=5)
        report = train_stage1(model, corpus, cfg, make_rng(7))
        assert report.epochs[-1].train_loss < 0.5 * report.epochs[0].train_loss

    def test_divergence_rolls_back_and_raises(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 64)
        cfg = TrainingConfig(weight_decay=0.0)
        # two steps per epoch: step 1 blows the weights up to ~1e18, step 2
        # overflows, so training dies inside epoch 1 and rolls back to init
        cfg.stage1 = StageConfig(epochs=3, lr=1e18, batch_size=32, kinds=())
        model = small_setup(seed=6)
        before = {k: t.data.copy() for k, t in model.params.items()}
        with pytest.raises(TrainingDivergedError, match="rolled back"):
            train_stage1(model, corpus, cfg, make_rng(8))
        assert all(np.array_equal(model.params[k].data, before[k])
                   for k in before)

    @pytest.mark.parametrize("lr,weight_decay", [
        (float("inf"), 0.01), (float("nan"), 0.01), (1e-3, float("nan"))],
        ids=["lr-inf", "lr-nan", "weight-decay-nan"])
    def test_non_finite_step_rolls_back_and_raises(self, lr, weight_decay):
        # the first step writes NaN or Inf weights; the loss never sees them
        corpus, _ = gen_synthetic_corpus(SPEC, 40)
        model = small_setup(seed=6)
        before = {k: t.data.copy() for k, t in model.params.items()}
        with pytest.raises(TrainingDivergedError,
                           match="after the optimizer step.*rolled back"):
            fit(model, corpus, Recipe(epochs=2, lr=lr, batch_size=16,
                                      lam=0.0, label_smoothing=0.1,
                                      weight_decay=weight_decay, kinds=()),
                make_rng(8).spawn(3))
        assert all(np.array_equal(model.params[k].data, before[k])
                   for k in before)
        assert all(t.grad is None for t in model.params.values())

    def test_divergence_after_a_terms_backward_leaves_no_gradient(
            self, monkeypatch):
        # the augmented forward fails after loss_s's backward filled .grad;
        # a caller that trains the restored model again must start clean
        ce, calls = train_mod.label_smoothed_ce, []

        def failing_ce(*args):
            calls.append(args)
            if len(calls) == 2:
                raise NonFiniteError("label_smoothed_ce output is not finite")
            return ce(*args)

        monkeypatch.setattr(train_mod, "label_smoothed_ce", failing_ce)
        corpus, _ = gen_synthetic_corpus(SPEC, 16)
        model = small_setup(seed=6)
        before = model.snapshot()
        with pytest.raises(TrainingDivergedError, match="rolled back"):
            fit(model, corpus, Recipe(epochs=1, lr=1e-3, batch_size=16,
                                      lam=0.5, label_smoothing=0.1,
                                      weight_decay=0.0,
                                      kinds=(AugKind.AUTOENCODER,)),
                make_rng(8).spawn(3))
        assert len(calls) == 2
        assert all(t.grad is None for t in model.params.values())
        assert all(np.array_equal(model.params[k].data, before[k])
                   for k in before)

    def test_report_has_aug_means(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 80)
        cfg = TrainingConfig()
        cfg.stage1 = StageConfig(epochs=1, lr=1e-3, batch_size=16,
                                 kinds=(AugKind.AUTOENCODER,))
        model = small_setup(seed=7)
        report = train_stage1(model, corpus, cfg, make_rng(9))
        assert "autoencoder" in report.epochs[0].aug_loss_means
        assert report.records()[0]["stage"] == "stage1"


class TestStage2:
    def test_noisy_corpus_trains(self):
        noisy, _ = gen_synthetic_corpus(SPEC, 30)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(epochs=2, lr=1e-3, batch_size=8)
        report = train_stage2(small_setup(), noisy, cfg, make_rng(0))
        assert [e.epoch for e in report.epochs] == [1, 2]
        assert all(np.isfinite(e.val_loss) for e in report.epochs)

    def test_small_corpus_rejected(self):
        model = small_setup()
        clean = gen_clean_corpus(SPEC, 5)
        with pytest.raises(DataError):
            train_stage2(model, clean, TrainingConfig(), make_rng(0))

    def test_split_leaving_no_training_pair_names_its_cause(self,
                                                            monkeypatch):
        def evaluate(*args, **kwargs):
            raise AssertionError("evaluated before the split was checked")

        monkeypatch.setattr(train_mod, "evaluate_loss", evaluate)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(val_fraction=0.99)
        with pytest.raises(DataError, match=re.escape(
                "stage2.val_fraction 0.99 holds out 20 of 20 clean pairs")):
            train_stage2(small_setup(), gen_clean_corpus(SPEC, 20), cfg,
                         make_rng(0))

    def test_every_validation_loss_uses_the_stage_batch_size(self,
                                                            monkeypatch):
        # epoch 0's loss and every later epoch's are compared, so they are
        # taken at one batching
        evaluate, sizes = train_mod.evaluate_loss, []

        def spy(model, corpus, label_smoothing, batch_size=64):
            sizes.append(batch_size)
            return evaluate(model, corpus, label_smoothing, batch_size)

        monkeypatch.setattr(train_mod, "evaluate_loss", spy)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(epochs=2, lr=1e-3, batch_size=16, kinds=())
        train_stage2(small_setup(seed=7), gen_clean_corpus(SPEC, 40), cfg,
                     make_rng(9))
        assert sizes == [16] * 3

    def test_returns_argmin_checkpoint(self):
        clean = gen_clean_corpus(SPEC, 80)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(epochs=6, lr=1e-3, batch_size=16, kinds=(),
                                 patience=3)
        model = small_setup(seed=8)
        report = train_stage2(model, clean, cfg, make_rng(10))
        val_losses = [e.val_loss for e in report.epochs]
        best = report.notes["best_val_loss"]
        assert best <= min(val_losses)
        assert best <= report.notes["epoch0_val_loss"]

    def test_cannot_worsen_vs_epoch0(self):
        # untrained model: epoch-0 checkpoint is a candidate, so the
        # returned model's val loss never exceeds the initial one
        clean = gen_clean_corpus(SPEC, 60)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(epochs=1, lr=1e18, batch_size=16, kinds=(),
                                 patience=1)
        cfg.weight_decay = 0.0
        model = small_setup(seed=9)
        try:
            report = train_stage2(model, clean, cfg, make_rng(11))
        except TrainingDivergedError:
            return  # lr made it diverge before any usable epoch: fine here
        assert report.notes["best_val_loss"] <= report.notes["epoch0_val_loss"]

    def test_patience_one_stops_after_first_rise(self):
        clean = gen_clean_corpus(SPEC, 80)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(epochs=30, lr=5e-2, batch_size=16, kinds=(),
                                 patience=1)
        model = small_setup(seed=10)
        report = train_stage2(model, clean, cfg, make_rng(12))
        # stopped at the first epoch whose val loss did not improve
        val = [report.notes["epoch0_val_loss"]] + \
              [e.val_loss for e in report.epochs]
        rises = [i for i in range(1, len(val)) if val[i] >= min(val[:i])]
        assert rises and len(report.epochs) == rises[0]

    def test_split_deterministic(self):
        clean = gen_clean_corpus(SPEC, 60)
        cfg = TrainingConfig()
        cfg.stage2 = StageConfig(epochs=2, lr=1e-3, batch_size=16, kinds=())
        m_a, m_b = small_setup(seed=11), small_setup(seed=11)
        ra = train_stage2(m_a, clean, cfg, make_rng(13))
        rb = train_stage2(m_b, clean, cfg, make_rng(13))
        assert weights_equal(m_a, m_b)
        assert [e.val_loss for e in ra.epochs] == [e.val_loss for e in rb.epochs]


class TestInt8Training:
    def test_int8_is_a_storage_format_of_the_one_model_class(self, tmp_path):
        model = quantize_model(small_setup(seed=16))
        save_checkpoint(model, tmp_path / "ck")
        corpus, _ = gen_synthetic_corpus(SPEC, 16)
        for m in (model, load_checkpoint(tmp_path / "ck")):
            assert type(m) is Seq2SeqModel and m.quantized
            assert m.model_id.endswith("-int8")
            with pytest.raises(DataError, match="cannot train an int8"):
                fit(m, corpus, Recipe(epochs=1, lr=1e-3, batch_size=8,
                                      lam=0.5, label_smoothing=0.1,
                                      weight_decay=0.0, kinds=()),
                    make_rng(0).spawn(3))

    def test_train_stage2_rejects_int8_model(self):
        model = quantize_model(small_setup(seed=16))
        with pytest.raises(DataError, match="cannot train an int8"):
            train_stage2(model, gen_clean_corpus(SPEC, 20), TrainingConfig(),
                         make_rng(0))

    def test_quantizing_an_int8_model_is_a_data_error(self, tmp_path):
        model = quantize_model(small_setup(seed=16))
        save_checkpoint(model, tmp_path / "ck")
        for m in (model, load_checkpoint(tmp_path / "ck")):
            with pytest.raises(DataError, match="already int8-quantized"):
                quantize_model(m)

    def test_fit_rejects_int8_model(self):
        model = quantize_model(small_setup(seed=16))
        corpus, _ = gen_synthetic_corpus(SPEC, 16)
        with pytest.raises(DataError, match="int8"):
            fit(model, corpus, Recipe(epochs=1, lr=1e-3, batch_size=8,
                                      lam=0.5, label_smoothing=0.1,
                                      weight_decay=0.0, kinds=()),
                make_rng(0).spawn(3))


class TestWeightsBinding:
    """A model binds its parameter tensors on its first pass and keeps the
    binding: optimizer steps and `restore` write the tensors in place, and
    every later pass must see them as a freshly built model does."""

    def test_passes_follow_fit_and_restore(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 24)
        model = small_setup(seed=22)
        vocab = model.config.vocab
        batch = make_batch(vocab, [ex.source for ex in corpus[:4]],
                           [ex.target for ex in corpus[:4]])
        src = encode_source(corpus[0].source, vocab)

        def passes(m):
            enc = m.encode(batch["src"])
            logits = m.decode(enc, batch["src"], batch["dec_in"])
            with no_grad():
                cache = m.start_decoding([m.encode(np.asarray([src]))])
                step = m.decode_step(cache, np.array([BOS]))
            best = beam_search(m, src, beam=3, max_len=12)
            return (enc.data.tobytes(), logits.data.tobytes(),
                    step.tobytes(), best.ids, best.score, best.finished)

        def rebuilt(m):
            return Seq2SeqModel(m.config, {k: Tensor(t.data.copy())
                                           for k, t in m.params.items()})

        snap = model.snapshot()
        assert passes(model) == passes(rebuilt(model))
        fit(model, corpus, Recipe(epochs=1, lr=1e-2, batch_size=8, lam=0.0,
                                  label_smoothing=0.1, weight_decay=0.0,
                                  kinds=()),
            make_rng(23).spawn(3))
        assert not np.array_equal(model.params["dec0.ffn.w1"].data,
                                  snap["dec0.ffn.w1"])
        assert passes(model) == passes(rebuilt(model))
        model.restore(snap)
        assert passes(model) == passes(rebuilt(model))


class TestFreedTape:
    """backward() frees the graph as it walks it, and `fit` runs each loss
    term's backward right after its forward, so a training step holds one
    term's graph at a time: never two steps' activations, nor two terms'."""

    def test_backward_frees_every_node_it_reached(self):
        model = small_setup(seed=30)
        corpus, _ = gen_synthetic_corpus(SPEC, 6)
        batch = make_batch(model.config.vocab, [ex.source for ex in corpus],
                           [ex.target for ex in corpus])
        loss = label_smoothed_ce(model.forward(batch["src"], batch["dec_in"]),
                                 batch["labels"], 0.1)
        nodes = tape_nodes(loss)
        reached = {id(t) for t in nodes}
        inner = [t for t in nodes if t._parents]
        assert len(inner) > 5
        assert all(id(p) in reached for p in model.params.values())
        loss.backward()
        for t in inner:
            assert t._parents == () and t.grad is None
            assert t._backward.__closure__ is None  # no saved arrays
        assert all(p.grad is not None and p.grad.shape == p.shape
                   for p in model.params.values())
        with pytest.raises(CodemixError, match="freed"):
            loss.backward()

    @staticmethod
    def peak(epochs, kinds):
        """tracemalloc's peak over `fit` on 32 pairs at batch size 32, so
        one step per epoch."""
        corpus, _ = gen_synthetic_corpus(SPEC, 32)
        model = small_setup(seed=31)
        tracemalloc.start()
        try:
            fit(model, corpus, Recipe(epochs=epochs, lr=1e-3, batch_size=32,
                                      lam=0.5, label_smoothing=0.1,
                                      weight_decay=0.01, kinds=kinds),
                make_rng(32).spawn(3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_does_not_grow_with_steps(self):
        kinds = (AugKind.AUTOENCODER,)
        assert self.peak(4, kinds) <= 1.3 * self.peak(1, kinds)

    def test_an_augmented_term_adds_little_to_a_steps_peak(self):
        # the augmented term's graph is built after the supervised one is
        # freed, so a step's peak is about one term's (a step that held
        # both graphs read 1.7 times the supervised step's)
        assert self.peak(1, (AugKind.AUTOENCODER,)) <= 1.25 * self.peak(1, ())


class TestTermOrder:
    """Each loss term's backward runs right after its forward."""

    def calls(self, monkeypatch, model, **fit_kwargs):
        forward, backward, calls = Seq2SeqModel.forward, Tensor.backward, []

        def spy_forward(self, *args, **kwargs):
            calls.append("F")
            return forward(self, *args, **kwargs)

        def spy_backward(self, *args, **kwargs):
            calls.append("B")
            return backward(self, *args, **kwargs)

        monkeypatch.setattr(Seq2SeqModel, "forward", spy_forward)
        monkeypatch.setattr(Tensor, "backward", spy_backward)
        corpus, _ = gen_synthetic_corpus(SPEC, 8)
        fit(model, corpus, Recipe(epochs=1, lr=1e-3, batch_size=4, lam=0.5,
                                  label_smoothing=0.1, weight_decay=0.0,
                                  kinds=(AugKind.AUTOENCODER,)),
            make_rng(34).spawn(3), **fit_kwargs)
        return "".join(calls)

    def test_augmentation_alternates_forward_and_backward(self,
                                                          monkeypatch):
        assert self.calls(monkeypatch, small_setup(seed=33)) == "FBFB" * 2

    def test_a_hook_term_runs_after_both_backwards(self, monkeypatch):
        student, teacher = small_setup(seed=35), small_setup(seed=36)
        corpus, _ = gen_synthetic_corpus(SPEC, 4)
        batch = make_batch(student.config.vocab,
                           [ex.source for ex in corpus],
                           [ex.target for ex in corpus])
        t_probs = teacher_probs(teacher, batch)

        def hook(n_rows, loss_s, loss_d):
            return kd_loss(KDKind.JS, t_probs, log_softmax(
                student.forward(batch["src"], batch["dec_in"])))

        assert self.calls(monkeypatch, student,
                          extra_loss=hook) == "FBFBFB" * 2  # two steps


def held_arrays(fn) -> list[np.ndarray]:
    """The arrays a backward closure holds, directly or through the
    closures and tuples it holds; a Tensor's own array does not count."""
    out, stack, seen = [], [fn], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            out.append(obj)
        elif isinstance(obj, tuple):
            stack.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(c.cell_contents for c in obj.__closure__)
    return out


class TestLeanTape:
    """A training step's tape keeps what each backward needs in its
    smallest exact form: dropout masks as booleans, and no array that
    backward rebuilds (a float mask, attention's dropped probabilities,
    an FFN's GELU output, a block's pre-norm h)."""

    P = 0.3

    def tape(self):
        vocab = synthetic_vocab(SPEC)
        cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=2,
                            d_model=16, n_heads=2, d_ff=24, max_len=16,
                            dropout_prob=self.P)
        model = init_model(cfg, make_rng(40))
        rng = make_rng(42)
        for name, t in model.params.items():  # so that h != xhat
            if name.endswith((".g", ".b")):
                t.data += rng.normal(0.0, 0.1, t.shape).astype(t.dtype)
        corpus, _ = gen_synthetic_corpus(SPEC, 6)
        batch = make_batch(vocab, [ex.source for ex in corpus],
                           [ex.target for ex in corpus])
        assert (batch["src"] == 0).any()  # padded rows: not dense
        loss = label_smoothed_ce(
            model.forward(batch["src"], batch["dec_in"], rng=make_rng(41)),
            batch["labels"], 0.1)
        return cfg, [t for t in tape_nodes(loss) if t._backward is not None]

    def test_masks_are_bool_and_rebuilt_arrays_are_not_kept(self):
        cfg, nodes = self.tape()
        blocks = [t for t in nodes if t._backward.__qualname__.startswith(
            "Seq2SeqModel._block")]
        assert len(blocks) == 2 * cfg.n_enc_layers + 3 * cfg.n_dec_layers
        held = [a for t in nodes for a in held_arrays(t._backward)]
        floats = [a for a in held if a.dtype.kind == "f"]
        scale = np.float32(1.0) / np.float32(1.0 - self.P)

        # one boolean mask per block's residual dropout and per attention
        masks = [a for a in held if a.dtype == bool]
        float_masks = [a for a in floats
                       if set(np.unique(a)) <= {0.0, scale}]
        assert not float_masks
        assert len(masks) == len(blocks) + (cfg.n_enc_layers
                                            + 2 * cfg.n_dec_layers)

        def kept(value):
            return any(a.shape == value.shape and np.array_equal(a, value)
                       for a in floats)

        for x, g, b in (t._parents[:3] for t in blocks):
            h = layer_norm_forward(x.data, g.data, b.data)[0]
            assert not kept(h), "a block's pre-norm h"
        for u in [a for a in floats if a.ndim and a.shape[-1] == cfg.d_ff]:
            assert not kept(gelu_forward(u)[0]), "an FFN's GELU output"
        drops = float_masks + [m.astype(np.float32) / (1.0 - self.P)
                               for m in masks]
        for probs in [a for a in floats if a.ndim == 4]:
            for drop in drops:
                if drop.shape == probs.shape:
                    assert not kept(probs * drop), "attention's dropped probs"


class TestPureBackward:
    """Every backward on a training step's tape returns its parents'
    gradients and writes none: `Tensor.backward` alone adds them in."""

    def test_every_node_returns_one_gradient_per_parent(self):
        vocab = synthetic_vocab(SPEC)
        cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=1,
                            d_model=16, n_heads=2, d_ff=24, max_len=16,
                            dropout_prob=0.2)
        student, teacher = (init_model(cfg, make_rng(s)) for s in (50, 51))
        corpus, _ = gen_synthetic_corpus(SPEC, 6)
        batch = make_batch(vocab, [ex.source for ex in corpus],
                           [ex.target for ex in corpus])
        rng = make_rng(52)
        # the supervised term and both KD terms of a distillation step
        roots = [label_smoothed_ce(student.forward(batch["src"],
                                                   batch["dec_in"], rng=rng),
                                   batch["labels"], 0.1)]
        t_probs = teacher_probs(teacher, batch)
        roots += [kd_loss(kind, t_probs, log_softmax(student.forward(
            batch["src"], batch["dec_in"], rng=rng))) for kind in KDKind]
        names = check_pure_backward(tape_nodes(*roots))
        assert {n.split(".<locals>")[0] for n in names} == {
            "Seq2SeqModel._embed", "Seq2SeqModel._block", "linear",
            "layer_norm", "log_softmax", "label_smoothed_ce", "kd_loss"}


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        model = small_setup(seed=12)
        save_checkpoint(model, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert weights_equal(model, loaded)
        assert loaded.config.vocab.id_to_token == model.config.vocab.id_to_token
        save_checkpoint(loaded, tmp_path / "ck2")
        assert (tmp_path / "ck" / "weights.bin").read_bytes() == \
               (tmp_path / "ck2" / "weights.bin").read_bytes()

    def test_int8_round_trip_byte_identical(self, tmp_path):
        model = quantize_model(small_setup(seed=12))
        save_checkpoint(model, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        save_checkpoint(loaded, tmp_path / "ck2")
        for f in ("weights.bin", "manifest.tsv", "config.txt"):
            assert (tmp_path / "ck" / f).read_bytes() == \
                   (tmp_path / "ck2" / f).read_bytes(), f
        corpus, _ = gen_synthetic_corpus(SPEC, 8)
        for ex in corpus:
            src = encode_source(ex.source, model.config.vocab)
            got = beam_search(loaded, src, beam=3, max_len=12)
            want = beam_search(model, src, beam=3, max_len=12)
            assert (got.ids, got.finished, got.score) == \
                   (want.ids, want.finished, want.score)

    def test_truncated_blob_detected(self, tmp_path):
        model = small_setup(seed=13)
        save_checkpoint(model, tmp_path / "ck")
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()
        (tmp_path / "ck" / "weights.bin").write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(tmp_path / "ck")

    def test_trailing_bytes_rejected(self, tmp_path):
        model = small_setup(seed=13)
        save_checkpoint(model, tmp_path / "ck")
        with open(tmp_path / "ck" / "weights.bin", "ab") as f:
            f.write(b"\0" * 3)
        with pytest.raises(CheckpointError, match="3 trailing bytes"):
            load_checkpoint(tmp_path / "ck")

    def test_int8_payload_of_minus_128_rejected(self, tmp_path):
        save_checkpoint(quantize_model(small_setup(seed=13)), tmp_path / "ck")
        rows = [ln.split("\t") for ln in
                (tmp_path / "ck" / "manifest.tsv").read_text().splitlines()]
        name, _, _, offset, _ = next(r for r in rows if r[1] == "i8")
        blob = bytearray((tmp_path / "ck" / "weights.bin").read_bytes())
        blob[int(offset)] = 0x80  # int8 -128
        (tmp_path / "ck" / "weights.bin").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match=f"'{name}' holds -128"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_weight_names_tensor(self, value, tmp_path):
        save_checkpoint(small_setup(seed=13), tmp_path / "ck")
        rows = [ln.split("\t") for ln in
                (tmp_path / "ck" / "manifest.tsv").read_text().splitlines()]
        name, _, _, offset, _ = next(r for r in rows
                                     if r[0] == "dec0.ffn.w2")
        blob = bytearray((tmp_path / "ck" / "weights.bin").read_bytes())
        at = int(offset) + 4 * 5  # the sixth float32 of the tensor
        blob[at:at + 4] = np.array([value], dtype="<f4").tobytes()
        (tmp_path / "ck" / "weights.bin").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(tmp_path / "ck")
        assert str(err.value) == (f"{tmp_path / 'ck'}: tensor '{name}' "
                                  f"holds NaN or Inf")

    def test_shape_mismatch_names_tensor(self, tmp_path):
        model = small_setup(seed=14)
        save_checkpoint(model, tmp_path / "ck")
        cfg_file = tmp_path / "ck" / "config.txt"
        text = cfg_file.read_text().replace("d_ff = 64", "d_ff = 128")
        cfg_file.write_text(text)
        with pytest.raises(ShapeError, match="enc0.ffn.w1"):
            load_checkpoint(tmp_path / "ck")

    def test_unknown_dtype_rejected(self, tmp_path):
        model = small_setup(seed=15)
        save_checkpoint(model, tmp_path / "ck")
        mf = tmp_path / "ck" / "manifest.tsv"
        mf.write_text(mf.read_text().replace("\tf32\t", "\tf16\t", 1))
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("old,new", [("n_heads = 2", "n_heads = 0"),
                                         ("d_model = 32", "d_model = x32"),
                                         ("dropout_prob = 0.0",
                                          "dropout_prob = 1.0")])
    def test_bad_config_value_rejected(self, old, new, tmp_path):
        save_checkpoint(small_setup(seed=15), tmp_path / "ck")
        cfg_file = tmp_path / "ck" / "config.txt"
        text = cfg_file.read_text()
        assert old in text
        cfg_file.write_text(text.replace(old, new))
        with pytest.raises(CheckpointError, match="bad config.txt"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope")

    # a form feed ends no line, so it too is the first row's scale
    @pytest.mark.parametrize("scale", ["junk", "\x0c"])
    def test_scale_on_float32_tensor_names_it(self, scale, tmp_path):
        save_checkpoint(small_setup(seed=16), tmp_path / "ck")
        mf = tmp_path / "ck" / "manifest.tsv"
        first, rest = mf.read_text(encoding="utf-8").split("\n", 1)
        assert first.startswith("tok_emb\tf32\t") and first.endswith("\t")
        mf.write_text(first + scale + "\n" + rest, encoding="utf-8")
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(tmp_path / "ck")
        assert str(err.value) == (f"{mf}: f32 tensor 'tok_emb' has scale "
                                  f"{scale!r}")


class TestConfigFile:
    def test_round_trip_items(self):
        cfg = TrainingConfig()
        cfg.stage1 = StageConfig(epochs=7, lr=2e-4, batch_size=16)
        items = {k: str(v) for k, v in cfg.items().items()}
        back = config_from_items(items)
        assert back.stage1.epochs == 7
        assert back.stage1.lr == pytest.approx(2e-4)
        assert back.stage1.kinds == cfg.stage1.kinds

    def test_unknown_key_rejected(self):
        with pytest.raises(DataError):
            config_from_items({"frobnicate": "1"})

    @pytest.mark.parametrize("key,value,message", [
        ("stage1.batch_size", "0", "stage1: batch_size must be an integer"),
        ("stage2.batch_size", "-3", "stage2: batch_size must be an integer"),
        ("stage1.epochs", "-1", "stage1: epochs must be an integer >= 0"),
        ("stage2.patience", "0", "patience must be >= 1"),
        ("stage1.epochs", "x", "stage1.epochs = 'x'"),
        ("seed", "1.5", "seed = '1.5'"),
        ("lambda", "half", "lambda = 'half'"),
        ("stage2.kinds", "mask,bogus", "stage2.kinds = 'mask,bogus'")])
    def test_bad_value_is_data_error_naming_the_key(self, key, value,
                                                    message):
        with pytest.raises(DataError, match=message):
            config_from_items({key: value})

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("batch_size", 2.5), ("epochs", -1)])
    def test_stage_config_checks_loop_sizes(self, field, value):
        with pytest.raises(DataError, match=field):
            StageConfig(**{field: value})

    def test_zero_epochs_accepted(self):
        assert config_from_items({"stage2.epochs": "0"}).stage2.epochs == 0

    def test_empty_kinds_spelled_none(self):
        back = config_from_items({"stage1.kinds": "none"})
        assert back.stage1.kinds == ()

    @pytest.mark.parametrize("sep", ["\u2028", "\x0b", "\x0c", "\x1c",
                                     "\x85"])
    def test_only_lf_ends_a_comment(self, sep, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(f"# was{sep}stage2.patience = 7\n", encoding="utf-8")
        assert read_kv(path) == {}
        assert (config_from_items(read_kv(path)).stage2.patience
                == TrainingConfig().stage2.patience)

    def test_bad_line_numbered_by_lf(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text("stage1.epochs = 2\x0c\nnot a kv line\n",
                        encoding="utf-8")
        with pytest.raises(CheckpointError,
                           match="bad key-value line 2: 'not a kv line'$"):
            read_kv(path)


class TestRecipe:
    """`fit` trains with one checked, frozen `Recipe`."""

    def test_a_stage_recipe_takes_the_stage_and_shared_values(self):
        cfg = TrainingConfig(lam=0.25, label_smoothing=0.05,
                             weight_decay=0.0)
        cfg.stage2 = StageConfig(epochs=3, lr=2e-3, batch_size=16, kinds=())
        assert cfg.recipe("stage2") == Recipe(
            epochs=3, lr=2e-3, batch_size=16, lam=0.25, label_smoothing=0.05,
            weight_decay=0.0, kinds=())
        assert cfg.recipe("stage1").kinds == DEFAULT_STAGE1_KINDS

    def test_distill_config_is_a_recipe_with_no_checks_of_its_own(self):
        assert issubclass(DistillConfig, Recipe)
        assert "__post_init__" not in vars(DistillConfig)
        assert ([f.name for f in fields(DistillConfig)]
                == [f.name for f in fields(Recipe)])

    @pytest.mark.parametrize("recipe", [
        Recipe(1, 1e-3, 8, 0.5, 0.1, 0.0, ()), DistillConfig()],
        ids=["recipe", "distill-config"])
    def test_is_frozen(self, recipe):
        with pytest.raises(FrozenInstanceError):
            recipe.lr = 0.0

    def test_fit_checks_no_value_of_its_recipe(self, monkeypatch):
        recipe = Recipe(epochs=1, lr=1e-3, batch_size=4, lam=0.5,
                        label_smoothing=0.1, weight_decay=0.0,
                        kinds=(AugKind.AUTOENCODER,))
        for name in ("check_loop_sizes", "check_loss_settings",
                     "check_rate"):
            monkeypatch.setattr(train_mod, name,
                                lambda *a, **k: pytest.fail("re-checked"))
        corpus, _ = gen_synthetic_corpus(SPEC, 8)
        report = fit(small_setup(seed=40), corpus, recipe,
                     make_rng(41).spawn(3))
        assert len(report.epochs) == 1


class TestOverLongPair:
    WORDS = [f"w{i}" for i in range(5)]

    def model(self, seed):
        """A d8 1+1 model of max_len 4: the five words as one source are 6
        ids with EOS."""
        cfg = Seq2SeqConfig(vocab=Vocab(self.WORDS), n_enc_layers=1,
                            n_dec_layers=1, d_model=8, n_heads=2, d_ff=16,
                            max_len=4)
        return init_model(cfg, make_rng(seed))

    def test_fit_names_the_pair_before_any_step(self):
        # 8 pairs that fit, then the over-long one
        model, words = self.model(60), self.WORDS
        corpus = [ParallelExample(" ".join(words[:1 + i % 3]), words[i % 5])
                  for i in range(8)]
        corpus.append(ParallelExample(" ".join(words), words[0]))
        snap = model.snapshot()
        with pytest.raises(DataError, match="^pair 8: sequence length 6 "
                                            "exceeds max_len 4$"):
            fit(model, corpus, Recipe(epochs=1, lr=1e-2, batch_size=2,
                                      lam=0.0, label_smoothing=0.1,
                                      weight_decay=0.0, kinds=()),
                make_rng(61).spawn(3))
        assert all(np.array_equal(t.data, snap[k])
                   for k, t in model.params.items())

    def test_fit_names_a_validation_pair_before_any_step(self, monkeypatch):
        model, words = self.model(64), self.WORDS
        corpus = [ParallelExample(words[i], words[i]) for i in range(5)]
        val = [ParallelExample(" ".join(words), words[0])]
        snap = model.snapshot()
        monkeypatch.setattr(train_mod, "step_tensors",
                            lambda *a: pytest.fail("a step ran"))
        with pytest.raises(DataError, match="^val_corpus pair 0: sequence "
                                            "length 6 exceeds max_len 4$"):
            fit(model, corpus, Recipe(epochs=1, lr=1e-2, batch_size=2,
                                      lam=0.0, label_smoothing=0.1,
                                      weight_decay=0.0, kinds=()),
                make_rng(65).spawn(3), val_corpus=val)
        assert all(np.array_equal(t.data, snap[k])
                   for k, t in model.params.items())

    def test_stage2_names_the_pair_by_its_index_in_the_clean_corpus(self):
        # the pair lands in the shuffled training split; the error names
        # its place in the corpus the caller gave
        model = self.model(62)
        clean = [ParallelExample("w0 w1", "w2")] * 19
        clean.append(ParallelExample(" ".join(self.WORDS), "w0"))
        tcfg = TrainingConfig(stage2=StageConfig(epochs=1, batch_size=4,
                                                 val_fraction=0.5))
        with pytest.raises(DataError, match="^pair 19: sequence length 6 "):
            train_stage2(model, clean, tcfg, make_rng(1))

    def test_evaluate_loss_names_the_pair_before_any_forward(
            self, monkeypatch):
        # 70 pairs that fit, then the over-long one: a whole batch of 64
        # would run before a batch check reached it
        model, words = self.model(63), self.WORDS
        corpus = [ParallelExample(words[i % 5], words[(i + 1) % 5])
                  for i in range(70)]
        corpus.append(ParallelExample(" ".join(words), words[0]))
        monkeypatch.setattr(Seq2SeqModel, "forward",
                            lambda *a, **k: pytest.fail("forward ran"))
        with pytest.raises(DataError, match="^pair 70: sequence length 6 "
                                            "exceeds max_len 4$"):
            evaluate_loss(model, corpus, 0.1)


class TestEvaluateLoss:
    def test_deterministic_and_positive(self):
        model = small_setup(seed=16)
        clean = gen_clean_corpus(SPEC, 30)
        a = evaluate_loss(model, clean, 0.1)
        b = evaluate_loss(model, clean, 0.1)
        assert a == b > 0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            evaluate_loss(small_setup(), [], 0.1)

    @pytest.mark.parametrize("batch_size", [0, -1, 2.5])
    def test_batch_size_checked(self, batch_size):
        clean = gen_clean_corpus(SPEC, 3)
        with pytest.raises(DataError, match="^batch_size must be an integer "
                                            ">= 1, got "):
            evaluate_loss(small_setup(), clean, 0.1, batch_size=batch_size)

    def test_token_weighted_mean_for_any_batch_size(self):
        model = small_setup(seed=19)
        clean = gen_clean_corpus(SPEC, 40)
        tokens = [len(ex.target.split()) + 1 for ex in clean]  # + EOS
        assert len(set(tokens)) > 2
        got = [evaluate_loss(model, clean, 0.1, batch_size=b)
               for b in (1, 3, 64)]
        assert max(got) - min(got) < 1e-6
        per_example = [evaluate_loss(model, [ex], 0.1) for ex in clean]
        weighted = np.dot(per_example, tokens) / sum(tokens)
        assert abs(got[-1] - weighted) < 1e-6
        assert abs(got[-1] - np.mean(per_example)) > 1e-4  # not per example


class TestExtraLossHook:
    def hook_args(self, kinds):
        """The types of loss_s and loss_d that the hook gets at each step:
        their graphs are freed by then, so they come as floats."""
        model = small_setup(seed=20)
        corpus, _ = gen_synthetic_corpus(SPEC, 24)
        batch = make_batch(model.config.vocab,
                           [ex.source for ex in corpus[:4]],
                           [ex.target for ex in corpus[:4]])
        seen = []

        def hook(n_rows, loss_s, loss_d):
            seen.append((type(loss_s), type(loss_d)))
            return label_smoothed_ce(
                model.forward(batch["src"], batch["dec_in"]),
                batch["labels"], 0.1)

        fit(model, corpus, Recipe(epochs=1, lr=1e-3, batch_size=8, lam=0.5,
                                  label_smoothing=0.1, weight_decay=0.0,
                                  kinds=kinds),
            make_rng(21).spawn(3), extra_loss=hook)
        return seen

    def test_hook_gets_no_augmentation_loss_without_kinds(self):
        # a hook and no augmentation kinds, as distillation with kinds=()
        assert self.hook_args(()) == [(float, type(None))] * 3

    def test_hook_gets_the_other_terms_values_as_floats(self):
        assert self.hook_args((AugKind.MASK,)) == [(float, float)] * 3

    @pytest.mark.parametrize("kind", list(KDKind))
    def test_step_builds_no_elementwise_node(self, kind, monkeypatch):
        # the objective and the KD loss are no composed tape arithmetic:
        # each term seeds its own backward, and KD is one node
        make, ops = tensor_mod._make, []

        def spy(data, parents, backward, op):
            ops.append(op)
            return make(data, parents, backward, op)

        for mod in list(sys.modules.values()):
            if (mod.__name__.startswith("codemix")
                    and getattr(mod, "_make", None) is make):
                monkeypatch.setattr(mod, "_make", spy)
        student, teacher = small_setup(seed=22), small_setup(seed=23)
        corpus, _ = gen_synthetic_corpus(SPEC, 8)
        batch = make_batch(student.config.vocab,
                           [ex.source for ex in corpus],
                           [ex.target for ex in corpus])
        t_probs = teacher_probs(teacher, batch)
        fit(student, corpus, Recipe(epochs=1, lr=1e-3, batch_size=8,
                                    lam=0.5, label_smoothing=0.1,
                                    weight_decay=0.0,
                                    kinds=(AugKind.AUTOENCODER,)),
            make_rng(24).spawn(3),
            extra_loss=lambda n, s, d: kd_loss(kind, t_probs, log_softmax(
                student.forward(batch["src"], batch["dec_in"]))))
        assert {"label_smoothed_ce", "kd_loss"} <= set(ops)
        assert set(ops) & {"add", "mul", "tsum", "exp"} == set()


def _fit_small(**sizes):
    corpus, _ = gen_synthetic_corpus(SPEC, 8)
    fit(small_setup(seed=24), corpus,
        Recipe(lr=1e-3, lam=0.0, label_smoothing=0.1, weight_decay=0.0,
               kinds=(), **sizes),
        make_rng(25).spawn(3))


PAIRS = [("kala", "kaala"), ("juta", "joota")]
# A loop size no loop can run: (the call, its error). Each is checked when
# the `Recipe` a loop runs is built, so callers that pass the size straight
# through get it too; the fit-* rows fit with such a recipe.
LOOP_SIZE_CASES = {
    "fit-epochs-negative": (lambda: _fit_small(epochs=-1, batch_size=4),
                            "epochs must be an integer >= 0, got -1"),
    "fit-batch-size-float": (lambda: _fit_small(epochs=1, batch_size=2.0),
                             "batch_size must be an integer >= 1, got 2.0"),
    "translit-batch-size-0": (lambda: train_translit(PAIRS, batch_size=0),
                              "batch_size must be an integer >= 1, got 0"),
    "translit-epochs-float": (lambda: train_translit(PAIRS, epochs=2.5),
                              "epochs must be an integer >= 0, got 2.5"),
    "crf-epochs-float": (lambda: train_crf(gen_langid_corpus(6, seed=0),
                                           epochs=2.5),
                         "epochs must be an integer >= 1, got 2.5"),
}


@pytest.mark.parametrize("case", sorted(LOOP_SIZE_CASES))
def test_loop_size_is_a_data_error_naming_it(case):
    call, message = LOOP_SIZE_CASES[case]
    with pytest.raises(DataError, match=re.escape(message)):
        call()


def _fit_steps(lr=1e-3, weight_decay=0.0):
    """Fit a small model for one epoch; the weights must be unchanged if
    building the recipe or fitting raises."""
    corpus, _ = gen_synthetic_corpus(SPEC, 8)
    model = small_setup(seed=26)
    before = {k: t.data.copy() for k, t in model.params.items()}
    try:
        fit(model, corpus, Recipe(epochs=1, lr=lr, batch_size=4, lam=0.0,
                                  label_smoothing=0.1,
                                  weight_decay=weight_decay, kinds=()),
            make_rng(27).spawn(3))
    finally:
        assert all(np.array_equal(t.data, before[k])
                   for k, t in model.params.items())


# A learning rate <= 0 or a negative weight decay runs gradient ascent:
# (the call, its error), raised before the first step. NaN and +Inf take the
# after-the-step path (test_non_finite_step_rolls_back_and_raises).
STEP_SIZE_CASES = {
    "stage-lr-negative": (lambda: StageConfig(lr=-0.01),
                          "lr must be > 0, got -0.01"),
    "stage-lr-0": (lambda: StageConfig(lr=0.0), "lr must be > 0, got 0.0"),
    "config-file-stage1-lr": (
        lambda: config_from_items({"stage1.lr": "-0.01"}),
        "training config stage1: lr must be > 0, got -0.01"),
    "config-weight-decay-negative": (
        lambda: TrainingConfig(weight_decay=-1),
        "weight_decay must be >= 0, got -1"),
    "config-file-weight-decay": (
        lambda: config_from_items({"weight_decay": "-1"}),
        "weight_decay must be >= 0, got -1.0"),
    "distill-lr-negative": (lambda: DistillConfig(lr=-0.5),
                            "lr must be > 0, got -0.5"),
    "distill-weight-decay-negative": (
        lambda: DistillConfig(weight_decay=-1e-3),
        "weight_decay must be >= 0, got -0.001"),
    "fit-lr-minus-inf": (lambda: _fit_steps(lr=-np.inf),
                         "lr must be > 0, got -inf"),
    "fit-lr-0": (lambda: _fit_steps(lr=0), "lr must be > 0, got 0"),
    "fit-weight-decay-negative": (lambda: _fit_steps(weight_decay=-0.5),
                                  "weight_decay must be >= 0, got -0.5"),
    "crf-lr-negative": (lambda: train_crf(gen_langid_corpus(6, seed=0),
                                          epochs=1, lr=-0.05),
                        "lr must be > 0, got -0.05"),
}


@pytest.mark.parametrize("case", sorted(STEP_SIZE_CASES))
def test_step_size_is_a_data_error_naming_it(case):
    call, message = STEP_SIZE_CASES[case]
    with pytest.raises(DataError, match=re.escape(message)):
        call()


def _fit_lam(lam):
    corpus, _ = gen_synthetic_corpus(SPEC, 8)
    fit(small_setup(seed=28), corpus,
        Recipe(epochs=1, lr=1e-3, batch_size=4, lam=lam, label_smoothing=0.1,
               weight_decay=0.0, kinds=(AugKind.AUTOENCODER,)),
        make_rng(29).spawn(3))


# An objective weight outside its range: (the call, its error), raised when
# the config or the `Recipe` is built, before any step.
LOSS_SETTING_CASES = {
    "config-lambda-above-1": (lambda: TrainingConfig(lam=1.5),
                              "lambda must be in [0, 1], got 1.5"),
    "config-lambda-nan": (lambda: TrainingConfig(lam=float("nan")),
                          "lambda must be in [0, 1], got nan"),
    "config-file-lambda": (lambda: config_from_items({"lambda": "1.5"}),
                           "lambda must be in [0, 1], got 1.5"),
    "config-label-smoothing-1": (
        lambda: TrainingConfig(label_smoothing=1.0),
        "label_smoothing must be in [0, 1), got 1.0"),
    "config-file-label-smoothing": (
        lambda: config_from_items({"label_smoothing": "-0.1"}),
        "label_smoothing must be in [0, 1), got -0.1"),
    "distill-lambda-negative": (lambda: DistillConfig(lam=-0.1),
                                "lambda must be in [0, 1], got -0.1"),
    "distill-label-smoothing-nan": (
        lambda: DistillConfig(label_smoothing=float("nan")),
        "label_smoothing must be in [0, 1), got nan"),
    "fit-lambda-above-1": (lambda: _fit_lam(1.5),
                           "lambda must be in [0, 1], got 1.5"),
    "fit-lambda-negative": (lambda: _fit_lam(-0.25),
                            "lambda must be in [0, 1], got -0.25"),
}


@pytest.mark.parametrize("case", sorted(LOSS_SETTING_CASES))
def test_loss_setting_is_a_data_error_naming_it(case):
    call, message = LOSS_SETTING_CASES[case]
    with pytest.raises(DataError, match=re.escape(message)):
        call()
