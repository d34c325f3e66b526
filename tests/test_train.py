import re
import tracemalloc

import numpy as np
import pytest

from codemix import train as train_mod
from codemix.analysis import XAttnExperimentConfig, ae_xattn_experiment
from codemix.augment import AugKind, combined_loss
from codemix.checkpoint import load_checkpoint, save_checkpoint
from codemix.distill import DistillConfig
from codemix.errors import (CheckpointError, CodemixError, DataError,
                            ShapeError, TrainingDivergedError)
from codemix.langid import gen_langid_corpus, train_crf
from codemix.numerics import Tensor, make_rng, no_grad
from codemix.numerics.tensor import gelu_forward, layer_norm_forward
from codemix.quant import quantize_model
from codemix.seq2seq import (Seq2SeqConfig, Seq2SeqModel, beam_search,
                             encode_source, init_model, label_smoothed_ce,
                             make_batch)
from codemix.text import (BOS, SynthTaskSpec, gen_clean_corpus,
                          gen_synthetic_corpus, synthetic_vocab)
from codemix.train import (StageConfig, TrainingConfig, config_from_items,
                           evaluate_loss, fit, train_stage1, train_stage2)
from codemix.translit import train_translit


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
    def test_provenance_enforced(self):
        model = small_setup()
        clean = gen_clean_corpus(SPEC, 20)
        with pytest.raises(DataError):
            train_stage1(model, clean, TrainingConfig(), make_rng(0))

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
            fit(model, corpus, epochs=2, lr=lr, batch_size=16, kinds=(),
                lam=0.0, label_smoothing=0.1, weight_decay=weight_decay,
                rngs=make_rng(8).spawn(3))
        assert all(np.array_equal(model.params[k].data, before[k])
                   for k in before)
        assert all(t.grad is None for t in model.params.values())

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
    def test_provenance_enforced(self):
        model = small_setup()
        noisy, _ = gen_synthetic_corpus(SPEC, 30)
        with pytest.raises(DataError):
            train_stage2(model, noisy, TrainingConfig(), make_rng(0))

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
                fit(m, corpus, epochs=1, lr=1e-3, batch_size=8, kinds=(),
                    lam=0.5, label_smoothing=0.1, weight_decay=0.0,
                    rngs=make_rng(0).spawn(3))

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
            fit(model, corpus, epochs=1, lr=1e-3, batch_size=8, kinds=(),
                lam=0.5, label_smoothing=0.1, weight_decay=0.0,
                rngs=make_rng(0).spawn(3))


class TestWeightsBinding:
    """A model binds its parameter tensors on its first pass and keeps the
    binding: optimizer steps and `restore` write the tensors in place, and
    every later pass must see them as a freshly built model does."""

    def test_passes_follow_fit_and_restore(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 24)
        model = small_setup(seed=22)
        vocab = model.config.vocab
        batch = make_batch(vocab, [ex.source for ex in corpus[:4]],
                           [ex.target for ex in corpus[:4]], 16)
        src = encode_source(corpus[0].source, vocab)

        def passes(m):
            enc, mask = m.encode(batch["src"])
            logits = m.decode(enc, mask, batch["dec_in"])
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
        fit(model, corpus, epochs=1, lr=1e-2, batch_size=8, kinds=(),
            lam=0.0, label_smoothing=0.1, weight_decay=0.0,
            rngs=make_rng(23).spawn(3))
        assert not np.array_equal(model.params["dec0.ffn.w1"].data,
                                  snap["dec0.ffn.w1"])
        assert passes(model) == passes(rebuilt(model))
        model.restore(snap)
        assert passes(model) == passes(rebuilt(model))


class TestFreedTape:
    """backward() frees the graph as it walks it, so a training step holds
    one step's activations, never two."""

    def test_backward_frees_every_node_it_reached(self):
        model = small_setup(seed=30)
        corpus, _ = gen_synthetic_corpus(SPEC, 6)
        batch = make_batch(model.config.vocab, [ex.source for ex in corpus],
                           [ex.target for ex in corpus], model.config.max_len)
        loss = label_smoothed_ce(model.forward(batch["src"], batch["dec_in"]),
                                 batch["labels"], 0.1)
        reached, stack = {}, [loss]
        while stack:
            t = stack.pop()
            if id(t) not in reached:
                reached[id(t)] = t
                stack.extend(t._parents)
        inner = [t for t in reached.values() if t._parents]
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

    def test_peak_memory_does_not_grow_with_steps(self):
        corpus, _ = gen_synthetic_corpus(SPEC, 32)

        def peak(epochs):  # one step per epoch
            model = small_setup(seed=31)
            tracemalloc.start()
            try:
                fit(model, corpus, epochs=epochs, lr=1e-3, batch_size=32,
                    kinds=(AugKind.AUTOENCODER,), lam=0.5,
                    label_smoothing=0.1, weight_decay=0.01,
                    rngs=make_rng(32).spawn(3))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4) <= 1.3 * peak(1)


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
                           [ex.target for ex in corpus], cfg.max_len)
        assert (batch["src"] == 0).any()  # padded rows: not dense
        loss = label_smoothed_ce(
            model.forward(batch["src"], batch["dec_in"], rng=make_rng(41)),
            batch["labels"], 0.1)
        nodes, stack = {}, [loss]
        while stack:
            t = stack.pop()
            if id(t) not in nodes:
                nodes[id(t)] = t
                stack.extend(t._parents)
        return cfg, [t for t in nodes.values() if t._backward is not None]

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
    def test_zero_augmentation_loss_keeps_the_model_dtype(self, monkeypatch):
        # a hook and no augmentation kinds, as distillation with kinds=()
        model = small_setup(seed=20)
        corpus, _ = gen_synthetic_corpus(SPEC, 24)
        hook_dtypes, step_dtypes = [], []

        def hook(n_rows, loss_s, loss_d):
            hook_dtypes.append(loss_d.dtype)
            return loss_s

        def combined(a, b, weights):
            out = combined_loss(a, b, weights)
            step_dtypes.append(out.dtype)
            return out

        monkeypatch.setattr(train_mod, "combined_loss", combined)
        fit(model, corpus, epochs=1, lr=1e-3, batch_size=8, kinds=(),
            lam=0.5, label_smoothing=0.1, weight_decay=0.0,
            rngs=make_rng(21).spawn(3), extra_loss=hook)
        assert hook_dtypes == step_dtypes == [np.float32] * 3


def _fit_small(**sizes):
    corpus, _ = gen_synthetic_corpus(SPEC, 8)
    fit(small_setup(seed=24), corpus, lr=1e-3, kinds=(), lam=0.0,
        label_smoothing=0.1, weight_decay=0.0, rngs=make_rng(25).spawn(3),
        **sizes)


class TestXAttnExperiment:
    def test_one_forward_per_epoch_for_every_layer(self, monkeypatch):
        forward, captures = Seq2SeqModel.forward, []

        def spy(self, src_ids, dec_in, rng=None, capture=None):
            if capture is not None:
                captures.append(capture)
            return forward(self, src_ids, dec_in, rng, capture)

        monkeypatch.setattr(Seq2SeqModel, "forward", spy)
        config = XAttnExperimentConfig(n_train=16, n_val=4, n_enc_layers=1,
                                       n_dec_layers=3, d_model=16, d_ff=16,
                                       epochs=2, batch_size=8)
        curve = ae_xattn_experiment(config, seeds=[0])
        assert curve.errors.shape == (3, 2)
        assert [len(c) for c in captures] == [3, 3]  # one pass an epoch


def _xattn(epochs=1, batch_size=8):
    config = XAttnExperimentConfig(n_train=8, n_val=4, n_enc_layers=1,
                                   n_dec_layers=1, d_model=16, d_ff=16,
                                   epochs=epochs, batch_size=batch_size)
    ae_xattn_experiment(config, seeds=[0])


PAIRS = [("kala", "kaala"), ("juta", "joota")]
# A loop size no loop can run: (the call, its error). Each is checked where
# the loop runs, so callers that pass the size straight through get it too.
LOOP_SIZE_CASES = {
    "fit-epochs-negative": (lambda: _fit_small(epochs=-1, batch_size=4),
                            "epochs must be an integer >= 0, got -1"),
    "fit-batch-size-float": (lambda: _fit_small(epochs=1, batch_size=2.0),
                             "batch_size must be an integer >= 1, got 2.0"),
    "translit-batch-size-0": (lambda: train_translit(PAIRS, batch_size=0),
                              "batch_size must be an integer >= 1, got 0"),
    "translit-epochs-float": (lambda: train_translit(PAIRS, epochs=2.5),
                              "epochs must be an integer >= 0, got 2.5"),
    "xattn-batch-size-0": (lambda: _xattn(batch_size=0),
                           "batch_size must be an integer >= 1, got 0"),
    "xattn-epochs-float": (lambda: _xattn(epochs=2.5),
                           "epochs must be an integer >= 1, got 2.5"),
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
    fit raises."""
    corpus, _ = gen_synthetic_corpus(SPEC, 8)
    model = small_setup(seed=26)
    before = {k: t.data.copy() for k, t in model.params.items()}
    try:
        fit(model, corpus, epochs=1, lr=lr, batch_size=4, kinds=(),
            lam=0.0, label_smoothing=0.1, weight_decay=weight_decay,
            rngs=make_rng(27).spawn(3))
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
