import contextlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codemix import quant
from codemix.checkpoint import load_checkpoint, save_checkpoint
from codemix.errors import DataError, NonFiniteError, ShapeError
from codemix.numerics import (AdamWState, make_rng, no_grad, softmax,
                              step_tensors, Tensor)
from codemix.seq2seq import model as model_mod
from codemix.seq2seq import (Seq2SeqConfig, beam_search, beam_search_batch,
                             encode_source, forward_teacher_forced,
                             greedy_decode, init_model, label_smoothed_ce,
                             make_batch, pad_batch, translate,
                             translate_corpus)
from codemix.seq2seq.decode import MAX_BATCH, _top_k
from codemix.text import BOS, EOS, MASK, PAD, UNK, Vocab, build_vocab

from oracles import (exhaustive_best_sequence, finite_diff_grad_check, mul,
                     reference_beam_search, reference_forward,
                     reference_padded_ce, sequence_log_prob, tsum)

ARTIFACTS = Path(__file__).resolve().parents[1] / "perfbench" / "artifacts"


def as_dtype(model, dtype):
    """A copy of the float32 `model` with every parameter cast to `dtype`."""
    params = {k: Tensor(t.data.astype(dtype), requires_grad=True)
              for k, t in model.params.items()}
    return model_mod.Seq2SeqModel(model.config, params)


def tiny_vocab(n_content=4):
    return Vocab([f"w{i}" for i in range(n_content)])


def tiny_model(seed=0, n_content=4, layers=1, d=16, heads=2, max_len=12,
               dropout=0.0):
    cfg = Seq2SeqConfig(vocab=tiny_vocab(n_content), n_enc_layers=layers,
                        n_dec_layers=layers, d_model=d, n_heads=heads,
                        d_ff=2 * d, max_len=max_len, dropout_prob=dropout)
    return init_model(cfg, make_rng(seed))


class TestInit:
    def test_weight_statistics(self):
        m = tiny_model(seed=1, n_content=200, d=64)
        emb = m.params["tok_emb"].data  # 205 x 64 > 10k elements
        assert emb.size > 10_000
        assert -0.01 < emb.mean() < 0.01
        assert 0.015 < emb.std() < 0.025

    def test_biases_zero_gains_one(self):
        m = tiny_model(seed=2)
        assert np.all(m.params["enc0.attn.bq"].data == 0)
        assert np.all(m.params["enc0.ln1.g"].data == 1)
        assert np.all(m.params["dec0.ln1.b"].data == 0)

    def test_same_seed_identical_weights(self):
        a, b = tiny_model(seed=3), tiny_model(seed=3)
        for k in a.params:
            assert np.array_equal(a.params[k].data, b.params[k].data), k

    def test_head_divisibility_enforced(self):
        with pytest.raises(DataError):
            Seq2SeqConfig(vocab=tiny_vocab(), d_model=10, n_heads=4)

    @pytest.mark.parametrize("field,value", [
        ("n_enc_layers", 0), ("n_dec_layers", -1), ("d_model", 0),
        ("n_heads", 0), ("d_ff", 0), ("max_len", 0), ("d_model", 64.0)])
    def test_sizes_must_be_positive_integers(self, field, value):
        with pytest.raises(DataError, match=field):
            Seq2SeqConfig(vocab=tiny_vocab(), **{field: value})

    @pytest.mark.parametrize("p", [1.0, 2.0, -0.5, float("nan")])
    def test_dropout_must_be_in_unit_interval(self, p):
        with pytest.raises(DataError, match="dropout_prob"):
            Seq2SeqConfig(vocab=tiny_vocab(), dropout_prob=p)

    def test_smallest_config_accepted(self):
        for p in (0.0, 0.99):
            Seq2SeqConfig(vocab=tiny_vocab(), n_enc_layers=1, n_dec_layers=1,
                          d_model=1, n_heads=1, d_ff=1, max_len=1,
                          dropout_prob=p)


class TestForward:
    def test_logits_shape(self):
        m = tiny_model()
        logits, _ = forward_teacher_forced(m, [5, 6, 2], [1, 5, 6, 7])
        assert logits.shape == (4, len(m.config.vocab))

    def test_causality_exact(self):
        m = tiny_model(seed=4)
        src = [5, 6, 2]
        tgt = [1, 5, 6, 7, 8]
        base, _ = forward_teacher_forced(m, src, tgt)
        for j in range(1, len(tgt)):
            perturbed = list(tgt)
            perturbed[j] = 8 if perturbed[j] != 8 else 7
            out, _ = forward_teacher_forced(m, src, perturbed)
            assert np.array_equal(out.data[:j], base.data[:j]), f"pos {j}"

    def test_padding_invariance(self):
        m = tiny_model(seed=5)
        tgt = [1, 5, 6]
        a, _ = forward_teacher_forced(m, [5, 6, 2], tgt)
        b, _ = forward_teacher_forced(m, [5, 6, 2, PAD, PAD], tgt)
        assert np.abs(a.data - b.data).max() < 1e-5

    def test_too_long_rejected(self):
        m = tiny_model(max_len=4)
        with pytest.raises(DataError):
            forward_teacher_forced(m, [5] * 9, [1, 5])

    def test_cross_attention_rows_stochastic(self):
        m = tiny_model(seed=6, layers=2)
        _, cap = forward_teacher_forced(m, [5, 6, 7, 2], [1, 5, 6],
                                        capture_attn=True)
        assert len(cap) == 2
        for layer in cap:
            sums = layer.sum(axis=-1)
            assert np.abs(sums - 1.0).max() < 1e-5

    def test_tape_error_names_the_op(self):
        m = tiny_model(seed=8)
        m.params["enc0.ffn.w1"].data[0, 0] = np.nan
        with pytest.raises(NonFiniteError,
                           match="linear enc0.ffn.w1 output") as err:
            m.forward(np.array([[5, 6, 2]]), np.array([[1, 5]]))
        assert "tensor data" not in str(err.value)

    def test_dropout_only_in_train_mode(self):
        # dropout runs exactly when a dropout stream is passed
        m = tiny_model(seed=7, dropout=0.5)
        src = np.array([[5, 6, 2]])
        dec = np.array([[1, 5]])
        a = m.forward(src, dec)
        b = m.forward(src, dec)
        assert np.array_equal(a.data, b.data)
        c = m.forward(src, dec, rng=make_rng(0))
        assert not np.array_equal(a.data, c.data)
        assert np.array_equal(c.data, m.forward(src, dec,
                                                rng=make_rng(0)).data)


class TestLabelSmoothedCE:
    def test_epsilon_zero_is_plain_ce(self):
        rng = make_rng(8)
        logits = Tensor(rng.standard_normal((6, 9)))
        targets = rng.integers(5, 9, size=6)
        ls = label_smoothed_ce(logits, targets, 0.0).item()
        p = softmax(logits).data
        ce = -np.mean(np.log(p[np.arange(6), targets]))
        assert abs(ls - ce) < 1e-6

    def test_uniform_prediction_gives_log_vocab(self):
        for eps in (0.0, 0.1, 0.5):
            logits = Tensor(np.zeros((4, 11)))
            targets = np.array([5, 6, 7, 8])
            loss = label_smoothed_ce(logits, targets, eps).item()
            assert abs(loss - np.log(11)) < 1e-6

    def test_decomposition_identity(self):
        # LS-CE == (1-eps) * CE(one-hot) + eps * CE(uniform target)
        rng = make_rng(9)
        logits64 = Tensor(rng.standard_normal((5, 8)))
        targets = rng.integers(5, 8, size=5)
        eps = 0.1
        ls = label_smoothed_ce(logits64, targets, eps).item()
        ce = label_smoothed_ce(logits64, targets, 0.0).item()
        logp = np.log(softmax(logits64).data)
        uniform_ce = -np.mean(logp.mean(axis=-1))
        assert abs(ls - ((1 - eps) * ce + eps * uniform_ce)) < 1e-10

    def test_invalid_epsilon_rejected(self):
        logits = Tensor(np.zeros((1, 7)))
        with pytest.raises(DataError):
            label_smoothed_ce(logits, np.array([5]), 1.0)

    def test_target_shape_mismatch_rejected(self):
        logits = Tensor(np.zeros((2, 3, 7)))
        with pytest.raises(DataError, match="does not match logits"):
            label_smoothed_ce(logits, np.full((2, 4), 5))

    def test_gradient_matches_finite_differences(self):
        m = as_dtype(tiny_model(seed=11, d=8), np.float64)
        batch = make_batch(m.config.vocab, ["w0 w1", "w2"], ["w1 w0", "w3"])

        def loss_fn(params):
            logits = m.forward(batch["src"], batch["dec_in"])
            return label_smoothed_ce(logits, batch["labels"], 0.1)

        err = finite_diff_grad_check(loss_fn, m.params, epsilon=1e-5,
                                     max_coords_per_tensor=4)
        assert err < 1e-4


class TestPadBatch:
    def test_sources_and_targets_must_pair_up(self):
        with pytest.raises(ShapeError, match="differ in length"):
            pad_batch([[5], [6]], [[5]])

    @pytest.mark.parametrize("src,tgt", [([5] * 8, [5]), ([5], [5] * 8)],
                             ids=["source", "target"])
    def test_over_long_batch_rejected(self, src, tgt):
        # + EOS on the source, + BOS on the decoder input: 9 > 8. The
        # arrays fit no model in particular; the model pass checks them.
        batch = pad_batch([src], [tgt])
        m = tiny_model(seed=2, max_len=8)
        with pytest.raises(DataError, match="^sequence length 9 exceeds "
                                            "max_len 8$"):
            m.forward(batch["src"], batch["dec_in"])

    def test_labels_are_the_real_decoder_rows(self):
        batch = pad_batch([[5, 6], [7], [8, 9, 5]], [[6, 7, 8], [], [9]])
        assert batch["dec_in"].tolist() == [[BOS, 6, 7, 8], [BOS, PAD, PAD,
                                                             PAD],
                                            [BOS, 9, PAD, PAD]]
        # one label per non-PAD decoder position, in row-major (b, t) order
        assert batch["labels"].tolist() == [6, 7, 8, EOS, EOS, 9, EOS]
        assert set(batch) == {"src", "dec_in", "labels"}

    def test_special_tokens_in_text_are_unk(self):
        # a TSV pair spelling </s> or <pad> trains on UNK there, so EOS ends
        # the labels and PAD marks only padding; <mask> is what aug_mask
        # writes, so it keeps its id
        vocab = tiny_vocab(4)
        batch = make_batch(vocab, ["w0 <pad> w1", "<s> w2 <mask>"],
                           ["w2 </s> w3", "w1"])
        assert batch["src"].tolist() == [[5, UNK, 6, EOS], [UNK, 7, MASK, EOS]]
        assert batch["labels"].tolist() == [7, UNK, 8, EOS, 6, EOS]


def padded_batch(n_content, n, seed, max_words=6):
    """A batch of n random pairs of 1 to max_words words of
    tiny_vocab(n_content)."""
    rng = make_rng(seed)
    texts = [" ".join(f"w{i}" for i in rng.integers(
        0, n_content, size=int(rng.integers(1, max_words + 1))))
        for _ in range(2 * n)]
    return make_batch(tiny_vocab(n_content), texts[:n], texts[n:])


def padded_labels(batch) -> np.ndarray:
    """`pad_batch`'s labels scattered back to (B, T), PAD elsewhere."""
    out = np.full(batch["dec_in"].shape, PAD)
    out[batch["dec_in"] != PAD] = batch["labels"]
    return out


class TestPackedRows:
    """The packed-row forward against the forward on padded blocks
    (`oracles.reference_forward`), which runs every position-wise op on
    every position."""

    @pytest.mark.parametrize("grad", ["tape", "no_grad", "dropout"])
    @pytest.mark.parametrize("kind", ["f32", "int8"])
    def test_logits_equal_padded_reference_bitwise(self, kind, grad):
        # float32 d64 teacher, batches with S, T > 1: the real rows' GEMMs
        # give the same bits at any row count, a padding key scores -1e9
        # either way, and a dropout stream draws the same masks, so the
        # logits of every real position are equal
        reference = json.loads((ARTIFACTS / "reference.json")
                               .read_text(encoding="utf-8"))
        model = load_checkpoint(ARTIFACTS / "teacher")
        if kind == "int8":
            model = quant.quantize_model(model)
        vocab = model.config.vocab
        queries = sorted(reference)[::12]
        batch = pad_batch([encode_source(q, vocab)[:-1] for q in queries],
                          [reference[q]["f32"] for q in queries])
        real = batch["dec_in"] != PAD
        assert 0.3 < real.mean() < 0.9 and (batch["src"] == PAD).any()
        rng = (lambda: make_rng(34)) if grad == "dropout" else (lambda: None)
        with no_grad() if grad == "no_grad" else contextlib.nullcontext():
            got = model.forward(batch["src"], batch["dec_in"], rng=rng())
            want = reference_forward(model, batch["src"], batch["dec_in"],
                                     rng())
        assert got.shape == (real.sum(), len(vocab))
        assert np.array_equal(got.data, want.data[real])

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_logits_match_reference_elsewhere(self, dtype):
        # float64 GEMMs and single-position (T = 1) products may round
        # differently with the row count
        m = as_dtype(tiny_model(seed=30, n_content=6, layers=2), dtype)
        batch = padded_batch(6, 5, seed=31)
        for dec_in in (batch["dec_in"], batch["dec_in"][:, :1]):
            got = m.forward(batch["src"], dec_in)
            want = reference_forward(m, batch["src"], dec_in)
            assert np.allclose(got.data, want.data[dec_in != PAD],
                               rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("dropout", [0.0, 0.2])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gradients_match_padded_reference(self, dtype, dropout):
        cfg = Seq2SeqConfig(vocab=tiny_vocab(40), dropout_prob=dropout)
        m = as_dtype(init_model(cfg, make_rng(32)), dtype)
        batch = padded_batch(40, 12, seed=33)
        rng = (lambda: make_rng(35)) if dropout else (lambda: None)
        grads = []
        for loss_fn in (
                lambda: label_smoothed_ce(m.forward(batch["src"],
                                                    batch["dec_in"],
                                                    rng=rng()),
                                          batch["labels"], 0.1),
                lambda: reference_padded_ce(
                    reference_forward(m, batch["src"], batch["dec_in"],
                                      rng()),
                    padded_labels(batch), 0.1)):
            for t in m.params.values():
                t.zero_grad()
            loss_fn().backward()
            grads.append({k: t.grad for k, t in m.params.items()})
        packed, padded = grads
        largest = max(np.abs(g).max() for g in padded.values())
        for name, want in padded.items():
            # the attention key biases' true gradient is 0 (softmax ignores
            # a shift shared by a row), so theirs is rounding noise: their
            # scale is floored at a thousandth of the largest gradient
            scale = max(np.abs(want).max(), 1e-3 * largest)
            assert np.abs(packed[name] - want).max() <= 1e-5 * scale, name


class TestBlockNodes:
    """Each pre-norm residual block is one tape node with a hand-written
    backward: its gradients against central differences in float64, on
    packed rows with padding, with dropout off and on (a fixed stream)."""

    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("block", ["self", "cross", "ffn"])
    def test_gradcheck(self, block, dropout):
        cfg = Seq2SeqConfig(vocab=tiny_vocab(4), n_enc_layers=1,
                            n_dec_layers=1, d_model=8, n_heads=2, d_ff=16,
                            max_len=8, dropout_prob=dropout, init_std=0.4)
        m = as_dtype(init_model(cfg, make_rng(60)), np.float64)
        rows = model_mod.RowLayout(np.array([[1, 1, 1, 1], [1, 1, 1, 0]],
                                            bool))
        src = np.array([[5, 6, 7, 8, EOS], [5, 6, EOS, PAD, PAD]])
        key_mask = np.where(src == PAD, model_mod.NEG_INF, 0.0)
        key_mask = key_mask[:, None, None, :]
        src_rows = model_mod.RowLayout(src != PAD)
        causal = np.triu(np.full((4, 4), model_mod.NEG_INF), k=1)[None, None]
        data = make_rng(61)
        params = {"x": Tensor(data.standard_normal((7, 8)),
                              requires_grad=True)}
        if block == "cross":
            params.update(k=Tensor(data.standard_normal((8, 8)),
                                   requires_grad=True),
                          v=Tensor(data.standard_normal((8, 8)),
                                   requires_grad=True))
        prefix, ln = {"self": ("dec0.self", "dec0.ln1"),
                      "cross": ("dec0.cross", "dec0.ln2"),
                      "ffn": ("dec0.ffn", "dec0.ln3")}[block]
        # the bound (Norm, body) block whose parameters are `names`
        blk = m.weights.dec[0][("self", "cross", "ffn").index(block)]
        # not the key bias: softmax ignores a shift shared by a row, so its
        # true gradient is 0 and central differences measure only noise
        names = [f"{ln}.g", f"{ln}.b"] + [
            f"{prefix}.{n}" for n in {
                "self": ["wq", "bq", "wk", "wv", "bv", "wo", "bo"],
                "cross": ["wq", "bq", "wo", "bo"],
                "ffn": ["w1", "b1", "w2", "b2"]}[block]]
        params.update((n, m.params[n]) for n in names)
        weight = Tensor(data.standard_normal((7, 8)))

        def loss(ps):
            rng = make_rng(62) if dropout else None
            if block == "self":
                out = m._attend(ps["x"], blk, rows, causal, rng)
            elif block == "cross":
                out = m._attend(ps["x"], blk, rows, key_mask, rng,
                                (ps["k"], ps["v"]), src_rows)
            else:
                out = m._ffn(ps["x"], blk, rows, rng)
            return tsum(mul(out, weight))

        err = finite_diff_grad_check(loss, params, epsilon=1e-6,
                                     max_coords_per_tensor=12)
        assert err < 1e-6, f"{block}: rel err {err}"


class TestGreedy:
    def test_stops_at_first_eos_and_never_emits_pad_bos(self):
        for seed in range(8):
            m = tiny_model(seed=seed)
            out = greedy_decode(m, [5, 6, 2], max_len=8)
            assert PAD not in out and BOS not in out and EOS not in out
            assert len(out) <= 8

    def test_deterministic(self):
        m = tiny_model(seed=12)
        a = greedy_decode(m, [5, 2], max_len=6)
        b = greedy_decode(m, [5, 2], max_len=6)
        assert a == b


class TestBeam:
    def test_beam_one_equals_greedy_on_random_models(self):
        rng = make_rng(13)
        for trial in range(50):
            m = tiny_model(seed=100 + trial, n_content=3, d=8, heads=2)
            src = list(rng.integers(5, 8, size=int(rng.integers(1, 4)))) + [EOS]
            g = greedy_decode(m, src, max_len=4)
            b = beam_search(m, src, beam=1, max_len=4)
            assert g == b.ids, f"trial {trial}"

    def test_beam_matches_exhaustive_enumeration(self):
        # beam >= |V|^max_len explores everything: result must equal the
        # brute-force argmax over all decodable sequences, exactly.
        for trial in range(6):
            m = tiny_model(seed=200 + trial, n_content=0, d=8, heads=2)
            vocab_size = len(m.config.vocab)  # 5: specials only
            max_len = 3
            src = [EOS]
            res = beam_search(m, src, beam=vocab_size ** max_len,
                              max_len=max_len)
            ids, score, finished = exhaustive_best_sequence(m, src, max_len)
            assert res.ids == ids
            assert res.finished == finished
            assert res.score == score  # identical floats, same order

    def test_greedy_trap(self):
        # constructed model whose step-1 argmax leads into a low-probability
        # continuation: beam=3 must find a strictly better-scoring sequence
        found = False
        for seed in range(60):
            m = tiny_model(seed=300 + seed, n_content=3, d=8)
            src = [5, 2]
            g = greedy_decode(m, src, max_len=3)
            b = beam_search(m, src, beam=3, max_len=3)
            if b.ids != g:
                enc_out = m.encode(np.array([src]))
                g_score = sequence_log_prob(m, enc_out, g + [EOS])
                assert b.score > g_score
                found = True
                break
        assert found, "no greedy trap found across seeds"

    def test_unfinished_flagged(self):
        # EOS banned by construction: a model whose EOS row is forced to
        # -inf cannot finish; emulate by max_len too small for EOS choice
        m = tiny_model(seed=14)
        res = beam_search(m, [5, 2], beam=2, max_len=1)
        if not res.finished:
            assert len(res.ids) == 1
        # (when the model happens to emit EOS at step 1, finished is fine)

    def test_invalid_beam_rejected(self):
        m = tiny_model()
        with pytest.raises(DataError):
            beam_search(m, [5, 2], beam=0)

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_max_len_below_one_rejected(self, max_len):
        m = tiny_model()
        message = "max_len must be an integer >= 1"
        with pytest.raises(DataError, match=message):
            beam_search_batch(m, [], max_len=max_len)
        with pytest.raises(DataError, match=message):
            beam_search(m, [5, 2], max_len=max_len)
        with pytest.raises(DataError, match=message):
            greedy_decode(m, [5, 2], max_len=max_len)

    @pytest.mark.parametrize("arg", ["beam", "max_len"])
    def test_non_integer_beam_or_max_len_rejected(self, arg):
        m = tiny_model()
        calls = {"beam_search": lambda kw: beam_search(m, [5, 2], **kw),
                 "beam_search_batch":
                     lambda kw: beam_search_batch(m, [[5, 2]], **kw),
                 "translate": lambda kw: translate(m, "w0 w1", **kw),
                 "translate_corpus":
                     lambda kw: translate_corpus(m, ["w0", "w1"], **kw)}
        for name, call in calls.items():
            with pytest.raises(DataError, match=f"{arg} must be an integer "
                                                f">= 1, got 2.5"):
                call({arg: 2.5})

    def test_over_long_source_named_before_any_decoding(self, monkeypatch):
        # a full chunk that fits, then a source of 21 ids: the error names
        # its index, and no chunk is decoded first
        m = tiny_model(seed=15, max_len=8)
        starts = []
        monkeypatch.setattr(m, "start_decoding",
                            lambda states: starts.append(states))
        texts = ["w0 w1 w2"] * MAX_BATCH + ["w0 " * 20]
        with pytest.raises(DataError, match=rf"^source {MAX_BATCH}: sequence "
                                            r"length 21 exceeds max_len 8$"):
            translate_corpus(m, texts)
        with pytest.raises(DataError, match="^source 1: sequence length 21"):
            translate_corpus(m, ["w0 w0 w0", "w0 " * 20])
        with pytest.raises(DataError, match="^sequence length 21 exceeds"):
            translate(m, "w0 " * 20)  # one source: no index
        assert starts == []

    @pytest.mark.parametrize("src", [[], [PAD], [PAD, PAD]])
    def test_source_without_a_real_token_rejected(self, src):
        # cross-attention would have no key to attend to
        with pytest.raises(DataError, match="has no token but PAD"):
            beam_search(tiny_model(), src)


class TestStepLimit:
    """With no `max_len`, a decode runs to the model's own limit, max_len -
    1 tokens; a `max_len` given can only lower it."""

    @pytest.mark.parametrize("model_len", [8, 32, 48])
    def test_decodes_run_to_the_models_limit(self, model_len, eos_banned):
        m = tiny_model(seed=16, max_len=model_len)
        want = model_len - 1
        assert len(greedy_decode(m, [5, 6, EOS])) == want
        res = beam_search(m, [5, 6, EOS])
        assert (len(res.ids), res.finished) == (want, False)
        assert [len(r.ids) for r in beam_search_batch(
            m, [[5, EOS], [6, 7, EOS]], beam=2)] == [want, want]
        outs = translate_corpus(m, ["w0 w1", "w2"]) + [translate(m, "w3")]
        assert [len(out.split()) for out in outs] == [want] * 3

    def test_one_step_per_token(self, eos_banned):
        greedy_decode(tiny_model(seed=16, max_len=48), [5, EOS])
        assert eos_banned == [1] * 47

    @pytest.mark.parametrize("max_len,want", [(1, 1), (5, 5), (32, 32),
                                              (47, 47), (48, 47), (500, 47)])
    def test_a_given_max_len_only_caps(self, max_len, want, eos_banned):
        m = tiny_model(seed=16, max_len=48)
        assert len(greedy_decode(m, [5, EOS], max_len=max_len)) == want
        assert len(beam_search(m, [5, EOS], max_len=max_len).ids) == want
        out = translate_corpus(m, ["w0"], beam=2, max_len=max_len)[0]
        assert len(out.split()) == want


# Log-probabilities with many exact ties and -inf entries.
LOG_PROBS = st.one_of(st.sampled_from([0.0, -0.5, -1.0, -3.0, -np.inf]),
                      st.floats(-30.0, 0.0))


@st.composite
def log_prob_rows(draw):
    rows, width = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    values = draw(st.lists(LOG_PROBS, min_size=rows * width,
                           max_size=rows * width))
    lp = np.array(values, dtype=dtype).reshape(rows, width)
    return lp, draw(st.integers(1, width + 1))


class TestTopK:
    """_top_k must pick what the full stable argsort picks, in its order."""

    @settings(max_examples=400, deadline=None)
    @given(log_prob_rows())
    def test_equals_full_stable_argsort(self, case):
        lp, k = case
        want = np.argsort(-lp, axis=-1, kind="stable")[:, :k]
        assert np.array_equal(_top_k(lp, k)[0], want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows,k", [
        ([[-1.0] * 6], 2),                                # all tied
        ([[-0.5, -1.0, -1.0, -2.0, -1.0]], 2),            # tie at k-th
        ([[-0.5, -1.0, -1.0, -2.0, -1.0]], 4),            # k-th value ends tie
        ([[-np.inf, -1.0, -np.inf, -0.5]], 3),            # -inf at k-th
        ([[-np.inf, -1.0, -np.inf, -0.5]], 2),            # -inf below k-th
        ([[-0.2, -0.1, -0.3]] * 2, 3),                    # k = width
        ([[-0.2, -0.1, -0.3]], 4),                        # k > width
        ([[-0.3, -0.1, -0.2, -0.2], [-2.0, -1.0, -3.0, -4.0]], 2),  # mixed
        ([[0.0, 0.0, -np.inf, -np.inf]], 3),              # a round repeats
        ([[-3.0] * 200 + [-0.5] + [-1.0] * 300 + [-0.5] * 3
          + [-2.0] * 121], 1),                            # wide, tied max
    ], ids=["all-tied", "tie-at-kth", "kth-ends-tie", "inf-at-kth",
            "inf-below-kth", "k-eq-width", "k-gt-width", "tied-and-not",
            "round-repeats-after-inf", "k1-wide-tied-max"])
    def test_named_cases(self, rows, k, dtype):
        lp = np.array(rows, dtype=dtype)
        want = np.argsort(-lp, axis=-1, kind="stable")[:, :k]
        assert np.array_equal(_top_k(lp, k)[0], want)
        if k == 1:
            assert np.array_equal(_top_k(lp, k)[0][:, 0],
                                  np.argmax(lp, axis=1))


class PrefixTableModel:
    """Stands in for a Seq2SeqModel in decoding: each row's next-token
    probabilities are looked up by the tokens it has generated, so a test
    can pin exact scores."""

    def __init__(self, table, default, max_len=6):
        with np.errstate(divide="ignore"):  # probability 0 is log -inf
            self.table = {k: np.log(np.float32(v)) for k, v in table.items()}
            self.default = np.log(np.float32(default))
        self.config = Seq2SeqConfig(vocab=tiny_vocab(len(default) - 5),
                                    max_len=max_len)
        self.steps = 0
        self.prefixes: set[tuple[int, ...]] = set()  # every row decoded

    def encode(self, src):
        return None

    def start_decoding(self, encoded):
        return PrefixTableModel.Cache([() for _ in encoded])

    def decode_step(self, cache, tokens):
        self.steps += 1
        cache.prefixes = [p if t == BOS else p + (int(t),)
                          for p, t in zip(cache.prefixes, tokens)]
        self.prefixes.update(cache.prefixes)
        return np.array([self.table.get(p, self.default)
                         for p in cache.prefixes])

    def decode(self, enc_out, src, dec_in):
        """Teacher-forced logits for the full-prefix reference: the last
        position's are the table's log-probabilities of the prefix."""
        prefix = tuple(int(t) for t in dec_in[0, 1:])
        return SimpleNamespace(
            data=self.table.get(prefix, self.default)[None])

    class Cache:
        def __init__(self, prefixes):
            self.prefixes = prefixes

        def reorder(self, parents, counts):
            self.prefixes = [self.prefixes[i] for i in parents]


def assert_matches_reference(model, src, beam, max_len):
    got = beam_search(model, src, beam=beam, max_len=max_len)
    want = reference_beam_search(model, src, beam=beam, max_len=max_len)
    assert (got.ids, got.finished) == (want.ids, want.finished)
    assert abs(got.score - want.score) <= 1e-5 * max(1.0, abs(want.score))
    return got


class TestCachedDecoder:
    def test_matches_full_prefix_reference_on_random_models(self):
        rng = make_rng(17)
        for trial in range(20):
            m = tiny_model(seed=400 + trial, n_content=int(rng.integers(3, 9)),
                           layers=int(rng.integers(1, 3)),
                           d=int(rng.choice([8, 16])), heads=2)
            n_src = int(rng.integers(1, 6))
            src = list(rng.integers(5, len(m.config.vocab), size=n_src))
            assert_matches_reference(m, src + [EOS], beam=3, max_len=6)

    def test_matches_reference_on_untrained_model_over_all_steps(self):
        cfg = Seq2SeqConfig(vocab=tiny_vocab(200), n_enc_layers=2,
                            n_dec_layers=2, d_model=64, n_heads=4, d_ff=256,
                            max_len=32, dropout_prob=0.0)
        m = init_model(cfg, make_rng(18))
        got = assert_matches_reference(m, [5, 9, 40, 7, EOS], beam=3,
                                       max_len=32)
        assert not got.finished and len(got.ids) == 31

    def test_batch_equals_single_bitwise(self):
        m = tiny_model(seed=19, n_content=6, layers=2, d=16)
        vocab = m.config.vocab
        texts = ["w0 w1 w2 w3 w4", "w5", "w2 w2", "w3 w1 w0", "w4"]
        sources = [encode_source(t, vocab) for t in texts]
        batch = beam_search_batch(m, sources, beam=3, max_len=8)
        singles = [beam_search(m, s, beam=3, max_len=8) for s in sources]
        assert [(r.ids, r.score, r.finished) for r in batch] == \
               [(r.ids, r.score, r.finished) for r in singles]
        assert translate_corpus(m, texts, max_len=8) == \
               [translate(m, t, max_len=8) for t in texts]
        assert translate_corpus(m, ["w3"], max_len=8) == \
               [translate(m, "w3", max_len=8)]
        assert translate_corpus(m, []) == []

    def test_batch_across_the_chunk_boundary_equals_single_bitwise(self):
        m = tiny_model(seed=24, n_content=6, layers=2, d=8)
        rng = make_rng(25)
        sources = [[int(t) for t in rng.integers(5, 11, size=n)] + [EOS]
                   for n in rng.integers(1, 7, size=MAX_BATCH + 3)]
        batch = beam_search_batch(m, sources, beam=3, max_len=8)
        singles = [beam_search(m, s, beam=3, max_len=8) for s in sources]
        assert [(r.ids, r.score, r.finished) for r in batch] == \
               [(r.ids, r.score, r.finished) for r in singles]

    @pytest.mark.parametrize("update", ["adamw step", "scaled in place"])
    def test_decoding_sees_in_place_weight_updates(self, update):
        # The decoder's weights are bound per decode, never kept on the
        # model, so a decode after an update equals a fresh model's.
        m = tiny_model(seed=26, n_content=6, layers=2)
        vocab = m.config.vocab
        texts = ["w0 w1 w2", "w3 w5"]

        def decoded(model):
            results = [beam_search(model, encode_source(t, vocab), beam=3,
                                   max_len=8) for t in texts]
            return ([(r.ids, r.score, r.finished) for r in results],
                    [translate(model, t, max_len=8) for t in texts])

        before = decoded(m)
        if update == "adamw step":
            batch = make_batch(vocab, texts, ["w2 w1", "w4"])
            label_smoothed_ce(m.forward(batch["src"], batch["dec_in"]),
                              batch["labels"]).backward()
            step_tensors(m.params, AdamWState(lr=1e-2))
        else:
            for name in ("tok_emb", "dec0.self.wv", "dec1.cross.wq",
                         "dec1.ffn.w2", "dec_lnf.g"):
                m.params[name].data *= np.float32(3.0)
        fresh = model_mod.Seq2SeqModel(
            m.config, {k: Tensor(t.data.copy()) for k, t in m.params.items()})
        after = decoded(m)
        assert after == decoded(fresh)
        assert after[0] != before[0]

    def test_step_rows_equal_rows_stepped_alone(self):
        m = tiny_model(seed=20, n_content=6, layers=2, d=16)
        sources = [[5, 6, 7, EOS], [8, EOS], [9, 10, EOS]]
        encoded = [m.encode(np.asarray([s])) for s in sources]
        # Rows after one BOS step: 2 of query 0, 1 of query 1, 3 of query 2.
        parents, counts = [0, 0, 1, 2, 2, 2], [2, 1, 3]
        tokens = np.array([5, 7, 6, 9, 10, 5])
        cache = m.start_decoding(encoded)
        m.decode_step(cache, np.full(3, BOS))
        cache.reorder(np.array(parents), counts)
        together = m.decode_step(cache, tokens)
        for row, (q, tok) in enumerate(zip(parents, tokens)):
            alone = m.start_decoding([encoded[q]])
            m.decode_step(alone, np.array([BOS]))
            assert np.array_equal(m.decode_step(alone, np.array([tok]))[0],
                                  together[row]), row

    def test_step_past_max_len_rejected(self):
        m = tiny_model(seed=3, max_len=3)
        with no_grad():
            cache = m.start_decoding([m.encode(np.array([[5, EOS]]))])
            for tok in (BOS, 5, 6):
                m.decode_step(cache, np.array([tok]))
            # position 3 would make the decoder input 4 ids long
            with pytest.raises(DataError, match="^sequence length 4 exceeds "
                                                "max_len 3$"):
                m.decode_step(cache, np.array([7]))

    def test_non_finite_weight_names_the_op(self):
        m = tiny_model(seed=21)
        m.params["dec0.cross.wq"].data[0, 0] = np.nan
        with pytest.raises(NonFiniteError, match="dec0.cross.wq") as err:
            beam_search(m, [5, 6, EOS], beam=2, max_len=4)
        assert "tensor data" not in str(err.value)

    def test_early_stop_only_when_nothing_can_overtake(self):
        # Ids 0-4 are specials (EOS = 2); 5, 6, 7 are words. EOS at step 1
        # scores log .42; the word 5 scores log .45 and leads to 5 6 EOS at
        # log(.45 * .97 * .97) = log .4234, which is better: the beam may
        # not stop while 5 or 5 6 is active, and must stop once 5 6 EOS is
        # finished.
        eps = [0.005] * 8
        table = {(): [.01, .01, .42, .01, .01, .45, .04, .05],
                 (5,): eps[:6] + [.97, .005],
                 (5, 6): eps[:2] + [.97] + eps[3:]}
        default = [.1, .1, .3, .1, .1, .1, .1, .1]
        m = PrefixTableModel(table, default)
        res = beam_search(m, [5, EOS], beam=2, max_len=5)
        assert (res.ids, res.finished) == ([5, 6], True)
        assert m.steps == 3
        ids, score, finished = exhaustive_best_sequence(m, [5, EOS], 4)
        res = beam_search(m, [5, EOS], beam=len(default) ** 4, max_len=4)
        assert (res.ids, res.score, res.finished) == (ids, score, finished)

    # Ids 0-4 are specials (EOS = 2); 5, 6, 7 are words. At step 1 the
    # words 5 and 6 tie at .3, and EOS and 7 tie at .18; after 5, the words
    # 5 and 6 tie at .2; after 6, all three words tie at .02. Any other
    # prefix gives 7 probability 0 (log -inf).
    TIED = {(): [.01, .01, .18, .01, .01, .3, .3, .18],
            (5,): [.01, .01, .4, .01, .01, .2, .2, .16],
            (6,): [.01, .01, .9, .01, .01, .02, .02, .02]}
    TIED_DEFAULT = [.05, .05, .6, .05, .05, .1, .1, 0.0]

    @pytest.mark.parametrize("beam", [1, 2, 3, 4, 8, 9])
    def test_tied_probabilities_match_reference(self, beam):
        # beam 1 keeps 5, the lower id of the tie, and ends 5 EOS (.12);
        # wider beams also keep 6 and find 6 EOS (.27).
        m = PrefixTableModel(self.TIED, self.TIED_DEFAULT)
        got = assert_matches_reference(m, [5, EOS], beam=beam, max_len=4)
        assert (got.ids, got.finished) == ([5] if beam == 1 else [6], True)
        if beam == 1:
            assert greedy_decode(m, [5, EOS], max_len=4) == [5]
        # PAD and BOS (log -inf) are never extended, even when the beam is
        # wider than the tokens left
        assert not any({PAD, BOS} & set(p) for p in m.prefixes)

    def test_tied_probabilities_match_exhaustive(self):
        m = PrefixTableModel(self.TIED, self.TIED_DEFAULT)
        ids, score, finished = exhaustive_best_sequence(m, [5, EOS], 3)
        res = beam_search(m, [5, EOS], beam=len(self.TIED_DEFAULT) ** 3,
                          max_len=3)
        assert (res.ids, res.score, res.finished) == (ids, score, finished)
        assert (ids, finished) == ([6], True)

    # 5 (.5) then EOS (.4) and 6 (.4) then EOS (.5) tie exactly for the
    # best score, log .5 + log .4; the earlier candidate, 5 EOS, wins.
    # Checked against the exhaustive search only: the full-prefix reference
    # renormalizes each row, which splits a tie between different rows.
    TIED_CANDIDATES = {(): [.01, .01, .04, .01, .01, .5, .4, .02],
                       (5,): [.02, .02, .4, .02, .02, .3, .1, .12],
                       (6,): [.02, .02, .5, .02, .02, .2, .1, .12]}

    @pytest.mark.parametrize("beam", [1, 2, 3, 4, 8 ** 3])
    def test_equal_scores_keep_the_earlier_candidate(self, beam):
        m = PrefixTableModel(self.TIED_CANDIDATES, self.TIED_DEFAULT)
        got = beam_search(m, [5, EOS], beam=beam, max_len=3)
        ids, score, finished = exhaustive_best_sequence(m, [5, EOS], 3)
        assert (got.ids, got.score, got.finished) == (ids, score, finished)
        assert (ids, finished) == ([5], True)

    def test_int8_dequantizes_each_weight_once(self, monkeypatch):
        calls = []
        original = quant.dequantize

        def counting(q):
            calls.append(id(q))
            return original(q)

        monkeypatch.setattr(quant, "dequantize", counting)
        qm = quant.quantize_model(tiny_model(seed=22, layers=2))
        assert calls == []
        beam_search(qm, [5, 6, EOS], beam=3, max_len=6)
        beam_search(qm, [7, EOS], beam=3, max_len=6)
        assert sorted(calls) == sorted(id(q) for q in qm.params.values()
                                       if isinstance(q, quant.QuantizedTensor))

    def test_int8_default_model_dequantizes_on_its_first_pass(
            self, monkeypatch, tmp_path):
        calls = []
        original = quant.dequantize

        def counting(q):
            calls.append(id(q))
            return original(q)

        monkeypatch.setattr(quant, "dequantize", counting)
        cfg = Seq2SeqConfig(vocab=tiny_vocab(8))  # the default 2+2 sizes
        quantized = quant.quantize_model(init_model(cfg, make_rng(23)))
        save_checkpoint(quantized, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert calls == []
        src = np.array([[5, 6, 7, EOS]])
        dec_in = np.array([[BOS, 8, 9]])
        for m in (quantized, loaded):
            calls.clear()
            beam_search(m, [5, 6, EOS], beam=3)
            # Q, K, V, O, FFN up and down per encoder layer; self- and
            # cross-attention's four and the FFN's two per decoder layer
            stored = [q for q in m.params.values()
                      if isinstance(q, quant.QuantizedTensor)]
            assert len(calls) == len(stored) == 2 * 6 + 2 * 10
            beam_search(m, [7, EOS], beam=3)
            m.forward(src, dec_in)
            with no_grad():
                m.start_decoding([m.encode(src)])
            assert len(calls) == 32


def random_padded_ids(rng, n_content, rows, width):
    """Source ids (rows, width): words, EOS, then PAD; row 0 is full."""
    ids = rng.integers(5, 5 + n_content, size=(rows, width))
    for r, n in enumerate([width] + list(rng.integers(1, width + 1,
                                                      size=rows - 1))):
        ids[r, n - 1] = EOS
        ids[r, n:] = PAD
    return ids


class TestPlainEncoder:
    """`encode` and the teacher-forced `decode` run one layer stack, whose
    residual blocks are tape nodes. With gradients off a block is its plain
    forward: it records no tape and gives the recorded pass's bits."""

    @pytest.mark.parametrize("seed", range(6))
    def test_no_grad_encode_equals_tape_bitwise(self, seed, monkeypatch):
        kind = ("float32", "float64", "int8")[seed % 3]
        layers, heads = 1 + seed % 2, (1, 2, 4)[seed % 3]
        cfg = Seq2SeqConfig(vocab=tiny_vocab(9), n_enc_layers=layers,
                            n_dec_layers=layers, d_model=16, n_heads=heads,
                            d_ff=24, max_len=10, dropout_prob=0.3,
                            init_std=0.4)
        m = init_model(cfg, make_rng(40 + seed))
        if kind == "float64":
            m = as_dtype(m, np.float64)
        elif kind == "int8":
            m = quant.quantize_model(m)
        src = random_padded_ids(make_rng(seed), 9, 4, 3 + seed)
        dec_in = random_padded_ids(make_rng(50 + seed), 9, 4, 2 + seed)
        dec_in[:, 0] = BOS
        blocks = []
        block = model_mod.Seq2SeqModel._block

        def keeping(self, *args, **kwargs):
            blocks.append(block(self, *args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(model_mod.Seq2SeqModel, "_block", keeping)
        passes = []
        for grad in (contextlib.nullcontext, no_grad):
            with grad():
                enc = m.encode(src)
                passes.append((enc, m.decode(enc, src, dec_in)))
        (tape_enc, tape), (enc, out) = passes
        assert out.dtype == enc.dtype == m.dtype
        assert np.array_equal(enc.data, tape_enc.data)
        assert np.array_equal(out.data, tape.data)
        n = 5 * layers  # 2 blocks per encoder layer, 3 per decoder layer
        assert len(blocks) == 2 * n
        # int8 weights take no gradient, so nothing is recorded for them
        recorded = kind != "int8"
        assert [b._parents != () for b in blocks[:n]] == [recorded] * n
        assert (tape._parents != ()) == recorded
        assert all(b._parents == () for b in blocks[n:])
        assert enc._parents == out._parents == ()

    def test_no_grad_encode_keeps_its_checks(self):
        m = tiny_model(seed=41, max_len=6)
        with no_grad(), pytest.raises(DataError, match="exceeds max_len"):
            m.encode(np.full((1, 7), 5))
        m.params["enc0.ffn.w1"].data[0, 0] = np.nan
        with no_grad(), pytest.raises(NonFiniteError,
                                      match="linear enc0.ffn.w1 output"):
            m.encode(np.array([[5, 6, EOS]]))

    @pytest.mark.parametrize("kind", ["float32", "float64", "int8"])
    def test_serving_path_keeps_model_dtype(self, kind):
        m = tiny_model(seed=42, n_content=6, layers=2)
        want = np.float64 if kind == "float64" else np.float32
        if kind == "float64":
            m = as_dtype(m, np.float64)
        elif kind == "int8":
            m = quant.quantize_model(m)
        with no_grad():
            encoded = [m.encode(np.array([s]))
                       for s in ([5, 6, EOS], [7, EOS, PAD])]
            cache = m.start_decoding(encoded)
            m.decode_step(cache, np.full(2, BOS))
            logp = m.decode_step(cache, np.array([5, 8]))
        assert [e.dtype for e in encoded] == [want] * 2
        assert logp.dtype == want
        cached = [a for kv in cache.self_kv for a in kv]
        cached += [a for layers in cache.cross for kv in layers
                   for a in kv]
        assert len(cached) == 12
        assert [a.dtype for a in cached] == [want] * 12


class TestCommittedTeacherOutputs:
    """Beam outputs (beam 3) of the benchmark's committed teacher, float32
    and int8, must equal the ids recorded in its reference.json."""

    @pytest.mark.parametrize("kind", ["f32", "int8"])
    def test_beam_ids_equal_recorded(self, kind):
        reference = json.loads((ARTIFACTS / "reference.json")
                               .read_text(encoding="utf-8"))
        model = load_checkpoint(ARTIFACTS / "teacher")
        if kind == "int8":
            model = quant.quantize_model(model)
        queries = sorted(reference)
        results = beam_search_batch(
            model, [encode_source(q, model.config.vocab) for q in queries],
            beam=3)
        assert len(queries) > 400
        changed = [q for q, r in zip(queries, results)
                   if r.ids != reference[q][kind]]
        assert changed == []


class TestCommittedTeacherSpecialTokens:
    def test_pad_in_a_query_translates_as_unk(self):
        # a dropped PAD row used to join the words around it
        model = load_checkpoint(ARTIFACTS / "teacher")
        unk = translate(model, "bbogero <unk> bco bebgero")
        assert unk == "cesefohe tohone boco bebogero"
        for token in ("<pad>", "<s>", "</s>"):
            assert translate(model, f"bbogero {token} bco bebgero") == unk


class TestOverfitSanity:
    def test_loss_halves_in_50_steps(self):
        vocab = build_vocab(["w0 w1 w2 w3 w4 w5"], mode="word")
        cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=1, n_dec_layers=1,
                            d_model=32, n_heads=4, d_ff=64, max_len=12,
                            dropout_prob=0.0)
        m = init_model(cfg, make_rng(15))
        rng = make_rng(16)
        pairs = [(f"w{i} w{(i+1) % 6}", f"w{(i+2) % 6} w{i}")
                 for i in range(6)] * 17  # ~100 examples
        batch = make_batch(vocab, [p[0] for p in pairs],
                           [p[1] for p in pairs])
        opt = AdamWState(lr=1e-3)
        first = None
        for step in range(50):
            logits = m.forward(batch["src"], batch["dec_in"])
            loss = label_smoothed_ce(logits, batch["labels"], 0.1)
            if first is None:
                first = loss.item()
            loss.backward()
            step_tensors(m.params, opt)
        logits = m.forward(batch["src"], batch["dec_in"])
        final = label_smoothed_ce(logits, batch["labels"], 0.1).item()
        assert final < 0.5 * first
