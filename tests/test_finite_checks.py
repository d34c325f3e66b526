"""Finite checks once per model pass, and the replay that names the op.

`encode`, `decode` and `decode_step` check their result once; the ops
inside check nothing but attention scores. A failed pass runs again with
every op checked. These tests hold that design to the per-op checks it
replaces: a sweep writes NaN, +Inf or -Inf into the output of each check
site of each pass, in turn, and the pass must raise the NonFiniteError that
per-op checking raises for the same injection, and leave the dropout
stream, the capture list and the decoder cache as per-op checking leaves
them. A failed pass changes no cache and no capture list of its caller's.
"""

import contextlib

import numpy as np
import pytest

from codemix.errors import NonFiniteError
from codemix.numerics import Tensor, make_rng, no_grad
from codemix.numerics import tensor as tensor_mod
from codemix.quant import quantize_model
from codemix.seq2seq import Seq2SeqConfig, init_model, label_smoothed_ce
from codemix.seq2seq import model as model_mod
from codemix.text import BOS, EOS, PAD, Vocab

VALUES = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


def make_model(layers=2, seed=5, dropout=0.3):
    cfg = Seq2SeqConfig(vocab=Vocab([f"w{i}" for i in range(6)]),
                        n_enc_layers=layers, n_dec_layers=layers,
                        d_model=8, n_heads=2, d_ff=16, max_len=8,
                        dropout_prob=dropout)
    return init_model(cfg, make_rng(seed))


# The last example is the longest on both sides, so the first and the last
# entry of every check site's output sit in real rows and columns.
SRC = np.array([[5, 6, EOS, PAD], [7, 8, 9, EOS]])
DEC_IN = np.array([[BOS, 5, PAD], [BOS, 7, 8]])


class Injector:
    """Stands in for every check site: `_op_check` (op outputs) and the
    attention-score `_assert_finite`. It records the sites a run reaches,
    in order, and writes `value` at flat position `pos` of the output of
    site `k`. A pass's first run (per-op checks off) and a checked run (a
    replay, or per-op checking throughout) count their sites apart, so each
    run injects at its own k-th site."""

    def __init__(self, monkeypatch):
        op_check, assert_finite = (tensor_mod._op_check,
                                   tensor_mod._assert_finite)

        def hooked_op_check(arr, what):
            self.site(arr, what)
            op_check(arr, what)

        def hooked_assert_finite(arr, what):
            if what.startswith("attention ") and what.endswith(" scores"):
                self.site(arr, what)
            assert_finite(arr, what)

        monkeypatch.setattr(tensor_mod, "_op_check", hooked_op_check)
        monkeypatch.setattr(model_mod, "_op_check", hooked_op_check)
        monkeypatch.setattr(tensor_mod, "_assert_finite",
                            hooked_assert_finite)
        self.arm(None)

    def arm(self, k, value=np.nan, pos=0):
        self.k, self.value, self.pos = k, value, pos
        self.seen = {False: [], True: []}

    def site(self, arr, what):
        seen = self.seen[tensor_mod._op_checks]
        if len(seen) == self.k:
            arr.flat[self.pos] = self.value
        seen.append(what)


class Pass:
    """One model pass from a fresh state: `run()` returns its result and
    `after()` what it leaves behind (dropout stream, capture, cache)."""

    def __init__(self, model, kind, dropout, injector):
        self.m, self.kind, self.injector = model, kind, injector
        self.dropout = dropout
        self.rng = self.capture = self.cache = None
        with no_grad():
            self.enc = model.encode(SRC)
            self.encoded = [model.encode(SRC[1:, :n]) for n in (4, 2)]

    def run(self):
        m, kind = self.m, self.kind
        self.rng = make_rng(11) if self.dropout else None
        self.capture = []
        if kind == "encode plain":
            with no_grad():
                return m.encode(SRC).data
        if kind == "encode tape":
            return m.encode(SRC, self.rng).data
        if kind in ("decode tape", "decode no_grad"):
            with (contextlib.nullcontext() if kind == "decode tape"
                  else no_grad()):
                return m.decode(self.enc, SRC, DEC_IN, self.rng,
                                self.capture).data
        # the third decode_step: one query's row, or 3 rows of 2 queries
        armed = self.injector.k, self.injector.value, self.injector.pos
        self.injector.arm(None)
        with no_grad():
            if kind == "decode_step single":
                self.cache = m.start_decoding(self.encoded[:1])
            else:
                self.cache = m.start_decoding(self.encoded)
                self.cache.reorder(np.array([0, 0, 1]), [2, 1])
            n = sum(self.cache.counts)
            m.decode_step(self.cache, np.full(n, BOS))
            m.decode_step(self.cache, np.full(n, 5))
            self.injector.arm(*armed)
            return m.decode_step(self.cache, np.full(n, 6))

    def after(self):
        cache = None if self.cache is None else (
            self.cache.steps, [(k.shape, v.shape)
                               for k, v in self.cache.self_kv])
        rng = None if self.rng is None else self.rng.bit_generator.state
        return rng, len(self.capture), cache


def outcome(p: Pass):
    """(the result's bytes or the error message, what the pass left)."""
    with np.errstate(all="ignore"):
        try:
            out = p.run().tobytes()
        except NonFiniteError as e:
            out = str(e)
    return out, p.after()


def per_op(monkeypatch):
    """Per-op checking throughout: a pass runs once, every op checked."""
    monkeypatch.setattr(model_mod, "checked_pass",
                        lambda run, what, rng=None: run())


KINDS = [("encode plain", False), ("encode tape", False),
         ("encode tape", True), ("decode tape", False),
         ("decode tape", True), ("decode no_grad", False),
         ("decode_step single", False), ("decode_step batch", False)]


def score_sites(kind, layers):
    if kind.startswith("encode"):
        return {f"attention enc{i}.attn scores" for i in range(layers)}
    return {f"attention dec{i}.{s} scores" for i in range(layers)
            for s in ("self", "cross")}


@pytest.mark.parametrize("kind,dropout", KINDS,
                         ids=[f"{k}{' dropout' if d else ''}"
                              for k, d in KINDS])
def test_every_injection_is_named_as_per_op_checks_name_it(
        kind, dropout, monkeypatch):
    injector = Injector(monkeypatch)
    p = Pass(make_model(), kind, dropout, injector)
    injector.arm(None)
    clean = outcome(p)
    sites = list(injector.seen[False])
    assert injector.seen[True] == []  # a clean pass is not replayed
    assert score_sites(kind, 2) <= set(sites)
    cases = [(k, name, pos) for k in range(len(sites))
             for name in VALUES for pos in (0, -1)]
    got = []
    for k, name, pos in cases:
        injector.arm(k, VALUES[name], pos)
        got.append(outcome(p))
    with monkeypatch.context() as mp:
        per_op(mp)
        injector.arm(None)
        ref_clean = outcome(p)
        assert injector.seen[True] == sites  # same sites, in the same order
        want = []
        for k, name, pos in cases:
            injector.arm(k, VALUES[name], pos)
            want.append(outcome(p))
    assert clean == ref_clean  # the same bits, the same state after
    wrong = [(sites[k], name, pos, g, w)
             for (k, name, pos), g, w in zip(cases, got, want) if g != w]
    assert wrong == []
    assert all(isinstance(w[0], str) for w in want)  # each one raised


@pytest.mark.parametrize("kind", ["encode plain", "encode tape",
                                  "decode tape", "decode_step single"])
@pytest.mark.parametrize("weights", [("enc0.ffn.w1", "enc0.ffn.w2"),
                                     ("enc1.attn.wq", "enc1.attn.wk"),
                                     ("dec0.self.wv", "dec0.self.wo"),
                                     ("dec1.self.wq", "dec1.self.wk"),
                                     ("dec1.cross.wv", "dec1.cross.wo")])
def test_float32_overflow_is_named_as_per_op_checks_name_it(
        kind, weights, monkeypatch):
    # weights of about 1e20: two such products overflow float32 with no
    # injected value
    m = make_model()
    p = Pass(m, kind, False, Injector(monkeypatch))
    for name in weights:
        m.params[name].data *= np.float32(1e20 / 0.02)
    got = outcome(p)
    per_op(monkeypatch)
    want = outcome(p)
    assert got == want
    if kind.startswith("encode") == weights[0].startswith("enc"):
        assert isinstance(want[0], str)  # the overflow reaches this pass


@pytest.mark.parametrize("queries", [1, 2])
def test_decode_step_checks_its_output_and_the_scores(queries, monkeypatch):
    # 1 log-probability check, and per layer one self-attention score check
    # and one cross-attention score check per live query
    m = make_model(layers=3, dropout=0.0)
    calls = []
    original = tensor_mod._assert_finite

    def counting(arr, what):
        calls.append(what)
        original(arr, what)

    monkeypatch.setattr(tensor_mod, "_assert_finite", counting)
    with no_grad():
        cache = m.start_decoding([m.encode(SRC[1:, :n])
                                  for n in (4, 2)[:queries]])
        if queries == 2:
            cache.reorder(np.array([0, 0, 1]), [2, 1])
        rows = sum(cache.counts)
        m.decode_step(cache, np.full(rows, BOS))
        calls.clear()
        m.decode_step(cache, np.full(rows, 5))
        assert len(calls) == 1 + 3 * (1 + queries), calls
        calls.clear()
        m.encode(SRC)
    assert len(calls) == 1 + 3, calls  # the states, each layer's scores


@pytest.mark.parametrize("kind", ["f32", "int8"])
def test_decode_step_looks_up_no_parameter(kind):
    # the first pass binds the model's weights; no later pass looks one up
    m = make_model(dropout=0.0)
    if kind == "int8":
        m = quantize_model(m)
    calls = []

    class Counting(dict):
        def __getitem__(self, name):
            calls.append(name)
            return super().__getitem__(name)

    m.params = Counting(m.params)
    with no_grad():
        cache = m.start_decoding([m.encode(SRC[1:, :n]) for n in (4, 2)])
        assert calls
        calls.clear()
        m.decode_step(cache, np.full(2, BOS))
        m.decode_step(cache, np.full(2, 5))
        m.decode(m.encode(SRC), SRC, DEC_IN)
        m.start_decoding([m.encode(SRC[1:])])
    m.decode(m.encode(SRC), SRC, DEC_IN)  # the tape passes too
    assert calls == []


def test_replay_names_the_pass_output_when_per_op_checks_find_nothing(
        monkeypatch):
    m = make_model(dropout=0.0)
    real = model_mod.Seq2SeqModel._encode
    first = []

    def flaky(self, *args):
        out = real(self, *args)
        if not first:  # only the first run goes wrong
            first.append(True)
            out.data[0, 0] = np.nan
        return out

    monkeypatch.setattr(model_mod.Seq2SeqModel, "_encode", flaky)
    with no_grad(), pytest.raises(NonFiniteError,
                                  match="non-finite values in encoder states"):
        m.encode(SRC)


def test_failed_decode_step_leaves_its_cache_as_it_was():
    # the NaN comes after every layer's self-attention, so the failed step
    # has computed each layer's new keys and values
    m = make_model(dropout=0.0)
    w = m.params["dec1.ffn.w2"].data
    with no_grad():
        encoded = [m.encode(SRC[1:, :n]) for n in (4, 2)]
        cache, twin = m.start_decoding(encoded), m.start_decoding(encoded)
        for c in (cache, twin):
            m.decode_step(c, np.full(2, BOS))
        arrays = [a for kv in cache.self_kv for a in kv]
        copies = [a.copy() for a in arrays]
        saved, w[0, 0] = w[0, 0], np.nan
        with pytest.raises(NonFiniteError,
                           match="non-finite values in linear dec1.ffn.w2"):
            m.decode_step(cache, np.full(2, 5))
        after = [a for kv in cache.self_kv for a in kv]
        assert all(a is b for a, b in zip(after, arrays, strict=True))
        assert all(np.array_equal(a, c) for a, c in zip(after, copies))
        assert cache.steps == 1
        w[0, 0] = saved
        for token in (5, 6):
            got = m.decode_step(cache, np.full(2, token))
            assert got.tobytes() == m.decode_step(
                twin, np.full(2, token)).tobytes()
        assert cache.steps == twin.steps == 3


@pytest.mark.parametrize("dropout", [0.0, 0.3])
def test_failed_decode_leaves_its_capture_list_as_it_was(dropout):
    m = make_model(dropout=dropout)
    enc = m.encode(SRC)
    w = m.params["dec1.ffn.w2"].data
    saved, w[0, 0] = w[0, 0], np.nan
    capture = ["earlier"]
    rng = make_rng(11) if dropout else None
    with pytest.raises(NonFiniteError,
                       match="non-finite values in linear dec1.ffn.w2"):
        m.decode(enc, SRC, DEC_IN, rng, capture)
    assert capture == ["earlier"]
    w[0, 0] = saved
    m.decode(enc, SRC, DEC_IN, rng, capture)
    assert capture[0] == "earlier" and len(capture) == 3  # one per layer


@pytest.mark.parametrize("name", ["dec0.cross.wk", "dec0.cross.wv",
                                  "dec1.cross.wk", "dec1.cross.wv"])
def test_start_decoding_names_each_projection(name):
    # the first query's projection raises, named
    m = make_model(dropout=0.0)
    with no_grad():
        encoded = [m.encode(SRC[1:, :n]) for n in (4, 2)]
        m.params[name].data[0, 0] = np.nan
        with pytest.raises(NonFiniteError,
                           match=f"non-finite values in linear {name} output"):
            m.start_decoding(encoded)


@pytest.mark.parametrize("table,kind,what", [
    ("tok_emb", "encode", "encoder embedding"),
    ("enc_pos", "encode", "encoder embedding"),
    ("tok_emb", "decode", "decoder embedding"),
    ("dec_pos", "decode", "decoder embedding")])
@pytest.mark.parametrize("grad", [False, True])
def test_embedding_node_is_named(table, kind, what, grad):
    # an Inf in a row or position the pass reads: encoder id 5 at position
    # 0, decoder id 7 at position 1
    m = make_model(dropout=0.0)
    enc = m.encode(SRC) if kind == "decode" else None
    row = {"tok_emb": 5 if kind == "encode" else 7, "enc_pos": 0,
           "dec_pos": 1}[table]
    m.params[table].data[row, 0] = np.inf
    tape = contextlib.nullcontext() if grad else no_grad()
    with tape, np.errstate(invalid="ignore"), pytest.raises(
            NonFiniteError, match=f"non-finite values in {what} output"):
        if kind == "encode":
            m.encode(SRC)
        else:
            m.decode(enc, SRC, DEC_IN)


def test_label_smoothed_ce_names_the_log_probabilities():
    # finite float32 logits whose log-softmax overflows to -inf
    logits = Tensor(np.array([[3e38, -3e38, 0.0]], dtype=np.float32),
                    requires_grad=True)
    with np.errstate(over="ignore"), \
            pytest.raises(NonFiniteError,
                          match="non-finite values in log_softmax output"):
        label_smoothed_ce(logits, np.array([1]), 0.1)
