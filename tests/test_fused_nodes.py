"""The fused tape nodes against the composed ops they replace, bit for bit.

The row gather's flat scatter (`scatter_rows`, against a 2-D np.add.at),
the model's embedding node, the label-smoothed CE node and the KD loss
node (CE and Jensen-Shannon) each do the float operations of the ops in
`tests/oracles.py` in the same order, so their values and gradients must
carry the same bytes, in float32 and float64, with repeated indices, with
and without label smoothing, and with zeros in the teacher and student
probabilities.
"""

import numpy as np
import pytest

from codemix.distill import KDKind, _xlogy_np, kd_loss
from codemix.numerics import Tensor, make_rng
from codemix.numerics.tensor import scatter_rows
from codemix.seq2seq import (Seq2SeqConfig, init_model, label_smoothed_ce,
                             pad_batch)
from codemix.seq2seq import model as model_mod
from codemix.text import Vocab

from oracles import (mul, reference_embed, reference_kd_loss,
                     reference_label_smoothed_ce, reference_xlogy)

DTYPES = [np.float32, np.float64]


def same(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, NaN equals
    itself."""
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def leaf(data, dtype):
    return Tensor(np.asarray(data, dtype=dtype), requires_grad=True)


def run(fn, arrays: dict, dtype, upstream, grad0: float | None = 0.25):
    """fn over fresh leaves of `arrays`, each already holding the gradient
    `grad0` unless it is None (so accumulation is covered too), then
    backward with `upstream`: the output and each leaf's gradient."""
    leaves = {k: leaf(v, dtype) for k, v in arrays.items()}
    for t in leaves.values():
        t.grad = None if grad0 is None else np.full_like(t.data, grad0)
    out = fn(leaves)
    out.backward(np.asarray(upstream, dtype=dtype))
    return out.data, {k: t.grad for k, t in leaves.items()}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("table_shape,idx", [
    ((7, 5), [3, 1, 3, 3, 0, 6, 1]),
    ((7,), [2, 2, 5]),
    ((7, 2, 3), [[4, 0], [4, 4]]),
    ((1, 4), [0, 0, 0]),
    ((6, 4), np.zeros((0,), np.int64))])
def test_scatter_rows_matches_2d_add_at(dtype, table_shape, idx):
    rng = make_rng(1)
    idx = np.asarray(idx, dtype=np.int64)
    table = rng.standard_normal(table_shape).astype(dtype)
    g = rng.standard_normal(idx.shape + table_shape[1:]).astype(dtype)
    want = np.zeros_like(table)
    np.add.at(want, idx, g)
    assert same(scatter_rows(g, idx, table), want)


def small_model(dtype, dropout=0.0):
    cfg = Seq2SeqConfig(vocab=Vocab([f"w{i}" for i in range(9)]),
                        n_enc_layers=2, n_dec_layers=2, d_model=16,
                        n_heads=2, d_ff=32, max_len=8, dropout_prob=dropout)
    return init_model(cfg, make_rng(3), dtype=dtype)


# repeated tokens across and within rows, and padding
SRCS = [[5, 6, 5, 5], [7, 5], [9, 9, 9]]
TGTS = [[6, 6, 8], [5], [9, 5, 9, 9]]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", ["src", "dec_in"])
def test_embedding_node_matches_three_ops(dtype, side):
    m = small_model(dtype)
    ids = pad_batch(SRCS, TGTS)[side]
    rows = m._rows(ids)
    pos = "enc_pos" if side == "src" else "dec_pos"
    w = m.weights
    g = make_rng(4).standard_normal((rows.idx.size, 16))
    tables = {"tok": w.tok_emb.data, "pos": getattr(w, pos).data}

    def fused(p):
        m.weights = w._replace(tok_emb=p["tok"])
        return m._embed(ids, rows, p["pos"], "embedding")

    got = run(fused, tables, dtype, g)
    want = run(lambda p: reference_embed(
        p["tok"], p["pos"], ids.reshape(-1)[rows.idx],
        rows.idx % ids.shape[1]), tables, dtype, g)
    assert same(got[0], want[0])
    assert all(same(got[1][k], want[1][k]) for k in tables)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
@pytest.mark.parametrize("upstream", [1.0, -0.37, 0.0])
def test_label_smoothed_ce_matches_composed_ops(dtype, epsilon, upstream):
    # an upstream gradient of 0 makes signed zeros, which must match too,
    # on a leaf without a gradient to absorb them
    rng = make_rng(5)
    logits = rng.standard_normal((6, 11)) * 3
    targets = np.array([4, 4, 0, 10, 4, 7])
    grad0 = None if upstream == 0.0 else 0.25
    got = run(lambda p: label_smoothed_ce(p["x"], targets, epsilon),
              {"x": logits}, dtype, upstream, grad0)
    want = run(lambda p: reference_label_smoothed_ce(p["x"], targets,
                                                     epsilon),
               {"x": logits}, dtype, upstream, grad0)
    assert same(got[0], want[0]) and same(got[1]["x"], want[1]["x"])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("epsilon", [0.0, 0.1])
def test_training_step_matches_composed_ops(dtype, epsilon, monkeypatch):
    # the whole model: encoder and decoder embeddings and the tied output
    # projection add into tok_emb's gradient in the order the composed ops
    # did, with dropout on
    batch = pad_batch(SRCS, TGTS)

    def grads(ce):
        m = small_model(dtype, dropout=0.2)
        logits = m.forward(batch["src"], batch["dec_in"], rng=make_rng(6))
        loss = ce(logits, batch["labels"], epsilon)
        mul(loss, 0.5).backward()
        return loss.data, {k: t.grad for k, t in m.params.items()}

    got = grads(label_smoothed_ce)
    monkeypatch.setattr(model_mod.Seq2SeqModel, "_embed",
                        lambda self, ids, rows, pos, what: reference_embed(
                            self.weights.tok_emb, pos,
                            ids.reshape(-1)[rows.idx],
                            rows.idx % ids.shape[1]))
    want = grads(reference_label_smoothed_ce)
    assert same(got[0], want[0])
    assert [k for k in got[1] if not same(got[1][k], want[1][k])] == []


def probs_with_zeros(dtype, seed):
    """(teacher, student) probabilities (5, 9) with exact zeros in both, at
    different places and at one shared place."""
    rng = make_rng(seed)
    t = rng.dirichlet(np.ones(9), size=5).astype(dtype)
    s = rng.dirichlet(np.ones(9), size=5).astype(dtype)
    t[0, :3] = 0
    t[3, 7:] = 0
    s[1, 2:5] = 0
    s[3, 7] = 0
    return t, s


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("zeros", ["none", "teacher", "student", "both"])
def test_xlogy_matches_masked(dtype, zeros):
    t, s = probs_with_zeros(dtype, 7)
    if zeros in ("none", "student"):
        t = np.where(t == 0, dtype(0.5), t)
    if zeros in ("none", "teacher"):
        s = np.where(s == 0, dtype(0.5), s)
    if zeros == "both":
        # so small that m = (T + S) / 2 underflows to 0 where T is 0
        s[3, 8] = np.finfo(dtype).smallest_subnormal
    m = dtype(0.5) * (t + s)
    for x, y in ((t, t), (t, m), (s, s), (s, m), (t, s)):
        assert same(_xlogy_np(x, y), reference_xlogy(x, y))


def kd_both(kind, t, logp, dtype, upstream=1.0, grad0=0.25):
    """`kd_loss` and its composed reference on teacher probabilities t and
    a leaf of student log-probabilities: ((value, grads), (value, grads))."""
    return tuple(run(lambda p: fn(kind, t, p["l"]), {"l": logp}, dtype,
                     upstream, grad0) for fn in (kd_loss, reference_kd_loss))


def log_of(s):
    """Student log-probabilities whose exp is s: -800 where s is 0, which
    exp underflows to exactly 0 in float32 and float64."""
    with np.errstate(divide="ignore"):
        return np.where(s == 0, s.dtype.type(-800.0), np.log(s))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("upstream", [1.0, -0.37, 0.0])
def test_ce_kd_loss_matches_composed_ops(dtype, upstream):
    # an upstream gradient of 0 makes signed zeros, which must match too
    t, s = probs_with_zeros(dtype, 11)
    got, want = kd_both(KDKind.CE, t, log_of(np.where(s == 0, 0.5, s)),
                        dtype, upstream,
                        None if upstream == 0.0 else 0.25)
    assert same(got[0], want[0]) and same(got[1]["l"], want[1]["l"])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("zeros", ["none", "teacher", "student", "both"])
def test_js_node_matches_masked(dtype, zeros):
    # the JS KD loss against exp and the node on masked arrays
    t, s = probs_with_zeros(dtype, 8)
    if zeros in ("none", "student"):
        t = np.where(t == 0, dtype(0.5), t)
    if zeros in ("none", "teacher"):
        s = np.where(s == 0, dtype(0.5), s)
    got, want = kd_both(KDKind.JS, t, log_of(s), dtype)
    assert same(got[0], want[0]) and same(got[1]["l"], want[1]["l"])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("side", ["teacher", "student"])
def test_js_node_is_finite_where_m_underflows(dtype, side):
    # one side 0 and the other the smallest subnormal, so (T + S) / 2
    # rounds to 0; the entry adds nothing to the value or the gradient,
    # as when both sides are 0 there
    t, s = probs_with_zeros(dtype, 8)
    at = (1, 3) if side == "teacher" else (3, 8)   # the other side is 0

    def js(value):
        tt, ss = t.copy(), s.copy()
        (tt if side == "teacher" else ss)[at] = value
        logp = log_of(ss)
        assert same(np.exp(logp)[at], ss[at])
        return run(lambda p: kd_loss(KDKind.JS, tt, p["l"]), {"l": logp},
                   dtype, 1.0)

    got, zero = js(np.finfo(dtype).smallest_subnormal), js(0)
    assert np.isfinite(got[0]) and np.isfinite(got[1]["l"]).all()
    assert same(got[0], zero[0]) and same(got[1]["l"], zero[1]["l"])


@pytest.mark.parametrize("dtype", DTYPES)
def test_js_node_through_exp_matches_masked(dtype):
    # student probabilities as exp(log S): log S of -800 underflows to 0
    t, _ = probs_with_zeros(dtype, 9)
    logp = np.log(make_rng(10).dirichlet(np.ones(9), size=5)).astype(dtype)
    logp[2, :4] = -800.0
    got, want = kd_both(KDKind.JS, t, logp, dtype)
    assert same(got[0], want[0]) and same(got[1]["l"], want[1]["l"])
