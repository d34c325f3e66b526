"""Independent brute-force oracles used to verify the package's fast paths.

These are deliberately written with different machinery than the library:
exact rational arithmetic for BLEU, exhaustive path/sequence enumeration
for the CRF and beam search, and plain loops everywhere. The beam search
that re-runs the full-prefix decoder for each hypothesis is kept here as
the reference for the cached, batched decoder, a float64 per-head loop is
the reference for the attention op, the forward on padded blocks
(every position-wise op on every position, PAD included) is the
reference for the model's packed rows, CRF training that takes one
query's gradient at a time is the reference for the batched gradient, and
a per-token emission loop is the reference for the CRF's padded gather.

The central-difference checker `finite_diff_grad_check` is the arbiter of
every tape gradient, and the tape ops `reshape` and `attention`, which only
the padded forward uses, live next to it, as do the elementwise tape ops
`add`, `mul`, `tsum` and `exp`, which the package does not use: they
compose the gradient checks' losses and the reference loops. Like the
package's, their backwards return their parents' gradients and write none
(`check_pure_backward` holds every tape op to that). The
package's fused tape nodes (the embedding, the label-smoothed CE, the KD
loss) are held bit for bit to the composed ops and masked arrays they
replace, which are kept here: `take_along_last`, the embedding as two
`gather_rows` (whose gradient is a 2-D `np.add.at`) and an add, the CE
KD loss as `mul`, `tsum` and `mul`, and the JS KD loss as `exp` and a
node on masked x log y. `train.fit`'s per-term backward is held to one
backward of the loss its terms compose (`reference_train_student`).

The corpus generators as they were written first, with a
`Generator.choice` per Markov label and a NumPy-integer index per word,
are the reference for the generators that bisect a cumulative table and
index with Python ints (`reference_gen_langid_corpus`,
`reference_gen_split`). `rng_drawing(u)` builds a PCG64 stream whose next
`random()` is exactly `u`, so a table can be checked against `choice` at
its own entries, where sampling would never land.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from codemix.errors import CodemixError
from codemix.langid import (_SHARED_CONSONANTS, _SHARED_VOWELS, _START_P,
                            _STICKY, LABEL_INDEX, LABELS, N_LABELS,
                            CRFModel, LabeledQuery, LabeledToken,
                            extract_features)
from codemix.numerics import (AdamWState, Tensor, adamw_step, gather_rows,
                              log_softmax, make_rng)
from codemix.numerics.tensor import (_make, _unbroadcast, as_tensor, attend,
                                     attention_names)
from codemix.seq2seq.model import Seq2SeqModel
from codemix.text import (_SRC_CONSONANTS, _SRC_VOWELS, _TGT_CONSONANTS,
                          _TGT_VOWELS, BOS, EOS, PAD, Corpus, ParallelExample,
                          _make_words, drop_interior_char)


# ---------------------------------------------------------------------------
# Elementwise tape ops
# ---------------------------------------------------------------------------

def _operands(a, b) -> tuple[Tensor, Tensor]:
    """Both operands of an elementwise op as tensors. A Python number
    becomes a 0-d array of the other operand's dtype, which is how NumPy
    (NEP 50) computes it anyway, so float32 stays float32."""
    if isinstance(a, (int, float)):
        b = as_tensor(b)
        return Tensor(np.asarray(a, b.dtype)), b
    a = as_tensor(a)
    if isinstance(b, (int, float)):
        return a, Tensor(np.asarray(b, a.dtype))
    return a, as_tensor(b)


def add(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return _make(out, (a, b), backward, "add")


def mul(a, b) -> Tensor:
    a, b = _operands(a, b)
    out = a.data * b.data

    def backward(g):
        return (_unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape))

    return _make(out, (a, b), backward, "mul")


def tsum(a, axis=None) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.data.shape),)

    return _make(out, (a,), backward, "tsum")


def exp(a) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(g):
        return (g * out,)

    return _make(out, (a,), backward, "exp")


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def finite_diff_grad_check(loss_fn, params: dict[str, Tensor],
                           epsilon: float = 1e-5,
                           max_coords_per_tensor: int = 5,
                           rng: np.random.Generator | None = None,
                           denominator_floor: float = 1e-5) -> float:
    """Max over sampled coordinates of
    |analytic - central_difference| / max(|analytic|, |numeric|, floor).

    Samples up to `max_coords_per_tensor` coordinates of each parameter.
    `loss_fn` must be deterministic (checked with two forward passes) and
    scalar-valued; parameters should be float64.

    The denominator floor is the smallest gradient magnitude the comparison
    treats as resolvable: central differences carry ~|loss| * 1e-16 / epsilon
    of float64 noise, so coordinates with truly tiny gradients (for example
    attention key biases, which are inert through the softmax) would otherwise
    report pure measurement noise. A wrong analytic gradient on such a
    coordinate still surfaces, because |analytic| itself then dominates the
    denominator and the ratio approaches 1.
    """
    rng = rng or np.random.default_rng(0)
    l1 = loss_fn(params).item()
    l2 = loss_fn(params).item()
    if l1 != l2:
        raise CodemixError("loss_fn is not deterministic: two forward passes "
                           f"disagree ({l1} vs {l2})")

    for t in params.values():
        t.zero_grad()
    loss = loss_fn(params)
    loss.backward()
    analytic = {k: (t.grad.copy() if t.grad is not None else
                    np.zeros_like(t.data))
                for k, t in params.items()}

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_tensor:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_tensor, replace=False)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            fp = loss_fn(params).item()
            flat[c] = orig - epsilon
            fm = loss_fn(params).item()
            flat[c] = orig
            numeric = (fp - fm) / (2.0 * epsilon)
            a = analytic[name].reshape(-1)[c]
            rel = abs(a - numeric) / max(abs(a), abs(numeric), denominator_floor)
            worst = max(worst, rel)
    return worst


def tape_nodes(*roots: Tensor) -> list[Tensor]:
    """Every tensor the roots reach through their parents, each once."""
    nodes, stack = {}, list(roots)
    while stack:
        t = stack.pop()
        if id(t) not in nodes:
            nodes[id(t)] = t
            stack.extend(t._parents)
    return list(nodes.values())


def check_pure_backward(nodes: list[Tensor], seed: int = 0) -> set[str]:
    """Hold every backward on the tape `nodes` (leaves included) to the
    contract of `numerics.tensor._make`: called on a random gradient, it
    returns one gradient per parent, shaped like that parent, and leaves
    every tensor's `.grad` (each first set to a random array) as it was.
    Returns the qualified names of the backwards called."""
    rng = np.random.default_rng(seed)
    for t in nodes:
        t.grad = np.asarray(rng.standard_normal(t.shape), t.dtype)
    before = [(t, t.grad, t.grad.copy()) for t in nodes]
    names = set()
    for t in nodes:
        if t._backward is None:
            continue
        name = t._backward.__qualname__
        names.add(name)
        grads = t._backward(np.asarray(rng.standard_normal(t.shape),
                                       t.dtype))
        assert len(grads) == len(t._parents), name
        for p, g in zip(t._parents, grads):
            assert np.shape(g) == p.shape, name
    for t, grad, copy in before:
        assert t.grad is grad and np.array_equal(grad, copy)
    return names


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def bleu_bruteforce(candidates: list[str], references: list[str]) -> float:
    """Corpus BLEU-4 computed with greedy list-matching and Fractions."""
    matches = [0] * 4
    totals = [0] * 4
    c_len = 0
    r_len = 0
    for cand, ref in zip(candidates, references):
        c = cand.split()
        r = ref.split()
        c_len += len(c)
        r_len += len(r)
        for n in range(1, 5):
            c_grams = [tuple(c[i:i + n]) for i in range(len(c) - n + 1)]
            r_grams = [tuple(r[i:i + n]) for i in range(len(r) - n + 1)]
            totals[n - 1] += len(c_grams)
            pool = list(r_grams)
            for g in c_grams:
                if g in pool:
                    pool.remove(g)   # clipping via removal
                    matches[n - 1] += 1
    precisions = []
    for m, t in zip(matches, totals):
        if t == 0:
            continue  # order absent from the candidate corpus
        if m == 0:
            return 0.0
        precisions.append(Fraction(m, t))
    if not precisions:
        return 0.0
    log_mean = sum(math.log(float(p)) for p in precisions) / len(precisions)
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
    return bp * math.exp(log_mean) * 100.0


# ---------------------------------------------------------------------------
# CRF
# ---------------------------------------------------------------------------

def crf_enumerate(model, words: list[str]) -> tuple[float, list[str], float]:
    """(log partition, argmax path, max path score) over all 3^L paths.

    Ties break toward the lexicographically smallest index sequence, which
    matches the library's lower-label-index rule.
    """
    emis = model.emissions(model.feature_ids(words))
    trans = model.transitions
    best_path = None
    best_score = -np.inf
    scores = []
    for labels in itertools.product(range(N_LABELS), repeat=len(words)):
        s = emis[0, labels[0]]
        for t in range(1, len(words)):
            s += trans[labels[t - 1], labels[t]] + emis[t, labels[t]]
        scores.append(s)
        if s > best_score:
            best_score = s
            best_path = labels
    m = max(scores)
    log_z = m + math.log(sum(math.exp(s - m) for s in scores))
    return float(log_z), [LABELS[i] for i in best_path], float(best_score)


def reference_emissions(weights: np.ndarray, ids: list[np.ndarray]
                        ) -> np.ndarray:
    """(len(ids), 3) emission scores token by token, as `CRFModel.emissions`
    took them before its padded gather: each token's weight rows summed
    with `take(...).sum(axis=0)`, a token with no ids a row of +0.0."""
    out = np.zeros((len(ids), N_LABELS))
    for t, tok_ids in enumerate(ids):
        if tok_ids.size:
            out[t] = weights.take(tok_ids, axis=0).sum(axis=0)
    return out


def reference_path_score(emis: np.ndarray, trans: np.ndarray,
                         labels) -> float:
    """Emission and transition scores of one label path, summed left to
    right in Python floats."""
    score = float(emis[0, labels[0]])
    for t in range(1, len(emis)):
        score += float(trans[labels[t - 1], labels[t]])
        score += float(emis[t, labels[t]])
    return score


def reference_crf_nll_grad(model, ids: list[np.ndarray], gold: list[int]
                           ) -> tuple[float, dict[int, np.ndarray], np.ndarray]:
    """The per-feature dict gradient that `crf_nll_grad` replaced: (nll,
    {feature id: (3,) gradient}, transition gradient), on
    `reference_emissions`. Each feature's vector is a copy of its first
    position's term, to which the later positions' terms are added one by
    one."""
    def logsumexp(a, axis):
        m = a.max(axis=axis, keepdims=True)
        return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))
                ).squeeze(axis)

    L = len(ids)
    emis = reference_emissions(model.weights, ids)
    trans = model.transitions
    alpha = np.zeros((L, N_LABELS))
    alpha[0] = emis[0]
    for t in range(1, L):
        alpha[t] = logsumexp(alpha[t - 1][:, None] + trans, axis=0) + emis[t]
    log_z = float(logsumexp(alpha[-1], axis=0))
    beta = np.zeros((L, N_LABELS))
    for t in range(L - 2, -1, -1):
        beta[t] = logsumexp(trans + (emis[t + 1] + beta[t + 1])[None, :],
                            axis=1)
    gamma = np.exp(alpha + beta - log_z)
    grad_trans = np.zeros((N_LABELS, N_LABELS))
    for t in range(L - 1):
        pair = (alpha[t][:, None] + trans
                + (emis[t + 1] + beta[t + 1])[None, :] - log_z)
        grad_trans += np.exp(pair)
        grad_trans[gold[t], gold[t + 1]] -= 1.0
    grad_feats: dict[int, np.ndarray] = {}
    for t in range(L):
        diff = gamma[t].copy()
        diff[gold[t]] -= 1.0
        for fid in ids[t]:
            acc = grad_feats.get(int(fid))
            if acc is None:
                grad_feats[int(fid)] = diff.copy()
            else:
                acc += diff
    nll = log_z - reference_path_score(emis, trans, gold)
    return nll, grad_feats, grad_trans


def reference_train_crf(corpus, l2: float = 1e-4, epochs: int = 8,
                        rng=None, lr: float = 0.05, batch_size: int = 8
                        ) -> CRFModel:
    """`train_crf` taking each query's gradient on its own: the mini-batch
    gradient adds the queries' `reference_crf_nll_grad` one by one, in
    batch order, to zero arrays."""
    rng = rng or np.random.default_rng(0)
    feature_index: dict[str, int] = {}
    data = []
    for query in corpus:
        words = [tok.word for tok in query]
        ids = [np.asarray([feature_index.setdefault(f, len(feature_index))
                           for f in extract_features(words, t)],
                          dtype=np.int64)
               for t in range(len(words))]
        data.append((ids, [LABEL_INDEX[tok.label] for tok in query]))
    model = CRFModel(feature_index,
                     np.zeros((len(feature_index), N_LABELS)),
                     np.zeros((N_LABELS, N_LABELS)))
    params = {"weights": model.weights, "transitions": model.transitions}
    opt = AdamWState(lr=lr, weight_decay=0.0)
    for _ in range(epochs):
        order = rng.permutation(len(corpus))
        for start in range(0, len(corpus), batch_size):
            idxs = order[start:start + batch_size]
            gw = np.zeros_like(model.weights)
            gt = np.zeros_like(model.transitions)
            for i in idxs:
                _, feats, gtr = reference_crf_nll_grad(model, *data[i])
                for fid, row in feats.items():
                    gw[fid] += row
                gt += gtr
            scale = 1.0 / len(idxs)
            gw *= scale
            gt *= scale
            gw += 2.0 * l2 * model.weights
            gt += 2.0 * l2 * model.transitions
            adamw_step(params, {"weights": gw, "transitions": gt}, opt)
    return model


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

def reference_attention(q, k, v, mask, n_heads: int, keep=None
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head attention in float64, one batch row and head at a time:
    head h takes columns h*dh:(h+1)*dh of q (B, T, D), k and v (B, S, D),
    forms softmax(q_h k_h^T / sqrt(dh) + mask), multiplies the weights by
    `keep` (the scaled dropout mask, (B, H, T, S)) when given, and writes
    weights @ v_h into its columns. Returns (output (B, T, D), weights
    before dropout (B, H, T, S))."""
    q, k, v = (np.asarray(a, dtype=np.float64) for a in (q, k, v))
    B, T, D = q.shape
    S = k.shape[1]
    dh = D // n_heads
    mask = np.broadcast_to(0.0 if mask is None else mask, (B, n_heads, T, S))
    out = np.zeros((B, T, D))
    weights = np.zeros((B, n_heads, T, S))
    for b in range(B):
        for h in range(n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            scores = q[b, :, cols] @ k[b, :, cols].T / math.sqrt(dh)
            scores = scores + mask[b, h]
            e = np.exp(scores - scores.max(axis=1, keepdims=True))
            weights[b, h] = e / e.sum(axis=1, keepdims=True)
            used = weights[b, h] if keep is None else weights[b, h] * keep[b, h]
            out[b, :, cols] = used @ v[b, :, cols]
    return out, weights


# ---------------------------------------------------------------------------
# Padded forward
# ---------------------------------------------------------------------------

def reshape(a, shape) -> Tensor:
    """The tape op a.reshape(shape)."""
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(g):
        return (g.reshape(a.data.shape),)

    return _make(out, (a,), backward, "reshape")


def attention(q, k, v, q_rows, k_rows, mask, n_heads: int, what: str,
              p: float = 0.0, rng=None, capture=None) -> Tensor:
    """The package's `attend` as one tape node over the tensors q, k, v,
    its scores checked under `attention_names(what)`."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    out, grad = attend(q.data, k.data, v.data, q_rows, k_rows, mask,
                       n_heads, attention_names(what), p, rng, capture)

    return _make(out, (q, k, v), grad, f"attention {what}")


def reference_forward(model: Seq2SeqModel, src_ids, dec_in, rng=None):
    """The teacher-forced forward on padded blocks: every position-wise op
    runs on the whole (B, T, D) block, PAD positions included, and each
    attention sees every position of its block (a dense layout). Dropout
    runs when a dropout stream `rng` is given, drawn in the model's order.
    Returns the logits (B, T, vocab) on the tape."""
    from codemix.numerics import gelu, layer_norm, linear
    from codemix.numerics.tensor import RowLayout
    from codemix.seq2seq.model import NEG_INF
    from codemix.quant import QuantizedTensor, dequantize
    cfg = model.config
    drop_p = 0.0 if rng is None else cfg.dropout_prob

    def p(name):  # an int8 weight as its float32 dequantization
        t = model.params[name]
        return Tensor(dequantize(t)) if isinstance(t, QuantizedTensor) else t

    def ln(x, pre):
        return layer_norm(x, p(f"{pre}.g"), p(f"{pre}.b"))

    def attend(q_in, kv_in, pre, mask):
        (B, T, D), S = q_in.shape, kv_in.shape[1]
        q, k, v = (reshape(linear(x, p(f"{pre}.w{n}"), p(f"{pre}.b{n}")),
                           (-1, D))
                   for x, n in ((q_in, "q"), (kv_in, "k"), (kv_in, "v")))
        ctx = attention(q, k, v, RowLayout(np.ones((B, T), bool)),
                        RowLayout(np.ones((B, S), bool)), mask,
                        cfg.n_heads, pre, drop_p, rng)
        return linear(reshape(ctx, (B, T, D)), p(f"{pre}.wo"),
                      p(f"{pre}.bo"))

    def drop(x):  # inverted dropout, its mask drawn for the (B, T, D) block
        if rng is None:
            return x
        keep = (rng.random(x.shape) >= drop_p).astype(x.dtype)
        return mul(x, keep / (1.0 - drop_p))

    def ffn(x, pre):
        h = gelu(linear(x, p(f"{pre}.w1"), p(f"{pre}.b1")))
        return linear(h, p(f"{pre}.w2"), p(f"{pre}.b2"))

    def embed(ids, pos):
        return reference_embed(p("tok_emb"), p(pos), ids,
                               np.arange(ids.shape[1]))

    src = np.asarray(src_ids, dtype=np.int64)
    dec = np.asarray(dec_in, dtype=np.int64)
    key_mask = np.where(src == PAD, NEG_INF, 0.0)[:, None, None, :]
    key_mask = key_mask.astype(model.dtype)
    x = embed(src, "enc_pos")
    for i in range(cfg.n_enc_layers):
        h = ln(x, f"enc{i}.ln1")
        x = add(x, drop(attend(h, h, f"enc{i}.attn", key_mask)))
        x = add(x, drop(ffn(ln(x, f"enc{i}.ln2"), f"enc{i}.ffn")))
    enc = ln(x, "enc_lnf")
    T = dec.shape[1]
    causal = np.triu(np.full((T, T), NEG_INF, dtype=model.dtype), k=1)
    x = embed(dec, "dec_pos")
    for i in range(cfg.n_dec_layers):
        h = ln(x, f"dec{i}.ln1")
        x = add(x, drop(attend(h, h, f"dec{i}.self", causal[None, None])))
        x = add(x, drop(attend(ln(x, f"dec{i}.ln2"), enc, f"dec{i}.cross",
                               key_mask)))
        x = add(x, drop(ffn(ln(x, f"dec{i}.ln3"), f"dec{i}.ffn")))
    return linear(ln(x, "dec_lnf"), p("tok_emb"), transpose_w=True)


def reference_padded_ce(logits, labels: np.ndarray, epsilon: float):
    """Label-smoothed CE over padded (B, T, vocab) logits and (B, T) labels
    as a masked mean: a PAD label weighs 0, the rest 1 / (real count)."""
    keep = (labels != PAD).astype(logits.dtype)
    logp = log_softmax(logits)
    per_pos = mul(take_along_last(logp, labels), -(1.0 - epsilon))
    per_pos = add(per_pos, mul(tsum(logp, axis=-1),
                               -(epsilon / logits.shape[-1])))
    return mul(tsum(mul(per_pos, keep)), 1.0 / float(keep.sum()))


# ---------------------------------------------------------------------------
# The composed ops of the fused tape nodes
# ---------------------------------------------------------------------------

def take_along_last(a, idx) -> Tensor:
    """a[..., idx] picking one entry per row along the last axis."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.int64)
    out = np.take_along_axis(a.data, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        ga = np.zeros_like(a.data)
        flat = ga.reshape(-1, ga.shape[-1])
        np.add.at(flat, (np.arange(flat.shape[0]), idx.ravel()), g.ravel())
        return (ga,)

    return _make(out, (a,), backward, "take_along_last")


def reference_embed(tok, pos, tok_idx, pos_idx) -> Tensor:
    """Token plus position embedding as three tape ops: two `gather_rows`
    and an add."""
    return add(gather_rows(tok, tok_idx), gather_rows(pos, pos_idx))


def reference_label_smoothed_ce(logits, targets, epsilon: float) -> Tensor:
    """The label-smoothed CE of (n, V) logits as composed tape ops, each
    one checked: log-softmax, the gold pick, the smoothing term, the
    mean."""
    targets = np.asarray(targets, dtype=np.int64)
    logp = log_softmax(logits)
    per_pos = mul(take_along_last(logp, targets), -(1.0 - epsilon))
    if epsilon > 0.0:
        per_pos = add(per_pos, mul(tsum(logp, axis=-1),
                                   -(epsilon / logits.shape[-1])))
    return mul(tsum(per_pos), 1.0 / targets.size)


def reference_xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y), masked to 0 wherever x is 0."""
    nz = x != 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(nz, x * np.log(np.where(nz, y, 1.0)), 0.0)


def reference_js_node(t_probs: np.ndarray, s_probs: Tensor,
                      scale: float) -> Tensor:
    """The Jensen-Shannon tape node on masked arrays throughout: the KL
    terms by `reference_xlogy`, the gradient log(S / m) masked to 0 where
    S or m is 0."""
    s = s_probs.data
    m = 0.5 * (t_probs + s)
    kl_t = (reference_xlogy(t_probs, t_probs)
            - reference_xlogy(t_probs, m)).sum()
    kl_s = (reference_xlogy(s, s) - reference_xlogy(s, m)).sum()

    def backward(g):
        nz = (s > 0) & (m > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(nz, np.log(np.where(nz, s / m, 1.0)), 0.0)
        return (g * scale * ratio,)

    return _make(np.asarray((kl_t + kl_s) * scale), (s_probs,), backward,
                 "js divergence")


def reference_kd_loss(kind, teacher_probs: np.ndarray,
                      student_logp: Tensor) -> Tensor:
    """`distill.kd_loss` as composed tape ops: CE as the scaled sum of
    T * log S, JS as `reference_js_node` on exp(log S), each mean over the
    positions."""
    from codemix.distill import KDKind
    n_pos = len(teacher_probs)
    if kind is KDKind.CE:
        return mul(tsum(mul(Tensor(teacher_probs), student_logp)),
                   -1.0 / n_pos)
    return reference_js_node(teacher_probs, exp(student_logp), 1.0 / n_pos)


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

def sequence_log_prob(model: Seq2SeqModel, enc_out,
                      tokens: list[int]) -> float:
    """Sum of token log-probabilities along a hypothesis, accumulated the
    same way the decoder does (one cached decoder step per token)."""
    cache = model.start_decoding([enc_out])
    prev = BOS
    total = 0.0
    for tok in tokens:
        lp = model.decode_step(cache, np.asarray([prev]))[0]
        total += float(lp[tok])
        prev = tok
    return total


def _full_prefix_log_probs(model: Seq2SeqModel, enc_out, src,
                           dec_prefix: list[int]) -> np.ndarray:
    """Next-token log-probabilities from a teacher-forced decoder pass over
    the whole prefix (no cache)."""
    dec_in = np.asarray([dec_prefix], dtype=np.int64)
    logits = model.decode(enc_out, src, dec_in).data[-1]
    shifted = logits - logits.max()
    return shifted - np.log(np.exp(shifted).sum())


def reference_beam_search(model: Seq2SeqModel, src_ids, beam: int = 3,
                          max_len: int = 32):
    """Beam search one hypothesis at a time, re-running the full-prefix
    decoder for each, to the step limit or until no hypothesis is active.
    Same selection and tie rules as codemix.seq2seq.beam_search."""
    from codemix.numerics import no_grad
    from codemix.seq2seq import BeamResult
    ban = np.zeros(len(model.config.vocab))
    ban[PAD] = ban[BOS] = -np.inf
    with no_grad():
        src = np.asarray([src_ids], dtype=np.int64)
        enc_out = model.encode(src)
        active: list[tuple[float, list[int]]] = [(0.0, [])]
        finished: list[tuple[float, list[int]]] = []
        for _ in range(min(max_len, model.config.max_len - 1)):
            scores: list[float] = []
            cands: list[tuple[int, int]] = []  # (active index, token)
            for hi, (score, ids) in enumerate(active):
                lp = _full_prefix_log_probs(model, enc_out, src,
                                            [BOS] + ids) + ban
                for tok in np.argsort(-lp, kind="stable")[:beam]:
                    if np.isfinite(lp[tok]):
                        scores.append(score + float(lp[tok]))
                        cands.append((hi, int(tok)))
            order = np.argsort(-np.asarray(scores), kind="stable")[:beam]
            next_active: list[tuple[float, list[int]]] = []
            for oi in order:
                hi, tok = cands[oi]
                if tok == EOS:
                    finished.append((scores[oi], active[hi][1]))
                else:
                    next_active.append((scores[oi], active[hi][1] + [tok]))
            active = next_active
            if not active:
                break
    pool = finished or active
    best = max(range(len(pool)), key=lambda i: pool[i][0])
    return BeamResult(pool[best][1], pool[best][0], bool(finished))


def exhaustive_best_sequence(model: Seq2SeqModel, src_ids,
                             max_len: int) -> tuple[list[int], float, bool]:
    """Enumerate every decodable sequence: all EOS-terminated sequences of
    up to max_len steps over the non-PAD/BOS vocabulary, plus all unfinished
    sequences of exactly max_len tokens. Returns the argmax (finished
    preferred), its score, and whether it finished."""
    from codemix.numerics import no_grad
    vocab_size = len(model.config.vocab)
    content = [t for t in range(vocab_size) if t not in (PAD, BOS, EOS)]
    with no_grad():
        src = np.asarray([src_ids], dtype=np.int64)
        enc_out = model.encode(src)
        finished: list[tuple[float, list[int]]] = []
        unfinished: list[tuple[float, list[int]]] = []
        for length in range(0, max_len):
            # sequences of `length` content tokens followed by EOS
            for combo in itertools.product(content, repeat=length):
                seq = list(combo)
                score = sequence_log_prob(model, enc_out, seq + [EOS])
                finished.append((score, seq))
        for combo in itertools.product(content, repeat=max_len):
            seq = list(combo)
            score = sequence_log_prob(model, enc_out, seq)
            unfinished.append((score, seq))
    if finished:
        best = max(finished, key=lambda x: x[0])
        return best[1], best[0], True
    best = max(unfinished, key=lambda x: x[0])
    return best[1], best[0], False


# ---------------------------------------------------------------------------
# Jensen-Shannon reference
# ---------------------------------------------------------------------------

def js_reference(t: np.ndarray, s: np.ndarray) -> float:
    """Plain-loop JS divergence with explicit 0 log 0 handling, mean over
    leading rows."""
    t = np.atleast_2d(t)
    s = np.atleast_2d(s)
    total = 0.0
    for row_t, row_s in zip(t, s):
        m = 0.5 * (row_t + row_s)
        acc = 0.0
        for tk, sk, mk in zip(row_t, row_s, m):
            if tk > 0:
                acc += tk * math.log(tk / mk)
            if sk > 0:
                acc += sk * math.log(sk / mk)
        total += acc
    return total / t.shape[0]


# ---------------------------------------------------------------------------
# Distillation
# ---------------------------------------------------------------------------

def teacher_probs(teacher, batch) -> np.ndarray:
    """The teacher's probabilities over a batch's real decoder positions,
    from a pass without a tape, as `distill.train_student` keeps them."""
    from codemix.numerics import log_softmax, no_grad
    with no_grad():
        return np.exp(log_softmax(
            teacher.forward(batch["src"], batch["dec_in"])).data)


def reference_train_student(student_config, teacher, clean_corpus,
                            unlabeled_pool, kd_kind, rng, config=None,
                            beam: int = 3, initial_student=None):
    """Distillation as its own training loop, the way train_student ran
    before it became train.fit plus a KD term: the same five RNG streams,
    batching, augmentation, KD sampling and AdamW steps, written out.

    The teacher's probabilities come from one teacher-forced pass per
    `batch_size` pseudo-labeled pairs, each pair's rows found by its target
    length, and a KD batch stacks its pairs' rows. The chunks must be
    train_student's: a product over other rows may differ in its last bit.
    """
    from codemix.augment import sample_augmented_batch
    from codemix.distill import (DistillConfig, DistillReport, StepTrace,
                                 generate_pseudo_labels, kd_loss)
    from codemix.errors import NonFiniteError, TrainingDivergedError
    from codemix.numerics import (AdamWState, Tensor, log_softmax,
                                  step_tensors)
    from codemix.seq2seq import (init_model, label_smoothed_ce, make_batch,
                                 pad_batch)
    from codemix.text import encode
    cfg = config or DistillConfig()
    init_rng, data_rng, aug_rng, kd_rng, drop_rng = rng.spawn(5)
    student = initial_student or init_model(student_config, init_rng)
    vocab = student_config.vocab
    pseudo, skipped = generate_pseudo_labels(teacher, unlabeled_pool,
                                             beam=beam)
    report = DistillReport(kd_kind=kd_kind.value, skipped_sources=len(skipped))
    table = []
    for start in range(0, len(pseudo), cfg.batch_size):
        chunk = pseudo[start:start + cfg.batch_size]
        batch = make_batch(vocab, [ex.source for ex in chunk],
                           [ex.target for ex in chunk])
        probs = teacher_probs(teacher, batch)
        for ex in chunk:
            n = len(encode(ex.target, vocab)) + 1  # BOS + target tokens
            table.append(probs[:n])
            probs = probs[n:]
        assert len(probs) == 0
    opt = AdamWState(lr=cfg.lr, weight_decay=cfg.weight_decay)
    snapshot = student.snapshot()
    for epoch in range(cfg.epochs):
        order = data_rng.permutation(len(clean_corpus))
        epoch_steps = []
        try:
            for start in range(0, len(clean_corpus), cfg.batch_size):
                rows = [clean_corpus[i]
                        for i in order[start:start + cfg.batch_size]]
                batch = make_batch(vocab, [ex.source for ex in rows],
                                   [ex.target for ex in rows])
                logits = student.forward(batch["src"], batch["dec_in"],
                                         rng=drop_rng)
                loss_s = label_smoothed_ce(logits, batch["labels"],
                                           cfg.label_smoothing)
                if cfg.kinds:
                    aug = sample_augmented_batch(clean_corpus, cfg.kinds,
                                                 len(rows), aug_rng, vocab)
                    abatch = pad_batch(aug.inputs, aug.outputs)
                    alogits = student.forward(abatch["src"],
                                              abatch["dec_in"],
                                              rng=drop_rng)
                    loss_d = label_smoothed_ce(alogits, abatch["labels"],
                                               cfg.label_smoothing)
                else:
                    loss_d = Tensor(np.zeros((), student.dtype))
                kd_idx = kd_rng.integers(0, len(pseudo), size=len(rows))
                kd_rows = [pseudo[int(i)] for i in kd_idx]
                kd_batch = make_batch(vocab, [ex.source for ex in kd_rows],
                                      [ex.target for ex in kd_rows])
                kd_logits = student.forward(kd_batch["src"],
                                            kd_batch["dec_in"], rng=drop_rng)
                loss_kd = kd_loss(kd_kind,
                                  np.concatenate([table[i] for i in kd_idx]),
                                  log_softmax(kd_logits))
                loss = add(mul(add(loss_s, loss_d), 1.0 - cfg.lam),
                           mul(loss_kd, cfg.lam))
                loss.backward()
                step_tensors(student.params, opt)
                epoch_steps.append(StepTrace(loss_s.item(), loss_d.item(),
                                             loss_kd.item()))
        except NonFiniteError as e:
            student.restore(snapshot)
            raise TrainingDivergedError(str(e)) from e
        snapshot = student.snapshot()
        report.steps.extend(epoch_steps)
        report.epoch_means.append({
            "loss_s": float(np.mean([s.loss_s for s in epoch_steps])),
            "loss_d": float(np.mean([s.loss_d for s in epoch_steps])),
            "loss_kd": float(np.mean([s.loss_kd for s in epoch_steps])),
        })
    return student, report


# ---------------------------------------------------------------------------
# Corpus generators
# ---------------------------------------------------------------------------

def reference_gen_langid_corpus(n_queries: int, seed: int = 0
                                ) -> list[LabeledQuery]:
    """`langid.gen_langid_corpus` with one `rng.choice(3, p=row)` per
    start and transition label and `rng.choice(list("gxk"))` per OT word."""
    rng = make_rng(seed ^ 0x1A6B1D)
    taken: set[str] = set()
    en = _make_words(rng, 150, _TGT_CONSONANTS, _TGT_VOWELS, taken)
    hi = _make_words(rng, 150, _SRC_CONSONANTS, _SRC_VOWELS, taken)
    shared = _make_words(rng, 40, _SHARED_CONSONANTS, _SHARED_VOWELS, taken)
    ot = [f"{rng.integers(1, 512)}{rng.choice(list('gxk'))}" for _ in range(60)]

    queries: list[LabeledQuery] = []
    for _ in range(n_queries):
        length = int(rng.integers(2, 7))
        state = int(rng.choice(3, p=_START_P))
        toks: LabeledQuery = []
        for _ in range(length):
            if state == 2:
                word = ot[int(rng.integers(len(ot)))]
            elif rng.random() < 0.25:
                word = shared[int(rng.integers(len(shared)))]
            elif state == 0:
                word = en[int(rng.integers(len(en)))]
            else:
                word = hi[int(rng.integers(len(hi)))]
            toks.append(LabeledToken(word, LABELS[state]))
            state = int(rng.choice(3, p=_STICKY[state]))
        queries.append(toks)
    return queries


def reference_gen_split(spec, n: int, lexicon: dict[str, str], rng,
                        error_rate: float) -> Corpus:
    """`text._gen_split` indexing the word lists with the NumPy integers
    of one `rng.integers(0, k, size=length)` per sentence."""
    src_words = list(lexicon.keys())
    tgt_words = list(lexicon.values())
    k = len(src_words)
    out: Corpus = []
    for _ in range(n):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        idxs = rng.integers(0, k, size=length)
        pristine = []
        noisy_src = []
        target = []
        for i in idxs:
            word = tgt_words[i] if rng.random() < spec.code_mix_ratio else src_words[i]
            pristine.append(word)
            if rng.random() < spec.noise_char_drop_prob:
                word = drop_interior_char(word, rng)
            noisy_src.append(word)
            t = tgt_words[i]
            if error_rate > 0.0 and rng.random() < error_rate:
                wrong = int(rng.integers(0, k - 1))
                if wrong >= i:
                    wrong += 1
                t = tgt_words[wrong]
            target.append(t)
        out.append(ParallelExample(" ".join(noisy_src), " ".join(target),
                                   " ".join(pristine)))
    return out


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD128 = 1 << 128


def rng_drawing(u: float) -> np.random.Generator:
    """A PCG64 Generator whose next `random()` returns exactly `u`, a
    multiple of 2**-53 in [0, 1).

    `random()` is the top 53 bits of the next 64-bit output times 2**-53.
    PCG64 steps its 128-bit LCG state (state * mult + inc) and outputs the
    XSL-RR permutation of the new state: the high half XOR the low half,
    rotated right by the high half's top 6 bits. A new state whose high
    half is 0 therefore outputs its low half unchanged, so the state to
    set is one LCG step before that."""
    if not (0.0 <= u < 1.0 and (u * 2**53).is_integer()):
        raise ValueError(f"random() cannot return {u!r}")
    after = int(u * 2**53) << 11
    bits = np.random.PCG64(0)
    inc = bits.state["state"]["inc"]
    before = (after - inc) * pow(_PCG64_MULT, -1, _MOD128) % _MOD128
    bits.state = {"bit_generator": "PCG64",
                  "state": {"state": before, "inc": inc},
                  "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)
