"""Code-mix query detection: a linear-chain CRF token labeler with character
n-gram features, and query-level aggregation (any HI token makes the query
HINGLISH).

The CRF is trained on the exact negative log-likelihood via the forward
algorithm in log space, so a brute-force path enumeration can verify both
the partition function and Viterbi. Gradients are expected minus gold
feature counts from forward-backward marginals, taken for a whole
mini-batch in one pass (`crf_batch_grad`) and added up in the order of a
per-query loop, bit for bit.

`extract_features` states the feature template as strings. Feature strings
become ids in `_query_ids`, which builds each word's features once and each
(word, offset) id array once per memo: per corpus in `train_crf`, which
assigns the ids, and per query in `CRFModel.feature_ids`, which looks them
up. Everything after works on id arrays.

Emissions are one gather: the tokens' id arrays side by side in a padded
(k, tokens) matrix (`_padded`), whose padding rows are set to -0.0, the
exact additive identity, so the gathered rows summed over k give each
token's emissions as its ids alone would. `train_crf` builds, once per
corpus, everything a mini-batch takes from it (`_Corpus`): that matrix for
all its tokens, the gold labels, and per query its distinct feature ids and
the bincount slot of each (token, feature id) entry. A batch then sums its
emission gradient with one bincount per query and adds the queries' rows
into the dense gradient in batch order with one `np.add.at`.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .numerics import AdamWState, adamw_step, make_rng
from .text import (_SRC_CONSONANTS, _SRC_VOWELS, _TGT_CONSONANTS, _TGT_VOWELS,
                   _make_words, check_count, read_utf8, split_lines)

LABELS = ("EN", "HI", "OT")
LABEL_INDEX = {lab: i for i, lab in enumerate(LABELS)}
N_LABELS = len(LABELS)
BOS_WORD = "<s>"
EOS_WORD = "</s>"
# The window's padding past each end of a query: objects, so no word equals
# one (a query word spelled `<s>` is a word), each with the one feature that
# names its edge.
_BOS, _EOS = object(), object()
_EDGE_FEATURES = {_BOS: (BOS_WORD,), _EOS: (EOS_WORD,)}


class QueryLanguage(enum.Enum):
    ENGLISH = "english"
    HINGLISH = "hinglish"
    OTHER = "other"


@dataclass
class LabeledToken:
    word: str
    label: str  # one of LABELS

    def __post_init__(self):
        if not self.word:
            raise DataError("LabeledToken.word must be non-empty")
        if self.label not in LABEL_INDEX:
            raise DataError(f"unknown label {self.label!r}")


LabeledQuery = list[LabeledToken]


# ---------------------------------------------------------------------------
# Features
# ---------------------------------------------------------------------------

_LEN_BUCKETS = ("1", "2", "3", "4", "5", "6+")


def _word_features(word: str) -> list[str]:
    """Lowercased char n-grams (1..4, padded with ^/$ for n >= 2), length
    bucket, digit flag, special-character flag; sorted, de-duplicated and
    without the window offset, which every feature of a word shares as a
    prefix (so `offset + f` sorts in the same order). The window's edge
    padding has only the feature that names it (`_EDGE_FEATURES`)."""
    if word in _EDGE_FEATURES:
        return list(_EDGE_FEATURES[word])
    w = word.lower()
    feats = [f"1:{c}" for c in w]
    padded = "^" + w + "$"
    for n in (2, 3, 4):
        feats += [f"{n}:{padded[i:i + n]}" for i in range(len(padded) - n + 1)]
    feats.append(f"len:{_LEN_BUCKETS[min(len(w), 6) - 1]}")
    if any(c in "0123456789" for c in w):
        feats.append("digit")
    if any(not c.isalnum() for c in w):
        feats.append("special")
    # Binary features: duplicates collapse to a single firing.
    return sorted(set(feats))


# The context window: previous, current and next word, in feature order.
_OFFSETS = ("-1:", "0:", "+1:")


def extract_features(words: list[str], position: int) -> tuple[str, ...]:
    """Features of the context window (previous, current, next word), with
    BOS/EOS dummies (`-1:<s>`, `+1:</s>`) past the query's ends, which no
    word, not even one spelled `<s>`, shares. Deterministic for a given input.
    This is the template as strings; `_query_ids` turns the same features
    into ids one word at a time."""
    if not 0 <= position < len(words):
        raise DataError(f"position {position} out of range for {len(words)} words")
    prev_w = words[position - 1] if position > 0 else _BOS
    next_w = words[position + 1] if position + 1 < len(words) else _EOS
    window = (prev_w, words[position], next_w)
    return tuple(offset + f for offset, w in zip(_OFFSETS, window)
                 for f in _word_features(w))


def _query_ids(words: list[str], memo: dict, ids_of) -> list[np.ndarray]:
    """Per position, the ids of `extract_features(words, t)` in its order:
    the previous, current and next word's id arrays, concatenated.
    `ids_of(offset, feats)` gives the ids of the features `offset + f` of a
    word's `feats` (dropping any it does not know). `memo` holds each
    word's `_word_features` and each (word, offset) pair's id array, so with
    one memo a word's features are built once and its ids at an offset
    looked up once."""
    padded = [_BOS, *words, _EOS]
    out = []
    for t in range(len(words)):
        window = []
        for offset, w in zip(_OFFSETS, padded[t:t + 3]):
            ids = memo.get((w, offset))
            if ids is None:
                feats = memo.get(w)
                if feats is None:
                    feats = memo[w] = _word_features(w)
                ids = memo[(w, offset)] = np.array(ids_of(offset, feats),
                                                   dtype=np.int64)
            window.append(ids)
        out.append(np.concatenate(window))
    return out


# ---------------------------------------------------------------------------
# CRF model
# ---------------------------------------------------------------------------

FEATURE_TEMPLATE_VERSION = "ngram134-window3-v1"


@dataclass
class CRFModel:
    feature_index: dict[str, int]
    weights: np.ndarray        # (n_features, 3) emission weights
    transitions: np.ndarray    # (3, 3) [from, to]

    def feature_ids(self, words: list[str]) -> list[np.ndarray]:
        """Per position, the ids of the token's features that the index
        holds (features it never saw are dropped). Once the index is built,
        feature strings become ids here, through `_query_ids` with a memo
        of this query's words."""
        index = self.feature_index

        def known(offset: str, feats: list[str]) -> list[int]:
            names = [offset + f for f in feats]
            return [index[f] for f in names if f in index]

        return _query_ids(words, {}, known)

    def emissions(self, ids: list[np.ndarray]) -> np.ndarray:
        """(len(ids), 3) emission scores of feature_ids: each token's
        weight rows summed in order, all tokens in one padded gather."""
        return _emission_sums(self.weights, *_padded(ids))


def _padded(tokens: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(k, len(tokens)) matrix whose column t holds tokens[t]'s ids, then
    0s, and the (k, len(tokens), 3) mask of those padding 0s, repeated per
    label; k is the largest id count."""
    k = max(map(len, tokens), default=0)
    feats = np.zeros((k, len(tokens)), dtype=np.int64)
    pad = np.ones((k, len(tokens), N_LABELS), dtype=bool)
    for t, ids in enumerate(tokens):
        feats[:len(ids), t] = ids
        pad[:len(ids), t] = False
    return feats, pad


def _emission_sums(weights: np.ndarray, feats: np.ndarray, pad: np.ndarray
                   ) -> np.ndarray:
    """(n, 3): per column of the `_padded` feats, its ids' weight rows
    summed over the leading axis in order. The padding's rows are set to
    -0.0, the exact additive identity, so a column sums bit for bit as
    `weights.take(ids, axis=0).sum(axis=0)` of its ids alone, and a column
    of no ids to +0.0."""
    rows = weights.take(feats, axis=0)
    rows[pad] = -0.0
    return rows.sum(axis=0)


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    m = a.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def _forward_backward(emis: np.ndarray, trans: np.ndarray,
                      lens: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward and backward algorithms in log space over queries padded to
    one length: (alpha (B, T, 3), beta (B, T, 3), log Z (B,)). Alpha past a
    query's last word is finite and unused, so log Z is read at the last
    word; beta is 0 from the last word on."""
    B, T = emis.shape[:2]
    alpha = np.empty_like(emis)
    alpha[:, 0] = emis[:, 0]
    for t in range(1, T):
        alpha[:, t] = (_logsumexp(alpha[:, t - 1, :, None] + trans, 1)
                       + emis[:, t])
    inner = (np.arange(T) < lens[:, None] - 1)[:, :, None]
    beta = np.zeros_like(emis)
    for t in range(T - 2, -1, -1):
        step = _logsumexp(trans + (emis[:, t + 1] + beta[:, t + 1])[:, None],
                          2)
        beta[:, t] = np.where(inner[:, t], step, 0.0)
    return alpha, beta, _logsumexp(alpha[np.arange(B), lens - 1], 1)


def _runs(values: np.ndarray, counts: np.ndarray) -> list[np.ndarray]:
    """`values` cut into consecutive runs of counts[0], counts[1], ...
    items (views)."""
    ends = np.cumsum(counts).tolist()
    return [values[end - n:end] for end, n in zip(ends, counts.tolist())]


class _Corpus:
    """What a mini-batch of CRF queries needs, built once per corpus from
    its (feature_ids, gold label indices) pairs.

    All tokens, query by query: the `_padded` feature-id matrix `feats`
    and its padding mask `pad`, each token's id count and gold label. Per query: its columns of
    `feats`; the bincount slots (id times 3 plus label) of its distinct
    feature ids, ascending; and for each (token, feature id) entry, in
    token order, the entry's token and the slots of its distinct id, both
    counted within the query."""

    def __init__(self, queries: list[tuple[list[np.ndarray], list[int]]]):
        self.lens = np.array([len(ids) for ids, _ in queries])
        if not self.lens.all():
            raise DataError("the CRF needs at least one word per query")
        tokens = [tok for ids, _ in queries for tok in ids]
        self.feats, self.pad = _padded(tokens)
        self.counts = np.array([len(tok) for tok in tokens])
        self.gold = np.array([g for _, labels in queries for g in labels])
        self.columns = _runs(np.arange(len(tokens)), self.lens)
        query = np.repeat(np.arange(len(queries)), self.lens)
        token = np.repeat(np.arange(len(tokens))
                          - (np.cumsum(self.lens) - self.lens)[query],
                          self.counts)
        query = np.repeat(query, self.counts)
        fids = np.concatenate(tokens)
        n = int(fids.max(initial=0)) + 1
        keys, distinct = np.unique(query * n + fids, return_inverse=True)
        n_distinct = np.bincount(keys // n, minlength=len(queries))
        distinct -= (np.cumsum(n_distinct) - n_distinct)[query]
        label = np.arange(N_LABELS)
        self.distinct_slots = _runs(
            ((keys % n)[:, None] * N_LABELS + label).ravel(),
            N_LABELS * n_distinct)
        n_entries = np.bincount(query, minlength=len(queries))
        self.entry_token = _runs(token, n_entries)
        self.entry_slots = _runs((distinct[:, None] * N_LABELS + label).ravel(),
                                 N_LABELS * n_entries)


def crf_nll_grad(model: CRFModel, ids: list[np.ndarray], gold: list[int]
                 ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """NLL = log Z - score(gold path) of one query, given its feature_ids
    and gold label indices, and the NLL's gradient as (feature ids (n,),
    ascending, their emission gradient rows (n, 3), transition gradient
    (3, 3)): `crf_batch_grad` of a batch of one."""
    corpus = _Corpus([(ids, gold)])
    nll, grad_w, grad_trans = crf_batch_grad(model, corpus, np.array([0]))
    fids = corpus.distinct_slots[0][::N_LABELS] // N_LABELS
    return float(nll[0]), fids, grad_w[fids], grad_trans


def crf_batch_grad(model: CRFModel, corpus: _Corpus, idxs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-query NLL of the queries `idxs` of a `_Corpus` and the gradient
    of their sum, in one forward-backward pass over the queries padded to
    the longest: (nll (B,), emission gradient (n_features, 3), transition
    gradient (3, 3)), bit-equal to adding up the queries' gradients one at
    a time in batch order."""
    lens, order = corpus.lens[idxs], idxs.tolist()
    B, T = len(lens), int(lens.max())
    real = np.arange(T) < lens[:, None]
    # the batch's tokens, query by query, as columns of corpus.feats
    cols = np.concatenate([corpus.columns[i] for i in order])
    k = corpus.counts[cols].max()
    emis = np.full((B, T, N_LABELS), -0.0)
    emis[real] = _emission_sums(model.weights,
                                corpus.feats[:k].take(cols, axis=1),
                                corpus.pad[:k].take(cols, axis=1))
    gold = np.zeros((B, T), dtype=np.int64)
    gold[real] = corpus.gold[cols]
    trans = model.transitions
    alpha, beta, log_z = _forward_backward(emis, trans, lens)

    # Expected minus gold pair counts, interleaved by position; the padding
    # adds -0.0 and subtracts 0.0 at the label pair (0, 0).
    pair = np.exp(alpha[:, :-1, :, None] + trans
                  + (emis[:, 1:] + beta[:, 1:])[:, :, None]
                  - log_z[:, None, None, None])
    pair[~real[:, 1:]] = -0.0
    on = real[:, 1:].astype(np.float64)
    rows = np.arange(B)
    grad_trans = np.zeros((B, N_LABELS, N_LABELS))
    for t in range(T - 1):
        grad_trans += pair[:, t]
        grad_trans[rows, gold[:, t], gold[:, t + 1]] -= on[:, t]

    # Token marginals minus gold indicators, summed per query and distinct
    # feature in one bincount each, then per feature in batch order.
    diff = np.exp(alpha + beta - log_z[:, None, None])[real]
    diff[np.arange(len(diff)), gold[real]] -= 1.0
    sums, at = [], 0
    for i, n in zip(order, lens.tolist()):
        sums.append(np.bincount(corpus.entry_slots[i],
                                diff[at:at + n][corpus.entry_token[i]].ravel()))
        at += n
    grad_w = np.zeros(model.weights.shape)
    np.add.at(grad_w.reshape(-1),
              np.concatenate([corpus.distinct_slots[i] for i in order]),
              np.concatenate(sums))

    # The gold path scores, summed left to right; the padding adds -0.0.
    emis_gold = emis[rows[:, None], np.arange(T), gold]
    trans_gold = np.where(real[:, 1:], trans[gold[:, :-1], gold[:, 1:]], -0.0)
    score = emis_gold[:, 0]
    for t in range(1, T):
        score = score + trans_gold[:, t - 1] + emis_gold[:, t]
    return log_z - score, grad_w, grad_trans.sum(axis=0)


def viterbi(model: CRFModel, words: list[str]) -> list[str]:
    """Argmax label path; ties break toward the lower label index
    (EN < HI < OT)."""
    if not words:
        raise DataError("viterbi needs at least one word")
    emis = model.emissions(model.feature_ids(words))
    L = len(words)
    delta = emis[0].copy()
    back = np.zeros((L, N_LABELS), dtype=np.int64)
    for t in range(1, L):
        cand = delta[:, None] + model.transitions  # [prev, cur]
        back[t] = cand.argmax(axis=0)              # lowest index wins ties
        delta = cand.max(axis=0) + emis[t]
    path = [int(np.argmax(delta))]
    for t in range(L - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return [LABELS[i] for i in path]


def train_crf(corpus: list[LabeledQuery], l2: float = 1e-4, epochs: int = 8,
              rng: np.random.Generator | None = None, lr: float = 0.05,
              batch_size: int = 8) -> CRFModel:
    """Minimize NLL + l2 * ||w||^2 with mini-batch AdamW on the exact
    gradient. The feature index is built from the training corpus, in the
    one pass that also turns every query into its feature_ids."""
    if not corpus:
        raise DataError("train_crf needs a non-empty corpus")
    check_count("epochs", epochs, least=1)
    check_count("batch_size", batch_size, least=1)
    if not (isinstance(l2, (int, float, np.integer, np.floating))
            and 0 <= l2 < np.inf):
        raise DataError(f"l2 must be a finite number >= 0, got {l2!r}")
    rng = rng or np.random.default_rng(0)
    feature_index: dict[str, int] = {}

    by_offset: dict[str, dict[str, int]] = {o: {} for o in _OFFSETS}

    def assign(offset: str, feats: list[str]) -> list[int]:
        """Ids in first-seen order; a feature's name is built once."""
        ids = by_offset[offset]
        for f in feats:
            if f not in ids:
                ids[f] = feature_index[offset + f] = len(feature_index)
        return [ids[f] for f in feats]

    memo: dict = {}  # one for the corpus: each word's features built once
    data = []
    for i, query in enumerate(corpus):
        if not query:
            raise DataError(f"train_crf: query {i} has no words")
        ids = _query_ids([tok.word for tok in query], memo, assign)
        data.append((ids, [LABEL_INDEX[tok.label] for tok in query]))
    arrays = _Corpus(data)
    model = CRFModel(feature_index,
                     np.zeros((len(feature_index), N_LABELS)),
                     np.zeros((N_LABELS, N_LABELS)))
    params = {"weights": model.weights, "transitions": model.transitions}
    opt = AdamWState(lr=lr, weight_decay=0.0)
    for _ in range(epochs):
        order = rng.permutation(len(corpus))
        for start in range(0, len(corpus), batch_size):
            idxs = order[start:start + batch_size]
            _, gw, gt = crf_batch_grad(model, arrays, idxs)
            scale = 1.0 / len(idxs)
            gw *= scale
            gt *= scale
            # l2 penalty gradient (2*l2*w) lives in the objective, not in
            # AdamW's decoupled decay, per the stated objective.
            gw += 2.0 * l2 * model.weights
            gt += 2.0 * l2 * model.transitions
            adamw_step(params, {"weights": gw, "transitions": gt}, opt)
    return model


def detect_query_language(model: CRFModel, query: str) -> QueryLanguage:
    """HINGLISH if any token is HI; ENGLISH if all are EN; OTHER otherwise."""
    words = query.split()
    if not words:
        raise DataError("cannot detect the language of an empty query")
    labels = viterbi(model, words)
    return aggregate_labels(labels)


def aggregate_labels(labels: list[str]) -> QueryLanguage:
    if any(lab == "HI" for lab in labels):
        return QueryLanguage.HINGLISH
    if all(lab == "EN" for lab in labels):
        return QueryLanguage.ENGLISH
    return QueryLanguage.OTHER


def query_gold_language(query: LabeledQuery) -> QueryLanguage:
    return aggregate_labels([tok.label for tok in query])


# ---------------------------------------------------------------------------
# Evaluation and IO
# ---------------------------------------------------------------------------

def eval_prf(predictions: list[QueryLanguage], gold: list[QueryLanguage]
             ) -> tuple[float, float, float]:
    """Precision/recall/F1 on the positive class, HINGLISH. Zero predicted
    positives gives precision 0 (and F1 0)."""
    if len(predictions) != len(gold):
        raise DataError("predictions and gold differ in length")
    positive = QueryLanguage.HINGLISH
    tp = sum(1 for p, g in zip(predictions, gold)
             if p is positive and g is positive)
    fp = sum(1 for p, g in zip(predictions, gold)
             if p is positive and g is not positive)
    fn = sum(1 for p, g in zip(predictions, gold)
             if p is not positive and g is positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def load_token_labels(path) -> list[LabeledQuery]:
    """CoNLL-style file: `token<TAB>label` lines (`split_lines`), a blank
    line between queries, labels in {EN, HI, OT}."""
    queries: list[LabeledQuery] = []
    current: LabeledQuery = []
    for lineno, line in enumerate(split_lines(read_utf8(path)), start=1):
        if not line.strip():
            if current:
                queries.append(current)
                current = []
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or parts[1] not in LABEL_INDEX:
            raise DataError(f"{path}: malformed line {lineno}: {line!r}")
        current.append(LabeledToken(parts[0], parts[1]))
    if current:
        queries.append(current)
    return queries


def save_token_labels(queries: list[LabeledQuery], path) -> None:
    lines = []
    for q in queries:
        for tok in q:
            lines.append(f"{tok.word}\t{tok.label}\n")
        lines.append("\n")
    Path(path).write_text("".join(lines), encoding="utf-8")


def save_crf(model: CRFModel, path) -> None:
    """JSON serialization of the sparse CRF."""
    payload = {
        "template_version": FEATURE_TEMPLATE_VERSION,
        "features": list(model.feature_index.keys()),
        "weights": model.weights.tolist(),
        "transitions": model.transitions.tolist(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def _read_feature_index(path, feats) -> dict[str, int]:
    """Feature name -> row, for a file's list of distinct string names."""
    if not isinstance(feats, list):
        raise DataError(f"{path}: features must be a list of names")
    index: dict[str, int] = {}
    for f in feats:
        if not isinstance(f, str):
            raise DataError(f"{path}: feature name {f!r} is not a string")
        if f in index:
            raise DataError(f"{path}: feature {f!r} is listed twice")
        index[f] = len(index)
    return index


def load_crf(path) -> CRFModel:
    try:
        payload = json.loads(read_utf8(path))
        feats = payload["features"]
        model = CRFModel(_read_feature_index(path, feats),
                         np.asarray(payload["weights"], dtype=np.float64),
                         np.asarray(payload["transitions"], dtype=np.float64))
        version = payload["template_version"]
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise DataError(f"{path}: corrupt CRF model file: {e}") from None
    if version != FEATURE_TEMPLATE_VERSION:
        raise DataError(f"{path}: feature template {version!r}, this build "
                        f"extracts {FEATURE_TEMPLATE_VERSION!r}")
    if model.weights.shape != (len(feats), N_LABELS):
        raise DataError(f"{path}: weight matrix shape mismatch")
    if model.transitions.shape != (N_LABELS, N_LABELS):
        raise DataError(f"{path}: transition matrix has shape "
                        f"{model.transitions.shape}, need "
                        f"({N_LABELS}, {N_LABELS})")
    if not (np.isfinite(model.weights).all()
            and np.isfinite(model.transitions).all()):
        raise DataError(f"{path}: non-finite CRF weight or transition")
    return model


# ---------------------------------------------------------------------------
# Synthetic token-labeled benchmark
# ---------------------------------------------------------------------------

_SHARED_CONSONANTS = "dkmrt"
_SHARED_VOWELS = "ai"

_START_P = (0.50, 0.38, 0.12)          # EN, HI, OT
_STICKY = (
    (0.78, 0.16, 0.06),
    (0.18, 0.76, 0.06),
    (0.40, 0.40, 0.20),
)


def _choice_cdf(p) -> list[float]:
    """The table that NumPy's `Generator.choice(len(p), p=p)` searches:
    the float64 cumulative sum of `p` divided by its last entry. The label
    `bisect_right(table, rng.random())` is then the one that choice draws,
    from the same single `random()` of the stream."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def gen_langid_corpus(n_queries: int, seed: int = 0) -> list[LabeledQuery]:
    """Two toy languages with disjoint alphabets (EN spells with `text`'s
    target alphabet, HI with its source alphabet) plus a shared (ambiguous)
    word set that only context disambiguates; OT words carry digits. Label
    sequences follow a sticky Markov chain, so neighboring words are
    informative about ambiguous tokens. Queries are 2 to 6 words long, and
    a non-OT word is drawn from the shared set with probability 0.25.

    Each start and transition label is drawn by inverse-transform sampling:
    one `rng.random()` bisected (`bisect_right`) into the row's cumulative
    table from `_choice_cdf`. That is what `rng.choice(3, p=row)` computes,
    with the same one draw from the stream, so the corpus is the one a
    `choice` per label gives, bit for bit, without its per-call cost."""
    check_count("n_queries", n_queries)
    check_count("seed", seed)
    rng = make_rng(seed ^ 0x1A6B1D)
    random, integers = rng.random, rng.integers
    taken: set[str] = set()
    en = _make_words(rng, 150, _TGT_CONSONANTS, _TGT_VOWELS, taken)
    hi = _make_words(rng, 150, _SRC_CONSONANTS, _SRC_VOWELS, taken)
    shared = _make_words(rng, 40, _SHARED_CONSONANTS, _SHARED_VOWELS, taken)
    # integers(3) is the draw choice(list("gxk")) makes
    ot = [f"{integers(1, 512)}{'gxk'[int(integers(3))]}" for _ in range(60)]
    start_cdf = _choice_cdf(_START_P)
    next_cdf = [_choice_cdf(row) for row in _STICKY]

    queries: list[LabeledQuery] = []
    for _ in range(n_queries):
        length = int(integers(2, 7))
        state = bisect_right(start_cdf, random())
        toks: LabeledQuery = []
        for _ in range(length):
            if state == 2:
                word = ot[int(integers(len(ot)))]
            elif random() < 0.25:
                word = shared[int(integers(len(shared)))]
            elif state == 0:
                word = en[int(integers(len(en)))]
            else:
                word = hi[int(integers(len(hi)))]
            toks.append(LabeledToken(word, LABELS[state]))
            state = bisect_right(next_cdf[state], random())
        queries.append(toks)
    return queries
