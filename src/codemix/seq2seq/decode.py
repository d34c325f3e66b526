"""Greedy and beam-search decoding over the cached incremental decoder.

Scores are unnormalized sums of token log-probabilities (no length
penalty). PAD and BOS are never emitted; EOS is allowed from the first
step. Ties break toward the earlier-generated candidate, which makes
beam size 1 reproduce greedy decoding exactly: the package decodes by
beam search alone (transliteration with beam 1), and `greedy_decode` is
kept as the independent reference loop that beam 1 must match.

Each query is encoded once. Decoding then runs one row per live
hypothesis through `Seq2SeqModel.decode_step`, which caches every layer's
cross-attention keys/values per query and appends one self-attention
key/value row per step; after each step the cache is reordered by beam
parent. `beam_search_batch` steps the live hypotheses of all its queries
together as one batch of rows. A row's log-probabilities do not depend on
which other rows share the step, so a batch returns, bit for bit, what
each query returns alone. Rows run in the model's dtype: a float32 or
int8 model decodes in float32, a float64 model in float64.

Selection. Each row proposes its `beam` most likely tokens, ties going to
the lower token id, with their log-probabilities (`_top_k`): `beam` rounds
of row-wise argmax, each reading the log-probability it picks, cost less
than sorting the vocabulary; a round that finds no finite entry left picks
a -inf. A query's candidates are enumerated in (hypothesis, rank) order,
those with a non-finite score (every -inf pick) are dropped, and the rest
are stable-sorted by score, so equal scores keep that order; the first
`beam` survive.

A hypothesis that emits EOS moves from the active to the finished set. A
query stops when no active hypothesis is left, or when its best finished
score is at least every active score: log-probabilities are <= 0, so no
active hypothesis can then overtake it and the result is the one decoding
to the step limit would give. The step limit is the model's own,
`config.max_len - 1` tokens, the most a BOS-prefixed target can hold; a
caller's `max_len` can only lower it (`_max_steps`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from ..errors import DataError
from ..numerics import no_grad
from ..text import BOS, EOS, PAD, check_count, decode as decode_ids
from .model import (Seq2SeqModel, check_id_count, check_length,
                    encode_source)

# Queries decoded together at most; bounds the cache on large inputs.
MAX_BATCH = 32


@dataclass
class BeamResult:
    ids: list[int]          # generated tokens, EOS excluded
    score: float            # sum of token log-probabilities
    finished: bool          # False when no hypothesis emitted EOS in time


def _max_steps(model: Seq2SeqModel, max_len: int | None) -> int:
    """The most tokens a decode may emit: the model's own limit,
    `config.max_len - 1`, which a BOS-prefixed target can hold
    (`id_count_fits`), or a caller's `max_len` >= 1 below it."""
    if max_len is not None:
        check_count("max_len", max_len, least=1)
    return min(max_len or model.config.max_len, model.config.max_len - 1)


def _top_k(lp: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's k largest entries, best first with ties to the lower id,
    and their values, by k rounds of row-wise argmax: argmax returns the
    lowest id among tied maxima, and each pick is set to -inf before the
    next round. A row's finite picks are the finite prefix of the stable
    argsort of `-lp`, in its order; its other picks have the value -inf.
    `lp` holds no NaN: `decode_step`'s checked pass raises on one."""
    n, width = lp.shape
    work = lp.copy()
    flat = work.reshape(-1)                     # a view of work
    offsets = np.arange(n) * width
    top = np.empty((n, k), dtype=np.intp)
    vals = np.empty((n, k), dtype=lp.dtype)
    for j in range(k):
        top[:, j] = pick = work.argmax(axis=1)
        at = pick + offsets
        vals[:, j] = flat[at]
        flat[at] = -np.inf
    return top, vals


def _step(model: Seq2SeqModel, cache, tokens: list[int]) -> np.ndarray:
    """Next-token log-probabilities of every row, PAD and BOS banned."""
    lp = model.decode_step(cache, np.asarray(tokens, dtype=np.int64))
    lp[:, PAD] = -np.inf
    lp[:, BOS] = -np.inf
    return lp


def _start(model: Seq2SeqModel, sources):
    """The decoder cache of `sources`, each encoded alone. A source with no
    token but PAD would leave cross-attention no key: DataError."""
    arrays = [np.asarray([src], dtype=np.int64) for src in sources]
    for a in arrays:
        if not np.any(a != PAD):
            raise DataError(f"source {a[0].tolist()} has no token but PAD")
    return model.start_decoding([model.encode(a) for a in arrays])


def greedy_decode(model: Seq2SeqModel, src_ids,
                  max_len: int | None = None) -> list[int]:
    """Argmax token at each step until EOS or the step limit: the model's
    own, or `max_len` tokens when that is lower (`_max_steps`)."""
    steps = _max_steps(model, max_len)
    with no_grad():
        cache = _start(model, [src_ids])
        out: list[int] = []
        tok = BOS
        for _ in range(steps):
            tok = int(np.argmax(_step(model, cache, [tok])[0]))
            if tok == EOS:
                break
            out.append(tok)
        return out


def beam_search(model: Seq2SeqModel, src_ids, beam: int = 3,
                max_len: int | None = None) -> BeamResult:
    """Best EOS-terminated hypothesis by summed log-probability.

    Finished hypotheses leave the active beam. If nothing finishes within
    the step limit (`_max_steps`: the model's own, or `max_len` when that
    is lower) the best unfinished hypothesis is returned with
    finished=False.
    """
    check_id_count(len(src_ids), model.config)  # named without an index
    return beam_search_batch(model, [src_ids], beam=beam, max_len=max_len)[0]


def beam_search_batch(model: Seq2SeqModel, sources, beam: int = 3,
                      max_len: int | None = None) -> list[BeamResult]:
    """`beam_search` of every source, decoded MAX_BATCH queries at a time;
    each result equals that source's own `beam_search` result. A source
    longer than the model's max_len is a DataError naming its index,
    raised before any decoding."""
    check_count("beam", beam, least=1)
    steps = _max_steps(model, max_len)
    for i, src in enumerate(sources):
        try:
            check_id_count(len(src), model.config)
        except DataError as e:
            raise DataError(f"source {i}: {e}") from None
    out: list[BeamResult] = []
    for start in range(0, len(sources), MAX_BATCH):
        out.extend(_beam_batch(model, sources[start:start + MAX_BATCH],
                               beam, steps))
    return out


def _beam_batch(model: Seq2SeqModel, sources, beam: int,
                steps: int) -> list[BeamResult]:
    n = len(sources)
    # Per query: active hypotheses in cache-row order, and finished ones.
    active: list[list[tuple[float, list[int]]]] = [[(0.0, [])]
                                                    for _ in range(n)]
    finished: list[list[tuple[float, list[int]]]] = [[] for _ in range(n)]
    live = list(range(n))          # queries with rows in the cache
    with no_grad():
        cache = _start(model, sources)
        for _ in range(steps):
            tokens = [ids[-1] if ids else BOS
                      for q in live for _, ids in active[q]]
            lp = _step(model, cache, tokens)
            # Per-hypothesis top-beam by token log-probability; only a
            # global top-beam among these can survive, so nothing viable is
            # lost and beam=1 selects exactly greedy's argmax.
            top, top_lp = _top_k(lp, beam)
            top, top_lp = top.tolist(), top_lp.tolist()
            parents: list[int] = []
            counts: list[int] = []
            row = 0
            for q in live:
                hyps = active[q]
                # (score, row, token) in (hypothesis, rank) order; Python
                # floats add in float64, as the scores always have.
                cands = [(score, r, tok)
                         for r, (base, _) in enumerate(hyps, row)
                         for tok, tok_lp in zip(top[r], top_lp[r])
                         if math.isfinite(score := base + tok_lp)]
                cands.sort(key=itemgetter(0), reverse=True)  # stable
                nxt: list[tuple[float, list[int]]] = []
                kept: list[int] = []
                for score, r, tok in cands[:beam]:
                    ids = hyps[r - row][1]
                    if tok == EOS:
                        finished[q].append((score, ids))
                    else:
                        nxt.append((score, ids + [tok]))
                        kept.append(r)
                # nxt is best-first; nothing in it can overtake a finished
                # hypothesis that scores at least as high.
                if nxt and finished[q] and (
                        max(s for s, _ in finished[q]) >= nxt[0][0]):
                    nxt, kept = [], []
                active[q] = nxt
                parents.extend(kept)
                counts.append(len(nxt))
                row += len(hyps)
            live = [q for q, c in zip(live, counts) if c]
            if not live:
                break
            cache.reorder(np.asarray(parents, dtype=np.int64), counts)
    return [_best(finished[q], active[q]) for q in range(n)]


def _best(finished, active) -> BeamResult:
    pool, done = (finished, True) if finished else (active, False)
    best = max(range(len(pool)), key=lambda i: pool[i][0])
    score, ids = pool[best]
    return BeamResult(ids, score, done)


def translate(model: Seq2SeqModel, text: str, beam: int = 3,
              max_len: int | None = None) -> str:
    """Encode, decode with beam search to the model's own step limit (or
    `max_len` tokens when that is lower), and detokenize."""
    check_length(text, model.config)  # named without an index
    return translate_corpus(model, [text], beam=beam, max_len=max_len)[0]


def translate_corpus(model: Seq2SeqModel, texts: list[str], beam: int = 3,
                     max_len: int | None = None) -> list[str]:
    """`translate` of every text, decoded as batches (beam_search_batch)."""
    vocab = model.config.vocab
    results = beam_search_batch(model, [encode_source(t, vocab)
                                        for t in texts],
                                beam=beam, max_len=max_len)
    return [decode_ids(r.ids, vocab) for r in results]
