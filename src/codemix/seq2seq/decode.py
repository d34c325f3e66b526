"""Greedy and beam-search decoding over the cached incremental decoder.

Scores are unnormalized sums of token log-probabilities (no length
penalty). PAD and BOS are never emitted; EOS is allowed from the first
step. Ties break toward the earlier-generated candidate, which makes
beam size 1 reproduce greedy decoding exactly.

Each query is encoded once. Decoding then runs one row per live
hypothesis through `Seq2SeqModel.decode_step`, which caches every layer's
cross-attention keys/values per query and appends one self-attention
key/value row per step; after each step the cache is reordered by beam
parent. `beam_search_batch` steps the live hypotheses of all its queries
together as one batch of rows. A row's log-probabilities do not depend on
which other rows share the step, so a batch returns, bit for bit, what
each query returns alone. Rows run in the model's dtype: a float32 or
int8 model decodes in float32, a float64 model in float64.

A hypothesis that emits EOS moves from the active to the finished set. A
query stops when no active hypothesis is left, or when its best finished
score is at least every active score: log-probabilities are <= 0, so no
active hypothesis can then overtake it and the result is the one decoding
to the step limit would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..numerics import no_grad
from ..text import BOS, EOS, PAD, decode as decode_ids
from .model import Seq2SeqModel, encode_source

# Queries decoded together at most; bounds the cache on large inputs.
MAX_BATCH = 32


@dataclass
class BeamResult:
    ids: list[int]          # generated tokens, EOS excluded
    score: float            # sum of token log-probabilities
    finished: bool          # False when no hypothesis emitted EOS in time


def _max_steps(model: Seq2SeqModel, max_len: int) -> int:
    # The BOS-prefixed decoder input must stay within the model's max_len.
    return min(max_len, model.config.max_len - 1)


def _step(model: Seq2SeqModel, cache, tokens: list[int]) -> np.ndarray:
    """Next-token log-probabilities of every row, PAD and BOS banned."""
    lp = model.decode_step(cache, np.asarray(tokens, dtype=np.int64))
    lp[:, PAD] = -np.inf
    lp[:, BOS] = -np.inf
    return lp


def _start(model: Seq2SeqModel, sources):
    return model.start_decoding(
        [model.encode(np.asarray([src], dtype=np.int64)) for src in sources])


def greedy_decode(model: Seq2SeqModel, src_ids, max_len: int = 32) -> list[int]:
    """Argmax token at each step until EOS or max_len tokens."""
    with no_grad():
        cache = _start(model, [src_ids])
        out: list[int] = []
        tok = BOS
        for _ in range(_max_steps(model, max_len)):
            tok = int(np.argmax(_step(model, cache, [tok])[0]))
            if tok == EOS:
                break
            out.append(tok)
        return out


def beam_search(model: Seq2SeqModel, src_ids, beam: int = 3,
                max_len: int = 32) -> BeamResult:
    """Best EOS-terminated hypothesis by summed log-probability.

    Finished hypotheses leave the active beam. If nothing finishes within
    max_len steps the best unfinished hypothesis is returned with
    finished=False.
    """
    return beam_search_batch(model, [src_ids], beam=beam, max_len=max_len)[0]


def beam_search_batch(model: Seq2SeqModel, sources, beam: int = 3,
                      max_len: int = 32) -> list[BeamResult]:
    """`beam_search` of every source, decoded MAX_BATCH queries at a time;
    each result equals that source's own `beam_search` result."""
    if beam < 1:
        raise DataError(f"beam must be >= 1, got {beam}")
    out: list[BeamResult] = []
    for start in range(0, len(sources), MAX_BATCH):
        out.extend(_beam_batch(model, sources[start:start + MAX_BATCH],
                               beam, max_len))
    return out


def _beam_batch(model: Seq2SeqModel, sources, beam: int,
                max_len: int) -> list[BeamResult]:
    n = len(sources)
    # Per query: active hypotheses in cache-row order, and finished ones.
    active: list[list[tuple[float, list[int]]]] = [[(0.0, [])]
                                                    for _ in range(n)]
    finished: list[list[tuple[float, list[int]]]] = [[] for _ in range(n)]
    live = list(range(n))          # queries with rows in the cache
    with no_grad():
        cache = _start(model, sources)
        for _ in range(_max_steps(model, max_len)):
            tokens = [ids[-1] if ids else BOS
                      for q in live for _, ids in active[q]]
            lp = _step(model, cache, tokens)
            # Per-hypothesis top-beam by token log-probability; only a
            # global top-beam among these can survive, so nothing viable is
            # lost and beam=1 selects exactly greedy's argmax.
            top = np.argsort(-lp, axis=-1, kind="stable")[:, :beam]
            top_lp = np.take_along_axis(lp, top, axis=-1).astype(np.float64)
            width = top.shape[1]
            parents: list[int] = []
            counts: list[int] = []
            row = 0
            for q in live:
                hyps = active[q]
                base = np.array([score for score, _ in hyps])
                scores = (base[:, None] + top_lp[row:row + len(hyps)]).ravel()
                keep = np.flatnonzero(np.isfinite(scores))
                nxt: list[tuple[float, list[int]]] = []
                kept: list[int] = []
                order = np.argsort(-scores[keep], kind="stable")[:beam]
                for ci in keep[order]:
                    hi, rank = divmod(int(ci), width)
                    tok = int(top[row + hi, rank])
                    score, ids = float(scores[ci]), hyps[hi][1]
                    if tok == EOS:
                        finished[q].append((score, ids))
                    else:
                        nxt.append((score, ids + [tok]))
                        kept.append(row + hi)
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
              max_len: int = 32) -> str:
    """Encode, decode with beam search, and detokenize."""
    vocab = model.config.vocab
    src = encode_source(text, vocab)
    result = beam_search(model, src, beam=beam, max_len=max_len)
    return decode_ids(result.ids, vocab)


def translate_corpus(model: Seq2SeqModel, texts: list[str], beam: int = 3,
                     max_len: int = 32) -> list[str]:
    """`translate` of every text, decoded as batches (beam_search_batch)."""
    vocab = model.config.vocab
    results = beam_search_batch(model, [encode_source(t, vocab)
                                        for t in texts],
                                beam=beam, max_len=max_len)
    return [decode_ids(r.ids, vocab) for r in results]
