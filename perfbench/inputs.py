"""Seeded workload inputs for the codemix benchmark.

Every workload shares one fixed synthetic task (the teacher's lexicon), so
the vocabulary, and with it the model shapes, is the same for every seed.
The benchmark seed only picks which sentences and queries are used.
"""

from __future__ import annotations

import dataclasses

from codemix.langid import gen_langid_corpus
from codemix.numerics import make_rng
from codemix.text import SynthTaskSpec, gen_clean_corpus, gen_synthetic_corpus

# The task the committed teacher was trained on (lexicon 60, 2-10 words).
TASK_SEED = 2208
TASK = SynthTaskSpec(lexicon_size=60, min_len=2, max_len=10, seed=TASK_SEED)
# The committed CRF is trained on the first CRF_TRAIN queries of this
# corpus; serve detects queries drawn from the rest.
LANGID_SEED = 2208
LANGID_TOTAL = 3500
CRF_TRAIN = 1500
# Serve source lengths: every chunk holds one query of each length.
SERVE_LENGTHS = tuple(range(1, 13))
# Chunks of serve queries the reference outputs cover; a run uses a prefix
# (serve_chunks of fewer chunks gives the first of these).
SERVE_CHUNKS = 40
# The seed whose serve outputs artifacts/reference.json records.
REFERENCE_SEED = 0


def teacher_corpus(n: int = 6000):
    """The noisy stage-1 corpus the committed teacher was trained on."""
    noisy, _ = gen_synthetic_corpus(TASK, n)
    return noisy


def langid_corpus():
    return gen_langid_corpus(LANGID_TOTAL, seed=LANGID_SEED)


def _salt(seed: int, k: int) -> int:
    return 1 + 1000 * seed + k


def serve_chunks(seed: int, n_chunks: int) -> list[list[str]]:
    """n_chunks chunks of len(SERVE_LENGTHS) code-mix queries. Each chunk
    has one query of every length 1-12 in a seeded order, so a run that
    stops after any whole number of chunks saw the same length mix."""
    by_len = {}
    for length in SERVE_LENGTHS:
        spec = dataclasses.replace(TASK, min_len=length, max_len=length)
        by_len[length] = [ex.source for ex in
                          gen_clean_corpus(spec, n_chunks, _salt(seed, length))]
    rng = make_rng(seed)
    chunks = []
    for k in range(n_chunks):
        order = rng.permutation(len(SERVE_LENGTHS))
        chunks.append([by_len[SERVE_LENGTHS[i]][k] for i in order])
    return chunks


def detect_queries(seed: int, n: int):
    """n held-out labeled queries (not seen by the committed CRF)."""
    held = langid_corpus()[CRF_TRAIN:]
    idx = make_rng(seed + 1).choice(len(held), size=n, replace=False)
    return [held[int(i)] for i in idx]


def train_chunks(seed: int, n_chunks: int, n_noisy: int, n_clean: int):
    """Per chunk: (noisy stage-1 corpus, clean stage-2 corpus). Noisy pairs
    are drawn from the fixed noisy pool of the task; clean pairs come from
    a seeded clean stream of the same task."""
    pool = teacher_corpus(20000)
    rng = make_rng(seed + 2)
    out = []
    for k in range(n_chunks):
        idx = rng.choice(len(pool), size=n_noisy, replace=False)
        noisy = [pool[int(i)] for i in idx]
        clean = gen_clean_corpus(TASK, n_clean, _salt(seed, 100 + k))
        out.append((noisy, clean))
    return out


def langid_splits(seed: int, n_train: int, n_test: int):
    """Disjoint seeded (train, test) samples of the fixed langid corpus, as
    many as the corpus holds."""
    corpus = langid_corpus()
    order = make_rng(seed + 3).permutation(len(corpus))
    size = n_train + n_test
    out = []
    for start in range(0, len(corpus) - size + 1, size):
        picked = [corpus[int(i)] for i in order[start:start + size]]
        out.append((picked[:n_train], picked[n_train:]))
    return out


def distill_chunks(seed: int, n_chunks: int, n_clean: int, per_length: int):
    """Per chunk: (clean corpus, unlabeled source pool). The pool holds
    per_length sources of every length of the task (2-10 words) in a seeded
    order: beam pseudo-labelling cost grows steeply with length, so a pool
    of random lengths would make its cost depend on the seed."""
    rng = make_rng(seed + 4)
    out = []
    for k in range(n_chunks):
        clean = gen_clean_corpus(TASK, n_clean, _salt(seed, 300 + k))
        pool = []
        for length in range(TASK.min_len, TASK.max_len + 1):
            spec = dataclasses.replace(TASK, min_len=length, max_len=length)
            pool += [ex.source for ex in gen_clean_corpus(
                spec, per_length, _salt(seed, 600 + 20 * k + length))]
        out.append((clean, [pool[int(i)] for i in rng.permutation(len(pool))]))
    return out


def target_tokens(corpus) -> int:
    """Decoder label positions of a corpus: target words plus EOS."""
    return sum(len(ex.target.split()) + 1 for ex in corpus)

