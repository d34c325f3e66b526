"""The averaged-embedding baseline query classifier, trained on the tape:
a simpler alternative to the CRF detector of `codemix.langid`, which only
tests use."""

from __future__ import annotations

import numpy as np

from codemix.errors import DataError
from codemix.langid import LabeledQuery, QueryLanguage, query_gold_language
from codemix.numerics import (AdamWState, Tensor, gather_rows, linear,
                              log_softmax, step_tensors)
from codemix.numerics.tensor import _make

from oracles import mul, take_along_last, tsum


class AvgEmbeddingClassifier:
    """Word embeddings averaged over the query, then a linear softmax over
    the three query-level classes. Word order never affects the output:
    ids are sorted before averaging, making permutation invariance exact."""

    CLASSES = (QueryLanguage.ENGLISH, QueryLanguage.HINGLISH,
               QueryLanguage.OTHER)

    def __init__(self, word_index: dict[str, int], dim: int = 32):
        self.word_index = word_index
        self.dim = dim
        self.params: dict[str, Tensor] = {}

    def _ids(self, query: str) -> np.ndarray:
        words = query.split()
        if not words:
            raise DataError("cannot classify an empty query")
        unk = len(self.word_index)
        ids = [self.word_index.get(w, unk) for w in words]
        return np.asarray(sorted(ids), dtype=np.int64)

    def _logits(self, queries: list[str]) -> Tensor:
        embs = []
        for q in queries:
            ids = self._ids(q)
            vecs = gather_rows(self.params["emb"], ids)
            embs.append(mul(tsum(vecs, axis=0), 1.0 / len(ids)))
        return linear(_stack(embs), self.params["w"], self.params["b"])

    def classify(self, query: str) -> QueryLanguage:
        logits = self._logits([query])
        return self.CLASSES[int(np.argmax(logits.data[0]))]


def _stack(tensors: list[Tensor]) -> Tensor:
    """Stack 1-D tape tensors into a 2-D tensor (gradient flows to each)."""
    data = np.stack([t.data for t in tensors])

    def backward(g):
        return tuple(g)

    return _make(data, tuple(tensors), backward, "stack")


def baseline_avg_embedding_classifier(
        corpus: list[LabeledQuery], dim: int = 32, epochs: int = 12,
        lr: float = 0.05, batch_size: int = 32,
        rng: np.random.Generator | None = None) -> AvgEmbeddingClassifier:
    """Train the averaged-embedding baseline on query-level labels derived
    from the token labels by the aggregation rule."""
    if not corpus:
        raise DataError("baseline classifier needs a non-empty corpus")
    rng = rng or np.random.default_rng(0)
    word_index: dict[str, int] = {}
    for query in corpus:
        for tok in query:
            if tok.word not in word_index:
                word_index[tok.word] = len(word_index)
    clf = AvgEmbeddingClassifier(word_index, dim)
    n_words = len(word_index) + 1  # + UNK row
    clf.params = {
        "emb": Tensor(rng.normal(0.0, 0.1, size=(n_words, dim)),
                      requires_grad=True),
        "w": Tensor(rng.normal(0.0, 0.1, size=(dim, 3)), requires_grad=True),
        "b": Tensor(np.zeros(3), requires_grad=True),
    }
    texts = [" ".join(tok.word for tok in q) for q in corpus]
    labels = np.asarray([clf.CLASSES.index(query_gold_language(q))
                         for q in corpus], dtype=np.int64)
    opt = AdamWState(lr=lr, weight_decay=0.0)
    for _ in range(epochs):
        order = rng.permutation(len(texts))
        for start in range(0, len(texts), batch_size):
            idxs = order[start:start + batch_size]
            logits = clf._logits([texts[i] for i in idxs])
            logp = log_softmax(logits)
            gold = take_along_last(logp, labels[idxs])
            loss = mul(tsum(gold), -1.0 / len(idxs))
            loss.backward()
            step_tensors(clf.params, opt)
    return clf
