"""Hybrid transliteration: dictionary lookup first, character-level
transformer fallback for out-of-dictionary words, decoded greedily
(`translate_corpus` with beam 1, one batch per text) to the model's own
step limit, so a model spells words as long as its `max_len` holds."""

from __future__ import annotations

from functools import partial

import numpy as np

from .errors import DataError
from .numerics import make_rng
from .seq2seq import Seq2SeqConfig, Seq2SeqModel, init_model, translate_corpus
from .text import (ParallelExample, Provenance, Vocab, build_vocab, read_utf8,
                   split_lines)
from .train import fit


class TranslitDict:
    """word -> transliteration map with case-normalized (lowercase) keys.
    Duplicate keys and empty entries are rejected."""

    def __init__(self, pairs: dict[str, str] | None = None):
        self.pairs: dict[str, str] = {}
        for k, v in (pairs or {}).items():
            self.add(k, v)

    def add(self, word: str, translit: str) -> None:
        key = word.strip().lower()
        value = translit.strip()
        if not key or not value:
            raise DataError("transliteration entries must be non-empty")
        if key in self.pairs:
            raise DataError(f"duplicate transliteration key: {key!r}")
        self.pairs[key] = value

    def lookup(self, word: str) -> str | None:
        return self.pairs.get(word.lower())

    def __len__(self) -> int:
        return len(self.pairs)


def load_translit_dict(path) -> TranslitDict:
    """UTF-8 TSV: `word<TAB>transliteration` per line (`split_lines`)."""
    d = TranslitDict()
    for lineno, line in enumerate(split_lines(read_utf8(path)), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}: malformed line {lineno}: {line!r}")
        try:
            d.add(parts[0], parts[1])
        except DataError as e:
            raise DataError(f"{path}: line {lineno}: {e}") from None
    return d


def char_seq2seq_config(vocab: Vocab) -> Seq2SeqConfig:
    """The character-level fallback model: 2+2 layers, 4 heads, hidden 128,
    max_len 24, so it reads and spells words of up to 23 characters."""
    if vocab.mode != "char":
        raise DataError("transliteration model needs a char-level vocab")
    return Seq2SeqConfig(vocab=vocab, n_enc_layers=2, n_dec_layers=2,
                         d_model=128, n_heads=4, d_ff=256, max_len=24,
                         dropout_prob=0.0)


def check_translit_model(model: Seq2SeqModel) -> None:
    """DataError unless `model` is char-level: a word-level model cannot
    spell a word the dictionary lacks."""
    if model.config.vocab.mode != "char":
        raise DataError(f"a {model.config.vocab.mode}-level model cannot "
                        f"spell out-of-dictionary words; transliteration "
                        f"needs a char-level one")


def hybrid_transliterate(text: str, tdict: TranslitDict,
                         model: Seq2SeqModel | None = None,
                         decode_words=partial(translate_corpus, beam=1)
                         ) -> str:
    """Per word: use the dictionary mapping when present, otherwise the
    model's output for the lowercased word, as the model trains on
    lowercased pairs. Words are joined by single spaces. A model that is
    not char-level is a DataError (`check_translit_model`)."""
    if model is not None:
        check_translit_model(model)
    words = text.split()
    hits = [tdict.lookup(word) for word in words]
    oov = [w for w, hit in zip(words, hits) if hit is None]
    if oov and model is None:
        raise DataError(f"word {oov[0]!r} not in the transliteration "
                        f"dictionary and no fallback model was given")
    decoded = iter(decode_words(model, [w.lower() for w in oov]) if oov
                   else ())
    return " ".join(next(decoded) if hit is None else hit for hit in hits)


def train_translit(word_pairs: list[tuple[str, str]],
                   config: Seq2SeqConfig | None = None,
                   rng: np.random.Generator | None = None,
                   epochs: int = 60, lr: float = 1e-3,
                   batch_size: int = 32) -> Seq2SeqModel:
    """Character-level seq2seq training on (word, transliteration) pairs,
    reusing the shared training loop (no augmentation)."""
    if not word_pairs:
        raise DataError("train_translit needs a non-empty pair list")
    rng = rng or make_rng(0)
    corpus = [ParallelExample(w.lower(), t.lower(), Provenance.CLEAN_MANUAL)
              for w, t in word_pairs]
    if config is None:
        vocab = build_vocab(corpus, mode="char")
        config = char_seq2seq_config(vocab)
    init_rng, fit_rng = rng.spawn(2)
    model = init_model(config, init_rng)
    fit(model, corpus, epochs=epochs, lr=lr, batch_size=batch_size,
        kinds=(), lam=0.0, label_smoothing=0.0, weight_decay=0.0,
        rngs=fit_rng.spawn(3), stage="translit")
    return model
