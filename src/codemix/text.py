"""Vocabulary, tokenization, text input's one line rule (`split_lines`),
parallel-corpus IO, and the synthetic code-mix stand-in for real queries.

The synthetic task: a bijective lexicon maps toy-source words to target
words. A source sentence mixes toy-source words with their target-language
equivalents (code-mix), words may lose one interior character (spell noise),
and training targets may be corrupted by substituting a wrong lexicon word
(noisy pseudo-labels). The held-out test split always has clean labels.
A corpus is its pairs alone: which corpus trains which stage is the
caller's choice of function.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .numerics import make_rng

PAD, BOS, EOS, UNK, MASK = 0, 1, 2, 3, 4
PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, MASK_TOKEN = (
    "<pad>", "<s>", "</s>", "<unk>", "<mask>")
SPECIAL_TOKENS = (PAD_TOKEN, BOS_TOKEN, EOS_TOKEN, UNK_TOKEN, MASK_TOKEN)


@dataclass
class ParallelExample:
    source: str
    target: str
    # Pre-noise source, kept for generator debugging/verification only.
    pristine_source: str | None = None


Corpus = list[ParallelExample]


class Vocab:
    """Bijective token <-> id map with fixed special ids 0..4.

    mode is "word" (whitespace tokens) or "char" (unicode codepoints).
    Shared by the encoder and decoder of any one model.
    """

    def __init__(self, tokens: list[str], mode: str = "word"):
        if mode not in ("word", "char"):
            raise DataError(f"unknown vocab mode: {mode!r}")
        self.mode = mode
        self.id_to_token: list[str] = list(SPECIAL_TOKENS)
        for tok in tokens:
            if tok in SPECIAL_TOKENS:
                continue
            self.id_to_token.append(tok)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise DataError("duplicate tokens in vocabulary")

    def __len__(self) -> int:
        return len(self.id_to_token)

    def tokenize(self, text: str) -> list[str]:
        if self.mode == "word":
            return text.split()
        return list(text)

    def detokenize(self, tokens: list[str]) -> str:
        sep = " " if self.mode == "word" else ""
        return sep.join(tokens)


def _iter_texts(corpus) -> list[str]:
    texts = []
    for item in corpus:
        if isinstance(item, ParallelExample):
            texts.append(item.source)
            texts.append(item.target)
        else:
            texts.append(str(item))
    return texts


def build_vocab(corpus, mode: str = "word") -> Vocab:
    """Frequency-then-lexicographic vocabulary of every token in a corpus
    of texts or parallel examples."""
    texts = _iter_texts(corpus)
    if not texts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for text in texts:
        if mode == "word":
            counts.update(text.split())
        else:
            counts.update(text)
    kept = sorted(counts.items(), key=lambda tc: (-tc[1], tc[0]))
    return Vocab([tok for tok, _ in kept], mode=mode)


def encode(text: str, vocab: Vocab) -> list[int]:
    """Token ids for a text. OOV tokens map to UNK, and so do `<pad>`, `<s>`
    and `</s>`, so text cannot spell a control id; `<mask>` keeps its id,
    as `aug_mask` writes it into texts. No BOS/EOS are added."""
    get = vocab.token_to_id.get
    return [i if (i := get(tok, UNK)) > EOS else UNK
            for tok in vocab.tokenize(text)]


def decode(ids, vocab: Vocab) -> str:
    toks = []
    for i in ids:
        i = int(i)
        if i < 0 or i >= len(vocab.id_to_token):
            raise DataError(f"token id {i} outside vocabulary of size {len(vocab)}")
        toks.append(vocab.id_to_token[i])
    return vocab.detokenize(toks)


def decode_utf8(data: bytes, name) -> str:
    """Text input `data` decoded as strict UTF-8, without the byte-order
    mark it may start with. Bytes that are not valid UTF-8 raise DataError
    naming the input `name` (a path, or "<stdin>")."""
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as e:
        raise DataError(f"{name}: not valid UTF-8: {e}") from None


def read_utf8(path) -> str:
    """The whole file as `decode_utf8` decodes it. A file that cannot be
    read raises DataError naming the path."""
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read: {e.strerror or e}") from None
    return decode_utf8(data, path)


def split_lines(text: str) -> list[str]:
    """The one line rule, which every text reader cuts by: a line ends at LF
    only, less one trailing CR, and a final LF ends the last line. Unlike
    str.splitlines(), U+0085, U+2028, a vertical tab and the like end no
    line, so line i of a file is the line i that errors and outputs name."""
    lines = text.removesuffix("\n").split("\n") if text else []
    return [ln.removesuffix("\r") for ln in lines]


def load_parallel_tsv(path) -> Corpus:
    """One `source<TAB>target` pair per line (`split_lines`), UTF-8.

    Blank or tab-malformed lines are rejected with their 1-based line number.
    An empty file is a valid empty corpus.
    """
    corpus: Corpus = []
    for lineno, line in enumerate(split_lines(read_utf8(path)), start=1):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0].strip() or not parts[1].strip():
            raise DataError(f"{path}: malformed line {lineno}: expected "
                            f"'source<TAB>target', got {line!r}")
        corpus.append(ParallelExample(parts[0].strip(), parts[1].strip()))
    return corpus


def save_parallel_tsv(corpus: Corpus, path) -> None:
    path = Path(path)
    lines = [f"{ex.source}\t{ex.target}\n" for ex in corpus]
    path.write_text("".join(lines), encoding="utf-8")


def check_count(name: str, n, least: int = 0) -> None:
    """Raise DataError naming `name` unless the count `n` is an integer
    >= `least`."""
    if not (isinstance(n, (int, np.integer)) and n >= least):
        raise DataError(f"{name} must be an integer >= {least}, got {n!r}")


# ---------------------------------------------------------------------------
# Synthetic code-mix benchmark
# ---------------------------------------------------------------------------

# Disjoint alphabets keep source and target word forms distinct and give the
# language detector a character-level signal.
_SRC_CONSONANTS = "jkpqvxz"
_SRC_VOWELS = "aiu"
_TGT_CONSONANTS = "bcdfghlmnrst"
_TGT_VOWELS = "eo"
# `_make_words` spells words of 2 to 4 syllables; the source alphabet has
# fewer syllables than the target's, so it runs out of words first.
_MAX_LEXICON_SIZE = sum((len(_SRC_CONSONANTS) * len(_SRC_VOWELS)) ** n
                       for n in (2, 3, 4))


@dataclass(frozen=True)
class SynthTaskSpec:
    """Parameters of the synthetic benchmark generator."""

    lexicon_size: int = 100
    code_mix_ratio: float = 0.3
    noise_char_drop_prob: float = 0.1
    pseudo_label_error_rate: float = 0.05
    min_len: int = 2
    max_len: int = 6
    seed: int = 0

    def __post_init__(self):
        for name in ("code_mix_ratio", "noise_char_drop_prob",
                     "pseudo_label_error_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise DataError(f"{name} must be in [0, 1], got {v}")
        if self.lexicon_size < 2:
            raise DataError("lexicon_size must be at least 2")
        if self.lexicon_size > _MAX_LEXICON_SIZE:
            raise DataError(f"lexicon_size must be at most {_MAX_LEXICON_SIZE}, "
                            f"the number of words of 2 to 4 syllables the "
                            f"source alphabet spells; got {self.lexicon_size}")
        check_count("seed", self.seed)
        if not 1 <= self.min_len <= self.max_len:
            raise DataError("need 1 <= min_len <= max_len")


def _make_words(rng: np.random.Generator, n: int, consonants: str,
                vowels: str, taken: set[str]) -> list[str]:
    words = []
    while len(words) < n:
        syllables = int(rng.integers(2, 5))
        w = "".join(consonants[rng.integers(len(consonants))]
                    + vowels[rng.integers(len(vowels))]
                    for _ in range(syllables))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def build_lexicon(spec: SynthTaskSpec) -> dict[str, str]:
    """Deterministic bijection: toy-source word -> target word."""
    rng = make_rng(spec.seed ^ 0x5EED1E)
    taken: set[str] = set()
    src = _make_words(rng, spec.lexicon_size, _SRC_CONSONANTS, _SRC_VOWELS, taken)
    tgt = _make_words(rng, spec.lexicon_size, _TGT_CONSONANTS, _TGT_VOWELS, taken)
    return dict(zip(src, tgt))


def drop_interior_char(word: str, rng: np.random.Generator) -> str:
    """Remove one uniformly chosen interior character. Words of length <= 2
    are returned unchanged (first/last characters are never touched)."""
    if len(word) <= 2:
        return word
    i = int(rng.integers(1, len(word) - 1))
    return word[:i] + word[i + 1:]


def _gen_split(spec: SynthTaskSpec, n: int, lexicon: dict[str, str],
               rng: np.random.Generator, error_rate: float) -> Corpus:
    src_words = list(lexicon.keys())
    tgt_words = list(lexicon.values())
    k = len(src_words)
    random, integers = rng.random, rng.integers
    out: Corpus = []
    for _ in range(n):
        length = int(integers(spec.min_len, spec.max_len + 1))
        pristine = []
        noisy_src = []
        target = []
        for i in integers(0, k, size=length).tolist():
            word = tgt_words[i] if random() < spec.code_mix_ratio else src_words[i]
            pristine.append(word)
            if random() < spec.noise_char_drop_prob:
                word = drop_interior_char(word, rng)
            noisy_src.append(word)
            t = tgt_words[i]
            if error_rate > 0.0 and random() < error_rate:
                wrong = int(integers(0, k - 1))
                if wrong >= i:
                    wrong += 1
                t = tgt_words[wrong]
            target.append(t)
        out.append(ParallelExample(" ".join(noisy_src), " ".join(target),
                                   " ".join(pristine)))
    return out


def gen_synthetic_corpus(spec: SynthTaskSpec, n_train: int,
                         n_test: int = 0) -> tuple[Corpus, Corpus]:
    """Generate (noisy training corpus, clean test split).

    Training targets carry pseudo-label noise at the spec's error rate; the
    test split has error rate 0. Both share the code-mix and character-noise
    settings.
    """
    check_count("n_train", n_train, least=1)
    check_count("n_test", n_test)
    lexicon = build_lexicon(spec)
    rng = make_rng(spec.seed)
    train = _gen_split(spec, n_train, lexicon, rng,
                       spec.pseudo_label_error_rate)
    test = _gen_split(spec, n_test, lexicon, rng, 0.0)
    return train, test


def gen_clean_corpus(spec: SynthTaskSpec, n: int, salt: int = 1) -> Corpus:
    """A clean-label corpus (error rate 0) drawn from the same task with an
    independent stream; stands in for manually tagged data."""
    check_count("n", n)
    lexicon = build_lexicon(spec)
    rng = make_rng(spec.seed ^ (0xC1EA0 + salt))
    return _gen_split(spec, n, lexicon, rng, 0.0)


def all_word_forms(spec: SynthTaskSpec) -> list[str]:
    """Every word form the task can emit: lexicon words on both sides plus
    all single-interior-drop variants. Used to close the word vocabulary the
    way an open subword vocabulary would."""
    lexicon = build_lexicon(spec)
    forms: list[str] = []
    for word in [*lexicon, *lexicon.values()]:
        forms.append(word)
        if spec.noise_char_drop_prob > 0 and len(word) > 2:
            forms += [word[:i] + word[i + 1:] for i in range(1, len(word) - 1)]
    return list(dict.fromkeys(forms))  # first occurrences, in order


def synthetic_vocab(spec: SynthTaskSpec) -> Vocab:
    """Word vocabulary covering every form the generator can produce."""
    return build_vocab(all_word_forms(spec), mode="word")
