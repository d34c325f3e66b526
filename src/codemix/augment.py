"""Data augmentation transforms.

Four transforms: MASK, AUTOENCODER and PERMUTE operate target-to-target
(teach the model to reproduce/de-noise target text); DROPCHAR corrupts the
source and keeps the translation target. `sample_augmented_batch` draws
one kind per batch and applies it to examples sampled with replacement.

An augmented batch's loss loss_d joins the supervised loss loss_s in
`train.fit`'s objective (1 - lambda) * loss_s + lambda * loss_d. No tape
node forms that sum: loss_s's backward, seeded with 1 - lambda, runs
before the augmented batch's forward, then loss_d's, seeded with lambda.
That is the order in which a walk of the summed loss reached them, so the
gradients keep its bits, and a step holds one term's graph at a time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .text import (MASK_TOKEN, Corpus, ParallelExample, Vocab,
                   drop_interior_char, encode)


class AugKind(enum.Enum):
    AUTOENCODER = "autoencoder"
    MASK = "mask"
    DROPCHAR = "dropchar"
    PERMUTE = "permute"


@dataclass
class AugmentedBatch:
    inputs: list[list[int]]
    outputs: list[list[int]]
    kind: AugKind


def aug_autoencoder(example: ParallelExample) -> tuple[str, str]:
    """Reconstruct the target from itself; the source side is discarded."""
    if not example.target.split():
        raise DataError("autoencoder augmentation needs a non-empty target")
    return example.target, example.target


def aug_mask(example: ParallelExample,
             rng: np.random.Generator) -> tuple[str, str]:
    """Replace one uniformly chosen target word with the mask token; the
    output is the full unmasked target."""
    words = example.target.split()
    if not words:
        raise DataError("mask augmentation needs a non-empty target")
    i = int(rng.integers(len(words)))
    masked = words[:i] + [MASK_TOKEN] + words[i + 1:]
    return " ".join(masked), example.target


def aug_dropchar(example: ParallelExample,
                 rng: np.random.Generator) -> tuple[str, str]:
    """Drop one interior character from a U[0.3, 0.5] fraction of the words
    (rounded up; at least one eligible word when any exist). Words of length
    <= 2 are ineligible; first and last characters are never dropped."""
    words = example.source.split()
    if not words:
        raise DataError("dropchar augmentation needs a non-empty source")
    eligible = [i for i, w in enumerate(words) if len(w) > 2]
    if eligible:
        frac = rng.uniform(0.3, 0.5)
        n = max(1, min(len(eligible), math.ceil(frac * len(words))))
        chosen = rng.choice(len(eligible), size=n, replace=False)
        for j in chosen:
            i = eligible[int(j)]
            words[i] = drop_interior_char(words[i], rng)
    return " ".join(words), example.target


def aug_permute(example: ParallelExample,
                rng: np.random.Generator) -> tuple[str, str]:
    """Uniformly random word-order permutation of the target (identity
    permutation allowed); the output is the original target."""
    words = example.target.split()
    if not words:
        raise DataError("permute augmentation needs a non-empty target")
    order = rng.permutation(len(words))
    return " ".join(words[i] for i in order), example.target


_TRANSFORMS = {
    AugKind.AUTOENCODER: lambda ex, rng: aug_autoencoder(ex),
    AugKind.MASK: aug_mask,
    AugKind.DROPCHAR: aug_dropchar,
    AugKind.PERMUTE: aug_permute,
}


def sample_augmented_batch(corpus: Corpus, kinds, batch_size: int,
                           rng: np.random.Generator,
                           vocab: Vocab) -> AugmentedBatch:
    """Choose one augmentation kind uniformly, sample `batch_size` examples
    with replacement, and apply the transform."""
    kinds = list(kinds)
    if not kinds:
        raise DataError("sample_augmented_batch needs at least one kind")
    if not corpus:
        raise DataError("sample_augmented_batch needs a non-empty corpus")
    kind = kinds[int(rng.integers(len(kinds)))]
    transform = _TRANSFORMS[kind]
    idxs = rng.integers(0, len(corpus), size=batch_size)
    inputs, outputs = [], []
    for i in idxs:
        inp, out = transform(corpus[int(i)], rng)
        inputs.append(encode(inp, vocab))
        outputs.append(encode(out, vocab))
    return AugmentedBatch(inputs, outputs, kind)
