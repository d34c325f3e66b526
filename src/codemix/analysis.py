"""Cross-attention identity error, the measure of the autoencoder
augmentation's experiment.

The batch is texts, each fed as input and output, so every cross-attention
matrix is square; per example and per head we take ||C - I||_F, minimize
over heads, and average over the batch. Tracking this error per decoder
layer across training epochs shows whether any head is converging toward
an identity alignment (language-model-like behavior). The experiment that
trains and tracks it, one seed at a time, is `scripts_calib/xattn_rows.py`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DataError, ShapeError
from .numerics import no_grad
from .seq2seq import Seq2SeqModel, make_batch


def min_head_identity_error(c_heads: np.ndarray) -> float:
    """min over heads of ||C_h - I||_F for stacked square matrices (H, n, n)."""
    if c_heads.ndim != 3 or c_heads.shape[1] != c_heads.shape[2]:
        raise ShapeError(f"expected (heads, n, n) matrices, got "
                         f"{c_heads.shape}")
    eye = np.eye(c_heads.shape[1], dtype=c_heads.dtype)
    per_head = np.sqrt(((c_heads - eye) ** 2).sum(axis=(1, 2)))
    return float(per_head.min())


def xattn_identity_errors(model: Seq2SeqModel, texts) -> list[float]:
    """Each decoder layer's mean over examples of min over heads of
    ||C - I||_F, from one forward pass of the texts fed autoencoder-style
    (input = output), so every matrix is square."""
    if not texts:
        raise DataError("xattn_identity_errors needs a non-empty batch")
    vocab = model.config.vocab
    lens = []
    for text in texts:
        n = len(vocab.tokenize(text))
        if n == 0:
            raise DataError(f"empty text in attention batch: {text!r}")
        lens.append(n + 1)  # + EOS on the encoder, + BOS on the decoder
    arrays = make_batch(vocab, texts, texts)
    capture: list[np.ndarray] = []
    with no_grad():
        model.forward(arrays["src"], arrays["dec_in"], capture=capture)
    out = []
    for attn in capture:  # (B, H, T, S), one per decoder layer
        errors = [min_head_identity_error(attn[i, :, :n, :n])
                  for i, n in enumerate(lens)]
        # fsum makes the mean exactly invariant to batch order.
        out.append(math.fsum(errors) / len(errors))
    return out
