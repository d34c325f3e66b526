"""Cross-attention identity error, the measure of the autoencoder
augmentation's experiment.

For an input=output batch the cross-attention matrices are square; per
example and per head we take the Frobenius norm of (C - I), minimize over
heads, and average over the batch. Tracking this error per decoder layer
across training epochs shows whether any head is converging toward an
identity alignment (language-model-like behavior). The experiment that
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


def xattn_identity_errors(model: Seq2SeqModel, batch) -> list[float]:
    """Each decoder layer's mean over examples of min over heads of
    ||C - I||_F, from one forward pass. `batch` is a list of texts (fed
    autoencoder-style, input=output) or of (source, target) pairs.

    Raises when source/target token counts differ (non-square C).
    """
    if not batch:
        raise DataError("xattn_identity_errors needs a non-empty batch")
    pairs = [(b, b) if isinstance(b, str) else tuple(b) for b in batch]
    vocab = model.config.vocab
    lens = []
    for src, tgt in pairs:
        n_src = len(vocab.tokenize(src))
        n_tgt = len(vocab.tokenize(tgt))
        if n_src == 0:
            raise DataError(f"empty text in attention batch: {src!r}")
        if n_src != n_tgt:
            raise ShapeError(
                f"cross-attention matrix is not square: {n_src} source vs "
                f"{n_tgt} target tokens for {src!r}")
        lens.append(n_src + 1)  # + EOS on the encoder, + BOS on the decoder
    arrays = make_batch(vocab, [p[0] for p in pairs], [p[1] for p in pairs])
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
