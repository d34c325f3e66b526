"""Cross-attention identity analysis for the autoencoder augmentation.

For an input=output batch the cross-attention matrices are square; per
example and per head we take the Frobenius norm of (C - I), minimize over
heads, and average over the batch. Tracking this error per decoder layer
across training epochs shows whether any head is converging toward an
identity alignment (language-model-like behavior).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .augment import AugKind
from .errors import DataError, ShapeError
from .numerics import make_rng, no_grad
from .seq2seq import Seq2SeqConfig, Seq2SeqModel, init_model, make_batch
from .text import (SynthTaskSpec, check_count, gen_synthetic_corpus,
                   synthetic_vocab)
from .train import fit


def min_head_identity_error(c_heads: np.ndarray) -> float:
    """min over heads of ||C_h - I||_F for stacked square matrices (H, n, n)."""
    if c_heads.ndim != 3 or c_heads.shape[1] != c_heads.shape[2]:
        raise ShapeError(f"expected (heads, n, n) matrices, got "
                         f"{c_heads.shape}")
    eye = np.eye(c_heads.shape[1], dtype=c_heads.dtype)
    per_head = np.sqrt(((c_heads - eye) ** 2).sum(axis=(1, 2)))
    return float(per_head.min())


def xattn_identity_error(model: Seq2SeqModel, batch, layer: int) -> float:
    """Mean over examples of min over heads of ||C - I||_F at one decoder
    layer (`xattn_identity_errors`)."""
    if not 0 <= layer < model.config.n_dec_layers:
        raise DataError(f"decoder layer {layer} out of range")
    return xattn_identity_errors(model, batch)[layer]


def xattn_identity_errors(model: Seq2SeqModel, batch) -> list[float]:
    """Each decoder layer's mean over examples of min over heads of
    ||C - I||_F, from one forward pass. `batch` is a list of texts (fed
    autoencoder-style, input=output) or of (source, target) pairs.

    Raises when source/target token counts differ (non-square C).
    """
    if not batch:
        raise DataError("xattn_identity_error needs a non-empty batch")
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


@dataclass
class XAttnExperimentConfig:
    """The sizes `codemix analyze-xattn` sets; `ae_xattn_experiment` fixes
    the rest."""

    n_train: int = 3000
    n_dec_layers: int = 4
    epochs: int = 5


@dataclass
class XAttnErrorCurve:
    """errors[layer][epoch - 1] = mean identity error after that epoch,
    averaged over seeds; per_seed holds each seed's (layers, epochs) grid."""

    errors: np.ndarray
    per_seed: list[np.ndarray]

    def records(self) -> list[dict[str, object]]:
        out = []
        layers, epochs = self.errors.shape
        for lay in range(layers):
            for ep in range(epochs):
                out.append({"layer": lay, "epoch": ep + 1,
                            "error": round(float(self.errors[lay, ep]), 6)})
        return out


def ae_xattn_experiment(config: XAttnExperimentConfig,
                        seeds: list[int]) -> XAttnErrorCurve:
    """Train with supervised + autoencoder-only augmentation loss and record
    the per-decoder-layer identity error on a held-out validation set of
    200 pairs after every epoch. The task, the model's other sizes (2
    encoder layers, d_model 64, 4 heads, d_ff 256) and the training
    settings are fixed."""
    if not seeds:
        raise DataError("ae_xattn_experiment needs at least one seed")
    check_count("epochs", config.epochs, least=1)
    task = SynthTaskSpec(lexicon_size=40, code_mix_ratio=0.3,
                         noise_char_drop_prob=0.05,
                         pseudo_label_error_rate=0.0, seed=11)
    vocab = synthetic_vocab(task)
    train_corpus, val_corpus = gen_synthetic_corpus(task, config.n_train, 200)
    val_texts = [ex.target for ex in val_corpus]
    per_seed = []
    for seed in seeds:
        cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=2,
                            n_dec_layers=config.n_dec_layers, d_model=64,
                            n_heads=4, d_ff=256, max_len=16, dropout_prob=0.0)
        rng = make_rng(seed)
        init_rng, fit_rng = rng.spawn(2)
        model = init_model(cfg, init_rng)
        grid = np.zeros((config.n_dec_layers, config.epochs))

        def after_epoch(m, epoch, report):
            grid[:, epoch - 1] = xattn_identity_errors(m, val_texts)
            return False

        fit(model, train_corpus, epochs=config.epochs, lr=1e-3,
            batch_size=64, kinds=(AugKind.AUTOENCODER,), lam=0.5,
            label_smoothing=0.1, weight_decay=0.0, rngs=fit_rng.spawn(3),
            on_epoch_end=after_epoch, stage="ae-xattn")
        per_seed.append(grid)
    return XAttnErrorCurve(np.mean(per_seed, axis=0), per_seed)
