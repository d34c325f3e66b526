"""Cross-attention identity error of the autoencoder augmentation, per seed.

    PYTHONPATH=src python3 scripts_calib/xattn_rows.py --seeds 0,1,2 \\
        --out xattn.jsonl

For each seed, trains a 2+4 d64 model with the supervised loss plus the
autoencoder-only augmentation loss, and after every epoch measures each
decoder layer's identity error (`codemix.analysis.xattn_identity_errors`)
on 200 held-out targets fed input=output. An error near 0 means a head
copies its input position by position, as a language model would.

Writes one JSON line per (seed, epoch): the seed, the epoch, that epoch's
mean training loss and the per-layer errors. No mean over seeds is written:
a run that ends on a loss spike ends with errors unlike the other seeds',
so each seed's errors are read next to its own losses.

Without PYTHONPATH, codemix is imported from the `src` of this checkout.
"""
import argparse
import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from codemix.analysis import xattn_identity_errors  # noqa: E402
from codemix.augment import AugKind  # noqa: E402
from codemix.numerics import make_rng  # noqa: E402
from codemix.seq2seq import Seq2SeqConfig, init_model  # noqa: E402
from codemix.text import (SynthTaskSpec, check_count,  # noqa: E402
                          gen_synthetic_corpus, synthetic_vocab)
from codemix.train import fit  # noqa: E402


def xattn_experiment(seed: int, n_train: int = 3000, n_dec_layers: int = 4,
                     epochs: int = 5) -> tuple[np.ndarray, list[float]]:
    """Train with supervised + autoencoder-only augmentation loss and record
    the per-decoder-layer identity error on a held-out validation set of
    200 pairs after every epoch. Returns grid[layer, epoch - 1] (float64)
    and each epoch's mean training loss. The task, the model's other sizes
    (2 encoder layers, d_model 64, 4 heads, d_ff 256) and the training
    settings are fixed."""
    check_count("epochs", epochs, least=1)
    task = SynthTaskSpec(lexicon_size=40, code_mix_ratio=0.3,
                         noise_char_drop_prob=0.05,
                         pseudo_label_error_rate=0.0, seed=11)
    vocab = synthetic_vocab(task)
    train_corpus, val_corpus = gen_synthetic_corpus(task, n_train, 200)
    val_texts = [ex.target for ex in val_corpus]
    cfg = Seq2SeqConfig(vocab=vocab, n_enc_layers=2,
                        n_dec_layers=n_dec_layers, d_model=64,
                        n_heads=4, d_ff=256, max_len=16, dropout_prob=0.0)
    rng = make_rng(seed)
    init_rng, fit_rng = rng.spawn(2)
    model = init_model(cfg, init_rng)
    grid = np.zeros((n_dec_layers, epochs))

    def after_epoch(m, epoch, report):
        grid[:, epoch - 1] = xattn_identity_errors(m, val_texts)
        return False

    report = fit(model, train_corpus, epochs=epochs, lr=1e-3,
                 batch_size=64, kinds=(AugKind.AUTOENCODER,), lam=0.5,
                 label_smoothing=0.1, weight_decay=0.0,
                 rngs=fit_rng.spawn(3), on_epoch_end=after_epoch,
                 stage="ae-xattn")
    return grid, [e.train_loss for e in report.epochs]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default="0",
                        help="comma-separated seeds (default: 0)")
    parser.add_argument("--out", required=True, help="JSON lines file")
    args = parser.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s]
    except ValueError:
        seeds = []
    if not seeds:
        parser.error(f"--seeds: expected comma-separated integers, got "
                     f"{args.seeds!r}")
    with open(args.out, "w", encoding="utf-8") as fh:
        for seed in seeds:
            grid, losses = xattn_experiment(seed)
            for epoch, loss in enumerate(losses, start=1):
                fh.write(json.dumps({
                    "seed": seed, "epoch": epoch,
                    "train_loss": round(loss, 6),
                    "error": [round(float(e), 6)
                              for e in grid[:, epoch - 1]]}) + "\n")


if __name__ == "__main__":
    main()
