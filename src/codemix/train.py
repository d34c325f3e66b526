"""Two-stage training: stage 1 on the large noisy pseudo-labeled corpus with
augmentation, stage 2 fine-tuning on clean data with early stopping on a
validation split. Checkpointing lives in codemix.checkpoint.

Every run is deterministic given its seed: each caller splits its RNG into
independent child streams (data order / augmentation / dropout) and hands
them to `fit`, so configurations that skip augmentation consume exactly the
same data and dropout streams as ones that weight it at zero.

`fit` is the one training loop of the package: two-stage training,
transliteration and distillation all step through it. What it trains with
is one `Recipe`, checked when it is built: each stage's comes from
`TrainingConfig.recipe`, distillation's `DistillConfig` is one, and
transliteration builds its own. Distillation adds its KD term through
`fit`'s `extra_loss` hook: a forward of the student alone, matched to
teacher probabilities that were computed before the first step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .augment import AugKind, sample_augmented_batch
from .errors import DataError, NonFiniteError, TrainingDivergedError
from .numerics import AdamWState, check_rate, no_grad, step_tensors
from .seq2seq import (Seq2SeqConfig, Seq2SeqModel, check_length,
                      label_smoothed_ce, make_batch, pad_batch)
from .text import Corpus, check_count

DEFAULT_STAGE1_KINDS = (AugKind.DROPCHAR, AugKind.AUTOENCODER, AugKind.MASK)
DEFAULT_STAGE2_KINDS = (AugKind.DROPCHAR, AugKind.AUTOENCODER)


def check_loop_sizes(epochs, batch_size) -> None:
    """A training loop's `epochs` must be an integer >= 0 and its
    `batch_size` an integer >= 1 (Recipe, StageConfig)."""
    check_count("epochs", epochs)
    check_count("batch_size", batch_size, least=1)


def check_loss_settings(lam, label_smoothing) -> None:
    """The objective's settings: the weight `lambda` must be in [0, 1] and
    `label_smoothing` in [0, 1); NaN is in neither (Recipe,
    TrainingConfig)."""
    if not 0.0 <= lam <= 1.0:
        raise DataError(f"lambda must be in [0, 1], got {lam}")
    if not 0.0 <= label_smoothing < 1.0:
        raise DataError(f"label_smoothing must be in [0, 1), got "
                        f"{label_smoothing}")


def check_trainable(model: Seq2SeqModel) -> None:
    """An int8 model (`Seq2SeqModel.quantized`) is inference only."""
    if model.quantized:
        raise DataError("cannot train an int8-quantized model; train the "
                        "float32 model and quantize it afterwards")


def check_pairs(corpus: Corpus, config: Seq2SeqConfig,
                path: str | None = None) -> None:
    """DataError naming the first pair of `corpus` whose source or target
    does not fit the model (`check_length`) as `pair i`, or as `path: line
    i + 1` for a corpus that `load_parallel_tsv` read from `path`."""
    for i, ex in enumerate(corpus):
        try:
            check_length(ex.source, config)
            check_length(ex.target, config)
        except DataError as e:
            label = f"pair {i}" if path is None else f"{path}: line {i + 1}"
            raise DataError(f"{label}: {e}") from None


@dataclass(frozen=True)
class Recipe:
    """The values `fit` trains with. Building one checks them all, so
    `fit` checks none of them again: loop sizes (`check_loop_sizes`), a
    learning rate > 0 and a weight decay >= 0 (`check_rate`; NaN and +Inf
    pass, and the step's finite check rejects what they write), and the
    objective's weight and label smoothing (`check_loss_settings`).
    `kinds` are the augmentations a step samples from; `lam` weighs the
    objective's terms as `fit` states."""
    epochs: int
    lr: float
    batch_size: int
    lam: float
    label_smoothing: float
    weight_decay: float
    kinds: tuple[AugKind, ...]

    def __post_init__(self):
        check_loop_sizes(self.epochs, self.batch_size)
        check_rate("lr", self.lr, positive=True)
        check_rate("weight_decay", self.weight_decay)
        check_loss_settings(self.lam, self.label_smoothing)


@dataclass
class StageConfig:
    epochs: int = 5
    lr: float = 3e-4
    batch_size: int = 64
    kinds: tuple[AugKind, ...] = DEFAULT_STAGE1_KINDS
    patience: int = 3            # stage 2 only
    val_fraction: float = 0.1    # stage 2 only

    def __post_init__(self):
        check_loop_sizes(self.epochs, self.batch_size)
        check_rate("lr", self.lr, positive=True)
        if not 0.0 < self.val_fraction < 1.0:
            raise DataError("val_fraction must be in (0, 1)")
        if self.patience < 1:
            raise DataError("patience must be >= 1")


@dataclass
class TrainingConfig:
    stage1: StageConfig = field(default_factory=StageConfig)
    stage2: StageConfig = field(default_factory=lambda: StageConfig(
        epochs=30, kinds=DEFAULT_STAGE2_KINDS))
    lam: float = 0.5             # augmentation weight in the objective
    label_smoothing: float = 0.1
    weight_decay: float = 0.01
    seed: int = 0

    # The learning rates the reference setup quotes (5e-6 / 1e-5) target
    # 139M+ parameter warm-started models; training this package's small
    # models from scratch needs roughly 3e-4.

    def __post_init__(self):
        check_rate("weight_decay", self.weight_decay)
        check_loss_settings(self.lam, self.label_smoothing)

    def recipe(self, stage: str) -> Recipe:
        """The recipe of `stage` ("stage1" or "stage2"): that stage's
        epochs, lr, batch_size and kinds, with the shared lambda, label
        smoothing and weight decay."""
        s = getattr(self, stage)
        return Recipe(s.epochs, s.lr, s.batch_size, self.lam,
                      self.label_smoothing, self.weight_decay, s.kinds)

    def items(self) -> dict[str, object]:
        return {
            "stage1.epochs": self.stage1.epochs,
            "stage1.lr": self.stage1.lr,
            "stage1.batch_size": self.stage1.batch_size,
            "stage1.kinds": ",".join(k.value for k in self.stage1.kinds),
            "stage2.epochs": self.stage2.epochs,
            "stage2.lr": self.stage2.lr,
            "stage2.batch_size": self.stage2.batch_size,
            "stage2.kinds": ",".join(k.value for k in self.stage2.kinds),
            "stage2.patience": self.stage2.patience,
            "stage2.val_fraction": self.stage2.val_fraction,
            "lambda": self.lam,
            "label_smoothing": self.label_smoothing,
            "weight_decay": self.weight_decay,
            "seed": self.seed,
        }


def config_from_items(kv: dict[str, str]) -> TrainingConfig:
    """Build a TrainingConfig from flat key-value text (CLI config files):
    the keys of `TrainingConfig.items()`, each parsed as its default's type
    and checked as the dataclasses check it. A value that does not parse
    is a DataError naming its key."""
    cfg = TrainingConfig()
    defaults = cfg.items()
    values: dict[str, dict[str, object]] = {"stage1": {}, "stage2": {},
                                            "": {}}
    for key, text in kv.items():
        if key not in defaults:
            raise DataError(f"unknown training config key: {key!r}")
        kind = type(defaults[key])
        try:
            value = _parse_kinds(text) if kind is str else kind(text)
        except ValueError as e:
            raise DataError(f"bad training config value {key} = {text!r}: "
                            f"{e}") from e
        section, _, name = key.rpartition(".")
        values[section]["lam" if name == "lambda" else name] = value
    stages = {}
    for stage in ("stage1", "stage2"):
        try:
            stages[stage] = replace(getattr(cfg, stage), **values[stage])
        except DataError as e:
            raise DataError(f"training config {stage}: {e}") from e
    return replace(cfg, **stages, **values[""])


def _parse_kinds(text: str) -> tuple[AugKind, ...]:
    text = text.strip()
    if not text or text == "none":
        return ()
    return tuple(AugKind(x.strip()) for x in text.split(","))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None
    seconds: float
    aug_loss_means: dict[str, float]

    def record(self) -> dict[str, object]:
        rec: dict[str, object] = {
            "epoch": self.epoch,
            "train_loss": round(self.train_loss, 6),
            "seconds": round(self.seconds, 3),
        }
        if self.val_loss is not None:
            rec["val_loss"] = round(self.val_loss, 6)
        for kind, mean in sorted(self.aug_loss_means.items()):
            rec[f"aug_loss.{kind}"] = round(mean, 6)
        return rec


@dataclass
class TrainReport:
    stage: str
    epochs: list[EpochStats] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)

    def records(self) -> list[dict[str, object]]:
        out = []
        for e in self.epochs:
            rec = {"stage": self.stage}
            rec.update(e.record())
            out.append(rec)
        return out


def _batches(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield range(start, min(start + batch_size, n))


def evaluate_loss(model: Seq2SeqModel, corpus: Corpus, label_smoothing: float,
                  batch_size: int = 64) -> float:
    """Mean label-smoothed CE per target token (EOS included), dropout
    disabled. A pair that does not fit the model (`check_pairs`) or a
    `batch_size` below 1 is a DataError before the first batch."""
    if not corpus:
        raise DataError("cannot evaluate on an empty corpus")
    check_count("batch_size", batch_size, least=1)
    check_pairs(corpus, model.config)
    vocab = model.config.vocab
    total, n_tokens = 0.0, 0
    with no_grad():
        for idxs in _batches(len(corpus), batch_size):
            batch = make_batch(vocab, [corpus[i].source for i in idxs],
                               [corpus[i].target for i in idxs])
            logits = model.forward(batch["src"], batch["dec_in"])
            loss = label_smoothed_ce(logits, batch["labels"], label_smoothing)
            k = len(batch["labels"])
            total += loss.item() * k
            n_tokens += k
    return total / n_tokens


def fit(model: Seq2SeqModel, corpus: Corpus, recipe: Recipe,
        rngs: tuple[np.random.Generator, np.random.Generator,
                    np.random.Generator], *,
        val_corpus: Corpus | None = None,
        on_epoch_end=None, extra_loss=None, stage: str = "fit") -> TrainReport:
    """Shared training loop: `recipe.epochs` passes over `corpus` in
    batches of `recipe.batch_size`; per supervised batch, optionally sample
    one augmented batch and weigh the losses with lambda (`recipe.lam`).
    The recipe was checked when it was built; `fit` checks it no further.

    `rngs` are the (data order, augmentation, dropout) streams; callers pass
    `rng.spawn(3)` or streams of their own.

    Without `extra_loss` a step minimizes
        (1 - lambda) * loss_s + lambda * loss_d
    and skips augmentation at lambda == 0 (the objective is then loss_s).
    `extra_loss(n_rows, loss_s, loss_d)` adds a third term: it runs after the
    supervised and augmentation terms of each step, gets their values as
    floats (`loss_d` is None when no augmented batch was drawn) and returns
    a scalar tensor `loss_x` of its own graph; the step then minimizes
        (1 - lambda) * (loss_s + loss_d) + lambda * loss_x
    and augmentation runs whenever `kinds` is non-empty. No tape node forms
    the sum: each term runs its backward, seeded with its weight, right
    after its forward, so a step holds one term's graph at a time. The
    terms share no activations, and a forward reads the weights only, so
    this is the step of the summed loss: the dropout, augmentation and
    hook streams are drawn in the same order, and each parameter's
    gradient adds the parts of loss_s, loss_d and loss_x in the order a
    walk of the sum reached them, keeping its bits.

    `on_epoch_end(model, epoch, report)` runs after each epoch; returning a
    truthy value stops training early. Divergence (non-finite loss) clears
    every parameter's gradient, rolls the model back to the last epoch-end
    snapshot and raises TrainingDivergedError.
    An int8 model is inference only: `check_trainable` raises DataError. So
    does a pair of `corpus` or `val_corpus` that does not fit the model
    (`check_pairs`), before the first step.
    """
    check_trainable(model)
    if not corpus:
        raise DataError("cannot train on an empty corpus")
    check_pairs(corpus, model.config)
    try:
        check_pairs(val_corpus or [], model.config)
    except DataError as e:
        raise DataError(f"val_corpus {e}") from None
    vocab, lam = model.config.vocab, recipe.lam
    use_aug = bool(recipe.kinds) and (lam > 0.0 or extra_loss is not None)
    # each term's weight in the objective seeds its backward
    w_s = 1.0 - lam if use_aug or extra_loss is not None else 1.0
    w_d = 1.0 - lam if extra_loss is not None else lam
    seed_s, seed_d, seed_x = (np.asarray(w, model.dtype)
                              for w in (w_s, w_d, lam))
    data_rng, aug_rng, drop_rng = rngs
    opt = AdamWState(lr=recipe.lr, weight_decay=recipe.weight_decay)
    report = TrainReport(stage=stage)
    snapshot = model.snapshot()
    for epoch in range(1, recipe.epochs + 1):
        t0 = time.perf_counter()
        order = data_rng.permutation(len(corpus))
        losses: list[float] = []
        aug_losses: dict[str, list[float]] = {}
        try:
            for idxs in _batches(len(corpus), recipe.batch_size):
                rows = [corpus[order[i]] for i in idxs]
                batch = make_batch(vocab, [ex.source for ex in rows],
                                   [ex.target for ex in rows])
                # no logits local: it would keep an (n, V) array alive
                # through the next term's forward
                term = label_smoothed_ce(
                    model.forward(batch["src"], batch["dec_in"],
                                  rng=drop_rng),
                    batch["labels"], recipe.label_smoothing)
                term.backward(seed_s)
                loss_s, loss_d = term.item(), None
                if use_aug:
                    aug = sample_augmented_batch(corpus, recipe.kinds,
                                                 len(rows), aug_rng, vocab)
                    abatch = pad_batch(aug.inputs, aug.outputs)
                    term = label_smoothed_ce(
                        model.forward(abatch["src"], abatch["dec_in"],
                                      rng=drop_rng),
                        abatch["labels"], recipe.label_smoothing)
                    term.backward(seed_d)
                    loss_d = term.item()
                    aug_losses.setdefault(aug.kind.value, []).append(loss_d)
                if extra_loss is not None:
                    extra_loss(len(rows), loss_s, loss_d).backward(seed_x)
                step_tensors(model.params, opt)
                losses.append(loss_s)
        except NonFiniteError as e:
            for t in model.params.values():  # a term's backward may have run
                t.zero_grad()
            model.restore(snapshot)
            raise TrainingDivergedError(
                f"{stage} epoch {epoch}: {e}; model rolled back to the "
                f"last epoch-end snapshot") from e
        snapshot = model.snapshot()
        val_loss = None
        if val_corpus:
            val_loss = evaluate_loss(model, val_corpus, recipe.label_smoothing,
                                     recipe.batch_size)
        report.epochs.append(EpochStats(
            epoch=epoch,
            train_loss=float(np.mean(losses)),
            val_loss=val_loss,
            seconds=time.perf_counter() - t0,
            aug_loss_means={k: float(np.mean(v))
                            for k, v in aug_losses.items()},
        ))
        if on_epoch_end is not None and on_epoch_end(model, epoch, report):
            break
    return report


def train_stage1(model: Seq2SeqModel, noisy_corpus: Corpus,
                 config: TrainingConfig,
                 rng: np.random.Generator) -> TrainReport:
    """Fixed-epoch `fit` with stage 1's recipe on whatever corpus the
    caller gives: in the paper's pipeline the noisy pseudo-labeled one."""
    return fit(model, noisy_corpus, config.recipe("stage1"), rng.spawn(3),
               stage="stage1")


def stage2_val_count(n: int, stage2: StageConfig) -> int:
    """How many of n clean pairs stage 2 holds out for validation:
    `val_fraction` of them, rounded, and at least one. DataError when n is
    below 10 or the split leaves no pair to train on."""
    if n < 10:
        raise DataError("stage 2 needs at least 10 examples for a "
                        "validation split")
    n_val = max(1, int(round(stage2.val_fraction * n)))
    if n_val >= n:
        raise DataError(f"stage2.val_fraction {stage2.val_fraction} holds "
                        f"out {n_val} of {n} clean pairs for validation, "
                        f"leaving none to train on")
    return n_val


def train_stage2(model: Seq2SeqModel, clean_corpus: Corpus,
                 config: TrainingConfig,
                 rng: np.random.Generator) -> TrainReport:
    """Fine-tune on clean data; hold out a validation fraction, stop when
    validation loss has not improved for `patience` consecutive epochs, and
    return (in place) the best-validation checkpoint, which may be the
    untrained epoch-0 model."""
    check_trainable(model)
    n_val = stage2_val_count(len(clean_corpus), config.stage2)
    check_pairs(clean_corpus, model.config)  # indices before the split
    split_rng, fit_rng = rng.spawn(2)
    order = split_rng.permutation(len(clean_corpus))
    val = [clean_corpus[i] for i in order[:n_val]]
    tr = [clean_corpus[i] for i in order[n_val:]]

    epoch0_loss = evaluate_loss(model, val, config.label_smoothing,
                                config.stage2.batch_size)
    best = {"loss": epoch0_loss, "snap": model.snapshot(), "epoch": 0,
            "since": 0}

    def stop_check(m: Seq2SeqModel, epoch: int, rep: TrainReport) -> bool:
        vloss = rep.epochs[-1].val_loss
        if vloss < best["loss"]:
            best.update(loss=vloss, snap=m.snapshot(), epoch=epoch, since=0)
        else:
            best["since"] += 1
        return best["since"] >= config.stage2.patience

    report = fit(model, tr, config.recipe("stage2"), fit_rng.spawn(3),
                 val_corpus=val, on_epoch_end=stop_check, stage="stage2")
    model.restore(best["snap"])
    report.notes["best_epoch"] = best["epoch"]
    report.notes["best_val_loss"] = best["loss"]
    report.notes["epoch0_val_loss"] = epoch0_loss
    return report
