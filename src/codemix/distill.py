"""Sequence-level knowledge distillation with CE / Jensen-Shannon losses,
plus single-threaded latency benchmarking.

The teacher is frozen: it pseudo-labels a pool of unlabeled sources once
(beam search), and one pass without a tape keeps its distribution over
each usable pair's decoder positions, which the student matches per step
under the CE or JS loss, both computed by `kd_loss`, one tape node. The
student trains in the shared loop `train.fit`, which takes the KD loss
through its `extra_loss` hook and minimizes
    (1 - lambda) * (loss_s + loss_d) + lambda * loss_kd
with lambda = 0.5 by default. No tape node forms that sum: `fit` runs each
term's backward right after its forward, loss_s, loss_d, then loss_kd,
each seeded with its weight, so a step holds one term's graph at a time.
That is the order a walk of the summed loss reached them in, so every
parameter's gradient adds up in the same order and keeps its bits. The KD
term runs last and gets the other two terms' values as floats.
"""

from __future__ import annotations

import enum
import platform
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import AugKind
from .errors import DataError
from .numerics import Tensor, check_rate, log_softmax, no_grad
from .numerics.tensor import _make
from .seq2seq import (Seq2SeqConfig, Seq2SeqModel, beam_search,
                      beam_search_batch, init_model, make_batch)
from .seq2seq.model import check_id_count, encode_source, id_count_fits
from .text import (PAD, Corpus, ParallelExample, Provenance, Vocab,
                   decode)
from .train import (DEFAULT_STAGE2_KINDS, check_loop_sizes,
                    check_loss_settings, check_pairs, check_trainable, fit)

LN2 = float(np.log(2.0))
JS_UPPER_BOUND = 2.0 * LN2


class KDKind(enum.Enum):
    CE = "ce"
    JS = "js"


def generate_pseudo_labels(teacher: Seq2SeqModel, sources: list[str],
                           beam: int = 3, max_len: int | None = None
                           ) -> tuple[Corpus, list[int]]:
    """Beam-decode every source with the frozen teacher, as batches, to the
    teacher's own step limit (or `max_len` tokens when that is lower).

    Returns (pseudo-labeled examples with NOISY_PSEUDO provenance, indices
    of skipped sources). A source is skipped when its encoder input (tokens
    plus EOS) does not fit the teacher (`id_count_fits`), which is not
    decoded, or when decoding fails to finish or produces an empty target.
    """
    vocab = teacher.config.vocab
    encoded = [encode_source(s, vocab) for s in sources]
    fits = [i for i, ids in enumerate(encoded)
            if id_count_fits(len(ids), teacher.config)]
    results = dict(zip(fits, beam_search_batch(
        teacher, [encoded[i] for i in fits], beam=beam, max_len=max_len)))
    out: Corpus = []
    skipped: list[int] = []
    for i, src in enumerate(sources):
        result = results.get(i)
        if result is None or not result.finished or not result.ids:
            skipped.append(i)
            continue
        out.append(ParallelExample(src, decode(result.ids, vocab),
                                   Provenance.NOISY_PSEUDO))
    return out, skipped


def _xlogy_np(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * log(y), +0.0 where x is 0 (whatever log(y) is there)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = x * np.log(y)
    r[x == 0] = 0.0
    return r


def kd_loss(kind: KDKind, teacher_probs: np.ndarray,
            student_logp: Tensor) -> Tensor:
    """The KD loss between teacher probabilities T (a constant array) and
    student log-probabilities log S (a tape tensor), both (positions,
    vocab), mean over the positions. In training the positions are the
    real decoder rows `Seq2SeqModel.forward` returns, so padding never
    reaches the loss.

    CE: -sum_k T[k] * log S[k]; log S stays finite, so underflowed student
    probabilities cannot poison the loss.
    JS: D_KL(T || m) + D_KL(S || m) with m = (T + S) / 2 and S = exp(log S);
    symmetric, bounded by 2 ln 2, zero iff T == S, and its gradient with
    respect to S is log(S / m) (zero at exact zeros), so it is exactly zero
    wherever S equals T bitwise: a converged student is a true fixed point
    under Adam.

    Either kind is one tape node whose backward returns log S's gradient.
    It does the float operations of the composed tape ops it replaces in
    their order (CE: T * log S, the sum, the scale -1 / n; JS: exp, then
    the divergence and log(S / m) scaled by 1 / n, then the product with
    S), so its value and gradient carry their bits.
    """
    if teacher_probs.shape != student_logp.shape:
        raise DataError(f"teacher/student distribution shapes differ: "
                        f"{teacher_probs.shape} vs {student_logp.shape}")
    logp = student_logp.data
    n_pos = len(teacher_probs)
    if kind is KDKind.CE:
        prod = teacher_probs * logp
        # the scale in the product's dtype, as a tape op's Python number is
        w = np.asarray(-1.0 / n_pos, prod.dtype)
        value = prod.sum() * w

        def backward(g):
            return ((g * w) * teacher_probs,)
    else:
        s, scale = np.exp(logp), 1.0 / n_pos
        m = 0.5 * (teacher_probs + s)
        # where one side is 0 and the other subnormal, m must not round to 0
        np.maximum(m, np.finfo(m.dtype).smallest_subnormal, out=m)
        # Summing each KL term separately keeps the value exactly symmetric
        # in (T, S): scalar addition commutes where element-wise mixing of
        # the four terms would round differently.
        kl_t = (_xlogy_np(teacher_probs, teacher_probs)
                - _xlogy_np(teacher_probs, m)).sum()
        kl_s = (_xlogy_np(s, s) - _xlogy_np(s, m)).sum()
        value = (kl_t + kl_s) * scale

        def backward(g):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.log(s / m)
            ratio[~(s > 0)] = 0.0
            # S's gradient, held in S's dtype, then through S = exp(log S)
            return (np.asarray(g * scale * ratio, s.dtype) * s,)

    return _make(np.asarray(value), (student_logp,), backward, "kd_loss")


@dataclass
class DistillConfig:
    epochs: int = 4
    lr: float = 1e-3
    batch_size: int = 64
    lam: float = 0.5
    label_smoothing: float = 0.1
    weight_decay: float = 0.01
    kinds: tuple[AugKind, ...] = DEFAULT_STAGE2_KINDS

    def __post_init__(self):
        check_loop_sizes(self.epochs, self.batch_size)
        check_rate("lr", self.lr, positive=True)
        check_rate("weight_decay", self.weight_decay)
        check_loss_settings(self.lam, self.label_smoothing)


def _check_same_vocab(who: str, vocab: Vocab, teacher_vocab: Vocab) -> None:
    """DataError unless `who` reads ids as the teacher does: the teacher
    runs the pseudo-labels' ids in the student's vocabulary."""
    if vocab.mode != teacher_vocab.mode:
        raise DataError(f"{who} vocab mode {vocab.mode!r} is not the "
                        f"teacher's {teacher_vocab.mode!r}")
    if len(vocab) != len(teacher_vocab):
        raise DataError(f"{who} vocabulary has {len(vocab)} tokens, the "
                        f"teacher's {len(teacher_vocab)}")
    for i, (tok, t_tok) in enumerate(zip(vocab.id_to_token,
                                         teacher_vocab.id_to_token)):
        if tok != t_tok:
            raise DataError(f"{who} vocabulary spells id {i} {tok!r}, the "
                            f"teacher's {t_tok!r}")


@dataclass
class StepTrace:
    loss_s: float
    loss_d: float
    loss_kd: float


@dataclass
class DistillReport:
    kd_kind: str
    steps: list[StepTrace] = field(default_factory=list)
    epoch_means: list[dict[str, float]] = field(default_factory=list)
    skipped_sources: int = 0


def train_student(student_config: Seq2SeqConfig, teacher: Seq2SeqModel,
                  clean_corpus: Corpus, unlabeled_pool: list[str],
                  kd_kind: KDKind, rng: np.random.Generator,
                  config: DistillConfig | None = None, beam: int = 3,
                  initial_student: Seq2SeqModel | None = None
                  ) -> tuple[Seq2SeqModel, DistillReport]:
    """Distill the frozen teacher into a student (freshly initialized, or
    `initial_student` trained in place when given).

    Per step of `train.fit`: supervised + augmentation losses on a clean
    batch, KD loss of the student on a pseudo-labeled batch sampled from
    the pool against the teacher's probabilities (kept for the whole pool
    from one pass, so memory grows with it), combined as (1-lambda)(loss_s
    + loss_d) + lambda * loss_kd. Divergence rolls the student back to its
    last epoch-end weights and raises TrainingDivergedError. A student
    whose vocabulary is not the teacher's, an int8 `initial_student`
    (`check_trainable`), or a clean pair that does not fit the student
    that trains (`check_pairs`) is a DataError raised before
    pseudo-labelling, which decodes to the teacher's own step limit; a
    pool source the teacher skips, or whose pair does not fit that
    student, counts in `DistillReport.skipped_sources`.
    """
    if not clean_corpus or not unlabeled_pool:
        raise DataError("train_student needs non-empty clean corpus and pool")
    cfg = config or DistillConfig()
    init_rng, data_rng, aug_rng, kd_rng, drop_rng = rng.spawn(5)
    student = initial_student or init_model(student_config, init_rng)
    vocab = student.config.vocab
    _check_same_vocab("initial_student" if initial_student else "student",
                      vocab, teacher.config.vocab)
    check_trainable(student)
    check_pairs(clean_corpus, student.config)

    pseudo, _ = generate_pseudo_labels(teacher, unlabeled_pool, beam=beam)
    # a pair must fit the student, whose KD batches it goes into
    pseudo = [ex for ex in pseudo if all(
        id_count_fits(len(encode_source(text, vocab)), student.config)
        for text in (ex.source, ex.target))]
    if not pseudo:
        raise DataError("teacher produced no usable pseudo-labels")
    report = DistillReport(kd_kind=kd_kind.value,
                           skipped_sources=len(unlabeled_pool) - len(pseudo))

    table: list[np.ndarray] = []  # pair i's teacher rows, 4 B x vocab each
    with no_grad():
        for start in range(0, len(pseudo), cfg.batch_size):
            chunk = pseudo[start:start + cfg.batch_size]
            batch = make_batch(vocab, [ex.source for ex in chunk],
                               [ex.target for ex in chunk])
            t_logits = teacher.forward(batch["src"], batch["dec_in"])
            # exp(log_softmax) rather than softmax: bitwise-identical to the
            # student's probability path, so a student that equals the
            # teacher sees an exactly-zero KD loss and gradient.
            t_probs = np.exp(log_softmax(t_logits).data)
            positions = np.count_nonzero(batch["dec_in"] != PAD, axis=1)
            table += np.split(t_probs, np.cumsum(positions)[:-1])

    def kd_term(n_rows: int, loss_s: float, loss_d: float | None) -> Tensor:
        kd_idx = kd_rng.integers(0, len(pseudo), size=n_rows)
        kd_rows = [pseudo[int(i)] for i in kd_idx]
        kd_batch = make_batch(vocab, [ex.source for ex in kd_rows],
                              [ex.target for ex in kd_rows])
        s_logits = student.forward(kd_batch["src"], kd_batch["dec_in"],
                                   rng=drop_rng)
        loss_kd = kd_loss(kd_kind, np.concatenate([table[i] for i in kd_idx]),
                          log_softmax(s_logits))
        report.steps.append(StepTrace(
            loss_s, 0.0 if loss_d is None else loss_d, loss_kd.item()))
        return loss_kd

    recorded = 0  # steps of the epochs already recorded

    def record_epoch(model, epoch: int, fit_report) -> bool:
        nonlocal recorded
        steps, recorded = report.steps[recorded:], len(report.steps)
        report.epoch_means.append({
            name: float(np.mean([getattr(st, name) for st in steps]))
            for name in ("loss_s", "loss_d", "loss_kd")})
        return False

    fit(student, clean_corpus, epochs=cfg.epochs, lr=cfg.lr,
        batch_size=cfg.batch_size, kinds=cfg.kinds, lam=cfg.lam,
        label_smoothing=cfg.label_smoothing, weight_decay=cfg.weight_decay,
        rngs=(data_rng, aug_rng, drop_rng), on_epoch_end=record_epoch,
        extra_loss=kd_term, stage="distillation")
    return student, report


# ---------------------------------------------------------------------------
# Latency benchmarking
# ---------------------------------------------------------------------------

@dataclass
class LatencyReport:
    model_id: str
    hardware: str
    samples_ms: list[float]
    p50_ms: float
    p95_ms: float

    def records(self) -> list[dict[str, object]]:
        return [{"model": self.model_id, "hardware": self.hardware,
                 "p50_ms": round(self.p50_ms, 3),
                 "p95_ms": round(self.p95_ms, 3),
                 "n_samples": len(self.samples_ms)}]


def bench_latency(model: Seq2SeqModel, queries: list[str], warmup: int = 10,
                  samples: int = 200, beam: int = 3,
                  max_len: int | None = None) -> LatencyReport:
    """Single-threaded per-query beam-search decode timing, to the model's
    own step limit (or `max_len` tokens when that is lower); p50/p95 from
    the empirical distribution. Queries are cycled when samples exceeds
    the query count. A query longer than the model's max_len is a
    DataError naming its index, raised before the warm-up."""
    if samples < 200:
        raise DataError("bench_latency needs at least 200 samples")
    if warmup < 10:
        raise DataError("bench_latency needs at least 10 warmup decodes")
    if not queries:
        raise DataError("bench_latency needs at least one query")
    vocab = model.config.vocab
    encoded = [encode_source(q, vocab) for q in queries]
    for i, ids in enumerate(encoded):
        try:
            check_id_count(len(ids), model.config)
        except DataError as e:
            raise DataError(f"query {i}: {e}") from None
    for i in range(warmup):
        beam_search(model, encoded[i % len(encoded)], beam=beam,
                    max_len=max_len)
    times: list[float] = []
    for i in range(samples):
        src = encoded[i % len(encoded)]
        t0 = time.perf_counter()
        beam_search(model, src, beam=beam, max_len=max_len)
        times.append((time.perf_counter() - t0) * 1000.0)
    arr = np.asarray(times)
    return LatencyReport(
        model_id=model.model_id,
        hardware=platform.processor() or platform.machine(),
        samples_ms=times,
        p50_ms=float(np.percentile(arr, 50)),
        p95_ms=float(np.percentile(arr, 95)),
    )
