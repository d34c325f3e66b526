"""The serve, serve_int8, train and distill workloads.

Each workload is a closed loop with one caller: `setup()` loads artifacts
and makes the seeded inputs, then `cycle(k)` runs the k-th unit of work and
returns only when every call in it has returned. A pass is `pass_cycles`
cycles and covers every input of the run once; the runner runs one whole
pass, then goes on until the measuring time is used up. Each timed unit (one
query, one chunk, one training job) is the same work on every pass.

Every time metric is host-normalized (see `Clock`): each unit's time is
the median of its normalized times over the passes, and the metrics are
built from those medians. Only the `*wall*` metrics are plain wall-clock.

Checks of the outputs run between the timed calls, inside
`tracer.paused()`, so they are neither timed nor traced.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from codemix import checkpoint, langid, quant
from codemix.distill import DistillConfig, KDKind, train_student
from codemix.langid import (QueryLanguage, detect_query_language, eval_prf,
                            query_gold_language, train_crf)
from codemix.numerics import make_rng, no_grad
from codemix.seq2seq import (Seq2SeqConfig, beam_search, encode_source,
                             forward_teacher_forced, greedy_decode, init_model,
                             translate_corpus)
from codemix.text import BOS, EOS, PAD, decode, encode, synthetic_vocab
from codemix.train import (DEFAULT_STAGE2_KINDS, StageConfig, TrainingConfig,
                           train_stage1, train_stage2)

ARTIFACTS = Path(__file__).resolve().parent / "artifacts"
BEAM = 3
BATCH = 4              # queries per translate_corpus call in serve
SCORE_TOL = 1e-4       # beam score vs teacher-forced log-probability sum
MIN_DETECT_F1 = 0.8    # HINGLISH F1 below this marks the run incorrect
WARM_LENGTH = 6        # source words of the query serve warms up with
KERNEL_STEPS = 100     # of the calibration kernel, about 1-2 ms
KERNEL_WINDOW = 16     # kernel runs nearest a block that judge its host speed
NOMINAL_KERNEL_MS = 1.5  # kernel time of the nominal host (see Clock)


class NullTracer:
    """Stands in for spans.Tracer in the untraced run."""

    @staticmethod
    def phase(name):
        return contextlib.nullcontext()

    @staticmethod
    def paused():
        return contextlib.nullcontext()


@dataclass
class Timing:
    ms: float = 0.0  # wall-clock
    at: int = 0      # index of the first kernel run after the block


class Clock:
    """Wall-clock timing, and the same times scaled to a nominal host speed.

    The benchmark runs on shared machines, where the speed of one thread
    swings by up to 1.5x within seconds and can stay low for tens of
    seconds, so repetition inside one run does not even it out. A fixed
    calibration kernel (small float32 matmuls, softmax and Python list
    work, as the workloads do; no codemix code) runs right before and right
    after each timed block. The host's speed during a block is judged by
    the median of the KERNEL_WINDOW kernel runs nearest to it, and the
    block's normalized time is its wall time times NOMINAL_KERNEL_MS over
    that median: the time it would take on a host where the kernel takes
    NOMINAL_KERNEL_MS. A change to codemix moves the block's time and not
    the kernel's."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64)).astype(np.float32)
        self._x = rng.standard_normal((8, 64)).astype(np.float32)
        self.kernel: list[float] = []  # every kernel time, in order

    def kernel_ms(self) -> float:
        t0 = time.perf_counter()
        y = self._x
        for _ in range(KERNEL_STEPS):
            y = np.tanh(y @ self._a)
            e = np.exp(y - y.max(axis=-1, keepdims=True))
            y = e / e.sum(axis=-1, keepdims=True)
            [i * 2 for i in range(30)]
        return (time.perf_counter() - t0) * 1e3

    @contextlib.contextmanager
    def time(self):
        """Time the block; the Timing yielded is filled in when it ends."""
        self.kernel.append(self.kernel_ms())
        out = Timing(at=len(self.kernel))
        t0 = time.perf_counter()
        yield out
        out.ms = (time.perf_counter() - t0) * 1e3
        self.kernel.append(self.kernel_ms())

    def normalized_ms(self, t: Timing) -> float:
        """t's wall time at the nominal host speed, judged from the kernel
        runs taken so far; call it once the measurement is over."""
        lo = max(0, t.at - KERNEL_WINDOW // 2)
        window = self.kernel[lo:lo + KERNEL_WINDOW]
        return t.ms * NOMINAL_KERNEL_MS / median(window)


@dataclass
class Record:
    """Outcomes of one measurement: operations, failures, samples, and the
    timings of each repeated unit of work."""

    clock: Clock
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)
    units: dict[str, dict[object, list[tuple[Timing, float]]]] = field(
        default_factory=dict)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def total(self, name: str) -> float:
        return float(sum(self.samples.get(name, [])))

    def add_unit(self, name: str, unit, t: Timing, per: float = 1.0) -> None:
        """Record one pass of a unit of work that took t for `per` items."""
        self.units.setdefault(name, {}).setdefault(unit, []).append((t, per))

    def unit_medians(self, name: str) -> dict[object, float]:
        """Per unit of work, the median over the passes of its normalized
        ms per item."""
        return {u: median([self.clock.normalized_ms(t) / per for t, per in v])
                for u, v in self.units.get(name, {}).items()}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def run(self, what: str, fn, *args, **kwargs):
        """Count one operation; an exception marks it failed."""
        self.attempted += 1
        return self.check(what, fn, *args, **kwargs)

    def check(self, what: str, fn, *args, **kwargs):
        """Run a check of operations already counted; an exception marks
        one of them failed."""
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the loop must go on; the failure is counted
            self.fail(f"{what}: {type(e).__name__}: {e}")
            return None


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def median(values) -> float:
    return percentile(values, 50)


def rate(count: float, seconds: float) -> float:
    return count / max(seconds, 1e-9)


def teacher_forced_score(model, src: list[int], ids: list[int],
                         finished: bool) -> float:
    """Sum of log-probabilities of ids (plus EOS when finished) under one
    teacher-forced pass, computed independently of the decoder."""
    labels = ids + [EOS] if finished else list(ids)
    if not labels:
        return 0.0
    with no_grad():
        logits, _ = forward_teacher_forced(model, src, [BOS] + labels[:-1])
    x = logits.data.astype(np.float64)
    x = x - x.max(axis=-1, keepdims=True)
    logp = x - np.log(np.exp(x).sum(axis=-1, keepdims=True))
    return float(logp[np.arange(len(labels)), labels].sum())


def f1_score(preds: list[QueryLanguage], gold: list[QueryLanguage]) -> float:
    return eval_prf(preds, gold)[2] if preds else 0.0


def all_finite(values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


# ---------------------------------------------------------------------------
# serve and serve_int8
# ---------------------------------------------------------------------------

class Serve:
    """Online query translation with the committed f32 teacher, one query
    at a time; then translate_corpus over the same chunk; then CRF language
    detection of held-out queries."""

    NAME = "f32"            # phase name and key in reference.json
    PREFIX = "translate"    # of the named latency metrics
    SIZES = {"full": dict(chunks=16, detect=40, trace=3),
             "tiny": dict(chunks=2, detect=8, trace=1)}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.pass_cycles = self.size["chunks"]
        self.clock = Clock()
        self.reference = None
        if seed == inputs.REFERENCE_SEED:
            self.reference = json.loads(
                (ARTIFACTS / "reference.json").read_text(encoding="utf-8"))

    def load_model(self):
        return checkpoint.load_checkpoint(ARTIFACTS / "teacher")

    def setup(self, tracer) -> None:
        s = self.size
        with tracer.phase("setup"):
            self.model = self.load_model()
            self.vocab = self.model.config.vocab
            self.chunks = inputs.serve_chunks(self.seed, s["chunks"])
            warm = next(q for q in self.chunks[0]
                        if len(q.split()) == WARM_LENGTH)
            with tracer.phase(f"{self.NAME}.warmup"):
                beam_search(self.model, encode_source(warm, self.vocab),
                            beam=BEAM)
            self.setup_extra()
        self.rec = Record(self.clock)
        self.first_ids: dict[str, list[int]] = {}
        self.changed = 0
        self.compared = 0

    def setup_extra(self) -> None:
        s = self.size
        self.crf = langid.load_crf(ARTIFACTS / "crf.json")
        held = inputs.detect_queries(self.seed, s["chunks"] * s["detect"])
        self.detect = [held[i::s["chunks"]] for i in range(s["chunks"])]
        detect_query_language(self.crf, self._words(self.detect[0][0]))
        self.preds: list[QueryLanguage] = []
        self.gold: list[QueryLanguage] = []

    @staticmethod
    def _words(query) -> str:
        return " ".join(tok.word for tok in query)

    def _translate(self, query: str):
        """The body of codemix.seq2seq.translate, keeping the BeamResult."""
        src = encode_source(query, self.vocab)
        result = beam_search(self.model, src, beam=BEAM)
        return src, result, decode(result.ids, self.vocab)

    def _single(self, k: int, tracer) -> list:
        rec, name = self.rec, self.NAME
        chunk = self.chunks[k % len(self.chunks)]
        out = []
        with tracer.phase(name):
            for query in chunk:
                with self.clock.time() as t:
                    got = rec.run(f"{name} translate", self._translate, query)
                if got is not None:
                    rec.add(f"{name}.ms", t.ms)
                    rec.add_unit(f"{name}.ms", query, t)
                out.append(got)
        with tracer.paused():
            for query, got in zip(chunk, out):
                if got is not None:
                    rec.check(f"{name} check", self._check_beam, query, *got)
            # A different query of the chunk on each pass.
            rec.run("greedy check", self._check_greedy,
                    chunk[k // len(self.chunks) % len(chunk)])
        return out

    def _check_beam(self, query, src, result, text) -> None:
        """The first output of a query is checked against the teacher-forced
        score; a later pass must return the same ids."""
        ids, name = result.ids, self.NAME
        if query in self.first_ids:
            if ids != self.first_ids[query]:
                self.rec.fail(f"{name}: {ids} on a later pass, "
                              f"{self.first_ids[query]} first, for {query!r}")
            return
        self.first_ids[query] = ids
        if any(i in (PAD, BOS, EOS) or not 0 <= i < len(self.vocab)
               for i in ids):
            self.rec.fail(f"{name}: invalid ids {ids} for {query!r}")
            return
        tf = teacher_forced_score(self.model, src, ids, result.finished)
        if not abs(tf - result.score) <= SCORE_TOL:
            self.rec.fail(f"{name}: beam score {result.score} != "
                          f"teacher-forced {tf} for {query!r}")
        self.rec.add("nll", -tf)
        self.rec.add("tokens", len(ids) + int(result.finished))
        if self.reference is not None and query in self.reference:
            self.compared += 1
            self.changed += int(ids != self.reference[query][name])

    def _check_greedy(self, query: str) -> None:
        src = encode_source(query, self.vocab)
        if beam_search(self.model, src, beam=1).ids != greedy_decode(
                self.model, src):
            self.rec.fail(f"{self.NAME}: beam=1 differs from greedy for "
                          f"{query!r}")

    def _check_batch(self, chunk, texts, singles) -> None:
        """translate_corpus must give each query the single-query output,
        or an output of equal teacher-forced score (a tie)."""
        if len(texts) != len(chunk):
            self.rec.fail("translate_corpus returned the wrong count")
            return
        for query, text, single in zip(chunk, texts, singles):
            if single is None or text == single[2]:
                continue
            src, result, _ = single
            ids = encode(text, self.vocab)
            tf = teacher_forced_score(self.model, src, ids, True)
            if not abs(tf - result.score) <= SCORE_TOL:
                self.rec.fail(f"batch: {text!r} != {single[2]!r} for "
                              f"{query!r}")

    def cycle(self, k: int, tracer) -> None:
        rec = self.rec
        i = k % len(self.chunks)
        chunk = self.chunks[i]
        singles = self._single(k, tracer)

        # Batch b holds the (b+1)-th, (b+1+n)-th, ... shortest queries of
        # the chunk (n batches), so every batch has about the same length mix.
        by_length = sorted(range(len(chunk)),
                           key=lambda q: len(chunk[q].split()))
        n = len(chunk) // BATCH
        for b in range(n):
            picked = by_length[b::n]
            batch = [chunk[q] for q in picked]
            with tracer.phase(f"{self.NAME}.batch"), self.clock.time() as t:
                texts = rec.run("translate_corpus", translate_corpus,
                                self.model, batch, beam=BEAM)
            with tracer.paused():
                if texts is not None:
                    rec.add_unit("batch.ms", (i, b), t)
                    rec.check("batch check", self._check_batch, batch, texts,
                              [singles[q] for q in picked])
        self._detect(i, k < len(self.chunks), tracer)

    def _detect(self, i: int, first_pass: bool, tracer) -> None:
        rec, queries = self.rec, self.detect[i]
        with tracer.phase("detect"), self.clock.time() as t:
            langs = [rec.run("detect", detect_query_language, self.crf,
                             self._words(query)) for query in queries]
        rec.add_unit("detect.ms", i, t, per=len(queries))
        if first_pass:
            for query, lang in zip(queries, langs):
                if lang is not None:
                    self.preds.append(lang)
                    self.gold.append(query_gold_language(query))

    def _p50_ms(self) -> float:
        """Median over queries of each query's normalized latency."""
        return median(list(self.rec.unit_medians(f"{self.NAME}.ms").values()))

    def _batch_qps(self) -> float:
        """translate_corpus queries per second on the median batch, by
        normalized time. The median, because a batch's time is the sum of
        its queries' and a few queries are several times slower than the
        rest: how many varies with the seed, and most batches hold none."""
        batch_ms = self.rec.unit_medians("batch.ms").values()
        return rate(BATCH, median(list(batch_ms)) / 1e3)

    def _nll(self) -> float:
        return self.rec.total("nll") / max(self.rec.total("tokens"), 1.0)

    def named(self) -> dict[str, tuple[float, str]]:
        per_query = list(self.rec.unit_medians(f"{self.NAME}.ms").values())
        calls = self.rec.samples.get(f"{self.NAME}.ms", [])
        return {
            f"{self.PREFIX}_p50_ms": (median(per_query), "ms"),
            f"{self.PREFIX}_p95_ms": (percentile(per_query, 95), "ms"),
            f"{self.PREFIX}_queries": (len(per_query), "count"),
            f"{self.PREFIX}_batch_qps": (self._batch_qps(), "1/s"),
            f"{self.PREFIX}_wall_p50_ms": (percentile(calls, 50), "ms"),
            "output_nll_per_token": (self._nll(), "nats"),
            "beam_output_changed": (self.changed, "count"),
            "beam_output_compared": (self.compared, "count"),
            **self._detect_named(),
        }

    def _detect_named(self) -> dict[str, tuple[float, str]]:
        per_query = self.rec.unit_medians("detect.ms").values()
        return {"detect_qps": (rate(1e3, median(list(per_query))), "1/s"),
                "detect_f1": (f1_score(self.preds, self.gold), "1")}

    def headline(self) -> dict[str, tuple[float, str]]:
        return {"p50_ms": (self._p50_ms(), "ms"),
                "throughput_per_s": (self._batch_qps(), "1/s"),
                "loss": (self._nll(), "nats")}

    def quality_ok(self) -> bool:
        return f1_score(self.preds, self.gold) >= MIN_DETECT_F1


class ServeInt8(Serve):
    """serve's single-query and translate_corpus passes on the int8 copy of
    the teacher (quantize_model), which dequantizes its weights as it runs;
    no language detection."""

    NAME = "int8"
    PREFIX = "translate_int8"

    def load_model(self):
        return quant.quantize_model(super().load_model())

    def setup_extra(self) -> None:
        pass

    def _detect(self, i: int, first_pass: bool, tracer) -> None:
        pass

    def _detect_named(self) -> dict[str, tuple[float, str]]:
        return {}

    def quality_ok(self) -> bool:
        return True


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _stage2_train_tokens(clean, rng_seed: int, config: TrainingConfig) -> int:
    """Target tokens of the examples train_stage2 trains on: it holds out
    round(val_fraction * n) examples chosen by the first child stream of
    the rng it is given."""
    split_rng, _ = make_rng(rng_seed).spawn(2)
    order = split_rng.permutation(len(clean))
    n_val = max(1, int(round(config.stage2.val_fraction * len(clean))))
    return inputs.target_tokens([clean[i] for i in order[n_val:]])


class Train:
    """Training jobs, each on a fresh 2+2 d64 model: train_stage1
    (DROPCHAR/AUTOENCODER/MASK), then train_stage2 with its validation
    split and early stop; then train_crf on a langid split, scored on
    held-out queries. A pass runs every job once."""

    SIZES = {"full": dict(jobs=2, noisy=256, clean=160, s2_epochs=4,
                          crf_train=120, crf_test=200, crf_epochs=3, trace=2),
             "tiny": dict(jobs=1, noisy=64, clean=20, s2_epochs=1,
                          crf_train=16, crf_test=16, crf_epochs=1, trace=1)}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.pass_cycles = self.size["jobs"]
        self.clock = Clock()
        s = self.size
        self.config = TrainingConfig(
            stage1=StageConfig(epochs=1),
            stage2=StageConfig(epochs=s["s2_epochs"], patience=2,
                               kinds=DEFAULT_STAGE2_KINDS))

    def setup(self, tracer) -> None:
        s = self.size
        with tracer.phase("setup"):
            self.model_config = Seq2SeqConfig(vocab=synthetic_vocab(inputs.TASK))
            self.chunks = inputs.train_chunks(self.seed, s["jobs"],
                                              s["noisy"], s["clean"])
            self.crf_chunks = inputs.langid_splits(
                self.seed, s["crf_train"], s["crf_test"])[:s["jobs"]]
            warm = init_model(self.model_config, make_rng(0))
            warm_cfg = TrainingConfig(stage1=StageConfig(epochs=1,
                                                         batch_size=16))
            train_stage1(warm, self.chunks[0][0][:16], warm_cfg, make_rng(0))
            train_crf(self.crf_chunks[0][0][:8], epochs=1, rng=make_rng(0))
        self.rec = Record(self.clock)
        self.tokens: dict[int, int] = {}
        self.final_loss: dict[int, float] = {}
        self.preds: list[QueryLanguage] = []
        self.gold: list[QueryLanguage] = []

    def cycle(self, k: int, tracer) -> None:
        s, rec = self.size, self.rec
        j = k % s["jobs"]
        noisy, clean = self.chunks[j]
        job = self.seed * 1000 + j
        model = init_model(self.model_config, make_rng(job))
        with tracer.phase("seq2seq"), self.clock.time() as t:
            reps = rec.run("train_stage1+2", self._train, model, noisy, clean,
                           job)
        with tracer.paused():
            if reps is not None:
                rec.check("train check", self._check_train, j, noisy, clean,
                          job, t, *reps)

        crf_train, crf_test = self.crf_chunks[j]
        with tracer.phase("crf"), self.clock.time() as t:
            crf = rec.run("train_crf", train_crf, crf_train,
                          epochs=s["crf_epochs"], rng=make_rng(job))
        if crf is None:
            return
        grads = len(crf_train) * s["crf_epochs"]
        rec.add_unit("crf.ms_per_grad", j, t, grads)
        if k >= s["jobs"]:
            return
        with tracer.phase("detect"):
            for query in crf_test:
                text = " ".join(tok.word for tok in query)
                lang = rec.run("detect", detect_query_language, crf, text)
                if lang is not None:
                    self.preds.append(lang)
                    self.gold.append(query_gold_language(query))

    def _train(self, model, noisy, clean, job: int):
        rep1 = train_stage1(model, noisy, self.config, make_rng(job + 1))
        rep2 = train_stage2(model, clean, self.config, make_rng(job + 2))
        return rep1, rep2

    def _check_train(self, j, noisy, clean, job, t, rep1, rep2) -> None:
        """Losses must be finite, and a job run again must end at the same
        loss."""
        losses = [e.train_loss for e in rep1.epochs + rep2.epochs]
        losses += [e.val_loss for e in rep2.epochs]
        if not all_finite(losses):
            self.rec.fail(f"train job {j}: non-finite loss {losses}")
            return
        final = rep2.epochs[-1].train_loss
        if j in self.final_loss and final != self.final_loss[j]:
            self.rec.fail(f"train job {j}: final loss {final} on a later "
                          f"pass, {self.final_loss[j]} first")
            return
        self.final_loss[j] = final
        self.tokens[j] = (inputs.target_tokens(noisy) * len(rep1.epochs)
                          + _stage2_train_tokens(clean, job + 2, self.config)
                          * len(rep2.epochs))
        self.rec.add("train.ms", t.ms)
        self.rec.add("train.tokens", self.tokens[j])
        self.rec.add_unit("train.ms", j, t)

    def _tokens_per_s(self) -> float:
        """Trained tokens per second, from each job's normalized time."""
        job_ms = self.rec.unit_medians("train.ms")
        return rate(sum(self.tokens[j] for j in job_ms),
                    sum(job_ms.values()) / 1e3)

    def _crf_p50_ms(self) -> float:
        """Median over jobs of the normalized ms per query-gradient."""
        return median(list(self.rec.unit_medians("crf.ms_per_grad").values()))

    def named(self) -> dict[str, tuple[float, str]]:
        r = self.rec
        return {
            "train_tokens_per_s": (self._tokens_per_s(), "1/s"),
            "crf_train_qps": (rate(1e3, self._crf_p50_ms()), "1/s"),
            "train_wall_tokens_per_s": (
                rate(r.total("train.tokens"), r.total("train.ms") / 1e3),
                "1/s"),
            "final_loss": (median(list(self.final_loss.values())), "nats"),
            "detect_f1": (f1_score(self.preds, self.gold), "1"),
        }

    def headline(self) -> dict[str, tuple[float, str]]:
        return {"p50_ms": (self._crf_p50_ms(), "ms"),
                "throughput_per_s": (self._tokens_per_s(), "1/s"),
                "loss": (median(list(self.final_loss.values())), "nats")}

    def quality_ok(self) -> bool:
        return f1_score(self.preds, self.gold) >= MIN_DETECT_F1


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------

class Distill:
    """train_student jobs with JS KD from the committed teacher into a
    fresh 1+1 d64 student: beam pseudo-labelling of a pool, the teacher's
    teacher-forced forward under no_grad, three student forwards a step.
    A pass runs every job once."""

    SIZES = {"full": dict(jobs=2, clean=192, per_length=3, epochs=2, trace=2),
             "tiny": dict(jobs=1, clean=16, per_length=1, epochs=1, trace=1)}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.size = self.SIZES[size]
        self.pass_cycles = self.size["jobs"]
        self.clock = Clock()
        self.config = DistillConfig(epochs=self.size["epochs"])

    def setup(self, tracer) -> None:
        s = self.size
        with tracer.phase("setup"):
            self.teacher = checkpoint.load_checkpoint(ARTIFACTS / "teacher")
            self.student_config = Seq2SeqConfig(
                vocab=self.teacher.config.vocab, n_enc_layers=1,
                n_dec_layers=1)
            self.chunks = inputs.distill_chunks(self.seed, s["jobs"],
                                                s["clean"], s["per_length"])
            clean, pool = self.chunks[0]
            train_student(self.student_config, self.teacher, clean[:8],
                          pool[:2], KDKind.JS, make_rng(0),
                          DistillConfig(epochs=1, batch_size=8))
        self.rec = Record(self.clock)
        self.final_loss: dict[int, float] = {}
        self.skipped: dict[int, float] = {}

    def cycle(self, k: int, tracer) -> None:
        rec = self.rec
        j = k % self.size["jobs"]
        clean, pool = self.chunks[j]
        with tracer.phase("distill"), self.clock.time() as t:
            out = rec.run("train_student", train_student, self.student_config,
                          self.teacher, clean, pool, KDKind.JS,
                          make_rng(self.seed * 1000 + j), self.config)
        if out is None:
            return
        with tracer.paused():
            rec.check("distill check", self._check, j, pool, t, out[1])

    def _steps(self, j: int) -> int:
        clean = self.chunks[j][0]
        return math.ceil(len(clean) / self.config.batch_size) * self.config.epochs

    def _check(self, j, pool, t, report) -> None:
        """The expected number of steps, finite losses, and the same final
        loss when a job runs again."""
        losses = [v for st in report.steps
                  for v in (st.loss_s, st.loss_d, st.loss_kd)]
        if len(report.steps) != self._steps(j) or not all_finite(losses):
            self.rec.fail(f"distill job {j}: {len(report.steps)} steps, "
                          f"finite={all_finite(losses)}")
            return
        last, lam = report.epoch_means[-1], self.config.lam
        final = ((1 - lam) * (last["loss_s"] + last["loss_d"])
                 + lam * last["loss_kd"])
        if j in self.final_loss and final != self.final_loss[j]:
            self.rec.fail(f"distill job {j}: final loss {final} on a later "
                          f"pass, {self.final_loss[j]} first")
            return
        self.final_loss[j] = final
        self.skipped[j] = report.skipped_sources / len(pool)
        self.rec.add("distill.ms", t.ms)
        self.rec.add("distill.tokens", self._tokens(j))
        self.rec.add_unit("distill.ms", j, t)

    def _tokens(self, j: int) -> int:
        return inputs.target_tokens(self.chunks[j][0]) * self.config.epochs

    def _tokens_per_s(self) -> float:
        """Trained tokens per second, from each job's normalized time."""
        job_ms = self.rec.unit_medians("distill.ms")
        return rate(sum(self._tokens(j) for j in job_ms),
                    sum(job_ms.values()) / 1e3)

    def _ms_per_step(self) -> float:
        """Median over jobs of the normalized ms per optimizer step."""
        job_ms = self.rec.unit_medians("distill.ms")
        return median([ms / self._steps(j) for j, ms in job_ms.items()])

    def named(self) -> dict[str, tuple[float, str]]:
        r = self.rec
        return {
            "train_tokens_per_s": (self._tokens_per_s(), "1/s"),
            "train_wall_tokens_per_s": (rate(r.total("distill.tokens"),
                                             r.total("distill.ms") / 1e3),
                                        "1/s"),
            "final_loss": (median(list(self.final_loss.values())), "nats"),
            "pseudo_label_skipped_ratio": (
                float(np.mean(list(self.skipped.values()) or [0.0])), "1"),
        }

    def headline(self) -> dict[str, tuple[float, str]]:
        return {"p50_ms": (self._ms_per_step(), "ms"),
                "throughput_per_s": (self._tokens_per_s(), "1/s"),
                "loss": (median(list(self.final_loss.values())), "nats")}

    def quality_ok(self) -> bool:
        return True


WORKLOADS = {"serve": Serve, "serve_int8": ServeInt8, "train": Train,
             "distill": Distill}
