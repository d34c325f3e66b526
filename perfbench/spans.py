"""Tracing for the benchmark's traced run, installed from outside codemix.

A Tracer wraps codemix functions and methods at the names callers look
them up by, records a span (name, phase, parent, start, end) around each
layer call, and keeps tallies (counts and accumulated milliseconds) for
calls too frequent to keep one span each. `restore()` puts every original
back. The untraced run never creates a Tracer, so no wrapper runs there;
`installed_wrappers()` checks that none is left in place.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from codemix import checkpoint, distill, langid, quant, train
from codemix.langid import CRFModel
from codemix.numerics import tensor as tensor_mod
from codemix.numerics.tensor import Tensor, grad_enabled
from codemix.seq2seq import decode as decode_mod
from codemix.seq2seq import loss as loss_mod
from codemix.seq2seq import model as model_mod
from codemix.seq2seq.model import Seq2SeqModel

_MARK = "__perfbench_wrapper__"
_HERE = Path(__file__).resolve().parent
NUMERIC_OPS = ("linear", "matmul", "softmax", "log_softmax", "layer_norm",
               "gelu", "gather_rows")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, str, int, float, float]] = []
        self.tallies: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []       # indices of open spans
        self._open: dict[str, int] = defaultdict(int)
        self._phases: list[str] = ["-"]
        self._paused = 0
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- recording -------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        self.tallies[(self._phases[-1], name)] += value

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, self._phases[-1], parent,
                           time.perf_counter(), float("nan")))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def end(self, idx: int) -> float:
        name, phase, parent, start, _ = self.spans[idx]
        stop = time.perf_counter()
        self.spans[idx] = (name, phase, parent, start, stop)
        self._stack.pop()
        self._open[name] -= 1
        return (stop - start) * 1e3

    def inside(self, name: str) -> bool:
        return self._open[name] > 0

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextlib.contextmanager
    def phase(self, name: str):
        """Attribute tallies to `name` and record a span around it."""
        self._phases.append(name)
        try:
            with self.span("phase." + name):
                yield
        finally:
            self._phases.pop()

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                ms = tracer.end(idx)
            if after is not None:
                after(args, out, ms)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _tallied(self, name: str, fn, after=None):
        """Count calls and milliseconds; calls nested in an open call of
        the same name are not counted twice."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused or tracer._open[name]:
                return fn(*args, **kwargs)
            tracer._open[name] += 1
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ms = (time.perf_counter() - t0) * 1e3
                tracer._open[name] -= 1
            tracer.add(name + ".calls")
            tracer.add(name + ".ms", ms)
            if after is not None:
                after(args, out, ms)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _counted(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer._paused:
                tracer.add(name)
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _patch_attr(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        callers = _caller_modules()

        def fn(module, attr: str, make) -> None:
            """Replace `module.attr` in every caller module that bound it."""
            original = getattr(module, attr)
            wrapper = make(original)
            for mod in callers:
                if mod.__dict__.get(attr) is original:
                    self._patch_attr(mod, attr, wrapper)

        # seq2seq model
        def after_decode(args, out, ms):
            if self.inside("beam"):
                dec_in = np.asarray(args[3])
                self.add("seq2seq.decode.positions", dec_in.size)

        def after_forward(args, out, ms):
            if not grad_enabled() and self.inside("distill.train_student"):
                self.add("distill.teacher_forward.ms", ms)

        for meth, after in (("encode", None), ("decode", after_decode),
                            ("forward", after_forward)):
            self._patch_attr(Seq2SeqModel, meth, self._spanned(
                "seq2seq." + meth, Seq2SeqModel.__dict__[meth], after))
        fn(loss_mod, "label_smoothed_ce",
           lambda f: self._spanned("seq2seq.loss", f, self._after_loss))
        for attr in ("make_batch", "pad_batch"):
            fn(model_mod, attr,
               lambda f: self._tallied("seq2seq.make_batch", f))

        # beam search
        fn(decode_mod, "beam_search",
           lambda f: self._spanned("beam", f, self._after_beam))

        # numerics
        self._patch_attr(Tensor, "__init__", self._counted(
            "numerics.tensors_created", Tensor.__dict__["__init__"]))
        self._patch_attr(Tensor, "backward", self._spanned(
            "numerics.backward", Tensor.__dict__["backward"]))
        fn(tensor_mod, "_assert_finite",
           lambda f: self._tallied("numerics.finite_check", f))
        for op in NUMERIC_OPS:
            fn(tensor_mod, op,
               lambda f, op=op: self._tallied("numerics." + op, f))
        fn(sys.modules["codemix.numerics.optim"], "adamw_step",
           lambda f: self._spanned("numerics.optim", f))

        # quantization, checkpoints, augmentation, training
        fn(quant, "dequantize",
           lambda f: self._tallied("quant.dequantize", f, self._after_dequant))
        fn(checkpoint, "load_checkpoint",
           lambda f: self._spanned("checkpoint.load", f))
        fn(sys.modules["codemix.augment"], "sample_augmented_batch",
           lambda f: self._spanned("augment.sample", f))
        fn(train, "evaluate_loss",
           lambda f: self._spanned("train.evaluate", f))
        fn(sys.modules["codemix.numerics.optim"], "step_tensors",
           lambda f: self._counted("train.steps", f))

        # distillation
        fn(distill, "train_student",
           lambda f: self._spanned("distill.train_student", f))
        fn(distill, "generate_pseudo_labels",
           lambda f: self._spanned("distill.pseudo_label", f,
                                   self._after_pseudo))

        # language detection
        fn(langid, "extract_features",
           lambda f: self._tallied("langid.extract_features", f))
        fn(langid, "crf_nll_grad",
           lambda f: self._spanned("langid.nll_grad", f, self._after_nll))
        fn(langid, "viterbi",
           lambda f: self._spanned("langid.viterbi", f, self._after_viterbi))
        self._patch_attr(CRFModel, "emissions", self._spanned(
            "langid.emissions", CRFModel.__dict__["emissions"]))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- per-call details -------------------------------------------------

    def _after_loss(self, args, out, ms):
        if grad_enabled():
            labels = np.asarray(args[1])
            self.add("train.tokens", int((labels != 0).sum()))

    def _after_beam(self, args, result, ms):
        self.add("beam.calls")
        self.add("beam.tokens_out", len(result.ids) + int(result.finished))
        self.add("beam.unfinished", int(not result.finished))

    def _after_dequant(self, args, out, ms):
        self.add("quant.dequantize.mb", out.size * 4 / 1e6)

    def _after_pseudo(self, args, out, ms):
        self.add("distill.pseudo_label.sources", len(args[1]))
        self.add("distill.pseudo_label.skipped", len(out[1]))

    def _after_nll(self, args, out, ms):
        self.add("langid.tokens", len(args[1]))

    def _after_viterbi(self, args, out, ms):
        self.add("langid.tokens", len(args[1]))

    # -- results ----------------------------------------------------------

    def span_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total ms, self ms) per span name; self time is a span's
        duration minus the durations of its direct children."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, _, parent, start, stop in self.spans:
            dur = (stop - start) * 1e3
            total[name] += dur
            if parent >= 0:
                child[parent] += dur
        own: dict[str, float] = defaultdict(float)
        for i, (name, _, _, start, stop) in enumerate(self.spans):
            own[name] += (stop - start) * 1e3 - child[i]
        return dict(total), dict(own)

    def span_calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return dict(out)

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for (_, name), v in self.tallies.items():
            out[name] += v
        return dict(out)

    def by_phase(self) -> dict[str, dict[str, float]]:
        out: dict[str, dict[str, float]] = defaultdict(dict)
        for (phase, name), v in sorted(self.tallies.items()):
            out[phase][name] = v
        return dict(out)

    def write(self, path) -> None:
        """One JSON line per span, then one with the per-phase tallies."""
        with open(path, "w", encoding="utf-8") as f:
            for name, phase, parent, start, stop in self.spans:
                f.write(json.dumps({
                    "name": name, "phase": phase, "parent": parent,
                    "start_ms": round((start - self.t0) * 1e3, 4),
                    "end_ms": round((stop - self.t0) * 1e3, 4)}) + "\n")
            f.write(json.dumps({"tallies": self.by_phase()}) + "\n")


def _caller_modules() -> list:
    """codemix's modules and the benchmark's own: every place a traced
    function can be looked up by name."""
    out = []
    for name, mod in list(sys.modules.items()):
        path = getattr(mod, "__file__", None) or ""
        if (name == "codemix" or name.startswith("codemix.")
                or Path(path).resolve().parent == _HERE):
            out.append(mod)
    return out


def installed_wrappers() -> list[str]:
    """Names of attributes that currently hold a tracer wrapper."""
    found = []
    owners = _caller_modules() + [Seq2SeqModel, Tensor, CRFModel]
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if hasattr(value, _MARK):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found
