"""The per-layer metrics a traced run prints. The names and units here are
the ones BENCHMARK.json lists."""

from __future__ import annotations

from spans import NUMERIC_OPS


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(tracer, workload, overhead: float
              ) -> dict[str, tuple[float, str]]:
    total_ms, self_ms = tracer.span_ms()
    calls = tracer.span_calls()
    t = tracer.totals()

    def ms(span: str) -> float:
        return total_ms.get(span, 0.0)

    out: dict[str, tuple[float, str]] = {
        "seq2seq.encode.calls": (calls.get("seq2seq.encode", 0), "count"),
        "seq2seq.encode.ms": (ms("seq2seq.encode"), "ms"),
        "seq2seq.decode.calls": (calls.get("seq2seq.decode", 0), "count"),
        "seq2seq.decode.ms": (ms("seq2seq.decode"), "ms"),
        "seq2seq.decode.positions": (t.get("seq2seq.decode.positions", 0),
                                     "count"),
        "seq2seq.decode.positions_per_token": (
            _ratio(t.get("seq2seq.decode.positions", 0),
                   t.get("beam.tokens_out", 0)), "1"),
        "seq2seq.forward.ms": (ms("seq2seq.forward"), "ms"),
        "seq2seq.loss.ms": (ms("seq2seq.loss"), "ms"),
        "seq2seq.make_batch.ms": (t.get("seq2seq.make_batch.ms", 0.0), "ms"),
        "beam.calls": (t.get("beam.calls", 0), "count"),
        "beam.ms": (ms("beam"), "ms"),
        "beam.self_ms": (self_ms.get("beam", 0.0), "ms"),
        "beam.tokens_out": (t.get("beam.tokens_out", 0), "count"),
        "beam.unfinished": (t.get("beam.unfinished", 0), "count"),
        "beam.output_changed": (getattr(workload, "changed", 0), "count"),
        "numerics.tensors_created": (t.get("numerics.tensors_created", 0),
                                     "count"),
        "numerics.finite_check.ms": (t.get("numerics.finite_check.ms", 0.0),
                                     "ms"),
    }
    for op in NUMERIC_OPS:
        out[f"numerics.{op}.calls"] = (t.get(f"numerics.{op}.calls", 0),
                                       "count")
        out[f"numerics.{op}.ms"] = (t.get(f"numerics.{op}.ms", 0.0), "ms")
    out.update({
        "numerics.backward.ms": (ms("numerics.backward"), "ms"),
        "numerics.optim.ms": (ms("numerics.optim"), "ms"),
        "quant.dequantize.calls": (t.get("quant.dequantize.calls", 0),
                                   "count"),
        "quant.dequantize.ms": (t.get("quant.dequantize.ms", 0.0), "ms"),
        "quant.dequantize.mb": (t.get("quant.dequantize.mb", 0.0), "MB"),
        "checkpoint.load.ms": (ms("checkpoint.load"), "ms"),
        "augment.sample.calls": (calls.get("augment.sample", 0), "count"),
        "augment.sample.ms": (ms("augment.sample"), "ms"),
        "train.steps": (t.get("train.steps", 0), "count"),
        "train.tokens": (t.get("train.tokens", 0), "count"),
        "train.evaluate.ms": (ms("train.evaluate"), "ms"),
        "distill.pseudo_label.ms": (ms("distill.pseudo_label"), "ms"),
        "distill.pseudo_label.skipped_ratio": (
            _ratio(t.get("distill.pseudo_label.skipped", 0),
                   t.get("distill.pseudo_label.sources", 0)), "1"),
        "distill.teacher_forward.ms": (t.get("distill.teacher_forward.ms",
                                             0.0), "ms"),
        "langid.extract_features.calls": (
            t.get("langid.extract_features.calls", 0), "count"),
        "langid.extract_features.ms": (
            t.get("langid.extract_features.ms", 0.0), "ms"),
        "langid.features_per_token": (
            _ratio(t.get("langid.extract_features.calls", 0),
                   t.get("langid.tokens", 0)), "1"),
        "langid.nll_grad.ms": (ms("langid.nll_grad"), "ms"),
        "langid.emissions.ms": (ms("langid.emissions"), "ms"),
        "langid.viterbi.ms": (ms("langid.viterbi"), "ms"),
        "trace.overhead_ratio": (overhead, "1"),
    })
    return out
