"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT,
              size: str = "tiny") -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", size]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def results_file(workload: str, seed: int, trace: int) -> dict:
    path = BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def tiny_runs():
    """Untraced and traced tiny runs of every workload, seeds 1 and 2."""
    out = {}
    for w in WORKLOADS:
        for seed in (1, 2):
            out[(w, seed, 0)] = last_json(run_bench(w, seed, 0))
        out[(w, 1, 1)] = last_json(run_bench(w, 1, 1))
        out[(w, "phases")] = results_file(w, 1, 1)["tallies_by_phase"]
        out[(w, "info")] = results_file(w, 1, 0)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(tiny_runs, workload):
    result = tiny_runs[(workload, 1, 0)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_every_per_layer_metric(tiny_runs, workload):
    result = tiny_runs[(workload, 1, 1)]
    assert result["correct"] is True and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_same_metric_set(tiny_runs, workload):
    a, b = tiny_runs[(workload, 1, 0)], tiny_runs[(workload, 2, 0)]
    assert set(a["metrics"]) == set(b["metrics"])


def test_other_seed_other_inputs():
    assert inputs.serve_chunks(1, 2) != inputs.serve_chunks(2, 2)
    assert inputs.serve_chunks(1, 2) == inputs.serve_chunks(1, 2)
    assert ([q[0].word for q in inputs.detect_queries(1, 5)]
            != [q[0].word for q in inputs.detect_queries(2, 5)])
    t1, t2 = inputs.train_chunks(1, 1, 8, 8), inputs.train_chunks(2, 1, 8, 8)
    assert [e.source for e in t1[0][0]] != [e.source for e in t2[0][0]]
    assert [e.source for e in t1[0][1]] != [e.source for e in t2[0][1]]
    d1, d2 = inputs.distill_chunks(1, 1, 8, 4), inputs.distill_chunks(2, 1, 8, 4)
    assert d1[0][1] != d2[0][1]


def test_serve_chunks_hold_every_length_once():
    for chunk in inputs.serve_chunks(3, 4):
        assert sorted(len(q.split()) for q in chunk) == list(inputs.SERVE_LENGTHS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_environment_recorded(tiny_runs, workload):
    env = tiny_runs[(workload, "info")]["env"]
    for key in ("python", "numpy", "cpu", "nproc"):
        assert env[key]


def test_layers_separate_on_tiny_runs(tiny_runs):
    train = tiny_runs[("train", 1, 1)]["metrics"]
    assert train["beam.calls"]["value"] == 0
    assert train["train.steps"]["value"] > 0
    serve = tiny_runs[("serve", 1, 1)]["metrics"]
    assert serve["beam.calls"]["value"] > 0
    assert serve["numerics.backward.ms"]["value"] == 0
    assert serve["quant.dequantize.calls"]["value"] == 0
    int8 = tiny_runs[("serve_int8", 1, 1)]["metrics"]
    assert int8["quant.dequantize.calls"]["value"] > 0
    assert int8["numerics.backward.ms"]["value"] == 0
    distill = tiny_runs[("distill", 1, 1)]["metrics"]
    assert distill["distill.teacher_forward.ms"]["value"] > 0
    for w in WORKLOADS:
        for phase, tallies in tiny_runs[(w, "phases")].items():
            if "int8" not in phase:
                assert tallies.get("quant.dequantize.calls", 0) == 0, (w, phase)
    assert any(t.get("quant.dequantize.calls", 0) > 0
               for t in tiny_runs[("serve_int8", "phases")].values())


class _Counter:
    pass_cycles = 3

    def __init__(self):
        self.seen = []

    def cycle(self, k, tracer):
        self.seen.append(k)


def test_measure_runs_a_whole_pass():
    wl = _Counter()
    assert run.measure(wl, 0.0, workloads.NullTracer()) == 3
    assert wl.seen == [0, 1, 2]


def test_clock_scales_by_the_nearest_kernel_runs():
    clock = workloads.Clock()
    with clock.time() as t:
        sum(range(10000))
    assert t.ms > 0 and len(clock.kernel) == 2
    nominal = workloads.NOMINAL_KERNEL_MS
    # A host twice as slow as the nominal one halves every time; only
    # the KERNEL_WINDOW runs nearest a block count.
    clock.kernel = [100.0] * 50 + [2 * nominal] * 40
    late = workloads.Timing(ms=10.0, at=70)
    assert clock.normalized_ms(late) == pytest.approx(5.0)
    rec = workloads.Record(clock)
    for ms in (30.0, 10.0, 20.0):
        rec.add_unit("x", "a", workloads.Timing(ms=ms, at=70))
    rec.add_unit("x", "b", workloads.Timing(ms=40.0, at=80), per=4)
    assert rec.unit_medians("x") == pytest.approx({"a": 10.0, "b": 5.0})


def test_tracer_restores_and_untraced_cycle_runs_no_wrapper():
    from codemix.seq2seq import decode as decode_mod
    original = decode_mod.beam_search
    assert spans.installed_wrappers() == []
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert decode_mod.beam_search is not original
        assert spans.installed_wrappers()
    finally:
        tracer.restore()
    assert decode_mod.beam_search is original
    assert spans.installed_wrappers() == []
    wl = workloads.Serve(1, "tiny")
    wl.setup(workloads.NullTracer())
    wl.cycle(0, workloads.NullTracer())
    assert not tracer.spans and not tracer.tallies
    assert wl.rec.failed == 0


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    total, own = tracer.span_ms()
    assert own["outer"] == pytest.approx(total["outer"] - total["inner"])
    assert own["inner"] == pytest.approx(total["inner"])


def _copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_refuses_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = run_bench("serve", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_refuses_stale_artifact(tmp_path):
    _copy_checkout(tmp_path, with_src=True)
    crf = tmp_path / "perfbench" / "artifacts" / "crf.json"
    crf.write_text(crf.read_text(encoding="utf-8") + " ", encoding="utf-8")
    proc = run_bench("serve", 0, 0, cwd=tmp_path)
    assert proc.returncode == 3
    assert "SHA256SUMS" in proc.stderr
