"""The file check of scripts_calib/bench_record.py on a tiny written
record: every workload and end-to-end metric of BENCHMARK.json over at
least five seeds, summaries that match their values, a traced run per
workload, the commit and env set, and stale rows that BENCHMARK.json
lists."""

import copy
import importlib.util
import json
import sys
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parents[1] / "scripts_calib"
sys.path.insert(0, str(_SCRIPTS))  # bench_record imports ab_jobs
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", _SCRIPTS / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)
sys.path.remove(str(_SCRIPTS))

BENCH = bench_record.benchmark()


def tiny_record() -> dict:
    seeds = list(range(bench_record.MIN_SEEDS))
    layer = BENCH["per_layer"][0]
    workload = {
        "metrics": {m["name"]: bench_record.summary(
            [1.0 + i + 0.5 * s for s in seeds], m["unit"])
            for i, m in enumerate(BENCH["end_to_end"])},
        "correct": [True] * len(seeds), "failed": [0] * len(seeds),
        "trace": {"seed": 0, "correct": True, "failed": 0,
                  "per_layer": {layer["name"]: {"value": 3,
                                                "unit": layer["unit"]}}},
    }
    return {"label": "tiny", "commit": "0" * 40, "dirty": False,
            "env": {"python": "3", "numpy": "2"}, "envs_agree": True,
            "seeds": seeds, "seconds": 1.0, "note": bench_record.NOTE,
            "workloads": {w["name"]: copy.deepcopy(workload)
                          for w in BENCH["workloads"]},
            "stale_rows": [{"row": r, "why": w}
                           for r, w in bench_record.STALE_ROWS.items()]}


def test_tiny_written_record_passes(tmp_path):
    path = tmp_path / "BENCH_tiny.json"
    path.write_text(json.dumps(tiny_record()), encoding="utf-8")
    bench_record.check_record(json.loads(path.read_text(encoding="utf-8")),
                              BENCH)


def _drop_metric(rec):
    del rec["workloads"]["train"]["metrics"]["peak_rss_mb"]


def _short_values(rec):
    for s in rec["workloads"]["serve"]["metrics"].values():
        s["values"].pop()


def _stale_median(rec):
    rec["workloads"]["distill"]["metrics"]["loss"]["median"] += 1.0


def _unknown_stale_row(rec):
    rec["stale_rows"].append({"row": "no.such.row", "why": "-"})


# an edit of the tiny record -> the start of the error it must raise
BROKEN = {
    "workload-missing": (lambda r: r["workloads"].pop("serve_int8"),
                         "workload serve_int8 missing"),
    "metric-missing": (_drop_metric, "train: metric peak_rss_mb missing"),
    "commit-unset": (lambda r: r.update(commit=""), "commit is not"),
    "env-unset": (lambda r: r.update(env={}), "env is not set"),
    "four-seeds": (lambda r: r.update(seeds=r["seeds"][:4]),
                   "fewer than 5 seeds"),
    "value-missing": (_short_values, "serve setup_s: not one value per seed"),
    "summary-off": (_stale_median, "distill loss: summary does not match"),
    "no-trace-table": (lambda r: r["workloads"]["train"]["trace"].update(
        per_layer={}), "train: traced run has no per-layer table"),
    "unknown-stale-row": (_unknown_stale_row, "stale_rows empty or naming"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_record_is_refused(case):
    edit, message = BROKEN[case]
    rec = tiny_record()
    edit(rec)
    with pytest.raises(ValueError, match="BENCH record: " + message):
        bench_record.check_record(rec, BENCH)
