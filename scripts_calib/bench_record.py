"""Record the benchmark at this checkout in BENCH_<label>.json.

    python3 scripts_calib/bench_record.py --label baseline --seeds 5 --seconds 20

For each workload of BENCHMARK.json and each seed 0 .. N-1, runs
`perfbench/run.py --trace 0` in a fresh process (as ab_jobs.py launches
its processes: BLAS pinned to one thread, no PYTHONPATH), seed by seed
with the workloads in turn, then one `--trace 1` run per workload at
seed 0. BENCH_<label>.json, at the repository root, holds:

  - for each workload and end-to-end metric of BENCHMARK.json: the
    median, the quartiles, the interquartile range and the per-seed
    values, with each run's correctness and failed-operation count;
  - each workload's traced run: its per-layer table;
  - the commit (`git rev-parse HEAD`), `dirty` (whether src/, perfbench/
    or BENCHMARK.json differ from it, untracked files included) and the
    env that perfbench/run.py reports;
  - `stale_rows`: the per-layer rows that do not measure their subject
    today, each with the reason, so that nobody reads their 0 as a
    speed-up.

The file is checked (`check_record`) before it is written. Files recorded
on different days on a shared host give an indicative trajectory, not a
comparison: a change is compared with its parent by alternating pairs
(ab_jobs.py, or perfbench/run.py on both trees).
"""
import argparse
import json
import subprocess
import sys

from ab_jobs import ROOT, quartiles, run_fresh

MIN_SEEDS = 5
NOTE = ("Medians over seeds, each a fresh process, on one host at one time; "
        "files from different days on a shared host are an indicative "
        "trajectory, not a comparison.")
# Per-layer rows that do not measure what their names say (their tracer
# wraps names the package no longer calls on these paths): row -> why.
STALE_ROWS = {
    "seq2seq.decode.positions": (
        "counts Seq2SeqModel.decode calls inside beam_search; the cached "
        "decoder steps through decode_step, so it reads 0"),
    "seq2seq.decode.positions_per_token": (
        "the ratio of seq2seq.decode.positions, which reads 0"),
    "beam.calls": ("counts beam_search only, not beam_search_batch "
                   "(translate_corpus, pseudo-labelling): 0 on distill"),
    "beam.tokens_out": "counts beam_search only, not beam_search_batch",
    "beam.unfinished": "counts beam_search only, not beam_search_batch",
    **{f"numerics.{op}.{unit}": (
        f"counts the tape op `{op}` only, not the plain-array helpers the "
        f"model's blocks and cached decoder run (_linear_np, "
        f"layer_norm_forward, gelu_forward, attention_probs)")
       for op in ("linear", "layer_norm", "gelu", "softmax")
       for unit in ("calls", "ms")},
    "langid.extract_features.calls": (
        "train_crf and CRFModel.feature_ids build ids through "
        "_word_features, not extract_features: reads 0"),
    "langid.extract_features.ms": "reads 0, as langid.extract_features.calls",
    "langid.features_per_token": (
        "the ratio of langid.extract_features.calls, which reads 0"),
    "langid.nll_grad.ms": ("wraps crf_nll_grad; train_crf calls "
                           "crf_batch_grad, so it reads 0"),
    "langid.emissions.ms": (
        "wraps CRFModel.emissions, which only held-out detection calls; "
        "training gathers through langid._emission_sums"),
}


def benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_workload(workload: str, seed: int, seconds: float, trace: int
                 ) -> tuple[dict, dict]:
    """One perfbench/run.py run in a fresh process: (its result, the last
    line of its stdout; the env its results file records)."""
    out = run_fresh(["perfbench/run.py", "--workload", workload, "--seed",
                     str(seed), "--seconds", str(seconds), "--trace",
                     str(trace)])
    result = json.loads(out.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}"
    info = json.loads((ROOT / "perfbench" / "results" / f"{stem}.json")
                      .read_text(encoding="utf-8"))
    return result, info["env"]


def summary(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3,
            "iqr": q3 - q1, "values": values}


def record(label: str, seeds: int, seconds: float) -> dict:
    bench = benchmark()
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in names}
    envs = []
    for seed in range(seeds):
        for w in names:
            result, env = run_workload(w, seed, seconds, 0)
            runs[w].append(result)
            envs.append(env)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
    workloads = {}
    for w in names:
        traced, _ = run_workload(w, 0, seconds, 1)
        print(f"{w} traced: correct={traced['correct']}", flush=True)
        workloads[w] = {
            "metrics": {m["name"]: summary(
                [r["metrics"][m["name"]]["value"] for r in runs[w]],
                m["unit"]) for m in bench["end_to_end"]},
            "correct": [r["correct"] for r in runs[w]],
            "failed": [r["failed"] for r in runs[w]],
            "trace": {"seed": 0, "correct": traced["correct"],
                      "failed": traced["failed"],
                      "per_layer": traced["metrics"]},
        }
    return {
        "label": label, "commit": git("rev-parse", "HEAD"),
        "dirty": bool(git("status", "--porcelain", "--", "src",
                          "perfbench", "BENCHMARK.json")),
        "env": envs[0], "envs_agree": all(e == envs[0] for e in envs),
        "seeds": list(range(seeds)), "seconds": seconds, "note": NOTE,
        "workloads": workloads,
        "stale_rows": [{"row": row, "why": why}
                       for row, why in STALE_ROWS.items()],
    }


def check_record(rec: dict, bench: dict) -> None:
    """Raise ValueError unless `rec` holds every workload and end-to-end
    metric of `bench` over at least MIN_SEEDS seeds, each summary matching
    its values, a traced run per workload, the commit and the env, and
    stale rows that all name per-layer rows of `bench`."""
    def need(ok, what):
        if not ok:
            raise ValueError(f"BENCH record: {what}")

    need(isinstance(rec.get("commit"), str) and len(rec["commit"]) == 40,
         "commit is not a 40-digit hash")
    need(isinstance(rec.get("dirty"), bool), "dirty is not a bool")
    need(isinstance(rec.get("env"), dict) and rec["env"], "env is not set")
    need(len(rec.get("seeds", ())) >= MIN_SEEDS,
         f"fewer than {MIN_SEEDS} seeds")
    per_layer = {r["name"] for r in bench["per_layer"]}
    for w in (w["name"] for w in bench["workloads"]):
        got = rec.get("workloads", {}).get(w)
        need(got is not None, f"workload {w} missing")
        need(len(got["correct"]) == len(rec["seeds"]),
             f"{w}: not one run per seed")
        for m in bench["end_to_end"]:
            s = got["metrics"].get(m["name"])
            need(s is not None, f"{w}: metric {m['name']} missing")
            need(len(s["values"]) == len(rec["seeds"]),
                 f"{w} {m['name']}: not one value per seed")
            q1, median, q3 = quartiles(s["values"])
            need((s["q1"], s["median"], s["q3"], s["iqr"])
                 == (q1, median, q3, q3 - q1) and s["unit"] == m["unit"],
                 f"{w} {m['name']}: summary does not match its values")
        need(set(got["trace"]["per_layer"]) <= per_layer
             and got["trace"]["per_layer"],
             f"{w}: traced run has no per-layer table")
    stale = [r["row"] for r in rec.get("stale_rows", ())]
    need(stale and set(stale) <= per_layer,
         "stale_rows empty or naming a row BENCHMARK.json does not list")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=MIN_SEEDS)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's)")
    args = parser.parse_args()
    if args.seeds < MIN_SEEDS:
        parser.error(f"--seeds must be at least {MIN_SEEDS}")
    if not args.label.replace("-", "").replace("_", "").isalnum():
        parser.error("--label takes letters, digits, '-' and '_'")
    seconds = args.seconds or benchmark()["run_seconds"]
    rec = record(args.label, args.seeds, seconds)
    check_record(rec, benchmark())
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    for w, got in rec["workloads"].items():
        print(f"{w}: " + ", ".join(
            f"{m} {s['median']:.6g} (IQR {s['iqr']:.3g})"
            for m, s in got["metrics"].items()))
    print(f"wrote {out}")
    if not all(all(got["correct"]) and got["trace"]["correct"]
               for got in rec["workloads"].values()):
        sys.exit("some runs were not correct; see the file")


if __name__ == "__main__":
    main()
