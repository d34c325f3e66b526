"""Run one codemix benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve --seed 0 --seconds 20 --trace 0

Run from the repository root: the benchmark imports codemix from ./src and
exits with code 2 when it is not there. It pins BLAS to one thread, checks
the committed artifacts against perfbench/artifacts/SHA256SUMS (exit code 3
on a mismatch), sets the workload up several times and reports the median
set-up time, then runs the workload's closed loop for --seconds, and for at
least one whole pass over its inputs. Times are host-normalized (see
workloads.Clock), except the named `*wall*` metrics.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
installs the tracing wrappers and prints the per-layer metrics instead.
Human-readable lines come first; the last line of stdout is one JSON
object. Full results, and the spans of a traced run, are written to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ARTIFACTS = HERE / "artifacts"
RESULTS = HERE / "results"
SETUP_REPEATS = 5
OVERHEAD_PAIRS = 2


def fatal(code: int, message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def check_artifacts() -> None:
    sums = ARTIFACTS / "SHA256SUMS"
    if not sums.is_file():
        fatal(3, f"missing {sums}")
    for line in sums.read_text(encoding="utf-8").splitlines():
        digest, name = line.split(maxsplit=1)
        path = ARTIFACTS / name
        if not path.is_file():
            fatal(3, f"missing artifact {path}")
        if hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            fatal(3, f"artifact {path} does not match SHA256SUMS; rebuild "
                     f"with perfbench/build_artifacts.py")


def import_codemix():
    src = ROOT / "src"
    if not (src / "codemix" / "__init__.py").is_file():
        fatal(2, f"no codemix package under {src}; run from the repository "
                 f"root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import codemix
    if Path(codemix.__file__).resolve().parent != (src / "codemix").resolve():
        fatal(2, f"imported codemix from {codemix.__file__}, not {src}")


def environment() -> dict[str, object]:
    import numpy as np
    return {"python": platform.python_version(), "numpy": np.__version__,
            "cpu": platform.machine(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_cycle(workload, tracer) -> float:
    t0 = time.perf_counter()
    workload.cycle(0, tracer)
    return time.perf_counter() - t0


def measure(workload, seconds: float, null) -> int:
    """Run untraced cycles of the workload until `seconds` have passed, and
    at least one whole pass. Returns the number of cycles run."""
    deadline = time.perf_counter() + seconds
    k = 0
    while k < workload.pass_cycles or time.perf_counter() < deadline:
        workload.cycle(k, null)
        k += 1
    return k


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for the benchmark's own tests")
    args = ap.parse_args(argv)

    import_codemix()
    check_artifacts()
    from metrics import per_layer
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        fatal(2, f"unknown workload {args.workload!r}; choose from "
                 f"{sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    null = workloads.NullTracer()
    t_start = time.perf_counter()
    info: dict[str, object] = {"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "size": args.size, "env": environment()}

    if not args.trace:
        setups = []
        for _ in range(SETUP_REPEATS):
            with wl.clock.time() as t:
                wl.setup(null)
            setups.append(t)
        info["cycles"] = measure(wl, args.seconds, null)
        setup_s = sorted(wl.clock.normalized_ms(t) / 1e3 for t in setups)
        info["setup_s_all"] = setup_s
        info["setup_wall_s_all"] = [t.ms / 1e3 for t in setups]
        out = {"setup_s": (setup_s[len(setup_s) // 2], "s"),
               "peak_rss_mb": (peak_rss_mb(), "MB"), **wl.headline()}
        tracer = None
    else:
        # The tracing overhead: cycle 0 untraced and traced, alternating,
        # the fastest of each. The traced run then does a fixed number of
        # cycles (fewer if --seconds runs out) so its counts repeat.
        wl.setup(null)
        untraced, traced = [], []
        for _ in range(OVERHEAD_PAIRS):
            untraced.append(timed_cycle(wl, null))
            probe = spans.Tracer()
            probe.install()
            try:
                traced.append(timed_cycle(wl, probe))
            finally:
                probe.restore()
        overhead = min(traced) / min(untraced)
        tracer = spans.Tracer()
        tracer.install()
        try:
            wl.setup(tracer)
            deadline = time.perf_counter() + args.seconds
            wl.cycle(0, tracer)
            k = 1
            while k < wl.size["trace"] and time.perf_counter() < deadline:
                wl.cycle(k, tracer)
                k += 1
            info["cycles"] = k
        finally:
            tracer.restore()
        out = per_layer(tracer, wl, overhead)
        info["tallies_by_phase"] = tracer.by_phase()

    left = spans.installed_wrappers()
    if left:
        fatal(4, f"tracing wrappers still installed: {left}")
    info["wall_s"] = time.perf_counter() - t_start
    correct = wl.rec.failed == 0 and wl.quality_ok()
    result = {"correct": correct, "attempted": wl.rec.attempted,
              "failed": wl.rec.failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in out.items()}}
    info["named"] = {k: {"value": v, "unit": u}
                     for k, (v, u) in wl.named().items()}
    info["errors"] = wl.rec.errors

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({**info, "result": result}, indent=1) + "\n",
        encoding="utf-8")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.jsonl")

    env = info["env"]
    print(f"# env python={env['python']} numpy={env['numpy']} "
          f"cpu={env['cpu']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']}")
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"cycles={info['cycles']} wall_s={info['wall_s']:.1f}")
    for name, (value, unit) in wl.named().items():
        print(f"{args.workload}.{name} {value:.6g} {unit}")
    for err in wl.rec.errors:
        print(f"# failed: {err}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
