"""A/B timing of two source trees on one job, each run in its own process.

    python3 scripts_calib/ab_jobs.py SRC_A SRC_B --job distill --reps 10

SRC_A and SRC_B are directories holding a `codemix` package (for instance
`src` and the `src` of a second checkout). Each rep runs the job once in a
fresh process that imports codemix from SRC_A and once in one that imports
it from SRC_B; the tree that goes first alternates from rep to rep. BLAS is
pinned to one thread. A process sets the job up, runs it once to warm up,
then times three more runs by its own CPU time (`time.process_time`) and
reports the fastest: other load on a shared host slows a run, never speeds
it up.

Each process also reports its peak RSS (`ru_maxrss`, over its whole life:
imports, set-up and all four runs) and its minor page faults over the three
timed runs, so that a change to memory shows its page-fault cost in the same
pairs. Prints the two times, peaks and fault counts of each pair, then each
tree's quartiles of the three, then one verdict per quantity on whether
SRC_B (the change) may claim it lower than SRC_A (the parent): B must be
lower in at least nine tenths of the pairs, ties counting for neither, and
the medians must differ by more than A's interquartile range.

Each job is one pass of the timed calls of a workload in
perfbench/workloads.py of this checkout, set up by its class at the "full"
size, without the output checks:

  distill  every train_student job of Distill;
  train    every job of Train: train_stage1 and train_stage2 of a fresh
           model, then train_crf;
  crf      the train_crf of every job of Train alone, so that a change to
           the CRF is not lost in the seconds of seq2seq training of
           `train`;
  serve    every chunk of Serve: each query by beam search on its own,
           then the chunk's translate_corpus batches (no CRF detection).

--seed picks the inputs, as the benchmark's seed does.
"""
import argparse
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = ("distill", "train", "crf", "serve")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMED_RUNS = 3
# (name, unit, decimals) of each number a process reports
QUANTITIES = (("time", " ms", 1), ("peak RSS", " MB", 1),
              ("minor faults", "", 0))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of `values`,
    interpolated linearly between the sorted values (numpy.percentile's
    default)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def claim(parent: list[float], change: list[float]
          ) -> tuple[bool, int, float, float]:
    """Whether paired runs let the change claim a lower value than the
    parent: (claimable, pairs the change is lower in, the parent's median
    minus the change's, the parent's interquartile range). Claimable means
    lower in at least nine tenths of the pairs, a tie counting for
    neither, and a median gap larger than that range."""
    wins = sum(b < a for a, b in zip(parent, change))
    q1, median, q3 = quartiles(parent)
    gap = median - statistics.median(change)
    return 10 * wins >= 9 * len(parent) and gap > q3 - q1, wins, gap, q3 - q1


def make_job(name: str, seed: int):
    """The job `name` on the inputs of `seed`, set up by the benchmark's
    workload class at its "full" size: a function that runs it once."""
    import workloads
    from codemix.distill import KDKind, train_student
    from codemix.langid import train_crf
    from codemix.numerics import make_rng
    from codemix.seq2seq import init_model, translate_corpus
    w = {"distill": workloads.Distill, "train": workloads.Train,
         "crf": workloads.Train, "serve": workloads.Serve}[name](seed, "full")
    w.setup(workloads.NullTracer)
    if name == "distill":
        def distill():
            for j, (clean, pool) in enumerate(w.chunks):
                train_student(w.student_config, w.teacher, clean, pool,
                              KDKind.JS, make_rng(seed * 1000 + j), w.config)
        return distill
    if name == "train":
        def train():
            for j, ((noisy, clean), (crf_train, _)) in enumerate(
                    zip(w.chunks, w.crf_chunks)):
                job = seed * 1000 + j
                w._train(init_model(w.model_config, make_rng(job)), noisy,
                         clean, job)
                train_crf(crf_train, epochs=w.size["crf_epochs"],
                          rng=make_rng(job))
        return train
    if name == "crf":
        def crf():
            for j, (crf_train, _) in enumerate(w.crf_chunks):
                train_crf(crf_train, epochs=w.size["crf_epochs"],
                          rng=make_rng(seed * 1000 + j))
        return crf

    def serve():
        for chunk in w.chunks:
            for query in chunk:
                w._translate(query)
            # the batches of Serve.cycle: the (b+1)-th, (b+1+n)-th, ...
            # shortest queries of the chunk
            by_length = sorted(chunk, key=lambda q: len(q.split()))
            n = len(chunk) // workloads.BATCH
            for b in range(n):
                translate_corpus(w.model, by_length[b::n],
                                 beam=workloads.BEAM)
    return serve


def child(src: str, job: str, seed: int) -> None:
    sys.path.insert(0, str(Path(src).resolve()))
    sys.path.insert(1, str(ROOT / "perfbench"))
    import codemix
    package = Path(codemix.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        sys.exit(f"imported codemix from {package}, not {src}")
    run = make_job(job, seed)
    run()
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(TIMED_RUNS):
        t0 = time.process_time()
        run()
        times.append(time.process_time() - t0)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # ru_maxrss is in KiB on Linux
    print(f"{min(times) * 1e3:.3f} {usage.ru_maxrss / 1024:.1f} "
          f"{usage.ru_minflt - faults}")


def time_tree(src: str, job: str, seed: int) -> tuple[float, float, int]:
    """The tree's (fastest run in ms, peak RSS in MB, minor page faults
    over the timed runs), from one fresh process."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    env.pop("PYTHONPATH", None)
    out = subprocess.run(
        [sys.executable, __file__, "--child", src, "--job", job,
         "--seed", str(seed)],
        env=env, cwd=ROOT, check=True, capture_output=True, text=True)
    ms, rss, faults = out.stdout.split()[-3:]
    return float(ms), float(rss), int(faults)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("trees", nargs="*", metavar="SRC")
    parser.add_argument("--job", choices=JOBS, required=True)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child, args.job, args.seed)
        return
    if len(args.trees) != 2 or args.reps < 1:
        parser.error("give two source trees and --reps >= 1")
    runs: dict[str, list[tuple[float, float, int]]] = {"A": [], "B": []}
    for rep in range(args.reps):
        order = ("A", "B") if rep % 2 == 0 else ("B", "A")
        for tree in order:
            src = args.trees[0] if tree == "A" else args.trees[1]
            runs[tree].append(time_tree(src, args.job, args.seed))
        (a, rss_a, flt_a), (b, rss_b, flt_b) = runs["A"][-1], runs["B"][-1]
        print(f"pair {rep + 1:2d} ({''.join(order)} order): A {a:9.1f} ms  "
              f"B {b:9.1f} ms  B/A {b / a:.3f}  peak RSS A {rss_a:.1f} "
              f"B {rss_b:.1f} MB  minor faults A {flt_a} B {flt_b}",
              flush=True)
    for i, (what, unit, n) in enumerate(QUANTITIES):
        a, b = ([r[i] for r in runs[t]] for t in "AB")
        (a1, med_a, a3), (b1, med_b, b3) = quartiles(a), quartiles(b)
        change = f"{(med_b / med_a - 1) * 100:+.1f} %" if med_a else "n/a"
        print(f"{what}: A {a1:.{n}f} / {med_a:.{n}f} / {a3:.{n}f}{unit}, "
              f"B {b1:.{n}f} / {med_b:.{n}f} / {b3:.{n}f}{unit} (quartiles; "
              f"median {change})")
    for i, (what, unit, n) in enumerate(QUANTITIES):
        ok, wins, gap, iqr = claim(*([r[i] for r in runs[t]] for t in "AB"))
        print(f"verdict {what}: B lower in {wins} of {args.reps} pairs, "
              f"median gap {gap:.{n}f}{unit} against A's IQR "
              f"{iqr:.{n}f}{unit}: {'claimable' if ok else 'not claimable'}")


if __name__ == "__main__":
    main()
