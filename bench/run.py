"""Benchmark of holoheis: one workload per run, built from a seed, timed for a
fixed number of seconds, with every output checked.

    python3 bench/run.py --workload mc-terminal --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ./src. The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with --trace 0,
its per-layer metrics with --trace 1. A fuller record (environment, set-up
samples, per-call latencies) goes to .bench_out/, and a traced run also writes
its spans there. See bench/README.md for what each metric means.
"""

import os

# Pin BLAS/OpenMP pools before numpy can load, so that the Monte Carlo thread
# pool is the only parallelism and runs measure the program, not the scheduler.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Recorder, median, rate, tail_percentile  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Worker threads for every Monte Carlo call; must not exceed the CPUs this
# process may run on.
WORKERS = 2

# Set-up is timed once in this process and this many times more in fresh
# interpreters; setup_s is the median.
SETUP_CHILDREN = 2

CHILD_SETUP = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]))
print(time.perf_counter() - t0)
"""


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def child_setup_seconds(args) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", CHILD_SETUP, str(BENCH), str(SRC), args.workload,
         str(args.seed), str(WORKERS)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def round_rate(wl, rnd) -> float:
    work, seconds = wl.work(rnd)
    return rate(work, seconds)


def end_to_end(name: str, wl, rec, setup_s: float) -> float:
    rounds = rec.rounds
    if name == "setup_s":
        return setup_s
    if name == "wall_s":
        return median(r.wall_s for r in rounds)
    if name == "work_per_s":
        return median(round_rate(wl, r) for r in rounds)
    if name == "peak_rss_mb":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raise KeyError(f"no end-to-end metric {name!r}")


def per_layer(name: str, rec, self_busy) -> float:
    """`<span>.busy_s` is the median over rounds of the span's summed self
    time in a round; bench.wall_s the median round time; any other name is a
    work count, the median over rounds of its per-round total. A layer the
    workload never calls reads 0."""
    if name == "bench.wall_s":
        return median(r.wall_s for r in rec.rounds)
    if name.endswith(".busy_s"):
        span = name[: -len(".busy_s")]
        return median(per.get(span, 0.0) for per in self_busy)
    return median(r.counts.get(name, 0) for r in rec.rounds)


def latency_summary(rec) -> dict:
    """Per span name: calls, median and the tail percentile (when there are
    enough calls for one) over the whole run, rounds and checks included."""
    out = {}
    for name, values in sorted(rec.durations.items()):
        entry = {"calls": len(values), "median_s": median(values)}
        tail = tail_percentile(values)
        if tail is not None:
            entry[f"p{tail[0]:g}_s"] = tail[1]
        out[name] = entry
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "holoheis" / "__init__.py").is_file():
        print(f"holoheis sources not found under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if WORKERS > nproc:
        print(f"{WORKERS} Monte Carlo workers need {WORKERS} CPUs; {nproc} available",
              file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.build(args.workload, args.seed, WORKERS)
    setup_samples = [time.perf_counter() - t0]
    setup_samples += [child_setup_seconds(args) for _ in range(SETUP_CHILDREN)]
    setup_s = median(setup_samples)

    run_id = f"{args.workload}:{args.seed}:{args.trace}:{os.getpid()}:{time.time_ns()}"
    rec = Recorder(run_id, keep_spans=bool(args.trace))
    session = workloads.Session(rec)
    aborted = []
    started = time.perf_counter()
    index = 0
    while True:
        with rec.round():
            try:
                wl.round(session, index)
            except workloads.OperationFailed as exc:
                aborted.append(f"round {index}: {exc}")
        index += 1
        if time.perf_counter() - started >= args.seconds:
            break
    timed_s = time.perf_counter() - started
    # outside the timed phase: one estimator again with a single worker
    try:
        wl.identity(session)
    except Exception as exc:  # a crash here is a failed check, not a lost run
        session.require(False, f"identity rerun raised {exc!r}")

    correct = not session.failures
    if args.trace:
        self_busy = rec.self_busy()
        metrics = {
            m["name"]: {"value": per_layer(m["name"], rec, self_busy), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": end_to_end(m["name"], wl, rec, setup_s), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    result = {
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }

    import numpy
    import scipy

    env = {
        "nproc": nproc,
        "workers": WORKERS,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_vars": {v: os.environ[v] for v in THREAD_VARS},
    }
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "result": result,
        "env": env,
        "rounds": len(rec.rounds),
        "timed_s": timed_s,
        "setup_samples_s": setup_samples,
        "round_wall_s": [r.wall_s for r in rec.rounds],
        "latency": latency_summary(rec),
        "check_failures": session.failures[:50],
        "aborted_rounds": aborted,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if args.trace:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            for s in rec.spans:
                fh.write(json.dumps(vars(s)) + "\n")

    print(f"env {json.dumps(env)}")
    print(f"{len(rec.rounds)} rounds in {timed_s:.2f} s; "
          f"{len(session.failures)} failed checks; record {OUT / (stem + '.json')}")
    for label in session.failures[:10]:
        print(f"FAILED CHECK: {label}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
