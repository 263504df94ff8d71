"""diffpol benchmark: training and bench-row rollout throughput.

Run from the repository root:

    python3 perfbench/run.py --workload train-uniform --seed 1 \
        --seconds 30 --trace 0

Workloads: train-uniform, train-aln, rollout-bench (see workloads.py).
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` repeats a
fixed part of the work under span tracing and prints the per-layer
metrics.  Every metric is printed as ``name value unit``, followed by a
machine record and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark cannot run (for example diffpol's sources are
missing).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("train-uniform", "train-aln", "rollout-bench")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = 1
SEED_MODULUS = 2**32

# unit of each end-to-end metric; BENCHMARK.json adds direction and bound
END_TO_END = {
    "throughput": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # any integer is a valid seed; numpy's generators want it non-negative
    args.seed %= SEED_MODULUS
    if not (0 < args.seconds <= 120):
        ap.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # BLAS reads these once, when numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "diffpol", "__init__.py")):
        print(f"error: diffpol sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import diffpol
    if os.path.dirname(os.path.abspath(diffpol.__file__)) != \
            os.path.join(SRC, "diffpol"):
        print(f"error: imported diffpol from {diffpol.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    import fixture
    import machine
    import workloads

    try:
        if args.workload == "rollout-bench":
            out = workloads.run_rollout(args.seed, args.seconds,
                                        bool(args.trace))
        else:
            mode = args.workload.split("-", 1)[1]
            out = workloads.run_train(mode, args.seed, args.seconds,
                                      bool(args.trace))
    except fixture.FixtureError as e:
        print(f"error: rollout policy fixture: {e}", file=sys.stderr)
        return 1

    if args.trace:
        units = workloads.LAYER_METRICS
        values = {k: float(out.layer.get(k, 0.0)) for k in units}
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        if out.tracer is not None:
            out.tracer.write(path)
            print(f"spans: {len(out.tracer.spans)} written to "
                  f"{os.path.relpath(path, ROOT)}")
        for name in out.absent:
            print(f"absent: {name} (not traced)")
    else:
        units = END_TO_END
        values = dict(out.e2e)
        values["peak_rss_mb"] = machine.peak_rss_mb()
        values["ok_frac"] = (out.attempted - out.failed) / max(
            out.attempted, 1)

    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    if not args.trace:  # per-layer figures an untraced run also yields
        for name, value in out.layer.items():
            print(f"# {name} {value:.6g} {workloads.LAYER_METRICS[name]}")
    for problem in out.problems:
        print(f"CHECK FAILED: {problem}")
    print("machine: " + json.dumps(machine.record(BLAS_THREAD_VARS)))
    correct = not out.problems
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
