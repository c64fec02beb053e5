"""One workload in one process: set up, warm up, measure, print a record.

Started by run.py with the thread variables already in its environment;
prints one JSON record as its last line of standard output.

Untraced run (--trace 0): every round runs all three stages, the
workload's own stage at full size and the other two small, and each
end-to-end metric is the median of its units over the run.

Traced run (--trace 1): rounds run the workload's own stage only,
alternately with and without the tracer installed. A layer's value is its
self time (or count) inside one unit of an operation, averaged over the
traced units and summed over the workload's operations, so it adds up
like the workload's end-to-end metrics do; the tracing overhead compares
the two kinds of rounds of the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# Input builds are repeated and their median taken; imports and the
# warm-up round happen once per process.
SETUP_REPEATS = 3


def host_reference(np) -> float:
    """A fixed numpy matmul + sort loop; its time follows the host's speed,
    not the program's."""
    rng = np.random.default_rng(0)
    a = rng.normal(size=(120, 120))
    v = rng.normal(size=20000)
    start = time.perf_counter()
    for _ in range(40):
        a @ a
        np.sort(v)
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("dataset", "train", "upres"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--sizes", choices=("bench", "small"), default="bench",
                    help="'small' runs every stage at its small size (for the tests)")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    try:
        record = run(args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


def run(args) -> dict:
    import numpy as np
    import scipy
    from stages import STAGES
    from tracer import COUNTS, TIMES, Tracer
    import_s = time.monotonic() - args.spawned_at

    def size(name):
        return "full" if name == args.workload and args.sizes == "bench" else "small"

    build_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        stages = {name: cls(size(name), args.seed, args.workdir)
                  for name, cls in STAGES.items()}
        build_s.append(time.perf_counter() - start)
    own = stages[args.workload]

    failures = []
    attempted = failed = 0

    def tally(results):
        nonlocal attempted, failed
        for metric, _, reasons in results:
            attempted += 1
            if reasons:
                failed += 1
                failures.append(f"{metric}: {reasons[0]}")

    start = time.perf_counter()
    for stage in stages.values():
        tally(stage.run_round())     # the warm-up round: checked, not timed
    warmup_s = time.perf_counter() - start
    setup_s = import_s + statistics.median(build_s) + warmup_s

    values = {}
    ref_s = []
    rounds = 0
    tracer = Tracer(on_call=own.on_call) if args.trace else None
    traced = {}
    untraced = {}
    cpu0, wall0 = time.process_time(), time.perf_counter()
    last = 0.0
    while rounds < 2 or time.perf_counter() - wall0 + last <= args.seconds:
        begin = time.perf_counter()
        on = tracer is not None and rounds % 2 == 0
        if on:
            tracer.install()
            own.tracer = tracer
        try:
            results = [r for stage in (stages.values() if tracer is None else [own])
                       for r in stage.run_round()]
        finally:
            if on:
                tracer.uninstall()
                own.tracer = None
        tally(results)
        bucket = values if tracer is None else traced if on else untraced
        for metric, value, reasons in results:
            if not reasons:
                bucket.setdefault(metric, []).append(value)
        last = time.perf_counter() - begin
        rounds += 1
        ref_s.append(host_reference(np))
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is None:
        metrics = {}
        for stage in stages.values():
            for metric in stage.metrics:
                samples = values.get(metric)
                metrics[metric] = {"value": statistics.median(samples) if samples else None,
                                   "unit": "s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    else:
        def per_unit(name):
            return sum(statistics.fmean(unit.get(name, 0.0) for unit in units)
                       for units in own.layers.values())
        metrics = {name: {"value": per_unit(name), "unit": "s"} for name in TIMES}
        for name in COUNTS:
            metrics[name] = {"value": per_unit(name), "unit": "count"}
        on = sum(statistics.median(traced[m]) for m in own.metrics if m in traced)
        off = sum(statistics.median(untraced[m]) for m in own.metrics if m in untraced)
        metrics["trace.overhead"] = {"value": on / off - 1.0 if off else None, "unit": "ratio"}
        metrics["host.ref_s"] = {"value": statistics.median(ref_s), "unit": "s"}
        metrics["host.cpu_per_wall"] = {"value": cpu_per_wall, "unit": "ratio"}

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "meta": {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "sizes": args.sizes, "rounds": rounds, "measure_s": args.seconds,
            "units": {m: len(v) for m, v in values.items()},
            "setup_parts_s": {"import": import_s, "build_median": statistics.median(build_s),
                              "warmup": warmup_s},
            "host.ref_s": statistics.median(ref_s), "host.cpu_per_wall": cpu_per_wall,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "threads": {k: os.environ.get(k) for k in
                        ("UPFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
            "failures": failures[:20],
        },
    }


if __name__ == "__main__":
    sys.exit(main())
