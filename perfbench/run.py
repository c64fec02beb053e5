"""Benchmark entry point: run one workload in a fresh, single-threaded process.

    python3 perfbench/run.py --workload dataset --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/upflow``. It starts
perfbench/child.py with UPFLOW_THREADS, OMP_NUM_THREADS and
OPENBLAS_NUM_THREADS set to 1 before Python starts (numpy reads them when
it is first imported), writes the full record with host and version facts
to perfbench/results/, and prints as its last line the JSON object
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 170
THREAD_VARS = ("UPFLOW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")


def source_version():
    """The git commit when the checkout is a repository, and always a
    SHA-256 over the library sources, which identifies a checkout that is
    not one."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "upflow")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as f:
                h.update(f.read())
    return sha, h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("dataset", "train", "upres"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--sizes", choices=("bench", "small"), default="bench",
                    help="'small' runs every stage at its small size (for the tests)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "upflow", "__init__.py")):
        print(f"run.py: no upflow sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sha, src_digest = source_version()

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = os.path.join(HERE, "work", f"{tag}_{os.getpid()}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sizes", args.sizes, "--workdir", workdir,
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload process exceeded {TIMEOUT_S} s and was stopped",
              file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        print(f"run.py: workload process exited with {proc.returncode}", file=sys.stderr)
        return 4
    record = json.loads(lines[-1])
    record["meta"].update({"git_sha": sha, "source_sha256": src_digest})

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    meta = record.pop("meta")
    print("meta " + json.dumps(meta))
    print(json.dumps(record))
    return 0 if all(m["value"] is not None for m in record["metrics"].values()) else 5


if __name__ == "__main__":
    sys.exit(main())
