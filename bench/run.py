"""Benchmark of the subnet package.

Run one workload in this process:

    python3 bench/run.py --workload train-overlap --seed 0 --seconds 44 --trace 0

or every workload, each in a fresh single-threaded process of its own:

    python3 bench/run.py --workload all --seed 0

It prints the environment, then every metric by name with its unit, and as
its last line one JSON object with the keys correct, attempted, failed and
metrics. `--trace 0` reports the end-to-end metrics and `--trace 1` the
per-layer ones. bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train-overlap", "train-full-record", "eval-cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="subnet benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=44.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(np):
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except OSError:
        git_rev = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_rev": git_rev,
    }


def print_result(result):
    for name, metric in result["metrics"].items():
        print(f"{name:34s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)


def run_one(args):
    # BLAS sizes its thread pool when numpy is loaded, so pin it first;
    # threadpoolctl, which could do it later, is not a dependency.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "subnet" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {src / 'subnet'}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy as np
    import workloads  # imports subnet

    import_s = time.perf_counter() - t0
    print("env " + json.dumps(environment(np)))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, problems = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), work, import_s
        )
    finally:
        shutil.rmtree(work)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in problems:
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}")
    print_result(result)


def run_all(args):
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
