#!/usr/bin/env python3
"""Run one workload of the analysis-service benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload batch-cold [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark (perfbench/main.ml) from source with dune, runs the
workload, and passes its output through: comment lines starting with '#'
(provenance and every metric with its unit), then one JSON line with the
keys correct, attempted, failed and metrics. Inputs, stores and traces
live in .perfbench_work under the current directory and are removed
afterwards. Exits non-zero, printing no result, when the build or the
run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("batch-cold", "edit-session", "store-restart")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
WORK = ".perfbench_work"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1992)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # The dune cache lives outside the tree; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/main.exe"],
            stdout=sys.stderr,
            env=env,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        run = subprocess.run(
            [
                EXE,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--work", WORK,
            ]
        )
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
