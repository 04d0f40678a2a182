#!/usr/bin/env python3
"""Check that the benchmark is steady, and print the C1 row.

Usage, from the root of the repository:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workloads a,b]
    python3 perfbench/spread.py --c1 [--first-seed 1992]

The first form runs every workload once per seed through run.py (with
BENCHMARK.json's run_seconds) and prints, for each end-to-end metric, its
median and its spread: the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median. A spread
above a third of the metric's bound is marked; setup_s is exempt. With
--log FILE, every run's result line is appended to FILE.

The second form makes one traced run of batch-cold and edit-session and
prints the paper's linearity claim (C1) side by side: classification time
and minor words per SSA node on small files and on 64-nest files, next to
each run's trace overhead.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def steadiness(bench, args):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for w in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run(w, seed, bench["run_seconds"], 0)
            results.append(r)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": w, "seed": seed, **r}) + "\n")
            if not r["correct"]:
                print(f"{w} seed {seed}: {r['failed']} of {r['attempted']} failed")
                steady = False
        print(f"== {w}: {len(results)} seeds")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            med, sp = spread(values)
            flag = "" if name == "setup_s" or sp <= bound / 3 else "  <-- above bound/3"
            if flag:
                steady = False
            print(f"  {name:<14} median {med:14.4f}  spread {sp:7.4f}  bound {bound:5.2f}{flag}")
    return 0 if steady else 1


def c1(bench, args):
    rows = {w: run(w, args.first_seed, bench["run_seconds"], 1)["metrics"]
            for w in ("batch-cold", "edit-session")}
    print("C1: classification cost per SSA node (seed %d)" % args.first_seed)
    print(f"  {'workload':<14} {'us/node':>10} {'words/node':>12} {'nodes/file':>11} {'trace overhead':>15}")
    for w, m in rows.items():
        print(f"  {w:<14} {m['analysis.classify.us_per_ssa_node']['value']:10.3f}"
              f" {m['analysis.classify.minor_words_per_ssa_node']['value']:12.1f}"
              f" {m['ir.ssa.nodes']['value']:11.1f} {m['trace.overhead_ratio']['value']:15.3f}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--log", default="")
    ap.add_argument("--c1", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return c1(bench, args) if args.c1 else steadiness(bench, args)


if __name__ == "__main__":
    sys.exit(main())
