#!/usr/bin/env python3
"""Runs the benchmark several times on each workload, each run with another
seed, and prints each metric's median and its spread: the distance between
the first and third quartiles as a share of the median, the figure
BENCHMARK.json's bounds are compared with.

    python3 perfbench/spread.py --runs 10 --seconds 10 solve-dense serve-mixed

Run from the repository root. Without workload names it runs all that
BENCHMARK.json lists.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    ok = True
    for name in names:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stdout + out.stderr)
                sys.exit(f"{name} seed {seed}: exit {out.returncode}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                sys.stderr.write(out.stdout)
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(f"{name} seed {seed}: " + " ".join(
                f"{m}={v['value']:.4g}" for m, v in sorted(result["metrics"].items())), flush=True)
        for metric, vs in sorted(values.items()):
            med = statistics.median(vs)
            if len(vs) >= 2:
                q1, _, q3 = statistics.quantiles(vs, n=4)
                spread = (q3 - q1) / med if med else float("nan")
            else:
                spread = float("nan")
            bound = bounds.get(metric)
            flag = ""
            if bound is not None and metric != "setup_s" and not spread <= bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:15s} {metric:24s} median {med:12.5g}  spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "") + flag, flush=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
