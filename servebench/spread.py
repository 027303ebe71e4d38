#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Runs run.py once per seed on each workload and prints, per metric, the
median and the quartile spread (Q3 - Q1) / median next to the metric's
bound from BENCHMARK.json. A benchmark is steady when every spread except
setup_s is below a third of its bound; the exit code is non-zero when a
spread exceeds its bound or a run was not correct.

    python3 servebench/spread.py --workload knn_rne --runs 5
    python3 servebench/spread.py --runs 10            # every workload
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, action="append")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for name in args.workload or names:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                check=True, capture_output=True, text=True).stdout
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            context = json.loads(lines[-2])["context"]
            if not result["correct"] or result["failed"]:
                steady = False
            print("%-16s seed %-3d correct=%s failed=%d valid=%s "
                  "steal=%.2fs windows kept %s"
                  % (name, seed, result["correct"], result["failed"],
                     context["valid"], context["cpu_steal_s"],
                     context["windows"]),
                  flush=True)
            print("    " + "  ".join("%s=%.4g" % (m, result["metrics"][m]["value"])
                                     for m in bounds), flush=True)
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if m == "setup_s" or spread < bounds[m] / 3:
                verdict = "ok"
            elif spread <= bounds[m]:
                verdict = "within bound, above a third of it"
            else:
                verdict = "WIDE"
                steady = False
            print("%-16s %-14s median %14.4f  spread %6.2f%%  bound %5.1f%%"
                  "  %s" % (name, m, med, 100 * spread, 100 * bounds[m],
                            verdict), flush=True)
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
