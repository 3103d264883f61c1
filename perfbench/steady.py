#!/usr/bin/env python3
"""Steadiness mode: repeat workloads over several seeds and show the spread.

Usage, from the root of the repository:

    python3 perfbench/steady.py --runs 10 [--workloads flow-ota,mc-miller-csr]
        [--first-seed 1] [--seconds 20] [--trace 0] [--out runs.json]

Runs perfbench/run.py once per (workload, seed) and prints, per workload and
metric, the median and quartiles of the runs (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median next to the metric's bound in BENCHMARK.json.
A bound is proven when every spread stays below a third of it; setup_s is
judged on its median only, so its spread is shown but not judged.  The
canary (env.calib_ms) of each run is listed too: a run with a high canary
fell into a slow phase of the machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def one_run(workload, seed, seconds, trace):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        sys.exit("run.py failed on %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    return {"seed": seed, "wall_s": wall, "diag": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    a = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    everything = {}
    for workload in a.workloads.split(","):
        runs = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            run = one_run(workload, seed, a.seconds, a.trace)
            res = run["result"]
            print("%-14s seed %-3d %6.1f s  correct=%s attempted=%d failed=%d calib=%.3f ms  %s"
                  % (workload, seed, run["wall_s"], res["correct"], res["attempted"],
                     res["failed"], run["diag"]["diagnostics"]["env.calib_ms"],
                     " ".join("%s=%.6g" % (k, v["value"])
                              for k, v in res["metrics"].items() if k in bounds)),
                  flush=True)
            runs.append(run)
        everything[workload] = runs
        print("%-14s %-10s %12s %12s %12s %8s %6s" %
              ("workload", "metric", "median", "q1", "q3", "spread", "bound"))
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = "ok" if spread < bound / 3 else ("within" if spread <= bound else "NOISY")
            print("%-14s %-10s %12.6g %12.6g %12.6g %7.2f%% %6s %s" %
                  (workload, name[:10], med, q1, q3, 100 * spread,
                   "" if bound is None else bound, verdict), flush=True)
    if a.out:
        with open(a.out, "w") as f:
            json.dump(everything, f, indent=1)


if __name__ == "__main__":
    main()
