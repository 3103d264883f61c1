#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as the last line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload flow-ota --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe with dune, runs the workload for --seconds, and
prints one JSON line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The line before it carries diagnostics (the interference
canary, the set-up samples, the environment).  Exits non-zero, without a
result line, when the program cannot be built or run, and with code 1 after
the result line when a correctness check failed.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

# flow-ota's set-up is a whole cold flow; these extra fresh processes give
# setup_s seven samples.
SETUP_PROBES = {"flow-ota": 6}

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the repository (no dune-project or lib/ here)")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/main.exe"],
            # dune's shared cache lives outside the checkout
            env=dict(os.environ, DUNE_CACHE="disabled"),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("cannot build: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")


def run_exe(args, timeout):
    try:
        proc = subprocess.run(
            [EXE] + args,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("%s: %s" % (args[0], e))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        fail("%s exited with %d" % (args[0], proc.returncode))
    return json.loads(lines[-1])


def source_digest():
    """SHA-256 over the OCaml sources: the code identity when no git is around."""
    h = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli", "dune")):
                    path = os.path.join(root, name)
                    h.update(path.encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(".git"):
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    wanted = spec["per_layer" if a.trace else "end_to_end"]

    build()
    work = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench", a.workload
    )
    os.makedirs(work, exist_ok=True)
    common = ["--workload", a.workload, "--seed", str(a.seed), "--work", work]
    res = run_exe(
        ["run"] + common + ["--seconds", str(a.seconds), "--trace", str(a.trace)],
        timeout=170,
    )
    setup = list(res["setup_samples"])
    correct = res["correct"]
    if not a.trace:
        for _ in range(SETUP_PROBES.get(a.workload, 0)):
            probe = run_exe(["setup"] + common, timeout=60)
            setup.append(probe["setup_s"])
            correct = correct and probe["correct"]

    metrics = dict(res["metrics"])
    units = {m["name"]: m["unit"] for m in wanted}
    unknown = [n for n in metrics if n not in units]
    if unknown:
        fail("metrics not in BENCHMARK.json: %s" % ", ".join(unknown))
    if a.trace:
        metrics["env.calib_ms"] = res["diagnostics"]["env.calib_ms"]
        # a layer the workload's path does not reach reads 0
        for n in units:
            metrics.setdefault(n, 0.0)
    else:
        # the fastest set-up, for the reason unit_us takes the fastest unit:
        # interference only adds time (README.md, Noise)
        metrics["setup_s"] = min(setup)
    missing = [n for n in units if n not in metrics]
    if missing:
        fail("metrics missing from the run: %s" % ", ".join(missing))

    env = dict(res["env"])
    env.update(
        nproc=os.cpu_count(),
        python=sys.version.split()[0],
        commit=commit(),
        source_sha256=source_digest(),
    )
    print(
        json.dumps(
            {
                "diagnostics": res["diagnostics"],
                "setup_samples": setup,
                "mismatches": res["mismatches"],
                "env": env,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": res["attempted"],
                "failed": res["failed"],
                "metrics": {
                    n: {"value": metrics[n], "unit": u} for n, u in units.items()
                },
            }
        )
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
