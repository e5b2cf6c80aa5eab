#!/usr/bin/env python3
"""Build and run the repository benchmark. Run from the repository root.

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
      one run; the last stdout line is the result object
  python3 perfbench/run.py --smoke
      tiny inputs: every metric printed with its unit, a corrupted trace
      caught, and the metric names equal to BENCHMARK.json's
  python3 perfbench/run.py --steadiness --workload W [--runs K]
      [--seconds S] [--first-seed N]
      K timed runs on seeds N..N+K-1; median, quartiles and spread of
      each end-to-end metric against its bound in BENCHMARK.json

See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The build tree: the repository's lib/ and this directory's files, linked
# into one dune project with perfbench/dune-project as its root. Hidden, so
# the repository's own dune build skips it.
TREE = os.path.join(".bench_build", "perfbench")
EXE = os.path.join(TREE, "_build", "default", "perfbench.exe")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def link(target, name):
    """Point the symlink [name] at [target], replacing whatever is there."""
    if os.path.islink(name) and os.readlink(name) == target:
        return
    if os.path.lexists(name):
        os.remove(name)
    os.symlink(target, name)


def build():
    """Build the benchmark from source with dune; its output goes to stderr
    so the result stays the last line of stdout. The shared dune cache is
    off so the build writes only inside the checkout."""
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the repository root (no dune-project or lib/ here)")
    os.makedirs(TREE, exist_ok=True)
    here = os.path.join("..", "..", "perfbench")
    sources = [f for f in os.listdir("perfbench")
               if f in ("dune", "dune-project") or f.endswith(".ml")]
    for f in os.listdir(TREE):
        if os.path.islink(os.path.join(TREE, f)) and f not in sources + ["lib"]:
            os.remove(os.path.join(TREE, f))
    for f in sources:
        link(os.path.join(here, f), os.path.join(TREE, f))
    link(os.path.join("..", "..", "lib"), os.path.join(TREE, "lib"))
    env = dict(os.environ, DUNE_CACHE="disabled")
    done = subprocess.run(
        ["dune", "build", "--root", TREE, "--profile", "perfbench",
         "--display", "quiet", "./perfbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if done.returncode != 0:
        fail("build failed")


def run_exe(args, capture=False):
    try:
        return subprocess.run(
            [EXE] + args, timeout=RUN_TIMEOUT_S, text=True,
            stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def benchmark_json():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def smoke():
    done = run_exe(["--smoke"], capture=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.exit(done.returncode)
    bench = benchmark_json()
    want = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    results = [l for l in done.stdout.splitlines() if l.startswith("smoke result ")]
    errors = [] if len(results) == 6 else ["%d smoke results, not 6" % len(results)]
    for line in results:
        _, _, workload, trace, payload = line.split(" ", 4)
        got = {k: v["unit"] for k, v in json.loads(payload)["metrics"].items()}
        if got != want[trace]:
            errors.append("%s trace=%s: metrics %s, BENCHMARK.json %s"
                          % (workload, trace, got, want[trace]))
    for e in errors:
        print("perfbench smoke FAIL: " + e)
    sys.exit(1 if errors else 0)


def steadiness(args):
    bounds = {m["name"]: m["bound"] for m in benchmark_json()["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = run_exe(["--workload", args.workload, "--seed", str(seed),
                        "--seconds", str(args.seconds), "--trace", "0"], capture=True)
        if done.returncode != 0:
            fail("run with seed %d exited %d" % (seed, done.returncode))
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            fail("run with seed %d was not correct" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())), flush=True)
    print("%-20s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("ok" if spread < bound / 3 else "WIDE")
        print("%-20s %12.6g %12.6g %12.6g %8.4f %8s %s"
              % (name, med, q1, q3, spread, bound, verdict))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="default for --steadiness: BENCHMARK.json's run_seconds")
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args()
    build()
    if args.smoke:
        smoke()
    if args.workload is None:
        fail("--workload is required")
    if args.seconds is None:
        if not args.steadiness:
            fail("--seconds is required")
        args.seconds = benchmark_json()["run_seconds"]
    if args.steadiness:
        steadiness(args)
        return
    done = run_exe(["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", args.trace])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
