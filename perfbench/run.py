#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload step_single --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. Builds perfbench/ (CMake) from the library
sources in src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build),
runs one workload and prints its output; the last line is the result
object {"correct", "attempted", "failed", "metrics"}. The metric names and
units are checked against BENCHMARK.json before the result is printed.
Exits nonzero, without a result, when the build or the run fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    cmd = ["cmake", "--build", out, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def validate(result, trace):
    """Problems with the result object, against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int):
        problems.append("failed must be a whole number")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append("metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}")
    return problems


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["step_single", "step_2x2",
                                          "serve_mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    asuca_env = sorted(k for k in os.environ if k.startswith("ASUCA_"))
    if asuca_env:
        log(f"refusing to run with {asuca_env} set: each changes the "
            "program being measured")
        return 2

    if args.selftest:
        exe = build("perfbench_selftest")
        if exe is None:
            log("build failed")
            return 1
        return subprocess.run([exe, os.path.join(ROOT, "BENCHMARK.json")],
                              cwd=ROOT).returncode
    if args.workload is None:
        p.error("--workload is required")

    exe = build("perfbench")
    if exe is None:
        log("build failed")
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        log(f"no result (exit code {run.returncode})")
        return run.returncode or 1
    problems = validate(result, args.trace == 1)
    if problems:
        for problem in problems:
            log(f"invalid result: {problem}")
        return 1
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
