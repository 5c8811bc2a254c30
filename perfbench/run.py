#!/usr/bin/env python3
"""Builds the library and runs the repository benchmark (see README.md).

One run (the last line of standard output is the result JSON):
  python3 perfbench/run.py --workload read-zipf --seed 1 --seconds 10 --trace 0

Self-check: every workload at small scale, traced and untraced, every check:
  python3 perfbench/run.py --selfcheck

Repeat: N runs on seeds 1..N, each metric's median and quartiles, and its
spread against the bound in BENCHMARK.json:
  python3 perfbench/run.py --repeat 10 --workload grow-drain

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
under the checkout root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("read-zipf", "grow-drain", "durable-paged")
# A run must end within 180 s; the binary is stopped a little before.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(bdir, "ellis_bench")


def git_sha():
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, check=True)
        if os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "unknown"
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return sha.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def bench_command(binary, workload, seed, seconds, trace, small=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--git-sha", git_sha()]
    if trace:
        cmd += ["--spans-out",
                os.path.join(build_dir(), f"spans-{workload}.csv")]
    if small:
        cmd.append("--small")
    return cmd


def run_captured(cmd):
    """Runs one benchmark process; returns (exit code, stdout, result)."""
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selfcheck(binary):
    spec = load_spec()
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, _, result = run_captured(
                bench_command(binary, workload, 7, 1, trace, small=True))
            names = {m["name"] for m in spec[key]}
            problems = []
            if result is None:
                problems.append(f"exit {code}, no result")
            else:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"correct={result['correct']} "
                                    f"failed={result['failed']}")
                if set(result["metrics"]) != names:
                    problems.append("metric names differ from BENCHMARK.json: "
                                    f"{sorted(set(result['metrics']) ^ names)}")
                if trace == 0:
                    zero = [n for n, m in result["metrics"].items()
                            if m["value"] <= 0]
                    if zero:
                        problems.append(f"non-positive metrics {zero}")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"selfcheck {workload:14s} trace={trace}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def repeat(binary, workload, runs, seconds, trace, first_seed):
    spec = load_spec()
    key = "per_layer" if trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    values = {}
    shares = set()
    for seed in range(first_seed, first_seed + runs):
        code, _, result = run_captured(
            bench_command(binary, workload, seed, seconds, trace))
        if result is None:
            print(f"seed {seed}: exit {code}, no result")
            return 1
        shares.add((result["failed"], result["attempted"]) if result["failed"]
                   else 0)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{workload}, {runs} runs, trace={trace}, failed shares {shares}")
    print(f"{'metric':34s} {'median':>14s} {'q1':>14s} {'q3':>14s} "
          f"{'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  > bound/3"
        print(f"{name:34s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--repeat", type=int, metavar="N")
    args = p.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 1

    if args.selfcheck:
        return selfcheck(binary)
    if args.workload is None:
        p.error("--workload is required")
    seconds = args.seconds or load_spec()["run_seconds"]
    if args.repeat:
        return repeat(binary, args.workload, args.repeat, seconds, args.trace,
                      args.seed)
    try:
        proc = subprocess.run(
            bench_command(binary, args.workload, args.seed, seconds,
                          args.trace),
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("benchmark did not finish in time", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
