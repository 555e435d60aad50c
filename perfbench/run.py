#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: optimize-validate, litmus-explore, serve-refine (see
perfbench/README.md). The benchmark builds with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the checkout root), runs the
workload in a child process, and passes its standard output through; the
last line is the JSON result. Scratch state (memo stores, daemon state)
lives under the target directory and is removed after the run; a traced
run leaves its spans in <target>/perfbench-spans/.

Exits 0 when a result was printed, 1 when the build or the run failed,
and 2 on bad arguments.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("optimize-validate", "litmus-explore", "serve-refine")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(bench_dir, "Cargo.toml"),
    ]
    try:
        subprocess.run(build, env=env, stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    exe = os.path.join(target, "release", "seqwm-perfbench")
    work = os.path.join(target, "perfbench-work")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--work-dir", work,
    ]
    if args.trace == "1":
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.jsonl")
        cmd += ["--spans-out", spans]
    try:
        child = subprocess.Popen(cmd, cwd=root, env=env)
    except OSError as err:
        print(f"perfbench: cannot start {exe}: {err}", file=sys.stderr)
        return 1
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        shutil.rmtree(os.path.join(work, f"run-{child.pid}"), ignore_errors=True)
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
