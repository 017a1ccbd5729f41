#!/usr/bin/env python3
"""Builds the nagano benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <hot_read|live_games|cold_tail> \
      --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the repository root); the first run compiles the library and the
benchmark, later runs only check that the build is current. Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
The master's WAL lives in a per-run directory under the build directory and
is removed when the run ends; a --trace 1 run leaves its spans in
<build>/spans/<workload>-seed<n>.jsonl.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("hot_read", "live_games", "cold_tail")
RUN_TIMEOUT_S = 170


def build(build_dir, target):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4", "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None or args.seconds <= 0):
        parser.error("--workload, --seed and a positive --seconds are required")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    target = "perfbench_selftest" if args.selftest else "nagano_bench"
    if not build(build_dir, target):
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(build_root, "run-%d" % os.getpid())
    cmd = [os.path.join(build_dir, target)]
    if not args.selftest:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", repr(args.seconds), "--trace", str(args.trace),
                "--work-dir", work_dir, "--git-sha", git_sha()]
        if args.trace:
            cmd += ["--span-file", os.path.join(
                build_root, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
