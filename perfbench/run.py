#!/usr/bin/env python3
"""Builds the perfbench harness from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench-<key> (default .bench_build/perfbench-<key>),
where <key> is a hash of the checkout's path, so checkouts sharing one
target directory never build or run each other's code; run summaries and
traced-run spans go to .../perfbench-out-<key>.  Build output goes to
standard error, so the last line of standard output is the harness's JSON
result.  Exit codes: 0 ran, 1 build or harness error, 2 bad usage.
"""
import hashlib
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
KEY = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
BUILD_ROOT = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench-" + KEY)
OUT_DIR = os.path.join(BUILD_ROOT, "perfbench-out-" + KEY)
# A run must end within 180 s; the harness itself measures for at most 60.
RUN_TIMEOUT_S = 170


def run_quiet(cmd):
    """Runs a build step with its output on stderr; True on success."""
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def build(target):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs])


def run_binary(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


def main(argv):
    self_test = argv == ["--self-test"]
    target = "perfbench_selftest" if self_test else "perfbench"
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD_DIR, target)
    if self_test:
        return run_binary([binary])
    os.makedirs(OUT_DIR, exist_ok=True)
    return run_binary([binary] + argv + ["--out-dir", OUT_DIR])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
