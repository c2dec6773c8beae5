#!/usr/bin/env python3
"""Builds and runs the fastcc end-to-end benchmark.

Usage, from the root of a checkout:

    python3 fcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the fastcc library from ../src and the
fcbench program (Release) in $CARGO_TARGET_DIR/fcbench, default
.bench_build/fcbench; later calls rebuild only what changed.  Build output
goes to stderr, so the last line of stdout is fcbench's JSON result.
Exits non-zero without a result when the build or the run fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "fcbench")


def build(out):
    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0

    generated = [os.path.join(out, f) for f in ("build.ninja", "Makefile")]
    if not any(os.path.exists(f) for f in generated):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not step(configure):
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return step(["cmake", "--build", out, "--target", "fcbench", "-j", jobs])


def main():
    out = build_dir()
    try:
        built = build(out)
    except OSError as e:
        print(f"fcbench: cannot build: {e}", file=sys.stderr)
        return 1
    if not built:
        print("fcbench: build failed", file=sys.stderr)
        return 1
    try:
        return subprocess.run([os.path.join(out, "fcbench")] + sys.argv[1:],
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"fcbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
