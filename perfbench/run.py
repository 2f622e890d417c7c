#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload select_hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest      # build and run the unit tests

Run from the repository root. The first run configures and builds the
library sources of ../src and the load generator into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only rebuild what changed. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("select_hot", "onboard_cold")


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def run_quiet(cmd):
    """Run a build step with its output on stderr; exit on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"perfbench: build step failed ({proc.returncode}): {' '.join(cmd)}")


def build(target):
    if not (ROOT / "src" / "core" / "serve.hpp").is_file():
        sys.exit(f"perfbench: library sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(out), "--target", target, "-j", jobs])
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        out = build("perfbench_test")
        return subprocess.run([str(out / "perfbench_test")]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    out = build("pmlbench")
    cmd = [str(out / "pmlbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out / "runs")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
