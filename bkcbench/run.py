#!/usr/bin/env python3
"""Build and run the bkc end-to-end benchmark.

Run from the root of a bkc checkout:

    python3 bkcbench/run.py --workload offline64 --seed 1 --seconds 25 --trace 0
    python3 bkcbench/run.py --self-test

The first call configures and builds bkcbench/ (which compiles the
library from src/) in Release mode under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed.
Build output goes to stderr; the benchmark's own stdout passes through,
so its last line is the result JSON. The exit code is the benchmark's.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"bkcbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no bkc sources under {ROOT / 'src'}; run from a bkc checkout")
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "bkcbench"
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", target,
                  "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build("bkcbench_tests")
        sys.exit(subprocess.run([str(build_dir / "bkcbench_tests")]).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build_dir = build("bkcbench")
    command = [str(build_dir / "bkcbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", str(build_dir / "run")]
    sys.stdout.flush()
    try:
        result = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
