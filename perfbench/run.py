#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload <hall-sweep|campus-shards|fabric-storage> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (the simulator sources from src/ plus the benchmark program) into
.bench_build/perfbench with CMake; later runs only re-check the build. Build
output goes to stderr. The benchmark binary's stdout is passed through, so
its last line is the JSON result; a full JSON report of the run is written
to .bench_build/perfbench/reports/. The exit code is the binary's, or 1 when
the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build() -> bool:
    """Configures (once) and builds the benchmark; False on any failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "scenario", "world.h")):
        print("perfbench: simulator sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    result = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0 and os.path.isfile(BINARY)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["hall-sweep", "campus-shards", "fabric-storage"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    report = os.path.join(
        reports, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    sys.stdout.flush()
    return subprocess.run([
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace, "--report", report,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
