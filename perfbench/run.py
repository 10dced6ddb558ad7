#!/usr/bin/env python3
"""Build and run one workload of the Heron end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <tune-library|serve-hot|serve-cold>
                             --seed N --seconds S --trace <0|1>

Every run configures and builds perfbench/ (the heron library from src/
plus the heron_perfbench binary) into .bench_build/perfbench with CMake,
Release build; after the first run that is a no-op check. Its JSON
result is the last line of standard output. The run exits non-zero,
without printing a result, when the build fails or the result does
not carry exactly the metrics BENCHMARK.json declares for the mode.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "heron_perfbench")
WORKLOADS = ("tune-library", "serve-hot", "serve-cold")
# A run must end within 180 s; heron_perfbench caps itself at 170 s.
RUN_TIMEOUT_S = 172


def build():
    """Configure and build; all build output goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(ROOT, ".bench_build", "work",
                            "%s-%d" % (args.workload, os.getpid()))
    command = [BINARY, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", work_dir,
               "--data-dir", os.path.join(HERE, "data")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        print("perfbench: heron_perfbench printed no result", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    missing = declared_metrics(args.trace) ^ set(result["metrics"])
    if missing:
        print("perfbench: result and BENCHMARK.json disagree on %s"
              % sorted(missing), file=sys.stderr)
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
