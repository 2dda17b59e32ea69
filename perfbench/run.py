#!/usr/bin/env python3
"""Builds the DBWipes end-to-end benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload debug_intel --seed 1 --seconds 10 --trace 0

Workloads: debug_intel, clean_fec, ingest_fec (see perfbench/METRICS.md).
`--trace 0` measures the end-to-end metrics, `--trace 1` the per-layer ones.
`--smoke` uses tiny inputs (the benchmark's own test runs it that way).

The build goes to .bench_build/perfbench (Release, incremental), the run's
scratch files (WAL directories, the span dump) to .bench_build/run. The last
line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
SCRATCH = os.path.join(BUILD_ROOT, "run")
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
WORKLOADS = ("debug_intel", "clean_fec", "ingest_fec")


def build():
    """Configures and builds the benchmark; returns False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no DBWipes sources under %s/src; run from the root "
              "of a checkout" % ROOT, file=sys.stderr)
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench_e2e"])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT,
                               env=env) != 0:
                log.flush()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                print("perfbench: build failed (%s)" % " ".join(step),
                      file=sys.stderr)
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if not build():
        return 1
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--scratch", SCRATCH]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.call(command)


if __name__ == "__main__":
    sys.exit(main())
