#!/usr/bin/env python3
"""Build the benchmark driver from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload check_random --seed 1 --seconds 25 --trace 0

The driver is built with dune into .bench_build/ (release profile, no
shared cache). Every argument is passed on to it; the last line of
standard output is its JSON result. A traced run (--trace 1) also
writes a Chrome trace to .bench_build/traces/. Build output goes to
standard error.
"""

import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 175


def arg_value(args, flag, default):
    if flag in args:
        i = args.index(flag)
        if i + 1 < len(args):
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run this from the root of a tbtso checkout "
              "(dune-project and lib/ are missing here)", file=sys.stderr)
        return 2
    build = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled",
             "--display", "quiet", "./perfbench/bench.exe"]
    try:
        built = subprocess.run(build, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    extra = ["--nproc", str(len(os.sched_getaffinity(0)))]
    if arg_value(args, "--trace", "0") == "1":
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "{}-seed{}.json".format(arg_value(args, "--workload", "none"),
                                       arg_value(args, "--seed", "1"))
        extra += ["--chrome", os.path.join(traces, name)]
    sys.stdout.flush()
    try:
        ran = subprocess.run([EXE] + args + extra, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
