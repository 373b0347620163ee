#!/usr/bin/env python3
"""Builds and runs the treesched end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is configured and built
(Release) under .bench_build/ on first use; later runs only re-check it. The
measuring process is single-threaded and pinned to one CPU. Its stdout is
passed through: the last line is the JSON result. Exits non-zero, without a
result, when the sources or the build are missing or broken.
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
SCRATCH = os.path.join(ROOT, ".bench_build", "scratch")
# Compiler temporaries stay inside the checkout too.
TMP = os.path.join(ROOT, ".bench_build", "tmp")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then lets cmake rebuild only what changed. Build
    output goes to stderr so stdout stays the benchmark's own."""
    engine = os.path.join(ROOT, "src", "treesched", "sim", "engine.cpp")
    if not os.path.isfile(engine):
        fail("treesched sources not found next to perfbench/; run from a "
             "full checkout")
    if not shutil.which("cmake"):
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    os.makedirs(TMP, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench"],
                   stdout=sys.stderr, env=env, check=True)


def pin_to_one_cpu():
    """Pins this process, and so the benchmark child, to the highest CPU it
    may use, so the measured thread never migrates."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except subprocess.CalledProcessError as e:
        fail("build failed: " + " ".join(e.cmd))

    scratch = os.path.join(SCRATCH, str(os.getpid()))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    pin_to_one_cpu()
    try:
        proc = subprocess.run(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scratch", scratch],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
