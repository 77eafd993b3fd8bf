#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library from ../src and the perfbench binary into
.bench_build/perfbench (incremental after the first run), then runs one
workload pinned to a fixed CPU set. The last line of stdout is the
binary's JSON result; build output goes to stderr. The exit code is the
binary's (non-zero on any failed check). See README.md beside this file.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170
# Each workload runs on a fixed CPU set (README.md, "Noise"). The threaded
# engine flips between scheduling regimes that last from tens of
# milliseconds to seconds whenever its threads share too few CPUs: on one
# CPU the eager chain alternates between about 10 and 15 us/msg, and the
# run's median follows whichever regime holds the majority. With every
# allowed CPU the eager chain settles on cross-CPU wakeups (about 20
# us/msg) run after run. A rendezvous send runs its helper thread beside
# the rank thread, and two CPUs hold it in one regime; meta_exchange runs 8
# ranks concurrently and gets every allowed CPU. The last allowed CPUs are
# taken, so every run lands on the same ones.
WORKLOAD_CPUS = {"pingpong_eager": 8, "pingpong_rndv": 2, "meta_exchange": 8}


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources not found under %s/src" % ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build step failed: %s" % " ".join(step))
    return BUILD / "perfbench"


def pinned_cpus(workload):
    allowed = sorted(os.sched_getaffinity(0))
    return set(allowed[-WORKLOAD_CPUS.get(workload, 1):])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    command = [str(binary), "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / ("%s-seed%s.csv" % (args.workload, args.seed)))]
    cpus = pinned_cpus(args.workload)
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
