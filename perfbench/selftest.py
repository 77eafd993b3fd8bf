#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly (1 s windows) through perfbench/run.py and
checks:
  * every metric BENCHMARK.json names is emitted, with its unit, for every
    workload, untraced (end_to_end) and traced (per_layer);
  * two back-to-back runs of each ping-pong give byte-identical virt_*
    metrics;
  * in the traced span file, every span tree stays on one thread and its
    self times sum exactly to the duration of its root;
  * the marcel thread counter is live (pingpong_rndv creates threads) and a
    fault-free run neither drops nor retransmits frames;
  * a set MADMPI_* variable makes the benchmark refuse to run;
  * in a directory holding only BENCHMARK.json and the benchmark, the
    command fails without printing a result.
Exits non-zero on the first failed check.
"""
import csv
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"


def run(workload, trace, seed="1", env=None, cwd=ROOT):
    command = SPEC["command"] + ["--workload", workload, "--seed", seed,
                                 "--seconds", SECONDS, "--trace", trace]
    return subprocess.run(command, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=600)


def result_of(done, what):
    if done.returncode != 0:
        fail("%s exited %d:\n%s" % (what, done.returncode, done.stderr[-3000:]))
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (what, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: not correct: %s" % (what, done.stdout[-500:]))
    return result


def fail(message):
    print("FAIL:", message)
    sys.exit(1)


def check_metrics(workload, trace, result):
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        fail("%s trace=%s: metrics differ from BENCHMARK.json: missing %s, "
             "extra %s" % (workload, trace, sorted(set(names) - set(got)),
                           sorted(set(got) - set(names))))
    for metric in wanted:
        entry = got[metric["name"]]
        if entry["unit"] != metric["unit"]:
            fail("%s: %s unit %s != %s" % (workload, metric["name"],
                                            entry["unit"], metric["unit"]))
        if not isinstance(entry["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, metric["name"]))


def check_span_sums(path):
    """Every span tree stays on one thread and sum(self) == root duration."""
    spans = {}
    children = defaultdict(list)
    with open(path, newline="") as handle:
        for row in csv.DictReader(handle):
            spans[row["id"]] = row
            children[row["parent"]].append(row["id"])
    trees = 0
    for span_id, row in spans.items():
        if row["parent"] != "0":
            continue
        stack, members = [span_id], []
        while stack:
            node = stack.pop()
            members.append(spans[node])
            stack.extend(children[node])
        if len({m["thread"] for m in members}) != 1:
            fail("%s: tree %s spans several threads" % (path, span_id))
        total = sum(int(m["self_ns"]) for m in members)
        duration = int(row["wall_end_ns"]) - int(row["wall_start_ns"])
        if total != duration:
            fail("%s: tree %s self times sum to %d ns, root lasts %d ns"
                 % (path, span_id, total, duration))
        trees += 1
    if trees == 0:
        fail("%s: no span trees" % path)
    return trees


def main():
    virt = {}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in ("0", "1"):
            result = result_of(run(workload, trace), "%s trace=%s"
                               % (workload, trace))
            check_metrics(workload, trace, result)
            metrics = result["metrics"]
            if trace == "0":
                virt[workload] = {k: v for k, v in metrics.items()
                                  if k.startswith("virt_")}
                continue
            trees = check_span_sums(ROOT / ".bench_build" / "perfbench" /
                                    "traces" / ("%s-seed1.csv" % workload))
            if metrics["net.retransmits"]["value"] != 0 or \
                    metrics["net.frames_dropped"]["value"] != 0:
                fail("%s: frames dropped or retransmitted" % workload)
            if workload == "pingpong_rndv" and \
                    metrics["marcel.threads_created_per_msg"]["value"] <= 0:
                fail("pingpong_rndv: thread counter reads 0")
            print("ok  %s: metrics and units, %d span trees sum exactly"
                  % (workload, trees))

    for workload in ("pingpong_eager", "pingpong_rndv"):
        again = result_of(run(workload, "0"), workload)["metrics"]
        again = {k: v for k, v in again.items() if k.startswith("virt_")}
        if json.dumps(again, sort_keys=True) != \
                json.dumps(virt[workload], sort_keys=True):
            fail("%s: virt_* metrics differ between two runs: %s vs %s"
                 % (workload, virt[workload], again))
        print("ok  %s: virt_* metrics byte-identical across two runs"
              % workload)

    env = dict(os.environ, MADMPI_ENGINE="threaded")
    done = run("pingpong_eager", "0", env=env)
    if done.returncode == 0 or "MADMPI_ENGINE" not in done.stderr:
        fail("a set MADMPI_ENGINE did not make the benchmark refuse to run")
    print("ok  refuses to run with MADMPI_* set")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    done = run("pingpong_eager", "0", cwd=bare)
    shutil.rmtree(bare)
    if done.returncode == 0 or done.stdout.strip():
        fail("without the library sources the command did not fail cleanly")
    print("ok  fails without the library sources")
    print("all self-tests passed")


if __name__ == "__main__":
    main()
