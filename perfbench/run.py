#!/usr/bin/env python3
"""Repository benchmark: build from source, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the benchmark program
(perfbench/src) under .bench_build/perfbench, runs one measured run of
the workload and prints, as the last stdout line, one JSON object with
"correct", "attempted", "failed" and "metrics" (end-to-end metrics
with --trace 0, per-layer metrics with --trace 1).

With --trace 1 perfbench_run also writes its own spans (one category per
layer it calls into) and the program's Chrome trace. This script
merges them into .bench_build/perfbench/trace-<workload>.json, checks
the file with the repository's trace validator, and derives the
span-based per-layer metrics (train.prepare_ms, train.apply_ms,
train.hidden_prepare_frac, stage.sum_over_busy).

Workloads, metrics and the layer -> metric predictions:
perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("lazydp-train", "dpsgd-f-train", "serve-during-train")

# StageTimer stages must cover the measured prepare + apply time to
# within this share.
SUM_OVER_BUSY_SLACK = 0.10

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/ "
             "(run from a full checkout)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = len(os.sched_getaffinity(0))  # nproc, not the host's CPU count
    subprocess.run(["cmake", "--build", BUILD, "-j", str(jobs)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def describe_status(code):
    if code >= 0:
        return "exited with status %d" % code
    try:
        name = signal.Signals(-code).name
    except ValueError:
        name = "signal %d" % -code
    return "was killed by %s" % name


def load_events(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def spans(events, cat, name):
    return sorted((e["ts"], e["dur"]) for e in events
                  if e.get("ph") == "X" and e.get("cat") == cat
                  and e.get("name") == name)


def overlap_us(a, b):
    """Total time of intervals a that lies inside the union of b."""
    total, j = 0.0, 0
    for ts, dur in a:
        lo, hi = ts, ts + dur
        while j < len(b) and b[j][0] + b[j][1] <= lo:
            j += 1
        k = j
        while k < len(b) and b[k][0] < hi:
            total += max(0.0, min(hi, b[k][0] + b[k][1]) - max(lo, b[k][0]))
            k += 1
    return total


def trace_metrics(result, out_dir, workload):
    """Merge traces, validate them, derive span-based metrics."""
    events = (load_events(os.path.join(out_dir, "bench_trace.json"))
              + load_events(os.path.join(out_dir, "program_trace.json")))
    merged = os.path.join(BUILD, "trace-%s.json" % workload)
    with open(merged, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)

    cats = ["data", "core", "snapshot", "serve", "io", "trainer"]
    if workload != "serve-during-train":
        cats.append("train")
    check = subprocess.run(
        [os.path.join(BUILD, "perfbench_trace_validate"), merged,
         "--require-cats=" + ",".join(cats)],
        stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    if check.returncode != 0:
        print("perfbench: trace validation failed", file=sys.stderr)
        result["correct"] = False

    # Training-only workloads time prepare/apply through perfbench_run's
    # Algorithm wrapper ("train"); serve-during-train cannot wrap the
    # engine (it publishes), so it reads the Trainer's own spans, whose
    # prepare also covers the batch load.
    raw = result.pop("raw")
    source = "train"
    prep, appl = spans(events, "train", "prepare"), spans(events, "train", "apply")
    if not appl:
        source = "trainer"
        prep = spans(events, "trainer", "prepare")
        appl = spans(events, "trainer", "apply")
    if not appl:
        print("perfbench: no prepare/apply spans in the trace", file=sys.stderr)
        result["correct"] = False
        return
    prep_us = sum(d for _, d in prep)
    appl_us = sum(d for _, d in appl)
    iters = raw["traced_iters"]
    busy_ns = (prep_us + appl_us) * 1e3
    if source == "trainer":
        busy_ns -= raw["data_next_ns"]
    sum_over_busy = raw["stage_total_ns"] / busy_ns
    m = result["metrics"]
    m["train.prepare_ms"] = {"value": prep_us / 1e3 / iters, "unit": "ms"}
    m["train.apply_ms"] = {"value": appl_us / 1e3 / iters, "unit": "ms"}
    m["train.hidden_prepare_frac"] = {
        "value": min(1.0, overlap_us(prep, appl) / prep_us) if prep_us > 0 else 0.0,
        "unit": "fraction"}
    m["stage.sum_over_busy"] = {"value": sum_over_busy, "unit": "ratio"}
    if abs(sum_over_busy - 1.0) > SUM_OVER_BUSY_SLACK:
        print("perfbench: stages sum to %.3f of busy time (slack %.2f)"
              % (sum_over_busy, SUM_OVER_BUSY_SLACK), file=sys.stderr)
        result["correct"] = False


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    out_dir = os.path.join(BUILD, "out-%d" % os.getpid())
    os.makedirs(out_dir, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "perfbench_run"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            fail("perfbench_run %s" % describe_status(proc.returncode))
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        if args.trace:
            trace_metrics(result, out_dir, args.workload)
        result.pop("raw", None)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
