#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
library and the perfbench binary in Release (CMake) under
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the
build. The binary's stdout is passed through, and its last line is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric of a layer the workload
does not run reads 0 and is named on a "not exercised" line. Exits non-zero
(without a result) when the build or the run fails, and non-zero (with a
result whose "correct" is false) when an output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("serve_backlog", "serve_fleet", "serve_cycle_accurate",
             "array_paper")
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then (re)builds the perfbench target; returns the
    binary path. Build output goes to stderr so stdout stays the result."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if r.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def git_commit():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_digest():
    """sha256 over the library sources: identifies the measured code where
    the checkout carries no git metadata."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def serve_scale_baseline():
    """The committed serve_scale_200k row of bench/baselines/BENCH_serve.json
    as "batches,chunks,makespan"; serve_backlog at its canonical seed must
    reproduce it. An unreadable row passes "" and fails that check."""
    path = os.path.join(ROOT, "bench", "baselines", "BENCH_serve.json")
    try:
        with open(path) as f:
            rows = json.load(f)["scenarios"]
        row = next(r for r in rows if r["name"] == "serve_scale_200k")
        return "%d,%d,%d" % (row["batches"], row["chunks"],
                             row["makespan_cycles"])
    except (OSError, ValueError, KeyError, StopIteration):
        return ""


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not os.path.isfile(os.path.join(ROOT, "src", "serve", "pool.hpp")):
        fail("no library sources under %s/src; run from a full checkout"
             % ROOT, 2)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--commit", git_commit(), "--source-digest", source_digest()]
    if args.workload == "serve_backlog":
        cmd += ["--baseline", serve_scale_baseline()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("%s exited %d without a result" % (args.workload, r.returncode))

    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if args.trace:
        for m in wanted:
            if m["name"] in missing:
                metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
    elif missing:
        fail("%s did not report %s" % (args.workload, ", ".join(missing)))
    extra = sorted(set(metrics) - {m["name"] for m in wanted})
    if extra:
        fail("%s reported metrics BENCHMARK.json does not list: %s"
             % (args.workload, ", ".join(extra)))
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail("%s: unit of %s is %s, BENCHMARK.json says %s"
                 % (args.workload, m["name"], metrics[m["name"]]["unit"],
                    m["unit"]))

    for line in lines[:-1]:
        print(line)
    if args.trace:
        # Each per-layer number with the end-to-end metric and workloads it
        # should move (perfbench/ledger.json).
        with open(os.path.join(BENCH_DIR, "ledger.json")) as f:
            ledger = json.load(f)["per_layer"]
        for m in wanted:
            entry = ledger.get(m["name"])
            if entry is None:
                fail("ledger.json has no entry for %s" % m["name"])
            print("layer %-36s %14.6g %-8s moves %s on %s" % (
                m["name"], metrics[m["name"]]["value"], m["unit"],
                ",".join(entry["moves"]) or "-", ",".join(entry["on"])))
        if missing:
            print("not exercised by %s (reported as 0): %s"
                  % (args.workload, ", ".join(missing)))
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    print(json.dumps(result), flush=True)
    ok = r.returncode == 0 and result["correct"] and result["failed"] == 0
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
