#!/usr/bin/env python3
"""Steadiness report: run one workload N times and show each end-to-end
metric's median, quartiles and spread against its BENCHMARK.json bound, and
the same for the informational host-time metrics (which have no bound).

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S]

Run i uses seed first_seed + i, so every run draws a different trace. The
spread is (q3 - q1) / median with the quartiles of Python's
statistics.quantiles(values, n=4). A metric is "steady" when its spread is
below a third of its bound (setup_s is judged on its median alone). The
table is printed and written to .bench_out/steady_<workload>.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]

    metrics = list(spec["end_to_end"])
    values = {m["name"]: [] for m in metrics}
    for i in range(args.runs):
        seed = args.first_seed + i
        r = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if r.returncode != 0:
            sys.exit("run with seed %d failed (exit %d)" % (seed, r.returncode))
        lines = r.stdout.strip().split("\n")
        reported = json.loads(lines[-1])["metrics"]
        for line in lines:
            if line.startswith("informational "):
                reported.update(json.loads(line[len("informational "):]))
        for name, m in reported.items():
            if name not in values:
                metrics.append({"name": name, "bound": None})
                values[name] = []
            values[name].append(m["value"])
        print("seed %d done" % seed, file=sys.stderr, flush=True)

    rows = []
    print("%-28s %14s %14s %14s %8s %6s  %s"
          % ("metric", "median", "q1", "q3", "spread", "bound", "verdict"))
    for m in metrics:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        if m["bound"] is None:
            verdict = "informational"
        elif m["name"] == "setup_s":
            verdict = "median only"
        elif spread < m["bound"] / 3:
            verdict = "steady"
        elif spread <= m["bound"]:
            verdict = "within bound"
        else:
            verdict = "TOO NOISY"
        rows.append({"metric": m["name"], "median": med, "q1": q1, "q3": q3,
                     "spread": spread, "bound": m["bound"], "values": v,
                     "verdict": verdict})
        print("%-28s %14.6g %14.6g %14.6g %8.4f %6s  %s"
              % (m["name"], med, q1, q3, spread,
                 "-" if m["bound"] is None else "%.2f" % m["bound"], verdict))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady_%s.json" % args.workload), "w") as f:
        json.dump({"workload": args.workload, "runs": args.runs,
                   "first_seed": args.first_seed, "seconds": seconds,
                   "metrics": rows}, f, indent=1)


if __name__ == "__main__":
    main()
