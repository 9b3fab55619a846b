#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_serve.json against the
checked-in baseline (bench/baselines/BENCH_serve.json).

Every gated metric is in simulated cycles (deterministic on any host and
thread count), so any delta is a real behaviour change, not noise; a gated
metric fails when it regresses by more than the tolerance (default 2%),
and when it is *missing* from either file — a silently vanished gate is a
gate that can never fire again. Metrics in the explicit informational list
— counts (requests, batches, chunks, preemptions) and host wall-clock
(wall_seconds and every "wall_"-prefixed key, noisy by nature) — are
printed for the trajectory but can never fail the gate, and so can
unclassified metrics. An optional top-level "host" object (nproc,
cpu_model, compiler, build_type) says where the informational numbers were
measured; it is printed for both files and never gated. Intentional
changes update the baseline in the same commit.

Usage:
  scripts/compare_bench.py BASELINE CURRENT [--tolerance-pct 2.0]
  scripts/compare_bench.py --list BASELINE
  scripts/compare_bench.py --self-test

--list prints, per metric key found in the baseline, whether it gates
(and in which direction) or is informational — the answer to "would a
change here fail CI?" without staging a comparison.

Exit status: 0 = within tolerance, 1 = regression (or malformed/missing
scenario/missing gated metric, or self-test failure), 2 = usage error.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

# Gated metrics: name -> "good" direction. Every one is in simulated
# cycles, so a regression is a real behaviour change. Keep this in sync
# with the JSON emitted by bench/serve_throughput.cpp run_smoke().
GATED_METRICS = {
    "makespan_cycles": "lower",
    "throughput_per_mcycle": "higher",
    "latency_p50_cycles": "lower",
    "latency_p99_cycles": "lower",
    "slo_attainment_pct": "higher",
    "weight_cache_hit_pct": "higher",
}

# Scenario-scoped gated metrics: scenarios whose name starts with the
# prefix gate these *additional* metrics (same simulated-cycle rules as
# GATED_METRICS). The disagg scenarios publish the interactive decode tail
# their runtime-enforced claim is scored on — the artifact must gate it
# too, but only where it is emitted; the key is informational (not
# unclassified) everywhere else.
SCENARIO_GATED_METRICS = {
    "disagg_prefill_decode": {"decode_p99_cycles": "lower"},
}


def gated_metrics_for(scenario_name):
    """The full gate map for one scenario: global + scenario-scoped."""
    metrics = dict(GATED_METRICS)
    for prefix, extra in SCENARIO_GATED_METRICS.items():
        if scenario_name.startswith(prefix):
            metrics.update(extra)
    return metrics

# Informational metrics: printed in the delta table for the trajectory,
# NEVER a gate. Two families live here: counts (a count change is a
# behaviour change, but the cycle metrics above already catch harmful
# ones) and host wall-clock (nondeterministic across runners — wall noise
# must never fail CI; any "wall_"-prefixed key is informational by
# construction, so the bench can grow self-profile keys without touching
# this script). A metric that appears in the JSON but in neither list is
# treated as informational too, with a note, so adding a metric to the
# bench without updating this script can loosen the gate but never flake
# it.
INFORMATIONAL_METRICS = {
    "requests",
    "batches",
    "chunks",
    "preemptions",
    "fleet_utilization_pct",  # higher is not always better: a faster
    # fleet idles more on the same open-loop trace
    "wall_seconds",
    # obs/metrics registry counts published by serve_scale_200k:
    # deterministic, but count shifts are a trajectory, not a gate.
    "joins",
    "requeues",
    "deadline_misses",
}


def is_informational(metric):
    # "wall_" = host wall-clock, "rss_" = host peak memory: both are
    # host-side measurements (the RSS high-water mark is process-wide and
    # allocator-dependent), so they inform the trajectory but never gate.
    return (
        metric in INFORMATIONAL_METRICS
        or metric.startswith("wall_")
        or metric.startswith("rss_")
        # Scenario-scoped gates are classified: they gate inside their
        # scenarios and inform (without an "unclassified" note) elsewhere.
        or any(metric in extra for extra in SCENARIO_GATED_METRICS.values())
    )


def load_doc(path):
    """The parsed file and its scenarios by name."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(1)
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        print(f"error: {path} has no scenarios", file=sys.stderr)
        sys.exit(1)
    return doc, {s["name"]: s for s in scenarios}


def host_line(side, doc):
    """The file's optional "host" stamp: where its informational wall-clock
    and RSS numbers were measured. Printed, never gated — the gated metrics
    are simulated cycles and mean the same on any host."""
    host = doc.get("host")
    if not isinstance(host, dict):
        return f"host ({side}): not stamped"
    fields = ", ".join(f"{k}={v}" for k, v in host.items())
    return f"host ({side}): {fields}"


def regression_pct(direction, base, cur):
    """Percent change in the *bad* direction; <= 0 means no regression."""
    if base == 0:
        # A zero baseline can only regress by appearing (lower-better) —
        # report the raw delta as percent-of-nothing: any growth is 'inf'.
        if direction == "lower" and cur > 0:
            return float("inf")
        if direction == "higher" and cur < 0:
            return float("inf")
        return 0.0
    change = (cur - base) / abs(base) * 100.0
    return change if direction == "lower" else -change


def compare(baseline_path, current_path, tolerance_pct):
    """The whole gate; returns the process exit code (0 ok, 1 fail)."""
    base_doc, base = load_doc(baseline_path)
    cur_doc, cur = load_doc(current_path)
    print(host_line("baseline", base_doc))
    print(host_line("current", cur_doc))

    failures = []
    rows = []
    warned_metrics = set()
    for name, b in base.items():
        c = cur.get(name)
        if c is None:
            failures.append(f"scenario '{name}' missing from {current_path}")
            continue
        # Every gated metric must exist on both sides: a gate that quietly
        # disappears from the bench (or was never in the baseline) is a
        # gate that can never fire again, so its absence fails loudly,
        # naming the side that lost it. The map is per-scenario: scoped
        # gates only bind where their prefix matches.
        gates = gated_metrics_for(name)
        for metric in gates:
            for side, doc, path in (("baseline", b, baseline_path),
                                    ("current", c, current_path)):
                if metric not in doc:
                    failures.append(
                        f"{name}.{metric}: gated metric missing from "
                        f"{side} ({path}) — gated metrics may not vanish; "
                        "if renamed/removed intentionally, update "
                        "GATED_METRICS in scripts/compare_bench.py and "
                        "refresh the baseline in the same PR"
                    )
        metrics = [k for k in b if k != "name"]
        for metric in metrics:
            direction = gates.get(metric)
            if (
                direction is None
                and not is_informational(metric)
                and metric not in warned_metrics
            ):
                warned_metrics.add(metric)
                print(
                    f"note: metric '{metric}' not classified; treating as "
                    "informational (add it to scripts/compare_bench.py)"
                )
            if metric not in c:
                # Gated absences were reported above; informational ones
                # never gate.
                continue
            bv, cv = b[metric], c[metric]
            delta = cv - bv
            pct = (delta / abs(bv) * 100.0) if bv else 0.0
            reg = (
                regression_pct(direction, bv, cv)
                if direction is not None
                else 0.0
            )
            bad = reg > tolerance_pct
            if bad:
                failures.append(
                    f"{name}.{metric}: {bv} -> {cv} "
                    f"({reg:+.2f}% worse, tolerance {tolerance_pct}%)"
                )
            rows.append((name, metric, bv, cv, delta, pct, direction, bad))
    for name in cur:
        if name not in base:
            # New scenarios are fine (the PR adding them updates the
            # baseline too), but say so — silence would hide drift.
            print(f"note: scenario '{name}' not in baseline")

    widths = (34, 24, 14, 14, 12, 9)
    header = ("scenario", "metric", "baseline", "current", "delta", "pct")
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(line)
    print("-" * len(line))
    for name, metric, bv, cv, delta, pct, direction, bad in rows:
        mark = " <-- FAIL" if bad else ("  (info)" if direction is None else "")
        fmt = lambda v: f"{v:.2f}" if isinstance(v, float) else str(v)
        print(
            f"{name:<{widths[0]}}  {metric:<{widths[1]}}  "
            f"{fmt(bv):>{widths[2]}}  {fmt(cv):>{widths[3]}}  "
            f"{fmt(delta):>{widths[4]}}  {pct:>+8.2f}%{mark}"
        )

    if failures:
        print(f"\nFAIL: {len(failures)} regression(s) beyond "
              f"{tolerance_pct}%:")
        for f in failures:
            print(f"  - {f}")
        print("\nIf this change is intentional, refresh the baseline in "
              "this PR:\n  ./build-bench/bench_serve_throughput --smoke "
              "--json bench/baselines/BENCH_serve.json")
        return 1
    print(f"\nOK: all gated metrics within {tolerance_pct}% of baseline")
    return 0


def list_classification(baseline_path):
    """--list: per metric key in the baseline, print whether it gates
    (with direction) or only informs, and which scenarios carry it."""
    _, scenarios = load_doc(baseline_path)
    carriers = {}
    for name, doc in scenarios.items():
        for metric in doc:
            if metric == "name":
                continue
            carriers.setdefault(metric, []).append(name)

    widths = (28, 26, 10)
    header = ("metric", "classification", "scenarios")
    line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
    print(f"{len(scenarios)} scenario(s) in {baseline_path}\n")
    print(line)
    print("-" * len(line))
    gated = informational = 0
    for metric in sorted(carriers):
        direction = GATED_METRICS.get(metric)
        scoped = {
            d
            for n in carriers[metric]
            for d in [gated_metrics_for(n).get(metric)]
            if d is not None and GATED_METRICS.get(metric) is None
        }
        if direction is not None:
            classification = f"GATED ({direction} is better)"
            gated += 1
        elif scoped:
            gating = [
                n for n in carriers[metric]
                if gated_metrics_for(n).get(metric) is not None
            ]
            classification = (
                f"GATED in {len(gating)}/{len(carriers[metric])} "
                f"({next(iter(scoped))} is better)"
            )
            gated += 1
        elif is_informational(metric):
            classification = "informational"
            informational += 1
        else:
            classification = "informational (unlisted)"
            informational += 1
        n = len(carriers[metric])
        scope = "all" if n == len(scenarios) else f"{n}/{len(scenarios)}"
        print(f"{metric:<{widths[0]}}  {classification:<{widths[1]}}  {scope}")
    # Gated metrics the baseline does not carry would fail a compare run
    # (gates may not vanish) — surface them here too.
    for metric in sorted(GATED_METRICS):
        if metric not in carriers:
            print(f"{metric:<{widths[0]}}  GATED but MISSING from baseline "
                  "— compare would fail")
    print(f"\n{gated} gated, {informational} informational")
    return 0


# ---- self-test ----------------------------------------------------------


def _scenario(**overrides):
    s = {
        "name": "s",
        "requests": 100,
        "makespan_cycles": 1000,
        "throughput_per_mcycle": 10.0,
        "latency_p50_cycles": 50,
        "latency_p99_cycles": 200,
        "slo_attainment_pct": 99.0,
        "weight_cache_hit_pct": 80.0,
        "wall_seconds": 1.0,
    }
    s.update(overrides)
    return s


def _run_case(label, base_scenario, cur_scenario, expect_exit,
              expect_in_output=None, hosts=(None, None)):
    """Writes the two one-scenario docs (with their optional host stamps)
    to temp files, runs the real compare() on them, and checks exit code
    (and optionally a message)."""
    paths = []
    try:
        for doc, host in zip((base_scenario, cur_scenario), hosts):
            fd, path = tempfile.mkstemp(suffix=".json")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                body = {"scenarios": [doc]}
                if host is not None:
                    body["host"] = host
                json.dump(body, f)
            paths.append(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = compare(paths[0], paths[1], 2.0)
        problems = []
        if code != expect_exit:
            problems.append(f"exit {code}, expected {expect_exit}")
        if expect_in_output and expect_in_output not in out.getvalue():
            problems.append(f"output lacks {expect_in_output!r}")
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"  self-test: {label}: {status}")
        return not problems
    finally:
        for path in paths:
            os.unlink(path)


def self_test():
    """Unit-style checks of the gate itself (scripts/check.sh runs this):
    regressions fail, improvements and wall noise pass, and a gated
    metric missing from either side fails with a pointed message."""
    base = _scenario()
    ok = True
    ok &= _run_case("identical docs pass", base, _scenario(), 0)
    ok &= _run_case(
        "gated regression fails",
        base, _scenario(makespan_cycles=1100), 1, "makespan_cycles")
    ok &= _run_case(
        "within-tolerance drift passes",
        base, _scenario(makespan_cycles=1010), 0)
    ok &= _run_case(
        "improvement passes", base, _scenario(makespan_cycles=500), 0)
    missing = _scenario()
    del missing["latency_p99_cycles"]
    ok &= _run_case(
        "gated metric missing from current fails",
        base, missing, 1, "missing from current")
    ok &= _run_case(
        "gated metric missing from baseline fails",
        missing, base, 1, "missing from baseline")
    ok &= _run_case(
        "wall_ keys never gate",
        _scenario(wall_phase_pick_seconds=0.001),
        _scenario(wall_phase_pick_seconds=99.0), 0)
    ok &= _run_case(
        "rss_ keys never gate",
        _scenario(rss_mb_peak=100.0),
        _scenario(rss_mb_peak=9000.0), 0)
    ok &= _run_case(
        "unclassified metric informs, never gates",
        _scenario(brand_new_metric=1),
        _scenario(brand_new_metric=1000), 0, "not classified")
    # Scenario-scoped gates: decode_p99_cycles gates inside the disagg
    # scenarios, informs (no unclassified note) everywhere else.
    disagg = _scenario(name="disagg_prefill_decode_split",
                       decode_p99_cycles=1000)
    ok &= _run_case(
        "scoped gate regression fails",
        disagg,
        _scenario(name="disagg_prefill_decode_split",
                  decode_p99_cycles=1100), 1, "decode_p99_cycles")
    ok &= _run_case(
        "scoped gate improvement passes",
        disagg,
        _scenario(name="disagg_prefill_decode_split",
                  decode_p99_cycles=500), 0)
    missing_scoped = _scenario(name="disagg_prefill_decode_split")
    ok &= _run_case(
        "scoped gated metric missing from current fails",
        disagg, missing_scoped, 1, "missing from current")
    ok &= _run_case(
        "scoped key outside its scenarios never gates",
        _scenario(decode_p99_cycles=100),
        _scenario(decode_p99_cycles=10000), 0)
    host_a = {"nproc": 4, "cpu_model": "cpu A", "compiler": "GNU 12.2.0",
              "build_type": "Release"}
    host_b = dict(host_a, nproc=64, cpu_model="cpu B", build_type="Debug")
    ok &= _run_case(
        "unstamped files pass and say so", base, _scenario(), 0,
        "host (current): not stamped")
    ok &= _run_case(
        "host stamp is printed", base, _scenario(), 0,
        "host (baseline): nproc=4, cpu_model=cpu A, compiler=GNU 12.2.0, "
        "build_type=Release", hosts=(host_a, None))
    ok &= _run_case(
        "differing hosts never gate", base, _scenario(), 0,
        "host (current): nproc=64, cpu_model=cpu B", hosts=(host_a, host_b))
    ok &= _run_case(
        "a host stamp does not mask a regression",
        base, _scenario(makespan_cycles=1100), 1, "makespan_cycles",
        hosts=(host_a, host_a))
    ok &= _list_case()
    print("self-test:", "OK" if ok else "FAIL")
    return 0 if ok else 1


def _list_case():
    """--list classifies every key of a representative scenario: gated
    metrics as GATED with their direction, wall/unlisted keys as
    informational."""
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump({"scenarios": [_scenario(brand_new_metric=1)]}, f)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = list_classification(path)
        text = out.getvalue()
        problems = []
        if code != 0:
            problems.append(f"exit {code}, expected 0")
        for needle in (
            "makespan_cycles",
            "GATED (lower is better)",
            "GATED (higher is better)",
            "informational (unlisted)",
        ):
            if needle not in text:
                problems.append(f"output lacks {needle!r}")
        status = "ok" if not problems else "FAIL (" + "; ".join(problems) + ")"
        print(f"  self-test: --list classifies baseline keys: {status}")
        return not problems
    finally:
        os.unlink(path)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--tolerance-pct", type=float, default=2.0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate's own unit checks and exit")
    parser.add_argument("--list", action="store_true",
                        help="print the gated-vs-informational "
                        "classification of every baseline metric and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.list:
        if args.baseline is None:
            parser.print_usage(sys.stderr)
            return 2
        return list_classification(args.baseline)
    if args.baseline is None or args.current is None:
        parser.print_usage(sys.stderr)
        return 2
    return compare(args.baseline, args.current, args.tolerance_pct)


if __name__ == "__main__":
    sys.exit(main())
