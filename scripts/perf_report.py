#!/usr/bin/env python3
"""Diff two BENCH_runner_throughput.json files gate by gate.

Usage:
    perf_report.py BASELINE.json CURRENT.json [--strict]

Prints every shared numeric metric with its delta, then re-evaluates
the bench's shape gates on both files so a perf regression shows up as
"gate X: PASS -> FAIL" rather than a bare number. Metrics that are
JSON null (e.g. t8_over_t1 on a host with fewer than 8 hardware
threads) are reported as "skipped (host too small)", never compared.

Exit status: 0 unless --strict is given and the CURRENT file fails a
gate that is measurable there (smoke reports never fail gates — their
timings are sanitizer-skewed, same as the bench binary's own policy).
"""

import argparse
import json
import sys


# The bench's shape gates, re-stated declaratively: name, predicate
# over the report dict, and whether the metric exists in the file.
# Keep in lockstep with emitRunnerThroughput() in
# bench/microbench_simulator.cc.
def _gates(report):
    def num(key):
        value = report.get(key)
        return value if isinstance(value, (int, float)) else None

    gates = []

    def gate(name, keys, predicate):
        values = [num(k) for k in keys]
        if any(v is None for v in values):
            gates.append((name, None))  # not measurable in this file
        else:
            gates.append((name, bool(predicate(*values))))

    gate("program/chunk cache >= 1.2x (t1)",
         ["tuned_over_legacy_t1"], lambda x: x >= 1.2)
    gate("t1 throughput >= 3x PR-5 baseline",
         ["reused_t1_trials_per_sec", "pr5_baseline_trials_per_sec"],
         lambda tps, base: tps >= 3.0 * base)
    gate("counters-off within 2% of PR-7 gate",
         ["counters_off_t1_trials_per_sec",
          "counters_off_overhead_gate"],
         lambda tps, floor: tps >= floor)
    gate("t8 >= 3x t1 thread scaling",
         ["t8_over_t1"], lambda x: x >= 3.0)
    return gates


def _fmt(value):
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if CURRENT fails a measurable"
                             " gate (non-smoke files only)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        base = json.load(f)
    with open(args.current) as f:
        cur = json.load(f)
    for name, report in (("baseline", base), ("current", cur)):
        if report.get("benchmark") != "runner_throughput":
            sys.exit(f"{name} file is not a runner_throughput report")

    print(f"{'metric':42s} {'baseline':>14s} {'current':>14s}"
          f" {'delta':>9s}")
    keys = [k for k in cur
            if isinstance(cur.get(k), (int, float))
            and not isinstance(cur.get(k), bool)]
    keys += [k for k in cur if cur.get(k) is None]
    for key in keys:
        b, c = base.get(key), cur.get(key)
        if c is None or b is None:
            note = "skipped (host too small)" if key == "t8_over_t1" \
                else "not comparable"
            print(f"{key:42s} {_fmt(b):>14s} {_fmt(c):>14s}"
                  f"   {note}")
            continue
        if isinstance(b, bool) or not isinstance(b, (int, float)):
            continue
        delta = f"{(c - b) / b * 100.0:+8.1f}%" if b else "      n/a"
        print(f"{key:42s} {_fmt(b):>14s} {_fmt(c):>14s} {delta:>9s}")

    print()
    failures = 0
    for (name, base_ok), (_, cur_ok) in zip(_gates(base), _gates(cur)):
        def verdict(ok):
            if ok is None:
                return "skipped (host too small)"
            return "PASS" if ok else "FAIL"
        arrow = f"{verdict(base_ok)} -> {verdict(cur_ok)}"
        print(f"gate: {name:44s} {arrow}")
        if cur_ok is False:
            failures += 1

    smoke = bool(cur.get("smoke"))
    if args.strict and failures and not smoke:
        sys.exit(f"{failures} gate(s) failing in {args.current}")
    if failures and smoke:
        print("(gate failures ignored: smoke report)")


if __name__ == "__main__":
    main()
