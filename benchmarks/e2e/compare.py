#!/usr/bin/env python3
"""Compare two ``run.py --out`` reports, one row per (metric, workload).

``python3 benchmarks/e2e/compare.py A.json B.json`` -- A is the parent,
B the change.  Each end-to-end metric's bound comes from
``BENCHMARK.json``; ``error_rate`` regresses on any increase.

Per row: each side's median over its passes (``run.py --repeat N``), its
quartile spread as a share of that median, and a verdict:

``regressed``   B's median is worse than A's by more than the bound
``better``      B's median is better by more than the bound (not a claim
                of a gain: that takes ten alternating pairs, see README)
``unchanged``   within the bound, and both spreads are within it too
``unresolved``  within the bound, but a side's spread is wider than the
                bound, so "no regression" cannot be told from noise --
                unless every pass of B reads better than every pass of A

Exit code 1 when any row regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float | None:
    """(Q3 - Q1) / median, or ``None`` for a single pass."""
    if len(values) < 2:
        return None
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / base
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "better"
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if any(s > bound for s in spreads):
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        return "unresolved"
    return "unchanged"


def error_rate(result: dict) -> tuple[float, int, int]:
    parts = result["runs"] + [result["traced"]]
    ops = sum(part["ops"] for part in parts)
    failed = sum(part["failed_ops"] for part in parts)
    return failed / ops, failed, ops


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as handle:
        side_a = json.load(handle)
    with open(argv[1]) as handle:
        side_b = json.load(handle)
    with open(ROOT / "BENCHMARK.json") as handle:
        declaration = json.load(handle)

    def show(x: float | None) -> str:
        return "n/a" if x is None else f"{100 * x:.1f}%"

    print(
        f"{'workload':<18} {'metric':<13} {'A median':>12} {'B median':>12} "
        f"{'change':>8} {'A spread':>9} {'B spread':>9} {'bound':>6}  verdict"
    )
    tally: dict[str, int] = {}
    for entry in declaration["workloads"]:
        name = entry["name"]
        if name not in side_a["workloads"] or name not in side_b["workloads"]:
            print(f"{name:<18} missing from one side")
            tally["regressed"] = tally.get("regressed", 0) + 1
            continue
        result_a, result_b = side_a["workloads"][name], side_b["workloads"][name]
        for metric in declaration["end_to_end"]:
            a = [run[metric["name"]] for run in result_a["runs"]]
            b = [run[metric["name"]] for run in result_b["runs"]]
            outcome = verdict(a, b, metric["better"], metric["bound"])
            tally[outcome] = tally.get(outcome, 0) + 1
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(
                f"{name:<18} {metric['name']:<13} {med_a:>12.4g} {med_b:>12.4g} "
                f"{show((med_b - med_a) / med_a):>8} {show(spread(a)):>9} "
                f"{show(spread(b)):>9} {show(metric['bound']):>6}  {outcome}"
                f" (n={len(a)},{len(b)})"
            )
        rate_a, failed_a, ops_a = error_rate(result_a)
        rate_b, failed_b, ops_b = error_rate(result_b)
        outcome = "regressed" if rate_b > rate_a else "unchanged"
        tally[outcome] = tally.get(outcome, 0) + 1
        print(
            f"{name:<18} {'error_rate':<13} {rate_a:>12.4g} {rate_b:>12.4g} "
            f"{'':>8} {'':>9} {'':>9} {'any':>6}  {outcome}"
            f" ({failed_a}/{ops_a} vs {failed_b}/{ops_b} failed ops)"
        )
    print(", ".join(f"{count} {outcome}" for outcome, count in sorted(tally.items())))
    return 1 if tally.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
