#!/usr/bin/env python3
"""The repo's one benchmark: SQL text in, ``Table`` out, six workloads.

Three ways to run it, all from the repository root:

``python3 benchmarks/e2e/run.py [--seed 17] [--repeat N] [--out FILE]``
    Every workload: ``N`` measured passes with tracing off (the
    end-to-end metrics), one traced pass (the per-layer ledger), results
    checked against the benchmark's own oracle.  Prints every metric by
    name and unit; ``--out`` saves them for ``compare.py``.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, one pass: what the benchmark driver calls.  The last
    line of standard output is one JSON object with ``correct``,
    ``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics
    with ``--trace 0``, the per-layer metrics with ``--trace 1``).

``python3 benchmarks/e2e/run.py --smoke``
    Every workload at 1/50 size with 2 timed repetitions (< 30 s):
    checks that every metric ``BENCHMARK.json`` declares is present with
    its unit on every workload, and that a result with two rows swapped
    and a leaked spill directory are each counted as one failed op.

Process model.  This file only orchestrates: per workload it runs one
child process at a time (``child.py prepare``, then ``measure`` or
``trace``), so nothing but the program under test loads the machine
while a number is taken, the oracle's memory stays out of
``peak_rss_mb``, and ``probes.py`` is never imported where end-to-end
numbers are measured.  Each run works inside
``benchmarks/e2e/.work/<run>/`` and removes it afterwards.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 150.0
"""One child must end well inside the driver's 180 s per run."""

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def load_declaration() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


# ---------------------------------------------------------------------- #
# One pass of one workload
# ---------------------------------------------------------------------- #


def run_child(phase: str, workdir: Path, options: list[str]) -> dict:
    command = [sys.executable, str(HERE / "child.py"), phase, "--dir", str(workdir)]
    # The child prints nothing on success; anything it does print is a
    # diagnostic and must not end up as the last line of our stdout.
    done = subprocess.run(
        command + options, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise SystemExit(f"{phase} child failed with exit code {done.returncode}")
    with open(workdir / f"{phase}.json") as handle:
        return json.load(handle)


def run_pass(
    workload: str, seed: int, seconds: float, trace: bool, divisor: int,
    min_reps: int = 0, inject: str = "", trace_out: str = "",
) -> dict:
    """Prepare, then measure or trace, in a work directory of its own."""
    workdir = HERE / ".work" / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    common = [
        "--workload", workload, "--seed", str(seed), "--divisor", str(divisor),
    ]
    try:
        run_child("prepare", workdir, common)
        options = common + ["--seconds", str(seconds), "--min-reps", str(min_reps)]
        if inject:
            options += ["--inject", inject]
        if trace and trace_out:
            options += ["--trace-out", trace_out]
        return run_child("trace" if trace else "measure", workdir, options)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # leave no empty .work behind
        except OSError:
            pass


def contract_line(result: dict, declared: list[dict], values: dict) -> str:
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        # A metric whose probes are all gone is null in the ledger; the
        # driver wants a number, and trace.probe_missing carries the news.
        metrics[metric["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": metric["unit"],
        }
    correct = result["failed_ops"] == 0 and result.get("self_test_ok", True)
    return json.dumps(
        {
            "correct": correct,
            "attempted": result["ops"],
            "failed": result["failed_ops"],
            "metrics": metrics,
        }
    )


# ---------------------------------------------------------------------- #
# Printing
# ---------------------------------------------------------------------- #


def fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return f"{value:,}"
    if abs(value) >= 100:
        return f"{value:,.1f}"
    return f"{value:.3f}" if abs(value) >= 1 else f"{value:.4g}"


def print_end_to_end(declared: list[dict], runs: list[dict]) -> None:
    print(f"  end to end (tracing off, {len(runs)} pass(es); medians over passes)")
    for metric in declared:
        values = [run[metric["name"]] for run in runs]
        line = f"    {metric['name']:<14} {fmt(statistics.median(values)):>12} {metric['unit']}"
        if metric["name"] == "query_mid_ms":
            last = runs[-1]
            line += (
                f"   (last pass, raw, all queries: p25 {fmt(last['query_p25_ms'])}, "
                f"p75 {fmt(last['query_p75_ms'])}, n={last['queries']})"
            )
        print(line)
    last = runs[-1]
    print(
        f"    at reference speed; last pass read machine_speed "
        f"{fmt(last['machine_speed'])} and raw rows_per_s "
        f"{fmt(last['raw_rows_per_s'])}, query_mid_ms "
        f"{fmt(last['raw_query_mid_ms'])}, setup_s {fmt(last['raw_setup_s'])}"
    )
    ops = sum(run["ops"] for run in runs)
    failed = sum(run["failed_ops"] for run in runs)
    print(f"    {'error_rate':<14} {fmt(failed / ops):>12} fraction   ({failed} failed of {ops} ops)")
    for run in runs:
        for reason in run["reasons"]:
            print(f"      failed op: {reason}")
        if not run.get("self_test_ok", True):
            print("      SELF-TEST FAILED: two swapped rows were not detected")


def print_per_layer(declared: list[dict], traced: dict) -> None:
    print(
        "  per layer (traced pass; times are self times and, like counts, "
        "means per query)"
    )
    for metric in declared:
        value = traced["per_layer"][metric["name"]]
        print(f"    {metric['name']:<30} {fmt(value):>14} {metric['unit']}")
    if traced["probe_missing"]:
        print(f"    probes not installed: {traced['probe_missing']}")
    if traced["failed_ops"]:
        print(f"    traced pass: {traced['failed_ops']} failed ops: {traced['reasons']}")


# ---------------------------------------------------------------------- #
# Modes
# ---------------------------------------------------------------------- #


def contract_mode(args, declaration: dict) -> int:
    from workloads import DEFAULT_DIVISOR

    trace = bool(args.trace)
    result = run_pass(
        args.workload, args.seed, args.seconds, trace, DEFAULT_DIVISOR,
        trace_out=args.trace_out,
    )
    env = environment()
    print(f"{args.workload} seed {args.seed} environment {json.dumps(env)}")
    print(f"input_digest {result['input_digest']}")
    if trace:
        print_per_layer(declaration["per_layer"], result)
        line = contract_line(result, declaration["per_layer"], result["per_layer"])
    else:
        print_end_to_end(declaration["end_to_end"], [result])
        line = contract_line(result, declaration["end_to_end"], result)
    print(line)
    return 0


def full_mode(args, declaration: dict, divisor: int, min_reps: int = 0) -> dict:
    report = {
        "seed": args.seed,
        "seconds": args.seconds,
        "divisor": divisor,
        "environment": environment(),
        "workloads": {},
    }
    print(f"environment {json.dumps(report['environment'])}")
    for entry in declaration["workloads"]:
        name = entry["name"]
        runs = [
            run_pass(name, args.seed, args.seconds, False, divisor, min_reps)
            for _ in range(args.repeat)
        ]
        trace_out = ""
        if args.trace_out:
            os.makedirs(args.trace_out, exist_ok=True)
            trace_out = os.path.join(args.trace_out, f"{name}.spans.jsonl")
        traced = run_pass(
            name, args.seed, args.seconds, True, divisor, min_reps,
            trace_out=trace_out,
        )
        print(f"\n== {name} (seed {args.seed}, input {runs[0]['input_digest'][:12]}) ==")
        print(f"  why: {entry['why']}")
        print_end_to_end(declaration["end_to_end"], runs)
        print_per_layer(declaration["per_layer"], traced)
        report["workloads"][name] = {"runs": runs, "traced": traced}
    return report


def smoke_mode(args, declaration: dict) -> int:
    from workloads import SMOKE_DIVISOR

    started = time.perf_counter()
    args.seconds, args.repeat = 0.0, 1
    report = full_mode(args, declaration, SMOKE_DIVISOR, min_reps=2)
    problems = []
    for section in ("end_to_end", "per_layer"):
        for metric in declaration[section]:
            if not NAME_RE.fullmatch(metric["name"]):
                problems.append(f"bad metric name {metric['name']!r}")
            if not UNIT_RE.fullmatch(metric["unit"]):
                problems.append(f"bad unit {metric['unit']!r} of {metric['name']}")
    for name, result in report["workloads"].items():
        run, traced = result["runs"][0], result["traced"]
        for metric in declaration["end_to_end"]:
            value = run.get(metric["name"])
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{name}: {metric['name']} is {value!r}")
        for metric in declaration["per_layer"]:
            value = traced["per_layer"].get(metric["name"], "absent")
            if not isinstance(value, (int, float)):
                problems.append(f"{name}: {metric['name']} is {value!r}")
        if traced["probe_missing"]:
            problems.append(f"{name}: probes missing {traced['probe_missing']}")
        for part in (run, traced):
            if part["failed_ops"]:
                problems.append(f"{name}: failed ops {part['reasons']}")
        if not run["self_test_ok"]:
            problems.append(f"{name}: swapped rows were not detected")
    # The two negative checks: each injected fault is exactly one failed op.
    for fault in ("swap", "leak"):
        result = run_pass(
            "int_spill", args.seed, 0.0, False, SMOKE_DIVISOR, 2, inject=fault
        )
        print(
            f"\ninjected {fault}: {result['failed_ops']} failed of "
            f"{result['ops']} ops: {result['reasons']}"
        )
        if result["failed_ops"] != 1:
            problems.append(f"injected {fault} gave {result['failed_ops']} failed ops")
    elapsed = time.perf_counter() - started
    print(f"\nsmoke: {len(problems)} problem(s) in {elapsed:.1f} s")
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out")
    parser.add_argument("--trace-out", default="")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    declaration = load_declaration()
    if args.seconds is None:
        args.seconds = float(declaration["run_seconds"])
    # A terminated orchestrator must still stop its child and clean up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, str(HERE))

    if args.smoke:
        return smoke_mode(args, declaration)
    if args.workload:
        names = [w["name"] for w in declaration["workloads"]]
        if args.workload not in names:
            parser.error(f"--workload must be one of {names}")
        return contract_mode(args, declaration)
    from workloads import DEFAULT_DIVISOR

    report = full_mode(args, declaration, DEFAULT_DIVISOR)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
    failed = sum(
        part["failed_ops"]
        for result in report["workloads"].values()
        for part in result["runs"] + [result["traced"]]
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
