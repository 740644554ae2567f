"""Regression gate over the recorded benchmark-matrix trajectory.

Compares a freshly measured ``BENCH_matrix.json`` (the *candidate*)
against the committed baseline and **fails** (exit 1) when the sort
pipeline regressed:

* **Hot-path slowdown** -- a cell whose normalized time grew by more
  than ``--threshold`` (default 15%).  Cell times are normalized by the
  *same run's* reference cell (``uniform x in_memory``), so the
  comparison measures the pipeline's shape, not the runner's absolute
  speed: a uniformly slower machine scales every cell including the
  reference and the ratios cancel.  Cells faster than ``--min-seconds``
  in both runs are skipped as timer noise (they are still checked for
  identity and counts).
* **Count drift** -- a cell whose run-sort counts (``sort_passes``,
  ``sort_tied_rows``: what the one sort kernel did on that scenario's
  keys) or elided-sort count differs from the baseline.  All are exact
  and deterministic for a given (rows, seed), so a drift means key encoding, compression, the
  kernel's pass structure or a heuristic changed; an *intended* change
  must ship with a regenerated baseline in the same commit (the
  "artifact update" that makes the gate pass).
* **Top-N slower than the sort it avoids** -- a candidate scenario whose
  ``topn`` cell records fewer rows/s than its own ``in_memory`` cell.
  Both cells time the same table in the same run, so no baseline or
  normalization is involved: a Top-N that loses to fully sorting its
  input is a bug whatever the machine.
* **In-memory slower than external** -- a candidate scenario whose
  ``in_memory`` cell is slower than its own ``external`` cell by more
  than ``--threshold``, by the same same-run comparison.  The two
  operators are one pipeline around a resident and a spilling run
  store, so the resident one is the spilling one minus the I/O and must
  not lose to it.  (Top-N's margin is a multiple and is compared
  exactly; this margin is only the spill I/O -- a few percent on the
  string scenarios, where decode dominates -- so it gets the noise
  allowance the cross-run cells get.)
* **Shape loss** -- a scenario, path, or byte-identity flag present in
  the baseline but missing (or false) in the candidate.
* **Scale mismatch** -- candidate recorded at different (rows, seed):
  the counts are row-count dependent, so cross-scale comparison is
  refused rather than fudged.

The gate also covers the planner order-propagation cells
(``BENCH_planner.json`` from ``bench_order_propagation.py``) when a
candidate is supplied: every cell must stay byte-identical to its
forced-resort oracle, keep its recorded ``sorts_elided`` /
``cache_prefix_hits`` counters (a drop means the planner silently
stopped eliding), and hold the ``min_speedup`` floor the cell itself
records (3x for the single-input elisions, parity for the merge join).

Usage (CI runs exactly this; see ``docs/sort-pipeline.md``)::

    python benchmarks/bench_matrix.py --rows 24000 --out BENCH_matrix_ci.json
    python benchmarks/regress.py --baseline BENCH_matrix.json \
        --candidate BENCH_matrix_ci.json
    python benchmarks/bench_order_propagation.py --out BENCH_planner_ci.json
    python benchmarks/regress.py --planner-baseline BENCH_planner.json \
        --planner-candidate BENCH_planner_ci.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_THRESHOLD = 0.15
DEFAULT_MIN_SECONDS = 0.02

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(_REPO, "BENCH_matrix.json")
DEFAULT_PLANNER_BASELINE = os.path.join(_REPO, "BENCH_planner.json")


# (faster path, slower path, noise allowance applies, what a violation
# means): cells of one run that time the same table, compared without
# baseline or normalization.
SAME_RUN_ORDER = (
    (
        "topn",
        "in_memory",
        False,
        "Top-N slower than the full in-memory sort of the same table",
    ),
    (
        "in_memory",
        "external",
        True,
        "in-memory sort slower than the external sort of the same table "
        "(the same pipeline plus spill I/O)",
    ),
)


EXACT_COUNTS = ("sort_passes", "sort_tied_rows", "sorts_elided")
"""``dispatch`` entries that repeat exactly per (rows, seed): what the run
sort did, and how many sorts the planner elided (a drop means it stopped
eliding a sort it used to)."""


def _reference_seconds(matrix: dict) -> float:
    scenario, path = matrix.get("reference_cell", ["uniform", "in_memory"])
    try:
        return matrix["scenarios"][scenario]["paths"][path]["seconds"]
    except KeyError:
        raise SystemExit(
            f"reference cell {scenario}/{path} missing from matrix"
        )


def compare(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
    min_seconds: float = DEFAULT_MIN_SECONDS,
) -> list[str]:
    """Every violation of the recorded trajectory, as human-readable lines."""
    violations: list[str] = []
    for field in ("rows", "seed"):
        if baseline.get(field) != candidate.get(field):
            violations.append(
                f"scale mismatch: baseline {field}={baseline.get(field)} "
                f"vs candidate {field}={candidate.get(field)}; the counts are "
                f"scale-dependent, re-run the candidate at the baseline scale"
            )
    if violations:
        return violations

    base_ref = _reference_seconds(baseline)
    cand_ref = _reference_seconds(candidate)
    ref_name = "/".join(baseline.get("reference_cell", ["uniform", "in_memory"]))

    for scenario, base_entry in baseline["scenarios"].items():
        cand_entry = candidate["scenarios"].get(scenario)
        if cand_entry is None:
            violations.append(f"{scenario}: scenario missing from candidate")
            continue
        for faster, slower, noisy, meaning in SAME_RUN_ORDER:
            fast = cand_entry["paths"].get(faster)
            slow = cand_entry["paths"].get(slower)
            allowance = 1.0 + threshold if noisy else 1.0
            if fast and slow and fast["seconds"] > slow["seconds"] * allowance:
                rows = candidate["rows"]
                violations.append(
                    f"{scenario}/{faster}: {meaning} "
                    f"({rows / fast['seconds']:,.0f} < "
                    f"{rows / slow['seconds']:,.0f} rows/s)"
                )
        for path, base_cell in base_entry["paths"].items():
            cand_cell = cand_entry["paths"].get(path)
            cell = f"{scenario}/{path}"
            if cand_cell is None:
                violations.append(f"{cell}: path missing from candidate")
                continue
            if cand_cell.get("identical") is not True:
                violations.append(
                    f"{cell}: candidate output not byte-identical to the "
                    f"scalar oracle"
                )
            base_dispatch = base_cell.get("dispatch") or {}
            cand_dispatch = cand_cell.get("dispatch") or {}
            for count in EXACT_COUNTS:
                if count not in base_dispatch:
                    continue
                if cand_dispatch.get(count) != base_dispatch[count]:
                    violations.append(
                        f"{cell}: {count} changed "
                        f"{base_dispatch[count]!r} -> "
                        f"{cand_dispatch.get(count)!r} without a "
                        f"baseline update"
                    )
            base_s = base_cell["seconds"]
            cand_s = cand_cell["seconds"]
            if (scenario, path) == tuple(
                baseline.get("reference_cell", ["uniform", "in_memory"])
            ):
                continue  # the reference normalizes itself to 1.0
            if base_s < min_seconds and cand_s < min_seconds:
                continue  # timer noise; identity and counts already checked
            base_norm = base_s / base_ref
            cand_norm = cand_s / cand_ref
            if cand_norm > base_norm * (1.0 + threshold):
                violations.append(
                    f"{cell}: hot-path slowdown {base_norm:.2f} -> "
                    f"{cand_norm:.2f} (x{ref_name}; "
                    f"{100 * (cand_norm / base_norm - 1):.0f}% > "
                    f"{100 * threshold:.0f}% allowed)"
                )
    return violations


def compare_planner(baseline: dict, candidate: dict) -> list[str]:
    """Violations of the planner order-propagation trajectory.

    Counters (``sorts_elided``, ``cache_prefix_hits``) are exact: the
    planner's elision decisions are deterministic for a given (rows,
    seed), so any drift means the optimizer changed and the baseline
    must be regenerated in the same commit.  Speedup floors come from
    the cells themselves (``min_speedup``) and are only enforced when
    the candidate ran at gate scale (``gated`` true).
    """
    violations: list[str] = []
    for field in ("rows", "seed"):
        if baseline.get(field) != candidate.get(field):
            violations.append(
                f"planner scale mismatch: baseline {field}="
                f"{baseline.get(field)} vs candidate "
                f"{candidate.get(field)}; re-run the candidate at the "
                f"baseline scale"
            )
    if violations:
        return violations
    for name, base_cell in baseline.get("cells", {}).items():
        cand_cell = candidate.get("cells", {}).get(name)
        if cand_cell is None:
            violations.append(f"planner/{name}: cell missing from candidate")
            continue
        if cand_cell.get("identical") is not True:
            violations.append(
                f"planner/{name}: elided output not identical to the "
                f"forced-resort oracle"
            )
        for counter in ("sorts_elided", "sorts_subsumed", "cache_prefix_hits"):
            if counter not in base_cell:
                continue
            if cand_cell.get(counter) != base_cell[counter]:
                violations.append(
                    f"planner/{name}: {counter} changed "
                    f"{base_cell[counter]!r} -> {cand_cell.get(counter)!r} "
                    f"without a baseline update"
                )
        floor = base_cell.get("min_speedup")
        if (
            floor is not None
            and candidate.get("gated")
            and cand_cell.get("speedup", 0.0) < floor
        ):
            violations.append(
                f"planner/{name}: speedup {cand_cell.get('speedup', 0.0):.2f}x "
                f"fell below the {floor:.1f}x floor (forced "
                f"{cand_cell.get('forced_s', 0.0):.4f}s vs elided "
                f"{cand_cell.get('elided_s', 0.0):.4f}s)"
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE)
    parser.add_argument("--candidate", default=None)
    parser.add_argument(
        "--planner-baseline", default=DEFAULT_PLANNER_BASELINE
    )
    parser.add_argument("--planner-candidate", default=None)
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    parser.add_argument(
        "--min-seconds", type=float, default=DEFAULT_MIN_SECONDS
    )
    arguments = parser.parse_args(argv)
    if arguments.candidate is None and arguments.planner_candidate is None:
        parser.error("need --candidate and/or --planner-candidate")

    violations: list[str] = []
    cells = 0
    if arguments.candidate is not None:
        with open(arguments.baseline) as fh:
            baseline = json.load(fh)
        with open(arguments.candidate) as fh:
            candidate = json.load(fh)
        violations += compare(
            baseline,
            candidate,
            threshold=arguments.threshold,
            min_seconds=arguments.min_seconds,
        )
        cells += sum(
            len(entry["paths"]) for entry in baseline["scenarios"].values()
        )
    if arguments.planner_candidate is not None:
        with open(arguments.planner_baseline) as fh:
            planner_baseline = json.load(fh)
        with open(arguments.planner_candidate) as fh:
            planner_candidate = json.load(fh)
        violations += compare_planner(planner_baseline, planner_candidate)
        cells += len(planner_baseline.get("cells", {}))
    if violations:
        print(f"REGRESSION GATE FAILED ({len(violations)} violation(s)):")
        for line in violations:
            print(f"  - {line}")
        print(
            "If the count or performance change is intended, regenerate "
            "the baseline (python benchmarks/bench_matrix.py and/or "
            "python benchmarks/bench_order_propagation.py) and commit the "
            "updated BENCH_*.json with this change."
        )
        return 1
    print(
        f"regression gate passed: {cells} cells, no slowdown beyond "
        f"{100 * arguments.threshold:.0f}% and no count drift"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
