"""The bench-matrix regression gate's contract (benchmarks/regress.py).

The gate compares a candidate BENCH_matrix.json against the committed
baseline.  These tests drive it with synthetic matrices: the required
negative test (an injected >15% hot-path slowdown MUST fail the gate),
the hardware-robustness property (a uniformly slower machine must NOT
fail it, because cells are normalized by the same run's reference
cell), and the count-drift / shape-loss / scale-mismatch /
Top-N-vs-in-memory / in-memory-vs-external rules.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

_BENCHMARKS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks"
)
if _BENCHMARKS not in sys.path:
    sys.path.insert(0, _BENCHMARKS)

from regress import compare, main  # noqa: E402


def make_matrix() -> dict:
    """A small but structurally faithful BENCH_matrix.json payload."""

    def cell(seconds, sort_counts=None):
        dispatch = None
        if sort_counts is not None:
            passes, tied_rows = sort_counts
            dispatch = {
                "sort_passes": passes,
                "sort_tied_rows": tied_rows,
                "sorts_elided": 0,
            }
        return {"seconds": seconds, "identical": True, "dispatch": dispatch}

    return {
        "rows": 24_000,
        "seed": 17,
        "reference_cell": ["uniform", "in_memory"],
        "scenarios": {
            "uniform": {
                "paths": {
                    "in_memory": cell(0.10, (1, 0)),
                    "external": cell(0.20, (4, 0)),
                    "topn": cell(0.05),
                }
            },
            "near_sorted": {
                "paths": {
                    "in_memory": cell(0.08, (1, 0)),
                    "external": cell(0.15, (4, 0)),
                    "topn": cell(0.04),
                }
            },
            "long_string": {
                "paths": {
                    "in_memory": cell(0.40, (5, 24_000)),
                    "external": cell(0.60, (20, 24_000)),
                    "topn": cell(0.30),
                }
            },
        },
    }


def test_identical_matrices_pass():
    baseline = make_matrix()
    assert compare(baseline, copy.deepcopy(baseline)) == []


def test_injected_slowdown_fails():
    """The ISSUE's negative test: a 1.3x hot-cell slowdown must gate."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    cell = candidate["scenarios"]["long_string"]["paths"]["external"]
    cell["seconds"] *= 1.3
    violations = compare(baseline, candidate, threshold=0.15)
    assert len(violations) == 1
    assert "long_string/external" in violations[0]
    assert "hot-path slowdown" in violations[0]


def test_uniformly_slower_machine_passes():
    """2x slower hardware scales the reference too; ratios cancel."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    for entry in candidate["scenarios"].values():
        for cell in entry["paths"].values():
            cell["seconds"] *= 2.0
    assert compare(baseline, candidate) == []


def test_reference_speedup_flags_relative_slowdowns():
    """A reference-cell speedup makes unchanged cells relatively slower."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    # Candidate reference got 2x faster; other cells unchanged would look
    # "relatively slower" -- and genuinely are, relative to the pipeline
    # baseline.  The gate flags them: asserting the behavior documents it.
    candidate["scenarios"]["uniform"]["paths"]["in_memory"]["seconds"] /= 2
    violations = compare(baseline, candidate)
    assert all("hot-path slowdown" in v for v in violations)


def test_dispatch_flip_fails():
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    flipped = candidate["scenarios"]["long_string"]["paths"]["in_memory"]
    flipped["dispatch"]["sort_passes"] = 6
    violations = compare(baseline, candidate)
    assert violations == [
        "long_string/in_memory: sort_passes changed 5 -> 6 without a "
        "baseline update"
    ]


def test_tied_rows_drift_fails():
    """A key-encoding change that unties rows moves an exact count."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    cell = candidate["scenarios"]["long_string"]["paths"]["external"]
    cell["dispatch"]["sort_tied_rows"] = 23_990
    violations = compare(baseline, candidate)
    assert violations == [
        "long_string/external: sort_tied_rows changed 24000 -> 23990 "
        "without a baseline update"
    ]


def test_sorts_elided_drift_fails():
    """A planner that stops eliding a sort moves an exact count."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    cell = candidate["scenarios"]["near_sorted"]["paths"]["in_memory"]
    cell["dispatch"]["sorts_elided"] = 1
    violations = compare(baseline, candidate)
    assert violations == [
        "near_sorted/in_memory: sorts_elided changed 0 -> 1 without a "
        "baseline update"
    ]


def test_missing_path_and_scenario_fail():
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    del candidate["scenarios"]["near_sorted"]["paths"]["external"]
    del candidate["scenarios"]["long_string"]
    violations = compare(baseline, candidate)
    assert any("path missing" in v for v in violations)
    assert any("scenario missing" in v for v in violations)


def test_identity_loss_fails():
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    candidate["scenarios"]["uniform"]["paths"]["external"]["identical"] = False
    violations = compare(baseline, candidate)
    assert any("not byte-identical" in v for v in violations)


def test_topn_slower_than_in_memory_fails():
    """Top-N must not lose to fully sorting the same table."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    paths = candidate["scenarios"]["near_sorted"]["paths"]
    # Sub-floor on purpose: the rule compares two cells of one run, so
    # the timer-noise skip of the cross-run rule does not apply.
    paths["in_memory"]["seconds"] = 0.010
    paths["topn"]["seconds"] = 0.012
    violations = compare(baseline, candidate, threshold=10.0)
    assert len(violations) == 1
    assert "near_sorted/topn" in violations[0]
    assert "Top-N slower" in violations[0]


def test_in_memory_slower_than_external_fails():
    """The resident store is the spilling one minus the I/O."""
    baseline = make_matrix()
    paths = baseline["scenarios"]["long_string"]["paths"]
    # Within the noise allowance: spill I/O is a thin margin on strings.
    paths["in_memory"]["seconds"] = paths["external"]["seconds"] * 1.05
    assert compare(baseline, copy.deepcopy(baseline), threshold=0.15) == []
    # Baseline and candidate agree, so only the same-run rule can fire.
    paths["in_memory"]["seconds"] = paths["external"]["seconds"] * 1.3
    violations = compare(baseline, copy.deepcopy(baseline), threshold=0.15)
    assert len(violations) == 1
    assert "long_string/in_memory" in violations[0]
    assert "slower than the external sort" in violations[0]


def test_scale_mismatch_refused():
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    candidate["rows"] = 6_000
    violations = compare(baseline, candidate)
    assert violations and "scale mismatch" in violations[0]


def test_sub_floor_cells_skip_timing_but_keep_dispatch():
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    # topn cells are below the default 0.02s floor after scaling down.
    for matrix in (baseline, candidate):
        for entry in matrix["scenarios"].values():
            entry["paths"]["topn"]["seconds"] = 0.001
    candidate["scenarios"]["uniform"]["paths"]["topn"]["seconds"] = 0.01
    assert compare(baseline, candidate) == []


def test_cli_exit_codes(tmp_path):
    """End to end through the argparse entry point, as CI invokes it."""
    baseline = make_matrix()
    candidate = copy.deepcopy(baseline)
    base_path = tmp_path / "baseline.json"
    cand_path = tmp_path / "candidate.json"
    base_path.write_text(json.dumps(baseline))
    cand_path.write_text(json.dumps(candidate))
    assert (
        main(["--baseline", str(base_path), "--candidate", str(cand_path)])
        == 0
    )
    candidate["scenarios"]["long_string"]["paths"]["external"]["seconds"] *= 1.3
    cand_path.write_text(json.dumps(candidate))
    assert (
        main(["--baseline", str(base_path), "--candidate", str(cand_path)])
        == 1
    )


@pytest.mark.slow
def test_gate_against_committed_baseline_subprocess(tmp_path):
    """The committed BENCH_matrix.json gates a copy of itself (exit 0)."""
    repo = os.path.dirname(_BENCHMARKS)
    baseline = os.path.join(repo, "BENCH_matrix.json")
    assert os.path.exists(baseline), "committed baseline missing"
    candidate = tmp_path / "candidate.json"
    candidate.write_text(open(baseline).read())
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(_BENCHMARKS, "regress.py"),
            "--baseline",
            baseline,
            "--candidate",
            str(candidate),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
