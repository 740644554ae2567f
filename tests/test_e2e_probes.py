"""Every probe of the end-to-end benchmark still has its target.

``benchmarks/e2e/probes.py`` rebinds public callables of ``repro`` by
name, from outside ``src/``.  A probe whose target moved is skipped at
benchmark time and surfaces only as ``trace.probe_missing`` in a traced
run; here it fails a test named after the target instead.  The second
test installs the real tracer around a handful of queries, so a target
that kept its name but changed its call shape (the counters read
arguments and results by position) fails too.  The benchmark directory
is imported read-only.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.engine.database import Database
from repro.sort.operator import SortConfig
from repro.workloads.scenarios import SCENARIOS

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


def _load_probes():
    """``probes.py`` as a module; it imports its sibling ``oracle``, so
    the directory is on ``sys.path`` (and the name taken) only meanwhile."""
    spec = importlib.util.spec_from_file_location(
        "e2e_probes", E2E / "probes.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    sys.path.insert(0, str(E2E))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(E2E))
        sys.modules.pop("oracle", None)
    return module


probes = _load_probes()


@pytest.mark.parametrize(
    "probe", probes.PROBES, ids=lambda p: f"{p.module}:{p.target}"
)
def test_probe_target_resolves(probe):
    module = importlib.import_module(probe.module)
    owner_name, _, attr = probe.target.rpartition(".")
    if owner_name:
        # Methods are replaced on the class that defines them.
        target = vars(getattr(module, owner_name)).get(attr)
    else:
        target = getattr(module, attr, None)
    assert target is not None, f"{probe.module} has no {probe.target}"
    assert callable(getattr(target, "__func__", target))


def test_probes_bind_with_their_call_shapes():
    rows = 6000
    ints = SCENARIOS["uniform"]
    strings = SCENARIOS["long_string"]
    resident = Database(SortConfig())
    spilling = Database(SortConfig(external=True, run_threshold=2000))
    for database in (resident, spilling):
        database.register("t", ints.table(rows, 17))
        database.register("s", strings.table(rows, 17))
    string_sql = strings.sql().replace("FROM t", "FROM s")
    tracer = probes.Tracer()
    tracer.install()
    try:
        span = tracer.begin_query()
        resident.execute(ints.sql())
        resident.execute(string_sql)
        resident.execute(ints.sql(limit=10, offset=3))
        spilling.execute(ints.sql())
        tracer.end(span)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    summary = tracer.summary()
    calls, counts = summary["calls"], summary["counts"]
    # One resident run each; the spilling sort cuts its 1,024-row chunks
    # at 2,048 rows twice and keeps the 1,904-row tail resident (a tail
    # is never written).  Top-N saw every input row.
    assert calls["sort.finalize_s"] == 3
    assert calls["topn.finalize_s"] == 1
    assert counts["topn.rows_in"] == rows
    assert calls["spill.write_s"] == 2
    assert counts["spill.write_bytes"] > 0
    # The string repair's pass and the spilled merge emit their rows.
    assert counts["sort.merge_rows"] == 2 * rows
    # Runs and Top-N pack key words: none of the four queries writes
    # key bytes through normalize_keys.
    assert counts.get("keys.encode_bytes", 0) == 0
    for metric in ("sort.rungen_s", "sort.refine_s", "rows.decode_s"):
        assert calls[metric] > 0, metric
