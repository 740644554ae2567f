"""Spans around each layer's public callables, recorded from outside ``src/``.

Only the trace child imports this module.  :data:`PROBES` is the
declarative table: each row names a per-layer time metric and one public
callable of the program whose *self time* (its span minus the spans it
caused) is charged to that metric, plus an optional counter fed from the
call's arguments or result.  Self times partition a query's wall clock,
so the ``*_s`` metrics of one workload add up to ``trace.coverage`` times
the traced wall.

Installing a probe replaces the callable everywhere the program can
reach it: modules bind names with ``from x import f``, so every
``repro.*`` module attribute that *is* the original function is
replaced (a walk over ``sys.modules``), and methods are replaced on the
class that defines them.  Generator functions are timed per ``next()``.
A probe whose target no longer exists is skipped and counted in
``Tracer.missing``; it never raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

from oracle import table_bytes

# Span record fields (a list, mutated in place while the span is open).
METRIC, START, END, PARENT, QID, CHILD_S, COUNTER, COUNT, YIELDED = range(9)

ROOT = "query"
"""Metric name of the benchmark-owned span around one whole query."""


@dataclass(frozen=True)
class Probe:
    metric: str
    module: str
    target: str  # "function" or "Class.method"
    counter: str = ""
    count: Callable | None = None
    """``count(args, kwargs, result)`` (per yielded item for generators)
    -> number added to ``counter``."""
    qid: Callable | None = None
    """``qid(args, kwargs)`` -> query id for a span that starts a thread's
    stack (a service worker has no benchmark span above it)."""


def _grant_query_id(args, kwargs):
    config = kwargs.get("sort_config", args[2] if len(args) > 2 else None)
    grant = getattr(config, "memory_grant", None)
    return getattr(grant, "query_id", None)


_CHUNK_OPERATORS = (
    "ScanOperator",
    "ProjectOperator",
    "FilterOperator",
    "SortExecOperator",
    "TopNExecOperator",
    "LimitOperator",
)

PROBES: tuple[Probe, ...] = (
    # engine: parse/bind/optimize, the chunk pipeline, result assembly
    Probe("engine.plan_s", "repro.engine.parser", "parse"),
    Probe("engine.plan_s", "repro.engine.plan", "bind"),
    Probe("engine.plan_s", "repro.engine.plan", "optimize"),
    Probe(
        "engine.plan_s", "repro.engine.database", "Database.execute_bound",
        qid=_grant_query_id,
    ),
    Probe("engine.scan_s", "repro.table.chunk", "chunk_table"),
    *(
        Probe("engine.scan_s", "repro.engine.operators", f"{name}.chunks")
        for name in _CHUNK_OPERATORS
    ),
    Probe("engine.collect_s", "repro.engine.operators", "collect"),
    # table
    Probe(
        "table.concat_s", "repro.table.table", "Table.concat",
        "table.concat_bytes", lambda a, k, result: table_bytes(result),
    ),
    # keys
    Probe(
        "keys.encode_s", "repro.keys.normalizer", "normalize_keys",
        "keys.encode_bytes", lambda a, k, result: result.matrix.nbytes,
    ),
    Probe("keys.encode_s", "repro.keys.compression", "KeyStatsAccumulator.update"),
    Probe("keys.encode_s", "repro.keys.compression", "KeyStatsAccumulator.build_layout"),
    Probe("keys.encode_s", "repro.keys.compression", "rebase_matrix"),
    # sort
    Probe("sort.sink_s", "repro.sort.operator", "SortOperator.sink"),
    Probe("sort.sink_s", "repro.sort.external", "ExternalSortOperator.sink"),
    Probe("sort.finalize_s", "repro.sort.operator", "SortOperator.finalize"),
    Probe("sort.finalize_s", "repro.sort.external", "ExternalSortOperator.finalize"),
    Probe("sort.rungen_s", "repro.sort.heuristic", "vector_sort_rows"),
    Probe("sort.rungen_s", "repro.sort.rungen", "presortedness"),
    Probe("sort.rungen_s", "repro.sort.rungen", "ReplacementSelection.feed"),
    Probe("sort.rungen_s", "repro.sort.rungen", "ReplacementSelection.step"),
    Probe(
        "sort.merge_s", "repro.sort.kernels", "merge_indices",
        "sort.merge_rows", lambda a, k, result: len(result),
    ),
    Probe(
        "sort.merge_s", "repro.sort.kernels", "kway_merge_blocks",
        "sort.merge_rows", lambda a, k, item: len(item[0]),
    ),
    Probe("sort.merge_s", "repro.sort.kernels", "ovc_codes"),
    Probe("sort.refine_s", "repro.sort.stringsort", "refine_key_order"),
    # rows
    Probe("rows.encode_s", "repro.rows.block", "RowBlock.from_table"),
    Probe("rows.gather_s", "repro.rows.block", "RowBlock.take"),
    Probe("rows.gather_s", "repro.rows.block", "RowBlock.concat"),
    Probe("rows.gather_s", "repro.table.table", "Table.take"),
    Probe("rows.decode_s", "repro.rows.block", "RowBlock.to_table"),
    # Key-carried spill runs rebuild the payload from the keys.
    Probe("rows.decode_s", "repro.keys.compression", "decode_key_table"),
    # spill
    Probe(
        "spill.write_s", "repro.sort.faults", "SpillIO.write_file",
        "spill.write_bytes", lambda a, k, result: sum(map(len, a[2])),
    ),
    Probe(
        "spill.read_s", "repro.sort.faults", "SpillIO.read",
        "spill.read_bytes", lambda a, k, result: len(result),
    ),
    # topn
    Probe(
        "topn.sink_s", "repro.sort.topn", "TopNOperator.sink",
        "topn.rows_in", lambda a, k, result: len(a[1]),
    ),
    Probe("topn.finalize_s", "repro.sort.topn", "TopNOperator.finalize"),
)


class Tracer:
    """In-memory span store; one stack and one span list per thread."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.installed: set[str] = set()
        """Metrics with at least one probe in place."""
        # (owner, attribute, original, wrapped): found once, then toggled
        self._sites: list[tuple] = []
        self._queries = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[str, list]] = []

    # -- recording -------------------------------------------------------- #

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                self._threads.append(
                    (threading.current_thread().name, local.spans)
                )
        return local

    def begin(self, metric: str, qid=None, counter: str = "") -> list:
        local = self._state()
        parent = local.stack[-1] if local.stack else None
        if parent is not None:
            qid = parent[QID]
        span = [
            metric, time.perf_counter(), 0.0, parent, qid, 0.0, counter, 0,
            False,
        ]
        local.stack.append(span)
        local.spans.append(span)
        return span

    def begin_query(self) -> list:
        """Open the benchmark-owned span around one whole query."""
        with self._lock:
            self._queries += 1
            qid = self._queries
        return self.begin(ROOT, qid)

    @staticmethod
    def tag(span: list, qid) -> None:
        """Give an open span its query id once the program has issued one."""
        span[QID] = qid

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD_S] += span[END] - span[START]

    # -- installing ------------------------------------------------------- #

    def install(self, probes: tuple[Probe, ...] = PROBES) -> None:
        """Put the probes in place; after :meth:`uninstall`, put them back."""
        if self._sites:
            for owner, attr, _, wrapped in self._sites:
                setattr(owner, attr, wrapped)
            return
        for probe in probes:
            try:
                self._install_one(probe)
            except (ImportError, AttributeError):
                self.missing.append(f"{probe.module}:{probe.target}")
            else:
                self.installed.add(probe.metric)

    def uninstall(self) -> None:
        """Put every original callable back (bare queries run unprobed)."""
        for owner, attr, original, _ in self._sites:
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        self._sites.append((owner, attr, original, wrapped))
        setattr(owner, attr, wrapped)

    def _install_one(self, probe: Probe) -> None:
        module = importlib.import_module(probe.module)
        owner_name, _, attr = probe.target.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__.get(attr)
            if raw is None:
                raise AttributeError(probe.target)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, probe))
            else:
                wrapped = self._wrap(raw, probe)
            self._replace(owner, attr, raw, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(original, probe)
        for name, candidate in list(sys.modules.items()):
            if candidate is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(candidate).items()):
                if value is original:
                    self._replace(candidate, key, original, wrapped)

    def _wrap(self, function, probe: Probe):
        begin, end = self.begin, self.end
        metric, counter = probe.metric, probe.counter
        count, qid = probe.count, probe.qid

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def generator_wrapper(*args, **kwargs):
                inner = function(*args, **kwargs)
                try:
                    while True:
                        span = begin(metric, None, counter)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            end(span)
                        span[YIELDED] = True
                        if count is not None:
                            span[COUNT] = count(args, kwargs, item)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span = begin(metric, qid(args, kwargs) if qid else None, counter)
            try:
                result = function(*args, **kwargs)
            finally:
                end(span)
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return wrapper

    # -- reading ---------------------------------------------------------- #

    def all_spans(self):
        with self._lock:
            threads = list(self._threads)
        for thread_name, spans in threads:
            for span in spans:
                yield thread_name, span

    def summary(self) -> dict:
        """Totals per metric plus what ``trace.coverage`` needs.

        ``self_s`` sums over every thread (prefetch reads included);
        ``covered_s`` only over spans that belong to a query, so time a
        background thread overlaps with the query is not counted twice.
        """
        self_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        counts: dict[str, float] = {}
        root_s = covered_s = 0.0
        roots = result_chunks = 0
        for _, span in self.all_spans():
            duration = span[END] - span[START]
            if span[METRIC] == ROOT:
                root_s += duration
                roots += 1
                continue
            own = duration - span[CHILD_S]
            self_s[span[METRIC]] = self_s.get(span[METRIC], 0.0) + own
            calls[span[METRIC]] = calls.get(span[METRIC], 0) + 1
            if span[QID] is not None:
                covered_s += own
            if span[COUNTER]:
                counts[span[COUNTER]] = (
                    counts.get(span[COUNTER], 0) + span[COUNT]
                )
            parent = span[PARENT]
            if (
                span[YIELDED]
                and parent is not None
                and parent[METRIC] == "engine.collect_s"
            ):
                result_chunks += 1
        return {
            "self_s": self_s,
            "calls": calls,
            "counts": counts,
            "root_s": root_s,
            "roots": roots,
            "covered_s": covered_s,
            "result_chunks": result_chunks,
        }

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, query id."""
        with open(path, "w") as out:
            for thread_name, span in self.all_spans():
                parent = span[PARENT]
                out.write(
                    json.dumps(
                        {
                            "name": span[METRIC],
                            "thread": thread_name,
                            "start": span[START],
                            "end": span[END],
                            "parent": None if parent is None else id(parent),
                            "id": id(span),
                            "query": span[QID],
                        }
                    )
                    + "\n"
                )
