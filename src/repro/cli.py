"""Command-line interface: sort CSVs, run SQL, regenerate paper exhibits.

Usage::

    python -m repro sort data.csv --by "country DESC, year" -o sorted.csv
    python -m repro sql "SELECT a, count(*) FROM t GROUP BY a" --table t=data.csv
    python -m repro serve --table t=data.csv -q "SELECT * FROM t ORDER BY a" \
        --memory-budget 4M --threads 8
    python -m repro bench figure-9
    python -m repro bench --list
    python -m repro info
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from repro import __version__
from repro.bench import (
    ablation_block_size,
    ablation_engine_paradigms,
    ablation_heuristic_chooser,
    ablation_merge_path,
    ablation_msd_pdq_fallback,
    ablation_radix_skip_copy,
    ablation_radix_switch,
    ablation_sorting_side_benefits,
    ablation_string_prefix,
    figure2_subsort_columnar,
    figure3_subsort_columnar_stable,
    figure4_row_vs_columnar,
    figure5_row_vs_columnar_stable,
    figure6_dynamic_comparator,
    figure8_normalized_keys,
    figure9_radix_vs_pdqsort,
    figure10_counters_radix_pdq,
    figure12_integers_floats,
    figure13_catalog_sales,
    figure14_customer,
    robustness_predictors,
    rungen_comparison_budget,
    table1_hardware,
    thread_scalability,
    table2_counters_columnar,
    table3_counters_row,
    table4_cardinalities,
)
from repro.engine import Database
from repro.errors import ReproError
from repro.sort.operator import SortConfig, make_sort_operator
from repro.table.chunk import DataChunk
from repro.table.io import read_csv, table_to_csv_string, write_csv
from repro.table.table import Table
from repro.types.sortspec import SortSpec

__all__ = ["main", "EXPERIMENTS"]

EXPERIMENTS: dict[str, Callable] = {
    "table-1": table1_hardware,
    "table-2": table2_counters_columnar,
    "table-3": table3_counters_row,
    "table-4": table4_cardinalities,
    "figure-2": figure2_subsort_columnar,
    "figure-3": figure3_subsort_columnar_stable,
    "figure-4": figure4_row_vs_columnar,
    "figure-5": figure5_row_vs_columnar_stable,
    "figure-6": figure6_dynamic_comparator,
    "figure-8": figure8_normalized_keys,
    "figure-9": figure9_radix_vs_pdqsort,
    "figure-10": figure10_counters_radix_pdq,
    "figure-12": figure12_integers_floats,
    "figure-13": figure13_catalog_sales,
    "figure-14": figure14_customer,
    "section-2": rungen_comparison_budget,
    "robustness-predictors": robustness_predictors,
    "thread-scalability": thread_scalability,
    "ablation-prefix": ablation_string_prefix,
    "ablation-radix-switch": ablation_radix_switch,
    "ablation-merge-path": ablation_merge_path,
    "ablation-skip-copy": ablation_radix_skip_copy,
    "ablation-block-size": ablation_block_size,
    "ablation-heuristic": ablation_heuristic_chooser,
    "ablation-msd-pdq": ablation_msd_pdq_fallback,
    "ablation-paradigms": ablation_engine_paradigms,
    "ablation-side-benefits": ablation_sorting_side_benefits,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Row-based relational sorting (reproduction of Kuiper & "
            "Mühleisen, ICDE 2023)"
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sort_cmd = commands.add_parser("sort", help="sort a CSV file")
    sort_cmd.add_argument("input", help="input CSV path (with header)")
    sort_cmd.add_argument(
        "--by",
        required=True,
        help='ORDER BY spec, e.g. "country DESC NULLS LAST, year"',
    )
    sort_cmd.add_argument(
        "-o", "--output", help="output CSV path (default: stdout)"
    )
    sort_cmd.add_argument(
        "--external",
        action="store_true",
        help=(
            "let the sort spill: input past --run-threshold rows goes to "
            "disk as sorted runs (out-of-core sort)"
        ),
    )
    sort_cmd.add_argument(
        "--spill-dir",
        action="append",
        default=[],
        metavar="DIR",
        help=(
            "failover spill directory for --external (repeatable; tried "
            "in order when the primary spill target keeps failing)"
        ),
    )
    sort_cmd.add_argument(
        "--no-spill-checksums",
        action="store_true",
        help="skip CRC32 verification of spill file reads (--external)",
    )
    sort_cmd.add_argument(
        "--run-threshold",
        type=int,
        default=None,
        help="rows per spilled run (--external; an in-memory sort is one run)",
    )
    sort_cmd.add_argument(
        "--prefetch-blocks",
        type=int,
        default=None,
        metavar="N",
        help=(
            "read-ahead depth per spilled run per stream during --external "
            "merges (0 disables the prefetch threads; default 1)"
        ),
    )
    sort_cmd.add_argument(
        "--merge-fan-in",
        type=int,
        default=None,
        metavar="K",
        help=(
            "maximum runs merged per pass during --external merges "
            "(multipass when exceeded; 0 = single pass over all runs, "
            "the default)"
        ),
    )
    sort_cmd.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print sort statistics to stderr (rows, runs, merge "
            "counters, string re-encode work, per-phase wall-clock)"
        ),
    )

    sql_cmd = commands.add_parser("sql", help="run a SQL query over CSVs")
    sql_cmd.add_argument("query", help="the SELECT statement")
    sql_cmd.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a CSV file as a table (repeatable)",
    )
    sql_cmd.add_argument(
        "-o", "--output", help="output CSV path (default: stdout)"
    )
    sql_cmd.add_argument(
        "--explain",
        action="store_true",
        help="print the query plan instead of executing",
    )
    sql_cmd.add_argument(
        "--stats",
        action="store_true",
        help=(
            "print the sort statistics of each Sort node (ORDER BY and "
            "the input sorts of GROUP BY and of each join side) and Top-N "
            "to stderr, a node's inputs before the node"
        ),
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run queries through the service under one memory budget",
        description=(
            "Drive the thread-pool query service: register CSVs, submit "
            "every --query at once, and let the memory governor lend the "
            "sort memory to one query at a time.  Queries that cannot be "
            "admitted are rejected with a typed overload error instead "
            "of exhausting memory."
        ),
    )
    serve_cmd.add_argument(
        "--table",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a CSV file as a table (repeatable)",
    )
    serve_cmd.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        metavar="SQL",
        help="a query to submit (repeatable; all run concurrently)",
    )
    serve_cmd.add_argument(
        "--memory-budget",
        default="64M",
        metavar="BYTES",
        help=(
            "total sort-memory budget shared by all concurrent queries, "
            "with an optional K/M/G suffix (default 64M)"
        ),
    )
    serve_cmd.add_argument(
        "--threads",
        type=int,
        default=4,
        metavar="N",
        help="service worker threads (default 4)",
    )
    serve_cmd.add_argument(
        "--queue-limit",
        type=int,
        default=32,
        metavar="N",
        help="bounded admission queue depth (default 32)",
    )
    serve_cmd.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="submit each query N times (default 1)",
    )
    serve_cmd.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-query deadline; queries past it are cancelled",
    )
    serve_cmd.add_argument(
        "--external",
        action="store_true",
        help="let sorts spill runs to disk once a run threshold is reached",
    )
    serve_cmd.add_argument(
        "--run-threshold",
        type=int,
        default=None,
        help="rows per spilled run, capped by a memory grant (--external)",
    )
    serve_cmd.add_argument(
        "-o",
        "--output",
        help="write the last successful result as CSV (default: none)",
    )
    serve_cmd.add_argument(
        "--stats",
        action="store_true",
        help="print service statistics to stderr after the run",
    )

    bench_cmd = commands.add_parser(
        "bench", help="regenerate a paper table/figure or ablation"
    )
    bench_cmd.add_argument(
        "experiment",
        nargs="?",
        help=f"experiment id, one of: {', '.join(EXPERIMENTS)}",
    )
    bench_cmd.add_argument(
        "--list", action="store_true", help="list available experiments"
    )

    commands.add_parser("info", help="print version and simulator config")
    return parser


def _emit(table: Table, output: str | None) -> None:
    if output:
        write_csv(table, output)
    else:
        sys.stdout.write(table_to_csv_string(table))


def _cmd_sort(args: argparse.Namespace) -> int:
    table = read_csv(args.input)
    kwargs = {}
    if args.run_threshold:
        kwargs["run_threshold"] = args.run_threshold
    if args.prefetch_blocks is not None:
        kwargs["prefetch_blocks"] = args.prefetch_blocks
    if args.merge_fan_in is not None:
        kwargs["merge_fan_in"] = args.merge_fan_in
    config = SortConfig(
        external=args.external,
        spill_directories=tuple(args.spill_dir),
        verify_spill_checksums=not args.no_spill_checksums,
        **kwargs,
    )
    spec = SortSpec.of(*[part.strip() for part in args.by.split(",")])
    with make_sort_operator(table.schema, spec, config) as operator:
        operator.sink(DataChunk.from_table(table))
        result = operator.finalize()
    _emit(result, args.output)
    if args.stats:
        _print_sort_stats(operator.stats)
    return 0


def _run_length_histogram(lengths) -> str:
    """Compact power-of-two histogram, e.g. ``8Ki-16Ki:3 32Ki-64Ki:1``."""
    buckets: dict[int, int] = {}
    for length in lengths:
        buckets[max(1, length).bit_length()] = (
            buckets.get(max(1, length).bit_length(), 0) + 1
        )

    def label(bits: int) -> str:
        lo = 1 << (bits - 1)
        for suffix, scale in (("Mi", 1 << 20), ("Ki", 1 << 10)):
            if lo >= scale:
                return f"{lo // scale}{suffix}-{2 * lo // scale}{suffix}"
        return f"{lo}-{2 * lo}"

    return " ".join(
        f"{label(bits)}:{buckets[bits]}" for bits in sorted(buckets)
    )


def _print_sort_stats(stats) -> None:
    """Render a SortStats to stderr, one ``name: value`` line per counter."""
    err = sys.stderr
    print(f"rows_sorted: {stats.rows_sorted}", file=err)
    print(f"runs_generated: {stats.runs_generated}", file=err)
    run_sort = f"passes={stats.sort_passes} tied_rows={stats.sort_tied_rows}"
    print(f"run_sort: {run_sort}", file=err)
    if stats.run_lengths:
        print(
            f"run_lengths: {_run_length_histogram(stats.run_lengths)}",
            file=err,
        )
    if stats.merge_passes:
        print(f"merge_passes: {stats.merge_passes}", file=err)
    fetches = stats.prefetch_hits + stats.prefetch_misses
    if fetches:
        print(
            "prefetch: "
            f"hits={stats.prefetch_hits} misses={stats.prefetch_misses} "
            f"hit_rate={stats.prefetch_hits / fetches:.2f} "
            f"peak_blocks={stats.prefetch_peak_blocks}",
            file=err,
        )
    if "spill_io" in stats.phase_seconds:  # a run file was written
        print(
            "spill: "
            f"key_carried_runs={stats.key_carried_runs} "
            f"layout_rebases={stats.key_layout_rebases} "
            f"checksum_verifications={stats.checksum_verifications} "
            f"retries={stats.spill_retries} "
            f"failovers={stats.spill_failovers}",
            file=err,
        )
    print(f"prefix_exact: {stats.prefix_exact}", file=err)
    print(
        "merges: "
        f"kway_kernel={stats.kernel_kway_merges} "
        f"kway_rounds={stats.kway_rounds}",
        file=err,
    )
    print(
        "exact_strings: "
        f"full_key_compares={stats.full_key_compares} "
        f"reencode_rounds={stats.reencode_rounds} "
        f"reencoded_rows={stats.reencoded_rows}",
        file=err,
    )
    if stats.sorts_elided or stats.sorts_subsumed:
        print(
            "order_propagation: "
            f"elided={stats.sorts_elided} "
            f"subsumed={stats.sorts_subsumed}",
            file=err,
        )
    if stats.key_width_used:
        print(
            "key_width: "
            f"used={stats.key_width_used} full={stats.key_width_full}",
            file=err,
        )
    for phase in sorted(stats.phase_seconds):
        print(
            f"phase_{phase}_s: {stats.phase_seconds[phase]:.6f}", file=err
        )


def _cmd_sql(args: argparse.Namespace) -> int:
    database = Database()
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ReproError(
                f"--table expects NAME=PATH, got {spec!r}"
            )
        database.register(name, read_csv(path))
    if args.explain:
        print(database.explain(args.query))
        return 0
    result, operator_stats = database.execute_detailed(args.query)
    _emit(result, args.output)
    if args.stats:
        for stats in operator_stats:
            _print_sort_stats(stats)
    return 0


def parse_byte_size(text: str) -> int:
    """Parse ``"262144"``, ``"256K"``, ``"64M"`` or ``"1G"`` into bytes."""
    raw = text.strip()
    scale = 1
    suffixes = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if raw and raw[-1].upper() in suffixes:
        scale = suffixes[raw[-1].upper()]
        raw = raw[:-1]
    try:
        value = int(raw)
    except ValueError:
        raise ReproError(
            f"invalid byte size {text!r} (expected an integer with an "
            "optional K/M/G suffix, e.g. 256K or 64M)"
        ) from None
    if value <= 0:
        raise ReproError(f"byte size must be positive, got {text!r}")
    return value * scale


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.errors import ServiceOverloadError
    from repro.service import SortService

    if not args.query:
        raise ReproError("serve needs at least one --query")
    budget = parse_byte_size(args.memory_budget)
    kwargs = {"external": args.external}
    if args.run_threshold:
        kwargs["run_threshold"] = args.run_threshold
    database = Database(sort_config=SortConfig(**kwargs))
    for spec in args.table:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ReproError(f"--table expects NAME=PATH, got {spec!r}")
        database.register(name, read_csv(path))

    queries = [sql for sql in args.query for _ in range(max(1, args.repeat))]
    last_result: Table | None = None
    rejected = 0
    failures = 0
    with SortService(
        database,
        memory_budget=budget,
        workers=args.threads,
        queue_limit=args.queue_limit,
    ) as service:
        tickets = []
        for sql in queries:
            try:
                tickets.append(
                    service.submit(sql, deadline_s=args.deadline)
                )
            except ServiceOverloadError as error:
                rejected += 1
                print(
                    f"rejected: {sql!r} ({error})",
                    file=sys.stderr,
                )
        for ticket in tickets:
            try:
                last_result = ticket.result()
                print(
                    f"ok: {ticket.sql!r} -> {last_result.num_rows} rows"
                    + (" (cached)" if ticket.from_cache else ""),
                    file=sys.stderr,
                )
            except ReproError as error:
                failures += 1
                print(f"failed: {ticket.sql!r} ({error})", file=sys.stderr)
        stats = service.stats
    if args.output and last_result is not None:
        write_csv(last_result, args.output)
    if args.stats:
        err = sys.stderr
        print(f"admitted: {stats.admitted}", file=err)
        print(f"completed: {stats.completed}", file=err)
        print(
            "rejected/shed/cancelled/timed_out: "
            f"{stats.rejected}/{stats.shed}/"
            f"{stats.cancelled}/{stats.timed_out}",
            file=err,
        )
        print(
            f"cache: hits={stats.cache_hits} misses={stats.cache_misses} "
            f"prefix_hits={stats.cache_prefix_hits}",
            file=err,
        )
        print(
            "order_propagation: "
            f"elided={stats.sorts_elided} subsumed={stats.sorts_subsumed}",
            file=err,
        )
        print(
            "governor: "
            f"waits={stats.grant_waits} "
            f"wait_s={stats.grant_wait_s:.3f} "
            f"forced_spills={stats.governor_forced_spills} "
            f"peak_spill_bytes={stats.peak_concurrent_spill_bytes}",
            file=err,
        )
        print(f"queue_peak: {stats.queue_peak}", file=err)
    return 1 if failures else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.list or not args.experiment:
        for name in EXPERIMENTS:
            print(name)
        return 0
    try:
        experiment = EXPERIMENTS[args.experiment]
    except KeyError:
        raise ReproError(
            f"unknown experiment {args.experiment!r}; "
            "use --list to see the available ids"
        ) from None
    print(experiment().render())
    return 0


def _cmd_info() -> int:
    from repro.sim.machine import Machine
    from repro.systems import HardwareProfile

    machine = Machine()
    profile = HardwareProfile()
    print(f"repro {__version__}")
    print(f"micro-benchmark simulator: {machine.caches}")
    print(
        "end-to-end model: "
        f"L1 {profile.l1_bytes // 1024} KiB, "
        f"L2 {profile.l2_bytes // 1024} KiB, "
        f"L3 {profile.l3_bytes // (1024 * 1024)} MiB, "
        f"{profile.threads} threads @ {profile.frequency_hz / 1e9:.1f} GHz"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "sort":
            return _cmd_sort(args)
        if args.command == "sql":
            return _cmd_sql(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_info()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer (e.g. `head`) closed the pipe: not an error.
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
