"""Virtual-time parallelism: deterministic makespan modelling.

The paper's systems sort with k threads: morsel-driven run generation
followed by a parallel merge.  Python cannot run data-parallel threads
(GIL), and this reproduction targets a 1-CPU container anyway, so we model
parallel wall-clock deterministically: each unit of work is a task with a
known *cost* (simulated cycles or element counts), tasks are placed on
simulated threads, and the parallel runtime of a phase is its **makespan**.

Two placement policies:

* :func:`makespan` -- list scheduling in submission order (what a work
  queue of morsels does);
* a barrier-phased :class:`PhaseModel` for sort pipelines: run generation
  (one task per run), cascaded merge rounds (each round is a barrier), and
  Merge-Path-partitioned final merges, reproducing the degrading-then-
  repartitioned parallelism of Section VII / Figure 11.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import SimulationError

__all__ = [
    "makespan",
    "PhaseModel",
    "merge_tree_makespan",
]


def makespan(costs: Iterable[float], num_threads: int) -> float:
    """List-scheduling makespan of tasks on ``num_threads`` workers.

    Tasks are assigned in submission order to the earliest-free thread --
    a morsel work queue.  Returns the finish time of the last task.
    """
    if num_threads <= 0:
        raise SimulationError("num_threads must be positive")
    free_at = [0.0] * num_threads
    heapq.heapify(free_at)
    finish = 0.0
    for cost in costs:
        if cost < 0:
            raise SimulationError("task cost cannot be negative")
        start = heapq.heappop(free_at)
        end = start + cost
        finish = max(finish, end)
        heapq.heappush(free_at, end)
    return finish


def merge_tree_makespan(
    run_sizes: Sequence[float],
    num_threads: int,
    cost_per_element: float = 1.0,
    merge_path: bool = True,
) -> float:
    """Wall-clock of a cascaded 2-way merge tree over sorted runs.

    Each round pairs adjacent runs; a pair's merge costs
    ``(|a| + |b|) * cost_per_element``.  Without Merge Path a pair is one
    indivisible task, so the final rounds degrade to single-thread work
    (the paper: "parallelization degrades until a single thread merges the
    last two sorted runs").  With Merge Path each pair is split into
    ``num_threads`` equal partitions that schedule independently.
    """
    if num_threads <= 0:
        raise SimulationError("num_threads must be positive")
    sizes = [float(s) for s in run_sizes]
    total = 0.0
    while len(sizes) > 1:
        tasks: list[float] = []
        next_sizes: list[float] = []
        for i in range(0, len(sizes) - 1, 2):
            merged = sizes[i] + sizes[i + 1]
            cost = merged * cost_per_element
            if merge_path:
                share = cost / num_threads
                tasks.extend([share] * num_threads)
            else:
                tasks.append(cost)
            next_sizes.append(merged)
        if len(sizes) % 2 == 1:
            next_sizes.append(sizes[-1])
        total += makespan(tasks, num_threads)  # barrier per round
        sizes = next_sizes
    return total


@dataclass
class PhaseModel:
    """Accumulates a pipeline of barrier-separated parallel phases.

    >>> model = PhaseModel(num_threads=8)
    >>> model.phase("run-generation", run_costs)
    >>> model.sequential("finalize", fixup_cost)
    >>> model.total
    """

    num_threads: int
    phases: list[tuple[str, float]] = field(default_factory=list)

    def phase(self, name: str, costs: Iterable[float]) -> float:
        """A parallel phase: tasks scheduled over the thread pool."""
        duration = makespan(costs, self.num_threads)
        self.phases.append((name, duration))
        return duration

    def sequential(self, name: str, cost: float) -> float:
        """A single-threaded phase."""
        if cost < 0:
            raise SimulationError("phase cost cannot be negative")
        self.phases.append((name, float(cost)))
        return float(cost)

    @property
    def total(self) -> float:
        return sum(duration for _, duration in self.phases)

    def report(self) -> str:
        lines = [
            f"{name:>20s}: {duration:14.0f}" for name, duration in self.phases
        ]
        lines.append(f"{'total':>20s}: {self.total:14.0f}")
        return "\n".join(lines)
