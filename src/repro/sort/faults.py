"""Deterministic fault injection for the external sort's spill I/O.

Production sorters are judged by how they fail, not just by peak
throughput: a full disk, a truncated file, or a flipped bit must surface
as a *typed* error (or be masked by retry/failover) -- never as an opaque
numpy shape error three layers up.  This module provides the two pieces
that make those failure paths testable without monkeypatching ``os``:

* :class:`SpillIO` -- the real filesystem backend.  Every spill byte the
  external sort reads, writes, or removes goes through one of these, so
  swapping the instance swaps the (simulated) storage behaviour.
* :class:`FaultInjector` -- a :class:`SpillIO` that injects faults at
  deterministic, seed-driven points: ``ENOSPC`` on write, short writes,
  silent tail truncation, bit-flipped or short reads, slow I/O, and
  failing removals.  Faults are described declaratively with
  :class:`InjectedFault`; the injector counts operations and fires each
  fault at its configured index, so a test (or the randomized suite) can
  replay the exact same failure forever.

The injector never reaches into library internals: it only perturbs the
bytes and errnos the filesystem itself could produce.
"""

from __future__ import annotations

import errno
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultStats",
    "InjectedFault",
    "SlowStorageIO",
    "SpillIO",
]


class SpillIO:
    """Real filesystem backend for spill runs.

    The external sort performs exactly three kinds of storage operation,
    all routed through this object: run appends, ranged reads of a run,
    and run releases.  A run's ``path`` is ``<file>#<run name>``: an
    extent of ``<file>``, the one spill file its sort keeps in that
    directory (a path without ``#`` is a file of its own).  The backend
    opens each file once, appends runs with ``pwritev`` and reads them
    with ``pread``; releasing a file's last run unlinks it.  Subclasses (the fault injector, or a future remote/async
    backend) override these methods and call ``super().__init__()``.
    """

    def __init__(self) -> None:
        self._files: dict[str, list[int]] = {}  # file -> [fd, end offset]
        self._extents: dict[str, tuple[int, int]] = {}  # run -> (at, len)
        self._io_lock = threading.Lock()

    def write_file(self, path: str, sections: Sequence[bytes]) -> None:
        """Append ``sections`` (flat byte buffers) as run ``path``'s extent.

        A failed append moves no end: the retry writes at the same offset.
        """
        file = _file_of(path)
        total = sum(map(len, sections))
        with self._io_lock:
            if file not in self._files:
                flags = os.O_RDWR | os.O_CREAT | os.O_TRUNC
                self._files[file] = [os.open(file, flags, 0o600), 0]
            fd, start = self._files[file]
            done = os.pwritev(fd, sections, start)
            while done < total:  # a short write: the rest as one buffer
                rest = b"".join(sections)[done:]
                done += os.pwrite(fd, rest, start + done)
            self._extents[path] = (start, total)
            self._files[file][1] = start + total

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        """Read up to ``nbytes`` at ``offset`` of run ``path``'s extent;
        may return short at the extent's end."""
        with self._io_lock:
            extent = self._extents.get(path)
            if extent is None:
                raise FileNotFoundError(errno.ENOENT, "no run", path)
            fd = self._files[_file_of(path)][0]
        start, length = extent
        nbytes = max(0, min(nbytes, length - offset))
        return os.pread(fd, nbytes, start + offset)

    def remove(self, path: str) -> None:
        """Release run ``path``; a file goes with its last run (or, runless
        after a failed first append, with that append's release)."""
        file = _file_of(path)
        with self._io_lock:
            extent = self._extents.pop(path, None)
            entry = self._files.get(file)
            if entry is not None and extent is not None:
                if extent[0] + extent[1] == entry[1]:
                    entry[1] = extent[0]  # the tail: the next append reuses it
            live = any(_file_of(run) == file for run in self._extents)
            if entry is None or live:
                if extent is None:
                    raise FileNotFoundError(errno.ENOENT, "no run", path)
                return
            del self._files[file]
        os.close(entry[0])
        os.unlink(file)

    def file_size(self, path: str) -> int:
        """The length of run ``path``'s extent (never its whole file)."""
        extent = self._extents.get(path)
        if extent is None:
            raise FileNotFoundError(errno.ENOENT, "no run", path)
        return extent[1]

    def locate(self, path: str) -> tuple[str, int]:
        """``(file, offset)`` of run ``path``'s extent."""
        return _file_of(path), self._extents[path][0]

    def close(self) -> None:
        """Close files a failed release left open (they stay on disk)."""
        with self._io_lock:
            files, self._files, self._extents = self._files, {}, {}
        for fd, _ in files.values():
            os.close(fd)


def _file_of(path: str) -> str:
    file, mark, _ = path.rpartition("#")
    return file if mark else path


class SlowStorageIO(SpillIO):
    """Storage with a fixed, deterministic per-operation latency.

    Models cold spill storage (network disk, throttled cloud volume):
    every read pays ``read_delay_s`` before the bytes arrive, every
    write ``write_delay_s``.  The sleep releases the GIL, so -- exactly
    like real blocking I/O -- a prefetch thread paying the latency does
    not stall merge compute on another thread.  The overlap benchmark
    uses this to make the synchronous-vs-prefetched merge gap
    deterministic and visible even on a single-core container, where
    raw page-cache reads are too fast to overlap measurably.
    """

    def __init__(
        self, read_delay_s: float = 0.0005, write_delay_s: float = 0.0
    ) -> None:
        super().__init__()
        self.read_delay_s = read_delay_s
        self.write_delay_s = write_delay_s
        self.reads = 0
        self.writes = 0
        self._lock = threading.Lock()

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        with self._lock:
            self.reads += 1
        if self.read_delay_s:
            time.sleep(self.read_delay_s)
        return super().read(path, offset, nbytes)

    def write_file(self, path: str, sections: Sequence[bytes]) -> None:
        with self._lock:
            self.writes += 1
        if self.write_delay_s:
            time.sleep(self.write_delay_s)
        super().write_file(path, sections)


FAULT_KINDS = (
    "enospc",  # write raises OSError(ENOSPC) before any byte lands
    "short_write",  # write persists a prefix, then raises OSError(EIO)
    "truncate",  # write silently loses its tail (no error raised)
    "bitflip",  # read returns the data with one bit flipped
    "short_read",  # read returns fewer bytes than the file holds
    "slow_io",  # the operation succeeds after an injected delay
    "cleanup_error",  # remove raises OSError(EACCES)
)

_OP_OF_KIND = {
    "enospc": "write",
    "short_write": "write",
    "truncate": "write",
    "bitflip": "read",
    "short_read": "read",
    "slow_io": "any",
    "cleanup_error": "remove",
}


@dataclass
class InjectedFault:
    """One declaratively scheduled fault.

    The fault fires on the operations of its kind (reads for read
    faults, writes for write faults, ...) whose *matching-operation
    index* -- counted per fault, only over operations whose path contains
    ``path_substring`` when one is given -- falls in
    ``[at, at + times)``.  ``times=None`` makes the fault persistent:
    it fires on every matching operation from ``at`` onwards, which is
    how a permanently full disk or an unwritable directory is modelled.
    """

    kind: str
    at: int = 0
    times: int | None = 1
    path_substring: str | None = None
    delay_s: float = 0.002  # only used by "slow_io"
    _seen: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{FAULT_KINDS}"
            )
        if self.at < 0:
            raise ValueError("fault index `at` must be non-negative")

    @property
    def op(self) -> str:
        return _OP_OF_KIND[self.kind]

    def matches(self, op: str, path: str) -> bool:
        """Advance this fault's counter for ``op`` and report firing."""
        if self.op != op and self.op != "any":
            return False
        if self.path_substring is not None and (
            self.path_substring not in path
        ):
            return False
        seen = self._seen
        self._seen += 1
        if seen < self.at:
            return False
        if self.times is not None and seen >= self.at + self.times:
            return False
        return True


@dataclass
class FaultStats:
    """What the injector saw and did."""

    reads: int = 0
    writes: int = 0
    removes: int = 0
    fired: dict[str, int] = field(default_factory=dict)
    slow_seconds: float = 0.0

    def record_fired(self, kind: str) -> None:
        self.fired[kind] = self.fired.get(kind, 0) + 1


class FaultInjector(SpillIO):
    """A :class:`SpillIO` that injects the faults it was armed with.

    Determinism: the *position* of each fault is fixed by its
    :class:`InjectedFault` indices, and the *content* perturbation (which
    bit flips, how many tail bytes vanish) is drawn from
    ``random.Random(seed)`` -- same seed, same corruption, forever.

    ``on_op(op, path, index)`` is called before every operation; tests
    use it to trigger out-of-band events (e.g. cancelling the operator
    mid-merge) at an exact, reproducible point.

    Thread safety: the merge's prefetch layer issues reads from worker
    threads, so operation counters, per-fault match state, and the
    corruption RNG are guarded by a lock (the injected sleeps and the
    real file I/O happen outside it).  With concurrent readers the
    *interleaving* of read indices across threads is scheduling-
    dependent, but each individual operation still observes a
    consistent counter and each fault fires exactly its configured
    number of times.
    """

    def __init__(
        self,
        faults: Iterable[InjectedFault] = (),
        seed: int = 0,
        on_op: Callable[[str, str, int], None] | None = None,
    ) -> None:
        super().__init__()
        self.faults = list(faults)
        self.stats = FaultStats()
        self.on_op = on_op
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Operation plumbing
    # ------------------------------------------------------------------ #

    def _begin(self, op: str, path: str, index: int) -> list[InjectedFault]:
        if self.on_op is not None:
            self.on_op(op, path, index)
        with self._lock:
            active = [f for f in self.faults if f.matches(op, path)]
            for fault in active:
                self.stats.record_fired(fault.kind)
        for fault in active:
            if fault.kind == "slow_io":
                time.sleep(fault.delay_s)  # outside the lock: slow, not serial
                with self._lock:
                    self.stats.slow_seconds += fault.delay_s
        return [f for f in active if f.kind != "slow_io"]

    def _chop(self, size: int, cap: int) -> int:
        """How many tail bytes a truncation/short op loses (>= 1)."""
        if size <= 1:
            return size
        with self._lock:
            return 1 + self._rng.randrange(min(cap, size - 1))

    # ------------------------------------------------------------------ #
    # SpillIO overrides
    # ------------------------------------------------------------------ #

    def write_file(self, path: str, sections: Sequence[bytes]) -> None:
        with self._lock:
            index = self.stats.writes
            self.stats.writes += 1
        active = self._begin("write", path, index)
        data = b"".join(sections)
        for fault in active:
            if fault.kind == "enospc":
                raise OSError(
                    errno.ENOSPC,
                    "No space left on device (injected)",
                    path,
                )
            if fault.kind == "short_write":
                super().write_file(path, [data[: max(1, len(data) // 2)]])
                raise OSError(errno.EIO, "short write (injected)", path)
            if fault.kind == "truncate":
                lost = self._chop(len(data), cap=64)
                super().write_file(path, [data[: len(data) - lost]])
                return  # silent: the caller believes the write succeeded
        super().write_file(path, [data])

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        with self._lock:
            index = self.stats.reads
            self.stats.reads += 1
        active = self._begin("read", path, index)
        raw = super().read(path, offset, nbytes)
        for fault in active:
            if fault.kind == "short_read" and raw:
                raw = raw[: len(raw) - self._chop(len(raw), cap=32)]
            elif fault.kind == "bitflip" and raw:
                flipped = bytearray(raw)
                with self._lock:
                    position = self._rng.randrange(len(flipped))
                    flipped[position] ^= 1 << self._rng.randrange(8)
                raw = bytes(flipped)
        return raw

    def remove(self, path: str) -> None:
        with self._lock:
            index = self.stats.removes
            self.stats.removes += 1
        active = self._begin("remove", path, index)
        for fault in active:
            if fault.kind == "cleanup_error":
                raise OSError(
                    errno.EACCES, "injected cleanup failure", path
                )
        super().remove(path)
