"""The run sort's entry point: one stable argsort of a run's key rows."""

from __future__ import annotations

import numpy as np

from repro.sort import kernels

__all__ = ["vector_sort_rows"]


def vector_sort_rows(
    matrix: np.ndarray, key_bytes: int, sort_stats=None
) -> np.ndarray:
    """The run sort: stable argsort of key rows by their leading
    ``key_bytes`` (:func:`repro.sort.kernels.argsort_rows`).

    A row-id suffix past ``key_bytes`` ascends with the row index, so the
    stable sort of the key bytes alone is the memcmp order of the whole
    rows.  ``sort_stats``, if given, receives ``sort_passes`` /
    ``sort_tied_rows`` (:class:`repro.sort.operator.SortStats`).
    """
    return kernels.argsort_rows(matrix[:, :key_bytes], sort_stats)
