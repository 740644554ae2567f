"""The run sort's entry point: one stable argsort of a run's key words."""

from __future__ import annotations

import numpy as np

from repro.sort import kernels

__all__ = ["vector_sort_rows"]


def vector_sort_rows(words: list, sort_stats=None) -> np.ndarray:
    """The run sort: stable argsort of a run's rows by their key words
    (:func:`repro.sort.kernels.argsort_words`).

    ``words`` are the uint64 word columns
    :func:`repro.keys.normalizer.key_words` packs.  Row ids ascend with
    the row index, so the stable sort of the key alone is the order of
    the keys with their row ids.  ``sort_stats``, if given, receives
    ``sort_passes`` / ``sort_tied_rows``
    (:class:`repro.sort.operator.SortStats`).
    """
    return kernels.argsort_words(words, sort_stats)
