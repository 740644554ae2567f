"""NSM (row) storage: fixed-width aligned rows with a string heap.

The paper's NSM codec (its Figure 1: columns to rows and back).  The
engine does not import it: a sort keeps its payload in columns, spilled
or not.  It is kept for its tests and for the ``rows.*`` probes of the
frozen end-to-end benchmark, until ROADMAP item A1 drops those probes.
"""

from repro.rows.block import RowBlock
from repro.rows.layout import ROW_ALIGNMENT, STRING_SLOT_WIDTH, RowLayout, RowSlot

__all__ = [
    "RowBlock",
    "ROW_ALIGNMENT",
    "STRING_SLOT_WIDTH",
    "RowLayout",
    "RowSlot",
]
