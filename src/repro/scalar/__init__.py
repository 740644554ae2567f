"""The paper's scalar sorting algorithms, beside the production pipeline.

:mod:`repro.scalar.radix` (LSD/MSD byte radix, Section VI-B),
:mod:`repro.scalar.pdqsort` (the comparison sort DuckDB uses with string
keys) and :mod:`repro.scalar.reference`, which puts both behind one call
(:func:`~repro.scalar.reference.reference_sort`) together with the
cost-based algorithm chooser of the paper's Section IX;
:mod:`repro.scalar.encoder` (the paper's Figure 7 encoders and
:func:`~repro.scalar.encoder.normalized_key_for_row`) writes normalized
key bytes one value at a time, and :mod:`repro.scalar.decoder` reads
them back; :func:`~repro.scalar.reference.void_view` is the memcmp
order the kernel tests compare against.  The family sorts
one row at a time over normalized keys: it is the differential tests'
second oracle and what the paper-face ablations and the DuckDB system
model measure.  :mod:`repro.sort` never imports it.
"""
