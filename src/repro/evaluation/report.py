"""Plain-text tables and figure series (home: :mod:`repro.tables`).

The renderers moved to the package root so the CLI's serving commands
and the ingest progress tracker can print a table without importing
:mod:`repro.evaluation` (and, through its ``__init__``, the miners).
This module keeps the import path the benchmarks and EXPERIMENTS.md
scripts use.
"""

from repro.tables import render_series, render_table

__all__ = ["render_series", "render_table"]
