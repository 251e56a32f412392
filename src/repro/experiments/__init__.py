"""Experiment reproduction: the tables and figures of the paper's evaluation.

Each experiment module regenerates one artifact:

* :mod:`repro.experiments.table1` — Table 1, P/R/F of five systems on five benchmarks.
* :mod:`repro.experiments.table2` — Table 2, error-type distribution of Hospital and Movies.
* :mod:`repro.experiments.table3` — Table 3, the Appendix B evaluation where
  column-type and DMV errors count.
* :mod:`repro.experiments.figures` — the F1 comparison series derived from Table 1.
* :mod:`repro.experiments.matrix` — the experiment-matrix engine: the
  (table × dataset × system) grid run one repair group at a time on the
  calling thread, with repair dedup and the golden regression corpus
  (``GOLDEN_experiments.json``).

The table modules hold the paper's reported numbers and the formatters; the
matrix runs every table.  ``python -m repro.experiments
<table1|table2|table3|figure-f1|matrix|all> [--scale S --out PATH --golden]``
prints the corresponding rows; see ``--help`` for the grid/golden options.
"""

from repro.experiments.table1 import format_table1
from repro.experiments.table2 import format_table2
from repro.experiments.table3 import format_table3
from repro.experiments.figures import f1_series
from repro.experiments.matrix import (
    CellResult,
    CellSpec,
    ExperimentMatrix,
    MatrixJobError,
    MatrixRun,
    MatrixStats,
    UnknownNameError,
    build_grid,
    canonical_json,
    diff_golden,
    golden_payload,
    load_golden,
    validate_names,
    write_golden,
)

__all__ = [
    "format_table1",
    "format_table2",
    "format_table3",
    "f1_series",
    "CellResult",
    "CellSpec",
    "ExperimentMatrix",
    "MatrixJobError",
    "MatrixRun",
    "MatrixStats",
    "UnknownNameError",
    "build_grid",
    "canonical_json",
    "diff_golden",
    "golden_payload",
    "load_golden",
    "validate_names",
    "write_golden",
]
