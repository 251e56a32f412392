"""Experiment reproduction: the tables and figures of the paper's evaluation.

Each experiment module regenerates one artifact:

* :mod:`repro.experiments.table1` — Table 1, P/R/F of five systems on five benchmarks.
* :mod:`repro.experiments.table2` — Table 2, error-type distribution of Hospital and Movies.
* :mod:`repro.experiments.table3` — Table 3, the Appendix B evaluation where
  column-type and DMV errors count.
* :mod:`repro.experiments.figures` — the F1 comparison series derived from Table 1.
* :mod:`repro.experiments.matrix` — the parallel experiment-matrix engine:
  the (table × dataset × system) grid as jobs on a thread pool,
  with repair dedup, an incremental resumable results store, and the
  golden regression corpus (``GOLDEN_experiments.json``).

``python -m repro.experiments <table1|table2|table3|figure-f1|matrix|all>
[--scale S --workers N --golden]`` prints the corresponding rows; see
``--help`` for the grid/golden options.
"""

from repro.experiments.table1 import run_table1, format_table1
from repro.experiments.table2 import run_table2, format_table2
from repro.experiments.table3 import run_table3, format_table3
from repro.experiments.figures import f1_series
from repro.experiments.matrix import (
    CellResult,
    CellSpec,
    ExperimentMatrix,
    MatrixJobError,
    MatrixRun,
    MatrixStats,
    ResultsStore,
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
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "run_table3",
    "format_table3",
    "f1_series",
    "CellResult",
    "CellSpec",
    "ExperimentMatrix",
    "MatrixJobError",
    "MatrixRun",
    "MatrixStats",
    "ResultsStore",
    "UnknownNameError",
    "build_grid",
    "canonical_json",
    "diff_golden",
    "golden_payload",
    "load_golden",
    "validate_names",
    "write_golden",
]
