"""Reproduction of "Data Cleaning Using Large Language Models" (Cocoon, ICDE 2025).

Public API highlights::

    from repro import CocoonCleaner, load_dataset
    from repro.dataframe import Table, read_csv

    dataset = load_dataset("hospital", scale=0.2)
    result = CocoonCleaner().clean(dataset.dirty)
    print(result.sql_script)

See ``README.md`` for the architecture overview, ``DESIGN.md`` for the system
inventory and ``EXPERIMENTS.md`` for the reproduced tables.
"""

from repro.core import CleaningConfig, CleaningResult, CocoonCleaner
from repro.datasets import load_dataset, dataset_names
from repro.evaluation import EvaluationConventions, Scores, evaluate_repairs
from repro.service import CleaningJob, CleaningService, JobResult, JobStatus

__version__ = "1.1.0"

__all__ = [
    "CocoonCleaner",
    "CleaningConfig",
    "CleaningResult",
    "CleaningService",
    "CleaningJob",
    "JobResult",
    "JobStatus",
    "load_dataset",
    "dataset_names",
    "EvaluationConventions",
    "Scores",
    "evaluate_repairs",
    "__version__",
]
