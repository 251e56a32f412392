"""Dataset registry: name → builder."""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.datasets.base import BenchmarkDataset
from repro.datasets.beers import build_beers
from repro.datasets.flights import build_flights
from repro.datasets.hospital import build_hospital
from repro.datasets.movies import build_movies
from repro.datasets.rayyan import build_rayyan

# Paper-scale row counts for each benchmark.
_PAPER_ROWS: Dict[str, int] = {
    "hospital": 1000,
    "flights": 300,     # flights, not rows: 300 flights × 8 sources = 2400 rows
    "beers": 2410,
    "rayyan": 1000,
    "movies": 7390,
}

DATASET_BUILDERS: Dict[str, Callable[..., BenchmarkDataset]] = {
    "hospital": build_hospital,
    "flights": build_flights,
    "beers": build_beers,
    "rayyan": build_rayyan,
    "movies": build_movies,
}


def dataset_names() -> List[str]:
    """Names of the five benchmarks, in the paper's presentation order."""
    return ["hospital", "flights", "beers", "rayyan", "movies"]


def check_scale(scale: float) -> None:
    """Raise ``ValueError`` unless ``scale`` is a finite number > 0."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError(f"scale must be a finite number > 0, got {scale!r}")


def load_dataset(name: str, seed: int = 0, scale: float = 1.0) -> BenchmarkDataset:
    """Build a benchmark by name.

    ``scale`` (finite, > 0) shrinks the dataset proportionally (error rates
    scale with it), which keeps unit tests and quick experiments fast;
    ``scale=1.0`` is the paper-scale dataset.
    """
    key = name.lower()
    if key not in DATASET_BUILDERS:
        raise KeyError(f"Unknown dataset {name!r}; available: {dataset_names()}")
    check_scale(scale)
    size = max(20, int(_PAPER_ROWS[key] * scale))
    if key == "flights":
        size = max(10, int(_PAPER_ROWS[key] * scale))
        return build_flights(flight_count=size, seed=seed)
    return DATASET_BUILDERS[key](size, seed=seed)
