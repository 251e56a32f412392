"""Error injection.

``ErrorInjector`` takes a clean table and introduces the error classes the
benchmarks are known for, recording every corrupted cell so that evaluation
has exact ground truth.  All randomness is driven by a seeded
``random.Random`` so datasets are reproducible.
"""

from __future__ import annotations

import random
import string
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.datasets.base import ErrorType, InjectedError


def make_typo(text: str, rng: random.Random) -> str:
    """Introduce one character-level edit (the classic benchmark typo).

    Module-level so scenario error models (:mod:`repro.scenarios.models`)
    and :class:`ErrorInjector` share one implementation; the RNG call order
    is part of the contract — the registry datasets' golden corpus depends
    on it byte-for-byte.
    """
    if len(text) < 2:
        return text + "x"
    choice = rng.random()
    position = rng.randrange(len(text))
    if choice < 0.25:                        # substitute
        replacement = rng.choice(string.ascii_lowercase)
        return text[:position] + replacement + text[position + 1:]
    if choice < 0.5:                         # delete
        return text[:position] + text[position + 1:]
    if choice < 0.75:                        # duplicate a character
        return text[:position] + text[position] + text[position:]
    if position + 1 < len(text):             # transpose
        return text[:position] + text[position + 1] + text[position] + text[position + 2:]
    return text + "x"                        # stray trailing character


class ErrorInjector:
    """Corrupt a copy of a clean table while recording the ground truth."""

    def __init__(self, clean: Table, seed: int = 0):
        self.clean = clean
        self.rng = random.Random(seed)
        self._values: Dict[str, List[object]] = {c.name: list(c.values) for c in clean.columns}
        self._used_cells: Set[Tuple[int, str]] = set()
        self.errors: List[InjectedError] = []

    # -- core helpers ------------------------------------------------------------
    def _eligible_rows(self, column: str, predicate: Optional[Callable[[object], bool]] = None) -> List[int]:
        values = self._values[column]
        rows = []
        for i, value in enumerate(values):
            if (i, column) in self._used_cells:
                continue
            if is_null(value) or str(value).strip() == "":
                continue
            if predicate is not None and not predicate(value):
                continue
            rows.append(i)
        return rows

    def _corrupt(self, row: int, column: str, dirty_value: object, error_type: ErrorType) -> bool:
        clean_value = self._values[column][row]
        if str(dirty_value) == str(clean_value):
            return False
        self._values[column][row] = dirty_value
        self._used_cells.add((row, column))
        self.errors.append(
            InjectedError(row=row, column=column, error_type=error_type,
                          clean_value=clean_value, dirty_value=dirty_value)
        )
        return True

    def _sample_rows(self, rows: List, count: int) -> List:
        if count >= len(rows):
            return list(rows)
        return self.rng.sample(rows, count)

    # -- typos -----------------------------------------------------------------------
    def make_typo(self, text: str) -> str:
        """Introduce one character-level edit, drawing from the injector's RNG."""
        return make_typo(text, self.rng)

    def inject_typos(self, column: str, count: int, min_length: int = 4) -> int:
        rows = self._eligible_rows(column, lambda v: len(str(v)) >= min_length)
        injected = 0
        for row in self._sample_rows(rows, count):
            original = str(self._values[column][row])
            typo = self.make_typo(original)
            if self._corrupt(row, column, typo, ErrorType.TYPO):
                injected += 1
        return injected

    # -- inconsistent representations ----------------------------------------------------
    def inject_inconsistency(
        self,
        column: str,
        count: int,
        variants: Mapping[str, Sequence[str]],
    ) -> int:
        """Replace values with an alternative surface form of the same concept.

        ``variants`` maps a canonical value to its redundant representations
        (e.g. ``{"eng": ["English"]}``) — the Example 1 error class.
        """
        rows = self._eligible_rows(column, lambda v: str(v) in variants)
        injected = 0
        for row in self._sample_rows(rows, count):
            original = str(self._values[column][row])
            options = list(variants[original])
            if not options:
                continue
            replacement = self.rng.choice(options)
            if self._corrupt(row, column, replacement, ErrorType.INCONSISTENCY):
                injected += 1
        return injected

    # -- functional dependency violations ----------------------------------------------------------
    def inject_fd_violations(self, determinant: str, dependent: str, count: int) -> int:
        """Replace the dependent value of some rows with a value from another group."""
        dep_values = [v for v in self._values[dependent] if not is_null(v) and str(v).strip() != ""]
        distinct_deps = sorted(set(str(v) for v in dep_values))
        if len(distinct_deps) < 2:
            return 0
        rows = self._eligible_rows(dependent)
        injected = 0
        for row in self._sample_rows(rows, count):
            original = str(self._values[dependent][row])
            alternatives = [v for v in distinct_deps if v != original]
            if not alternatives:
                continue
            replacement = self.rng.choice(alternatives)
            if self._corrupt(row, dependent, replacement, ErrorType.FD_VIOLATION):
                injected += 1
        return injected

    def inject_group_scatter(
        self,
        determinant: str,
        dependent: str,
        group_fraction: float,
        corrupt_fraction: float,
        mutate: Optional[Callable[[str, random.Random], str]] = None,
    ) -> int:
        """Scatter the dependent values of whole determinant groups.

        For a fraction of the determinant groups, a large share of their rows
        get *distinct* wrong dependent values, so no clear majority remains —
        the "10:30 / 10:31 / 10:28 / 10:39" ambiguity of the Flights benchmark
        that makes the true value practically unrecoverable.
        """
        groups: Dict[str, List[int]] = {}
        for i, value in enumerate(self._values[determinant]):
            if is_null(value):
                continue
            groups.setdefault(str(value), []).append(i)
        group_keys = sorted(groups)
        selected = self._sample_rows(group_keys, int(len(group_keys) * group_fraction))
        injected = 0
        for key in selected:
            rows = [r for r in groups[key] if (r, dependent) not in self._used_cells]
            corrupt_rows = self._sample_rows(rows, max(1, int(len(rows) * corrupt_fraction)))
            for row in corrupt_rows:
                original = str(self._values[dependent][row])
                if mutate is not None:
                    replacement = mutate(original, self.rng)
                else:
                    replacement = self.make_typo(original)
                if self._corrupt(row, dependent, replacement, ErrorType.FD_VIOLATION):
                    injected += 1
        return injected

    # -- value misplacement ----------------------------------------------------------------------------
    def inject_misplacement(self, source_column: str, target_column: str, count: int) -> int:
        """Put a value that belongs in ``source_column`` into ``target_column``."""
        rows = self._eligible_rows(target_column)
        source_values = [v for v in self.clean.column(source_column).values if not is_null(v)]
        if not source_values:
            return 0
        injected = 0
        for row in self._sample_rows(rows, count):
            replacement = self.rng.choice(source_values)
            if self._corrupt(row, target_column, str(replacement), ErrorType.MISPLACEMENT):
                injected += 1
        return injected

    # -- output --------------------------------------------------------------------------------------------
    def build_dirty(self, name: Optional[str] = None) -> Table:
        columns = [Column(c.name, self._values[c.name]) for c in self.clean.columns]
        return Table(name or self.clean.name, columns)
