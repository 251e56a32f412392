"""RetClean: retrieval-based cleaning using foundation models and data lakes.

RetClean repairs a tuple's erroneous attribute by retrieving the correct
value from clean tables in a data lake, keyed by the tuple's identifying
attributes; a local model then verifies the retrieved value.  As in the
paper's setup *no reference tables are available*, so retrieval finds
nothing and only the model's fallback — fixing obvious misspellings of
common words — contributes repairs.  That fallback is why the paper reports
non-trivial scores only on Rayyan (full of obvious typos in common-word
text) and zeros elsewhere.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.baselines.base import CleaningSystem, SystemContext, SystemOutput
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.llm.knowledge.vocabulary import words_of
from repro.llm.semantic import edit_distance

Cell = Tuple[int, str]


class RetCleanSystem(CleaningSystem):
    """Retrieve corrections from reference tables; fall back to obvious-typo fixes."""

    name = "RetClean"

    def __init__(self, min_word_count: float = 2.0, frequency_ratio: float = 10.0):
        # The fallback only engages for "natural text" columns (several words on
        # average); terse codes and identifiers are left to retrieval, which has
        # nothing to retrieve from here.
        self.min_word_count = min_word_count
        self.frequency_ratio = frequency_ratio

    # -- retrieval against reference tables --------------------------------------
    def _retrieve_repairs(self, dirty: Table, context: SystemContext) -> Dict[Cell, object]:
        repairs: Dict[Cell, object] = {}
        if not context.reference_tables:
            return repairs
        key_column = dirty.column_names[0]
        for reference in context.reference_tables:
            if key_column not in reference.column_names:
                continue
            index = {
                str(reference.cell(i, key_column)): i for i in range(reference.num_rows)
            }
            for column in dirty.column_names:
                if column == key_column or column not in reference.column_names:
                    continue
                for row in range(dirty.num_rows):
                    key = str(dirty.cell(row, key_column))
                    if key not in index:
                        continue
                    retrieved = reference.cell(index[key], column)
                    current = dirty.cell(row, column)
                    if not is_null(retrieved) and str(retrieved) != str(current):
                        repairs[(row, column)] = retrieved
        return repairs

    # -- fallback: obvious misspellings of common words ---------------------------------
    def _is_text_column(self, values: List[object]) -> bool:
        non_null = [str(v) for v in values if not is_null(v)]
        if not non_null:
            return False
        avg_words = sum(len(words_of(v)) for v in non_null) / len(non_null)
        return avg_words >= self.min_word_count

    def _misspelling_repairs(self, dirty: Table) -> Dict[Cell, object]:
        repairs: Dict[Cell, object] = {}
        for column in dirty.columns:
            if not self._is_text_column(column.values):
                continue
            counts = Counter(str(v) for v in column.values if not is_null(v))
            frequent = [(v, c) for v, c in counts.items() if c >= 5]
            corrections: Dict[str, str] = {}
            for value, count in counts.items():
                if count >= 3 or len(value) < 5:
                    continue
                if not words_of(value):
                    continue
                for candidate, candidate_count in frequent:
                    if candidate_count < self.frequency_ratio * count:
                        continue
                    if edit_distance(value.lower(), candidate.lower(), 2) <= 2:
                        corrections[value] = candidate
                        break
            if not corrections:
                continue
            for i, value in enumerate(column.values):
                if not is_null(value) and str(value) in corrections:
                    repairs[(i, column.name)] = corrections[str(value)]
        return repairs

    def repair(self, dirty: Table, context: SystemContext) -> SystemOutput:
        repairs = self._retrieve_repairs(dirty, context)
        if not repairs:
            repairs = self._misspelling_repairs(dirty)
            notes = "no reference tables; fallback typo fixes only"
        else:
            notes = f"retrieved repairs from {len(context.reference_tables)} reference tables"
        return SystemOutput(repairs=repairs, notes=notes)
