"""A clean does row-scan work once per changed cell or distinct value.

Runs a hospital@0.2 clean with counting wrappers and asserts:

* the step diffs call their predicates (``_cell_changed``,
  ``values_strictly_differ``) at most once per cell whose before and after
  objects differ — an untouched cell comes back as the same object — and
  no more often than cells changed value (took another type or an unequal
  value) plus rows were removed: a repair that hands a row a text equal to
  the one it holds hands back the cell itself;
* each pattern helper matches each (distinct text, regex) pair at most once
  per call, however often the text repeats in the column;
* ``infer_storage_type`` classifies no value one by one (it never asks
  ``is_null``) for any column of the clean or of a registry dataset: their
  cells are all of the six builtin types.
"""

from __future__ import annotations

import re
from collections import Counter
from types import SimpleNamespace

import pytest

from repro import CocoonCleaner, load_dataset
from repro.core.context import ROW_ID_COLUMN
from repro.core.operators import base, pattern_outliers
from repro.dataframe import column as column_module
from repro.dataframe import schema
from repro.datasets.registry import dataset_names
from repro.profiling import patterns


def _aligned_cells(before, after):
    """``(old, new)`` per cell of the columns both versions hold, and the removed row count."""
    after_index = {row_id: j for j, row_id in enumerate(after.column(ROW_ID_COLUMN).values)}
    before_ids = before.column(ROW_ID_COLUMN).values
    cells = []
    for name in after.column_names:
        if name == ROW_ID_COLUMN or name not in before:
            continue
        olds, news = before.column(name).values, after.column(name).values
        for i, row_id in enumerate(before_ids):
            j = after_index.get(row_id)
            if j is not None:
                cells.append((olds[i], news[j]))
    removed = sum(1 for row_id in before_ids if row_id not in after_index)
    return cells, removed


def _differing_objects(before, after):
    """Cells whose two objects are not the same."""
    cells, _removed = _aligned_cells(before, after)
    return sum(1 for old, new in cells if old is not new)


def _changed_values(before, after):
    """Cells whose value changed (another type or an unequal value), plus the removed rows."""
    cells, removed = _aligned_cells(before, after)
    return removed + sum(1 for old, new in cells if type(old) is not type(new) or old != new)


class _Work:
    def __init__(self):
        self.diffs = []          # (diff, predicate calls, differing cells, changed values) per step diff
        self.predicate_calls = 0
        self.matches = []        # (helper, max matches of one (pattern, text) pair) per call
        self._pairs = Counter()
        self.storage_calls = 0
        self.storage_null_checks = 0
        self._in_storage = False

    def count_predicate(self, predicate):
        def counted(old, new):
            self.predicate_calls += 1
            return predicate(old, new)

        return counted

    def count_diff(self, name, diff):
        def counted(before, after, *args, **kwargs):
            self.predicate_calls = 0
            out = diff(before, after, *args, **kwargs)
            self.diffs.append(
                (name, self.predicate_calls, _differing_objects(before, after), _changed_values(before, after))
            )
            return out

        return counted

    def compile(self, pattern, flags=0):
        regex = re.compile(pattern, flags)
        pairs = self._pairs

        def fullmatch(text, *args):
            pairs[(pattern, text)] += 1
            return regex.fullmatch(text, *args)

        return SimpleNamespace(fullmatch=fullmatch, pattern=pattern)

    def count_helper(self, name, helper):
        def counted(*args, **kwargs):
            self._pairs.clear()
            out = helper(*args, **kwargs)
            self.matches.append((name, max(self._pairs.values(), default=0)))
            return out

        return counted

    def count_storage(self, infer):
        def counted(values):
            self.storage_calls += 1
            self._in_storage = True
            try:
                return infer(values)
            finally:
                self._in_storage = False

        return counted

    def count_null_check(self, is_null):
        def counted(value):
            if self._in_storage:
                self.storage_null_checks += 1
            return is_null(value)

        return counted


@pytest.fixture(scope="module")
def work():
    counts = _Work()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "_cell_changed", counts.count_predicate(base._cell_changed))
        patch.setattr(base, "values_strictly_differ", counts.count_predicate(base.values_strictly_differ))
        patch.setattr(base, "diff_tables", counts.count_diff("diff_tables", base.diff_tables))
        patch.setattr(base, "strict_table_edits", counts.count_diff("strict_table_edits", base.strict_table_edits))
        patch.setattr(patterns, "re", SimpleNamespace(compile=counts.compile, error=re.error))
        for name in ("pattern_counts", "match_fraction", "non_matching_values"):
            patch.setattr(pattern_outliers, name, counts.count_helper(name, getattr(pattern_outliers, name)))
        patch.setattr(column_module, "infer_storage_type", counts.count_storage(column_module.infer_storage_type))
        patch.setattr(schema, "is_null", counts.count_null_check(schema.is_null))
        dataset = load_dataset("hospital", scale=0.2)
        CocoonCleaner().clean(dataset.dirty)
        for name in dataset_names():
            load_dataset(name, scale=0.05)
    return counts


def test_step_diffs_compare_only_differing_objects(work):
    assert {name for name, _calls, _cells, _changed in work.diffs} == {"diff_tables", "strict_table_edits"}
    over = [(name, calls, cells) for name, calls, cells, _changed in work.diffs if calls > cells]
    assert over == []
    assert sum(cells for _name, _calls, cells, _changed in work.diffs) > 0


def test_step_diffs_compare_no_more_cells_than_changed_value(work):
    over = [(name, calls, changed) for name, calls, _cells, changed in work.diffs if calls > changed]
    assert over == []


def test_each_distinct_text_is_matched_once_per_helper_call(work):
    assert {name for name, _most in work.matches} == {"pattern_counts", "match_fraction", "non_matching_values"}
    assert [(name, most) for name, most in work.matches if most > 1] == []


def test_storage_inference_classifies_no_value_one_by_one(work):
    assert work.storage_calls > 100
    assert work.storage_null_checks == 0
