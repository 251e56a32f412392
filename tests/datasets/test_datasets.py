"""Tests for benchmark dataset generators and error injection."""

import pytest

from repro.datasets import BenchmarkDataset, ErrorType, dataset_names, load_dataset
from repro.datasets.errors import ErrorInjector
from repro.dataframe import Table

SCALE = 0.08


@pytest.fixture(scope="module")
def small_datasets():
    return {name: load_dataset(name, seed=1, scale=SCALE) for name in dataset_names()}


class TestErrorInjector:
    def _clean(self):
        return Table.from_dict(
            "t",
            {
                "key": [str(i % 5) for i in range(50)],
                "name": [f"value {i % 5}" for i in range(50)],
                "amount": [str(10 + i) for i in range(50)],
            },
        )

    def test_typos_recorded(self):
        injector = ErrorInjector(self._clean(), seed=1)
        injected = injector.inject_typos("name", 10)
        assert injected == 10
        dirty = injector.build_dirty()
        for error in injector.errors:
            assert dirty.cell(error.row, error.column) == error.dirty_value
            assert error.clean_value != error.dirty_value
            assert error.error_type is ErrorType.TYPO

    def test_no_cell_corrupted_twice(self):
        injector = ErrorInjector(self._clean(), seed=2)
        injector.inject_typos("name", 20)
        # Misplacement has no value predicate, so only the used-cell check
        # keeps it off the 20 typo cells; it can reach the other 30 only.
        assert injector.inject_misplacement("key", "name", 50) == 30
        cells = [(e.row, e.column) for e in injector.errors]
        assert len(cells) == len(set(cells)) == 50

    def test_fd_violations_change_dependent(self):
        injector = ErrorInjector(self._clean(), seed=3)
        injected = injector.inject_fd_violations("key", "name", 5)
        assert injected == 5
        assert all(e.error_type is ErrorType.FD_VIOLATION for e in injector.errors)

    def test_inconsistency_uses_variants(self):
        injector = ErrorInjector(self._clean(), seed=4)
        injector.inject_inconsistency("name", 5, {"value 1": ["VALUE ONE"]})
        assert all(e.dirty_value == "VALUE ONE" for e in injector.errors)

    def test_misplacement_takes_value_from_other_column(self):
        injector = ErrorInjector(self._clean(), seed=6)
        injector.inject_misplacement("key", "name", 3)
        source_values = set(self._clean().column("key").values)
        assert all(str(e.dirty_value) in source_values for e in injector.errors)

    def test_group_scatter_spreads_values(self):
        injector = ErrorInjector(self._clean(), seed=7)
        injected = injector.inject_group_scatter("key", "name", group_fraction=1.0, corrupt_fraction=0.5)
        assert injected > 0

    def test_reproducibility(self):
        a = ErrorInjector(self._clean(), seed=9)
        b = ErrorInjector(self._clean(), seed=9)
        a.inject_typos("name", 10)
        b.inject_typos("name", 10)
        assert a.errors == b.errors


class TestGenerators:
    def test_all_benchmarks_load(self, small_datasets):
        assert set(small_datasets) == {"hospital", "flights", "beers", "rayyan", "movies"}
        for dataset in small_datasets.values():
            assert isinstance(dataset, BenchmarkDataset)
            assert dataset.dirty.shape == dataset.clean.shape
            assert dataset.dirty.column_names == dataset.clean.column_names

    def test_error_cells_match_injections(self, small_datasets):
        for dataset in small_datasets.values():
            error_cells = dataset.error_cells()
            injected_cells = {(e.row, e.column) for e in dataset.injected_errors}
            assert injected_cells == error_cells

    def test_census_counts_type_and_dmv(self, small_datasets):
        hospital = small_datasets["hospital"]
        census = hospital.error_census()
        assert census[ErrorType.COLUMN_TYPE] > 0
        assert census[ErrorType.DMV] > 0
        assert census[ErrorType.TYPO] > 0

    def test_extended_clean_casts_and_nulls(self, small_datasets):
        hospital = small_datasets["hospital"]
        extended = hospital.extended_clean
        assert set(v for v in extended.column("EmergencyService").values if v is not None) <= {True, False}
        for row, column in hospital.dmv_cells:
            assert extended.cell(row, column) is None

    def test_hospital_dimensions(self):
        dataset = load_dataset("hospital", scale=0.1)
        assert dataset.dirty.num_columns == 19

    def test_movies_dimensions(self, small_datasets):
        assert small_datasets["movies"].dirty.num_columns == 17

    def test_flights_ambiguity_present(self, small_datasets):
        flights = small_datasets["flights"]
        actual_errors = [e for e in flights.injected_errors if "actual" in e.column]
        scheduled_errors = [e for e in flights.injected_errors if "scheduled" in e.column]
        assert actual_errors and scheduled_errors

    def test_rayyan_language_inconsistencies(self, small_datasets):
        rayyan = small_datasets["rayyan"]
        inconsistencies = [e for e in rayyan.injected_errors
                           if e.error_type is ErrorType.INCONSISTENCY and e.column == "article_language"]
        assert inconsistencies
        assert any(e.dirty_value == "English" for e in inconsistencies)

    def test_seed_reproducibility(self):
        a = load_dataset("beers", seed=3, scale=SCALE)
        b = load_dataset("beers", seed=3, scale=SCALE)
        assert a.dirty.to_dict() == b.dirty.to_dict()
        assert a.injected_errors == b.injected_errors

    def test_different_seed_changes_data(self):
        a = load_dataset("beers", seed=3, scale=SCALE)
        b = load_dataset("beers", seed=4, scale=SCALE)
        assert a.dirty.to_dict() != b.dirty.to_dict()

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("enron")

    @pytest.mark.parametrize("scale", [0, -1, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(ValueError, match="scale must be a finite number > 0"):
            load_dataset("hospital", scale=scale)

    def test_summary_mentions_error_types(self, small_datasets):
        assert "typo" in small_datasets["hospital"].summary()
