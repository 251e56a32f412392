"""Tests for individual cleaning operators and SQL generation."""

from repro.core import CleaningConfig, CocoonCleaner
from repro.core.dialects import ReproDialect
from repro.core.hil import CallbackReviewer, ReviewDecision
from repro.core.operators.pattern_outliers import PatternOutlierOperator
from repro.dataframe import Table
from repro.llm.parsing import render_json
from repro.llm.simulated import SimulatedSemanticLLM

REPRO = ReproDialect()


def clean_with(table: Table, issues):
    cleaner = CocoonCleaner(config=CleaningConfig(enabled_issues=list(issues)))
    return cleaner.clean(table)


class TestSqlGen:
    def test_quote_identifier(self):
        assert REPRO.quote_identifier("name") == "name"
        assert REPRO.quote_identifier("Weird Name") == '"Weird Name"'

    def test_quote_literal_escapes(self):
        assert REPRO.quote_literal("it's") == "'it''s'"
        assert REPRO.quote_literal(None) == "NULL"
        assert REPRO.quote_literal(3) == "3"
        assert REPRO.quote_literal(True) == "TRUE"

    def test_case_when_mapping_empty_string_becomes_null(self):
        sql = REPRO.case_when_mapping("c", {"bad": "good", "junk": ""})
        assert "WHEN 'junk' THEN NULL" in sql
        assert "WHEN 'bad' THEN 'good'" in sql

    def test_case_when_null(self):
        assert "IN ('N/A', '--')" in REPRO.case_when_null("c", ["N/A", "--"])

    def test_case_when_threshold(self):
        sql = REPRO.case_when_threshold("c", 0, 100)
        assert "c < 0" in sql and "c > 100" in sql

    def test_cast_expression_with_mapping(self):
        sql = REPRO.cast_column("c", "BOOLEAN", {"yes": "True"})
        assert sql.startswith("CAST(CASE c")
        assert sql.endswith("AS BOOLEAN)")

    def test_select_with_replacements_executes(self, db):
        sql = REPRO.select_with_replacements(
            "people", "people2", ["name", "age", "city", "score"],
            {"city": REPRO.case_when_mapping("city", {"New York": "NY"})},
            comments=["normalise city"],
        )
        db.sql(sql)
        assert db.table("people2").column("city").values.count("NY") == 3
        assert sql.startswith("-- normalise city")


class TestStringOutlierOperator:
    def test_fixes_language_representations(self, dirty_language_table):
        result = clean_with(dirty_language_table, ["string_outliers"])
        langs = result.cleaned_table.column("article_language").values
        assert "English" not in langs
        assert langs.count("eng") == 10
        assert any(r.issue_type == "string_outliers" for r in result.repairs)

    def test_no_changes_on_clean_column(self):
        table = Table.from_dict("t", {"c": ["alpha"] * 5 + ["beta"] * 5})
        result = clean_with(table, ["string_outliers"])
        assert result.repairs == []


class TestDmvOperator:
    def test_dmv_to_null(self, dirty_language_table):
        result = clean_with(dirty_language_table, ["disguised_missing_value"])
        notes = result.cleaned_table.column("notes").values
        assert notes.count(None) == 5
        assert all(r.new_value is None for r in result.repairs)


class TestColumnTypeOperator:
    def test_boolean_cast(self, dirty_language_table):
        result = clean_with(dirty_language_table, ["column_type"])
        included = result.cleaned_table.column("included").values
        assert set(included) <= {True, False}

    def test_integer_cast(self, dirty_language_table):
        result = clean_with(dirty_language_table, ["column_type"])
        assert all(isinstance(v, int) for v in result.cleaned_table.column("score").values)


class TestNumericOutlierOperator:
    def test_outlier_nulled_after_cast(self, dirty_language_table):
        result = clean_with(dirty_language_table, ["column_type", "numeric_outliers"])
        scores = result.cleaned_table.column("score").values
        assert None in scores
        assert 999 not in scores

    def test_requires_numeric_column(self, dirty_language_table):
        # Without the cast the score column stays VARCHAR and is not reviewed.
        result = clean_with(dirty_language_table, ["numeric_outliers"])
        assert [r for r in result.operator_results if r.issue_type == "numeric_outliers"] == []


class TestFunctionalDependencyOperator:
    def test_fd_violation_repaired(self):
        table = Table.from_dict(
            "t",
            {
                "zip_code": ["10001"] * 12 + ["90210"] * 12,
                "city": ["New York"] * 11 + ["Los Angeles"] + ["Los Angeles"] * 12,
                "payload": [str(i) for i in range(24)],
            },
        )
        result = clean_with(table, ["functional_dependency"])
        cities = result.cleaned_table.column("city").values
        assert cities[:12] == ["New York"] * 12

    def test_measured_dependency_declined(self):
        table = Table.from_dict(
            "t",
            {
                "flight": ["AA-1"] * 6 + ["UA-2"] * 6,
                "actual_arrival": ["10:30"] * 4 + ["10:31", "10:28"] + ["9:00"] * 6,
            },
        )
        result = clean_with(table, ["functional_dependency"])
        fd_results = [r for r in result.operator_results if r.issue_type == "functional_dependency"]
        assert all(not r.applied for r in fd_results)
        assert result.cleaned_table.column("actual_arrival").values.count("10:31") == 1


class TestDuplicationOperator:
    def test_duplicates_removed(self):
        table = Table.from_dict("t", {"id": ["1", "2", "2", "3"], "v": ["a", "b", "b", "c"]})
        result = clean_with(table, ["duplication"])
        assert result.cleaned_table.num_rows == 3
        assert len(result.removed_row_ids) == 1

    def test_no_duplicates_no_change(self):
        table = Table.from_dict("t", {"id": ["1", "2"], "v": ["a", "b"]})
        result = clean_with(table, ["duplication"])
        assert result.cleaned_table.num_rows == 2


class TestUniquenessOperator:
    def test_key_column_deduplicated(self):
        rows = [str(i) for i in range(30)] + ["5"]
        table = Table.from_dict("t", {"record_id": rows, "updated_date": [f"2020-01-{i % 28 + 1:02d}" for i in range(31)]})
        result = clean_with(table, ["column_uniqueness"])
        ids = result.cleaned_table.column("record_id").values
        assert ids.count("5") == 1


class TestHumanInTheLoop:
    def test_rejection_blocks_cleaning(self, dirty_language_table):
        reviewer = CallbackReviewer(on_detection=lambda finding: ReviewDecision(approved=False))
        cleaner = CocoonCleaner(config=CleaningConfig(enabled_issues=["string_outliers"]), hil=reviewer)
        result = cleaner.clean(dirty_language_table)
        assert result.repairs == []
        assert reviewer.detection_log  # the reviewer was consulted

    def test_edited_mapping_is_used(self, dirty_language_table):
        def edit(finding, mapping, sql):
            return ReviewDecision(approved=True, edited_mapping={"English": "en"})

        reviewer = CallbackReviewer(on_cleaning=edit)
        cleaner = CocoonCleaner(config=CleaningConfig(enabled_issues=["string_outliers"]), hil=reviewer)
        result = cleaner.clean(dirty_language_table)
        assert "en" in result.cleaned_table.column("article_language").values



class _FixedPatternsLLM(SimulatedSemanticLLM):
    """Answers every pattern-generation prompt with the same pattern list."""

    def __init__(self, patterns):
        super().__init__()
        self.patterns = patterns

    def _pattern_generation(self, prompt: str) -> str:
        return render_json({"Patterns": self.patterns})


class TestPatternOutlierOperator:
    def _clean_phones(self, patterns):
        table = Table.from_dict("t", {"phone": ["555-1234"] * 8 + ["5551234"] * 2})
        config = CleaningConfig(enabled_issues=["pattern_outliers"])
        (op,) = CocoonCleaner(llm=_FixedPatternsLLM(patterns), config=config).clean(table).operator_results
        return op

    def test_malformed_pattern_does_not_zero_valid_counts(self):
        op = self._clean_phones(["[", r"\d{3}-\d{4}", r"\d{7}"])
        assert op.finding.statistical_evidence == (
            r"pattern distribution: '\\d{3}-\\d{4}' x8, '\\d{7}' x2"
        )
        assert op.finding.detected

    def test_no_compilable_pattern_is_skipped(self):
        op = self._clean_phones(["[", "(a"])
        assert op.skipped_reason == "no usable patterns generated"
        assert op.finding is None

    def test_outliers_beyond_one_batch_take_several_cleaning_prompts(self, monkeypatch):
        # 200 mm/dd/yyyy dates and 30 distinct ISO dates to rewrite.
        standard = [f"{1 + i % 12:02d}/{1 + i % 28:02d}/{1950 + i % 40}" for i in range(200)]
        iso = [f"{2000 + i}-{1 + i % 12:02d}-{1 + i % 28:02d}" for i in range(30)]
        table = Table.from_dict("t", {"published": standard + iso})

        def clean():
            llm = SimulatedSemanticLLM()
            config = CleaningConfig(enabled_issues=["pattern_outliers"])
            return llm, CocoonCleaner(llm=llm, config=config).clean(table)

        one_batch_llm, one_batch = clean()
        monkeypatch.setattr(PatternOutlierOperator, "cleaning_batch_size", 7)
        batched_llm, batched = clean()

        assert len(one_batch_llm.calls_for("pattern_cleaning")) == 1
        assert len(batched_llm.calls_for("pattern_cleaning")) >= 2
        assert len(batched.repairs) == 30
        assert batched.cleaned_table == one_batch.cleaned_table
