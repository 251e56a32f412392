"""Tests for the semantic engine, knowledge bases and the simulated LLM."""

import pytest

from repro.llm import SimulatedSemanticLLM, CachingLLMClient, parsing, prompts
from repro.llm.knowledge.abbreviations import concept_key, parse_duration_minutes
from repro.llm.knowledge.languages import language_code, language_variants
from repro.llm.knowledge.nullwords import is_disguised_missing
from repro.llm.knowledge.types import expected_numeric_range, looks_like_identifier_column, semantic_boolean
from repro.llm.semantic import SemanticModel, edit_distance, value_shape


class TestKnowledge:
    def test_language_codes(self):
        assert language_code("English") == "eng"
        assert language_code("FRENCH") == "fre"
        assert language_code("klingon") is None
        assert "eng" in language_variants("English")

    def test_concept_keys_group_synonyms(self):
        assert concept_key("oz") == concept_key("ounce")
        assert concept_key("Alabama") == concept_key("AL")
        assert concept_key("yes") == concept_key("Y")
        assert concept_key("zzz-unknown") is None

    def test_durations(self):
        assert parse_duration_minutes("90 min") == 90
        assert parse_duration_minutes("1 hr. 30 min.") == 90
        assert parse_duration_minutes("2 hours") == 120
        assert parse_duration_minutes("ninety") is None

    def test_quantity_with_unit_synonym(self):
        assert concept_key("12.0 oz") == concept_key("12.0 ounce")

    def test_null_words(self):
        assert is_disguised_missing("N/A")
        assert is_disguised_missing("--")
        assert not is_disguised_missing("Nebraska")

    def test_identifier_columns(self):
        assert looks_like_identifier_column("provider_number")
        assert looks_like_identifier_column("ZipCode")
        assert not looks_like_identifier_column("description")

    def test_numeric_ranges(self):
        assert expected_numeric_range("patient_age") == (0, 120)
        assert expected_numeric_range("rating_count")[1] >= 1e9
        assert expected_numeric_range("mystery_column") is None

    def test_semantic_boolean(self):
        assert semantic_boolean("yes") is True
        assert semantic_boolean("N") is False
        assert semantic_boolean("maybe") is None


class TestSemanticModel:
    def setup_method(self):
        self.model = SemanticModel()

    def test_edit_distance(self):
        assert edit_distance("abc", "abc") == 0
        assert edit_distance("abc", "abd") == 1
        assert edit_distance("abc", "xyz", 2) > 2

    def test_value_shape(self):
        assert value_shape("12/05/2004") == r"\d{2}/\d{2}/\d{4}"
        assert value_shape("AA-1733") == r"[A-Za-z]{2}\-\d{4}"

    def test_language_review_and_mapping(self):
        counts = [("eng", 464), ("English", 95), ("fre", 30), ("French", 8)]
        review = self.model.review_string_values("article_language", counts)
        assert review.unusual
        _, mapping = self.model.map_string_values("article_language", review.summary,
                                                  [v for v, _ in counts], counts)
        assert mapping["English"] == "eng"
        assert mapping["French"] == "fre"

    def test_typo_mapping(self):
        counts = [("heart attack", 120), ("heart attakc", 2), ("pneumonia", 80)]
        _, mapping = self.model.map_string_values("measure", "typos", [v for v, _ in counts], counts)
        assert mapping == {"heart attakc": "heart attack"}

    def test_distinct_names_are_not_typos(self):
        counts = [("Robert Wilson", 3), ("Robert Nelson", 9), ("James Wilson", 4)]
        review = self.model.review_string_values("director", counts)
        assert not review.unusual

    def test_sequels_are_not_typos(self):
        counts = [("Frozen River 2", 1), ("Frozen River 3", 4)]
        assert self.model._typo_suspects(counts) == {}

    def test_durations_are_not_typos_of_each_other(self):
        counts = [("149 min", 1), ("183 min", 9)]
        assert self.model._typo_suspects(counts) == {}

    def test_dmv_detection(self):
        _, dmvs = self.model.detect_dmv("notes", [("fine", 10), ("N/A", 3), ("--", 1)])
        assert set(dmvs) == {"N/A", "--"}

    def test_type_suggestion_boolean(self):
        suggestion = self.model.suggest_type("EmergencyService", "VARCHAR", [("yes", 60), ("no", 40)])
        assert suggestion.suggested_type == "BOOLEAN"
        assert suggestion.value_mapping["yes"] == "True"

    def test_type_suggestion_durations(self):
        counts = [("90 min", 5), ("1 hr. 30 min.", 2), ("100 min", 4)]
        suggestion = self.model.suggest_type("duration", "VARCHAR", counts)
        assert suggestion.suggested_type == "DOUBLE"
        assert suggestion.value_mapping["1 hr. 30 min."] == "90"

    def test_type_suggestion_identifier_stays_text(self):
        suggestion = self.model.suggest_type("zip_code", "VARCHAR", [("10001", 5), ("02134", 3)])
        assert suggestion.suggested_type == "VARCHAR"

    def test_numeric_range_review(self):
        review = self.model.review_numeric_range("age", "INTEGER", 0, 851, 44.0)
        assert review.has_outliers
        assert review.acceptable_max == 120
        review2 = self.model.review_numeric_range("mystery", "INTEGER", 0, 10, 5.0)
        assert not review2.has_outliers

    def test_pattern_generation_and_consistency(self):
        counts = [("01/05/2004", 40), ("2004-01-07", 5)]
        _, patterns = self.model.generate_patterns("date", counts)
        assert r"\d{2}/\d{2}/\d{4}" in patterns
        _, inconsistent, standard = self.model.judge_pattern_consistency(
            "date", [(r"\d{2}/\d{2}/\d{4}", 40), (r"\d{4}-\d{2}-\d{2}", 5)]
        )
        assert inconsistent
        assert standard == r"\d{2}/\d{2}/\d{4}"

    def test_variable_length_numbers_are_consistent(self):
        _, inconsistent, _ = self.model.judge_pattern_consistency(
            "id", [(r"\d{1}", 9), (r"\d{2}", 11)]
        )
        assert not inconsistent

    def test_normalise_to_pattern(self):
        assert self.model.normalise_to_pattern("2004-01-07", r"\d{2}/\d{2}/\d{4}") == "01/07/2004"
        assert self.model.normalise_to_pattern("1/1/2000x", r"\d{1}/\d{1}/\d{4}") == "1/1/2000"
        assert self.model.normalise_to_pattern("hello", r"\d+") is None

    def test_fd_judgement(self):
        _, meaningful = self.model.judge_fd("zip_code", "city", 0.95, [])
        assert meaningful
        _, flights = self.model.judge_fd("flight", "actual_arrival_time", 0.95, [])
        assert not flights
        _, spurious = self.model.judge_fd("city", "brewery_id", 0.9, [])
        assert not spurious
        _, measure = self.model.judge_fd("MeasureCode", "Score", 0.9, [])
        assert not measure

    def test_fd_correction_majority(self):
        _, mapping = self.model.correct_fd("zip", "city", [("10001", [("New York", 12), ("New Yrok", 1)])])
        assert mapping == {"10001": "New York"}

    def test_duplicate_judgement(self):
        _, erroneous = self.model.judge_duplicates("hospital", 4, [{"id": 1, "name": "x"}])
        assert erroneous
        _, log_ok = self.model.judge_duplicates("sensor_log", 4, [{"reading": 1}])
        assert not log_ok

    def test_uniqueness_judgement(self):
        _, unique, order = self.model.judge_uniqueness("provider_id", 0.99, "VARCHAR", ["updated_at"])
        assert unique
        assert order == "updated_at"
        _, not_unique, _ = self.model.judge_uniqueness("city", 0.30, "VARCHAR", [])
        assert not not_unique


class TestSimulatedLLM:
    def test_detection_and_cleaning_round_trip(self):
        llm = SimulatedSemanticLLM()
        counts = [("eng", 464), ("English", 95), ("fre", 30), ("French", 8)]
        detection = parsing.extract_json(
            llm.complete(prompts.string_outlier_detection("article_language", counts)).text
        )
        assert detection["Unusualness"] is True
        cleaning = llm.complete(
            prompts.string_outlier_cleaning("article_language", detection["Summary"], [v for v, _ in counts])
        )
        _, mapping = parsing.parse_mapping_yaml(cleaning.text)
        assert mapping["English"] == "eng"

    def test_history_records_calls(self):
        llm = SimulatedSemanticLLM()
        llm.complete(prompts.dmv_detection("c", [("N/A", 1)]), purpose="dmv")
        assert llm.call_count == 1
        assert llm.calls_for("dmv")[0].purpose == "dmv"

    def test_unknown_prompt_yields_parseable_json(self):
        llm = SimulatedSemanticLLM()
        data = parsing.extract_json(llm.complete("What is the weather like?").text)
        assert data["Unusualness"] is False

    def test_caching_client(self):
        llm = CachingLLMClient(SimulatedSemanticLLM())
        prompt = prompts.dmv_detection("c", [("N/A", 1)])
        first = llm.complete(prompt).text
        second = llm.complete(prompt).text
        assert first == second
        stats = llm.store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert 0 < stats["hit_rate"] < 1

    def test_provider_clients_fail_cleanly_offline(self):
        from repro.llm.providers import AnthropicClient, ProviderError

        client = AnthropicClient(api_key="")
        with pytest.raises(ProviderError):
            client.complete("hello")
