"""Tests for prompt construction and response parsing."""

import pytest

from repro.llm import parsing, prompts
from repro.llm.parsing import ResponseParseError


class TestPromptTemplates:
    def test_string_outlier_detection_matches_figure2(self):
        prompt = prompts.string_outlier_detection("article_language", [("eng", 464), ("English", 95)])
        assert prompt.startswith("article_language has the following distinct values:")
        assert "Strange characters or typos" in prompt
        assert '"Unusualness": true/false' in prompt
        assert "'eng' (464 rows)" in prompt

    def test_string_outlier_cleaning_matches_figure3(self):
        prompt = prompts.string_outlier_cleaning("article_language", "values are unusual", ["eng", "English"])
        assert "Maps those unusual values to the correct ones" in prompt
        assert "If old values are meaningless, map to empty string." in prompt
        assert "```yml" in prompt

    def test_values_with_quotes_are_escaped(self):
        prompt = prompts.string_outlier_detection("name", [("O'Brien", 3)])
        assert "O''Brien" in prompt

    def test_all_issue_prompts_render(self):
        assert "regular expression patterns" in prompts.pattern_generation("c", [("a", 1)])
        assert "inconsistent representations" in prompts.pattern_consistency("c", [("\\d+", 5)])
        assert "standard pattern" in prompts.pattern_cleaning("c", r"\d+", ["x1"])
        assert "semantically mean that the value is missing" in prompts.dmv_detection("c", [("N/A", 1)])
        assert "most suitable data type" in prompts.column_type_suggestion("c", "VARCHAR", [("yes", 1)])
        assert "acceptable range" in prompts.numeric_range_review("c", "INTEGER", 0, 10, 5)
        assert "functional dependency" in prompts.fd_review("a", "b", 0.95, [])
        assert "correct mapping" in prompts.fd_correction("a", "b", [("x", [("y", 2)])])
        assert "duplicated rows" in prompts.duplication_review("t", 3, [{"a": 1}])
        assert "unique ratio" in prompts.uniqueness_review("c", 0.99, "VARCHAR", ["updated_at"])


class TestJsonExtraction:
    def test_fenced_json(self):
        data = parsing.extract_json('```json\n{"A": 1}\n```')
        assert data == {"A": 1}

    def test_json_embedded_in_prose(self):
        data = parsing.extract_json('Sure! Here is the answer: {"ok": true} hope that helps')
        assert data == {"ok": True}

    def test_python_style_booleans(self):
        data = parsing.extract_json('{"flag": True, "other": None}')
        assert data["flag"] is True
        assert data["other"] is None

    def test_booleans_inside_strings_untouched(self):
        data = parsing.extract_json('{"mapping": {"yes": "True"}}')
        assert data["mapping"]["yes"] == "True"

    def test_trailing_comma_tolerated(self):
        data = parsing.extract_json('{"a": 1,}')
        assert data == {"a": 1}

    def test_trailing_commas_in_nested_lists_and_objects(self):
        data = parsing.extract_json('{"a": [1, 2 ,\n ], "b": {"c": [],\t},\n}')
        assert data == {"a": [1, 2], "b": {"c": []}}

    def test_commas_before_brackets_inside_strings_untouched(self):
        data = parsing.extract_json('{"Summary": "sizes like 12,} and 16,]", "x": [",]",],}')
        assert data == {"Summary": "sizes like 12,} and 16,]", "x": [",]"]}

    def test_no_json_raises(self):
        with pytest.raises(ResponseParseError):
            parsing.extract_json("no json here")


class TestMappingYaml:
    def test_round_trip(self):
        text = parsing.render_mapping_yaml("because", {"English": "eng", "N/A": ""})
        explanation, mapping = parsing.parse_mapping_yaml(text)
        assert "because" in explanation
        assert mapping == {"English": "eng", "N/A": ""}

    def test_figure3_style_document(self):
        text = (
            "```yml\n"
            "explanation: >\n"
            "  The problem is mixed codes. The correct values are ISO codes.\n"
            "mapping:\n"
            "  English: eng\n"
            "  'French': 'fre'\n"
            "```"
        )
        explanation, mapping = parsing.parse_mapping_yaml(text)
        assert mapping == {"English": "eng", "French": "fre"}
        assert "mixed codes" in explanation

    def test_values_with_quotes(self):
        text = parsing.render_mapping_yaml("x", {"it's": "its"})
        _, mapping = parsing.parse_mapping_yaml(text)
        assert mapping == {"it's": "its"}

    @pytest.mark.xfail(
        strict=True,
        reason="a quoted key containing ':' is split at its first colon, so every "
        "time-valued flights fd_map determinant carries keys that never match",
    )
    def test_quoted_key_with_colon(self):
        text = "mapping:\n  '5:20 p.m.': AA-717-BOS-DFW\n"
        _, mapping = parsing.parse_mapping_yaml(text)
        assert mapping == {"5:20 p.m.": "AA-717-BOS-DFW"}

    def test_empty_mapping(self):
        _, mapping = parsing.parse_mapping_yaml(parsing.render_mapping_yaml("nothing", {}))
        assert mapping == {}

    def test_render_json_is_parseable(self):
        payload = {"Reasoning": "r", "Unusualness": False}
        assert parsing.extract_json(parsing.render_json(payload)) == payload
