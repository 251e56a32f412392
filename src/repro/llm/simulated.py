"""A simulated semantic LLM.

:class:`SimulatedSemanticLLM` implements the same :class:`~repro.llm.base.LLMClient`
interface as the hosted-model clients: it receives rendered prompt text and
returns free-form text containing a fenced JSON or YAML answer, which the
pipeline then parses.  Internally it recognises which cleaning sub-task the
prompt describes (from the instruction sentences of the templates in
:mod:`repro.llm.prompts`), re-extracts the values embedded in the prompt and
delegates the judgement to :class:`~repro.llm.semantic.SemanticModel`.

Because prompt → parse → respond → parse is exercised end to end, swapping
this class for :class:`repro.llm.providers.AnthropicClient` (Claude 3.5, as
in the paper) changes nothing else in the system.
"""

from __future__ import annotations

import re
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.llm.base import LLMClient
from repro.llm.parsing import render_json, render_mapping_yaml
from repro.llm.semantic import SemanticModel

# 'value' (N rows) with SQL-style '' escaping inside the quotes.
_VALUE_COUNT_RE = re.compile(r"'((?:[^']|'')*)'\s*\((\d+) rows\)")
_VALUE_RE = re.compile(r"'((?:[^']|'')*)'")


def _unescape(text: str) -> str:
    return text.replace("''", "'")


def parse_value_counts(text: str) -> List[Tuple[str, int]]:
    """Recover the ``(value, count)`` list embedded in a prompt."""
    return [(_unescape(v), int(c)) for v, c in _VALUE_COUNT_RE.findall(text)]


def parse_value_list(text: str) -> List[str]:
    """Recover a plain value list embedded in a prompt line."""
    cleaned = _VALUE_COUNT_RE.sub("", text)
    return [_unescape(v) for v in _VALUE_RE.findall(cleaned)]


class SimulatedSemanticLLM(LLMClient):
    """Deterministic LLM stand-in driven by :class:`SemanticModel`."""

    model_name = "simulated-semantic-llm"

    def __init__(self, latency_seconds: float = 0.0):
        super().__init__()
        self.semantic = SemanticModel()
        # Optional per-call sleep modelling hosted-API latency.  Answers stay
        # deterministic; only wall-clock changes.  The server CLI
        # (``--llm-latency``) uses it to put concurrent jobs in the I/O-bound
        # regime real deployments run in, where they overlap their LLM waits.
        self.latency_seconds = latency_seconds
        # Per-column value frequencies remembered from detection prompts, so the
        # cleaning prompt (which lists values without counts, as in Figure 3)
        # can still prefer the most common representation — the same role the
        # conversation context plays for a hosted model.
        self._column_value_counts: Dict[str, List[Tuple[str, int]]] = {}

    # -- dispatch -----------------------------------------------------------------
    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        if self.latency_seconds > 0:
            time.sleep(self.latency_seconds)
        if "Strange characters or typos" in prompt:
            return self._string_outlier_detection(prompt)
        if "Maps those unusual values to the correct ones" in prompt:
            return self._string_outlier_cleaning(prompt)
        if "semantically meaningful regular expression patterns" in prompt:
            return self._pattern_generation(prompt)
        if "patterns are inconsistent representations" in prompt:
            return self._pattern_consistency(prompt)
        if "Rewrite each value into the standard pattern" in prompt:
            return self._pattern_cleaning(prompt)
        if "semantically mean that the value is missing" in prompt:
            return self._dmv_detection(prompt)
        if "Suggest the most suitable data type" in prompt:
            return self._column_type(prompt)
        if "Review the acceptable range" in prompt:
            return self._numeric_range(prompt)
        if "functional dependency" in prompt and "is meaningful semantically" in prompt:
            return self._fd_review(prompt)
        if "functional dependency" in prompt and "Provide the correct mapping" in prompt:
            return self._fd_correction(prompt)
        if "fully duplicated rows" in prompt:
            return self._duplication(prompt)
        if "unique ratio" in prompt:
            return self._uniqueness(prompt)
        return render_json({"Reasoning": "The request was not understood.", "Unusualness": False})

    # -- helpers --------------------------------------------------------------------
    @staticmethod
    def _column_name(prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        for marker in (" has the following distinct values:", " is unusual:", " currently has database type",
                       " is a ", " values match the following"):
            if marker in first_line:
                return first_line.split(marker)[0].strip()
        return first_line.split()[0] if first_line.split() else "column"

    # -- task handlers -----------------------------------------------------------------
    def _string_outlier_detection(self, prompt: str) -> str:
        column = self._column_name(prompt)
        value_counts = parse_value_counts(prompt)
        self._column_value_counts[column] = value_counts
        review = self.semantic.review_string_values(column, value_counts)
        return render_json(
            {"Reasoning": review.reasoning, "Unusualness": review.unusual, "Summary": review.summary}
        )

    def _string_outlier_cleaning(self, prompt: str) -> str:
        column = self._column_name(prompt)
        lines = prompt.splitlines()
        summary = lines[0].split(" is unusual:", 1)[-1].strip() if " is unusual:" in lines[0] else ""
        values_line = next((line for line in lines if line.startswith("It has the following values:")), "")
        batch_values = parse_value_list(values_line)
        explanation, mapping = self.semantic.map_string_values(
            column, summary, batch_values, self._column_value_counts.get(column)
        )
        return render_mapping_yaml(explanation, mapping)

    def _pattern_generation(self, prompt: str) -> str:
        column = self._column_name(prompt)
        value_counts = parse_value_counts(prompt)
        reasoning, patterns = self.semantic.generate_patterns(column, value_counts)
        return render_json({"Reasoning": reasoning, "Patterns": patterns})

    def _pattern_consistency(self, prompt: str) -> str:
        column = self._column_name(prompt)
        pattern_counts = parse_value_counts(prompt)
        reasoning, inconsistent, standard = self.semantic.judge_pattern_consistency(column, pattern_counts)
        return render_json(
            {"Reasoning": reasoning, "Inconsistent": inconsistent, "StandardPattern": standard}
        )

    def _pattern_cleaning(self, prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        match = re.search(r"should follow the standard pattern (\S+) but these values do not:", first_line)
        standard = match.group(1) if match else r".*"
        column = first_line.split(" should follow the standard pattern")[0].strip()
        values = parse_value_list(first_line.split("do not:", 1)[-1])
        mapping: Dict[str, str] = {}
        for value in values:
            rewritten = self.semantic.normalise_to_pattern(value, standard)
            if rewritten is not None and rewritten != value:
                mapping[value] = rewritten
        explanation = f"The values are rewritten to follow the dominant pattern of {column}."
        return render_mapping_yaml(explanation, mapping)

    def _dmv_detection(self, prompt: str) -> str:
        column = self._column_name(prompt)
        value_counts = parse_value_counts(prompt)
        reasoning, dmvs = self.semantic.detect_dmv(column, value_counts)
        return render_json({"Reasoning": reasoning, "DisguisedMissingValues": dmvs})

    def _column_type(self, prompt: str) -> str:
        column = self._column_name(prompt)
        first_line = prompt.splitlines()[0]
        match = re.search(r"currently has database type (\w+)", first_line)
        current_type = match.group(1) if match else "VARCHAR"
        value_counts = parse_value_counts(prompt)
        suggestion = self.semantic.suggest_type(column, current_type, value_counts)
        return render_json(
            {
                "Reasoning": suggestion.reasoning,
                "SuggestedType": suggestion.suggested_type,
                "ValueMapping": suggestion.value_mapping,
            }
        )

    def _numeric_range(self, prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        match = re.match(
            r"(?P<column>.+) is a (?P<dtype>\w+) column with minimum (?P<min>\S+), maximum (?P<max>\S+) and mean (?P<mean>\S+)\.",
            first_line,
        )
        if match is None:
            return render_json({"Reasoning": "Could not read statistics.", "HasOutliers": False,
                                "AcceptableMin": None, "AcceptableMax": None})
        column = match.group("column")
        review = self.semantic.review_numeric_range(
            column,
            match.group("dtype"),
            _to_float(match.group("min")),
            _to_float(match.group("max")),
            _to_float(match.group("mean")),
        )
        return render_json(
            {
                "Reasoning": review.reasoning,
                "HasOutliers": review.has_outliers,
                "AcceptableMin": review.acceptable_min,
                "AcceptableMax": review.acceptable_max,
            }
        )

    def _fd_review(self, prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        match = re.search(r"functional dependency (.+?) -> (.+?) is statistically strong", first_line)
        determinant, dependent = (match.group(1), match.group(2)) if match else ("lhs", "rhs")
        entropy_match = re.search(r"entropy score ([0-9.]+)", first_line)
        entropy = float(entropy_match.group(1)) if entropy_match else 1.0
        reasoning, meaningful = self.semantic.judge_fd(determinant, dependent, entropy, [])
        return render_json({"Reasoning": reasoning, "Meaningful": meaningful})

    def _fd_correction(self, prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        match = re.search(r"functional dependency (.+?) -> (.+?) is violated", first_line)
        determinant, dependent = (match.group(1), match.group(2)) if match else ("lhs", "rhs")
        groups: List[Tuple[str, List[Tuple[str, int]]]] = []
        for chunk in first_line.split("; "):
            lhs_match = re.search(rf"{re.escape(determinant)}='((?:[^']|'')*)' has", chunk)
            if lhs_match is None:
                continue
            rhs_counts = parse_value_counts(chunk)
            groups.append((_unescape(lhs_match.group(1)), rhs_counts))
        explanation, mapping = self.semantic.correct_fd(determinant, dependent, groups)
        return render_mapping_yaml(explanation, mapping)

    def _duplication(self, prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        match = re.match(r"Table (.+?) contains (\d+) fully duplicated rows", first_line)
        table_name = match.group(1) if match else "table"
        count = int(match.group(2)) if match else 0
        columns = re.findall(r"\{([^}]*)\}", first_line)
        sample_rows = []
        for block in columns[:3]:
            row = {}
            for pair in block.split(", "):
                if ": " in pair:
                    key, value = pair.split(": ", 1)
                    row[key] = value
            sample_rows.append(row)
        reasoning, erroneous = self.semantic.judge_duplicates(table_name, count, sample_rows)
        return render_json({"Reasoning": reasoning, "Erroneous": erroneous})

    def _uniqueness(self, prompt: str) -> str:
        first_line = prompt.splitlines()[0]
        match = re.match(r"(?P<column>.+) is a (?P<dtype>\w+) column whose unique ratio is (?P<ratio>\d+\.\d+|\d+)", first_line)
        if match is None:
            return render_json({"Reasoning": "Could not read statistics.", "ShouldBeUnique": False,
                                "OrderByColumn": None})
        column = match.group("column")
        ratio = float(match.group("ratio"))
        candidates_line = next((line for line in prompt.splitlines() if "to prioritise which record" in line), "")
        candidates = []
        if ":" in candidates_line:
            tail = candidates_line.rsplit(":", 1)[-1].strip()
            if tail and tail != "(none)":
                candidates = [c.strip() for c in tail.split(",")]
        reasoning, should_be_unique, order_column = self.semantic.judge_uniqueness(
            column, ratio, match.group("dtype"), candidates
        )
        return render_json(
            {"Reasoning": reasoning, "ShouldBeUnique": should_be_unique, "OrderByColumn": order_column}
        )


def _to_float(text: str) -> Optional[float]:
    try:
        return float(text.rstrip(".,"))
    except ValueError:
        return None
