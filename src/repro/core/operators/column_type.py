"""§2.1.4 Column type: cast columns to their semantically suitable type.

The current type comes from the database catalog; the LLM suggests the
suitable semantic type (e.g. ``"yes"``/``"no"`` is BOOLEAN, mixed duration
strings are DOUBLE minutes).  Cleaning uses ``CAST`` clauses, optionally
preceded by a value-normalising ``CASE WHEN`` supplied by the model.
"""

from __future__ import annotations

from typing import List

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.dataframe.schema import ColumnType
from repro.llm import prompts

_VALID_TYPES = {"VARCHAR", "INTEGER", "DOUBLE", "BOOLEAN", "DATE", "TIMESTAMP"}


class ColumnTypeOperator(CleaningOperator):

    issue_type = "column_type"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        for column_name in context.data_columns():
            column_profile = context.profile().column(column_name)
            if column_profile.dtype is not ColumnType.VARCHAR:
                # Already a typed column in the catalog; nothing to cast.
                continue
            with self.target_span(column_name):
                results.append(self._run_column(context, hil, column_name))
        return results

    def _run_column(self, context: CleaningContext, hil: HumanInTheLoop, column_name: str) -> OperatorResult:
        config = context.config
        result = OperatorResult(issue_type=self.issue_type, target=column_name)
        schema = context.db.schema(context.current_table_name)
        current_type = str(schema.get(column_name, ColumnType.VARCHAR))
        profile = context.profile().column(column_name)
        value_counts = profile.frequent_values(min(config.sample_values, 200))
        if not value_counts:
            result.skipped_reason = "column has no non-null values"
            return result
        evidence = f"catalog type {current_type}; sample values {[v for v, _ in value_counts[:5]]}"

        suggestion_prompt = prompts.column_type_suggestion(column_name, current_type, value_counts)
        suggestion = self.ask_json(context, suggestion_prompt, purpose="column_type")
        if suggestion is None:
            result.skipped_reason = "unparseable type suggestion"
            result.llm_calls = self.take_llm_calls()
            return result
        suggested = str(suggestion.get("SuggestedType", current_type)).upper()
        value_mapping = suggestion.get("ValueMapping")
        if not isinstance(value_mapping, dict):
            value_mapping = {}
        if suggested not in _VALID_TYPES:
            suggested = current_type
        detected = suggested != current_type.upper()
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            detected,
            llm_reasoning=str(suggestion.get("Reasoning", "")),
            llm_summary=f"cast {current_type} -> {suggested}",
        )
        result.finding = finding
        if not detected or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        return self.apply_step(
            context,
            hil,
            result,
            "cast",
            f"cast_{column_name}",
            {"column": column_name, "target_type": suggested, "mapping": value_mapping},
            [
                f"Column type cleaning for {column_name}: {current_type} -> {suggested}.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
