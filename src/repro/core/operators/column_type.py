"""§2.1.4 Column type: cast columns to their semantically suitable type.

The current type comes from the database catalog; the LLM suggests the
suitable semantic type (e.g. ``"yes"``/``"no"`` is BOOLEAN, mixed duration
strings are DOUBLE minutes).  Cleaning uses ``CAST`` clauses, optionally
preceded by a value-normalising ``CASE WHEN`` supplied by the model.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.dataframe.schema import ColumnType
from repro.llm import prompts
from repro.profiling.column_profile import ColumnProfile

_VALID_TYPES = {"VARCHAR", "INTEGER", "DOUBLE", "BOOLEAN", "DATE", "TIMESTAMP"}


class ColumnTypeOperator(CleaningOperator):

    issue_type = "column_type"

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, ColumnProfile]]:
        for column_name in context.data_columns():
            profile = context.profile().column(column_name)
            # A typed column in the catalog has nothing to cast.
            if profile.dtype is ColumnType.VARCHAR:
                yield column_name, profile

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, profile: ColumnProfile
    ) -> None:
        column_name = result.target
        schema = context.db.schema(context.current_table_name)
        current_type = str(schema.get(column_name, ColumnType.VARCHAR))
        value_counts = profile.frequent_values(min(context.config.sample_values, 200))
        if not value_counts:
            result.skipped_reason = "column has no non-null values"
            return
        evidence = f"catalog type {current_type}; sample values {[v for v, _ in value_counts[:5]]}"

        suggestion_prompt = prompts.column_type_suggestion(column_name, current_type, value_counts)
        suggestion = self.ask_json(context, suggestion_prompt, purpose="column_type")
        if suggestion is None:
            result.skipped_reason = "unparseable type suggestion"
            return
        suggested = str(suggestion.get("SuggestedType", current_type)).upper()
        value_mapping = suggestion.get("ValueMapping")
        if not isinstance(value_mapping, dict):
            value_mapping = {}
        if suggested not in _VALID_TYPES:
            suggested = current_type
        detected = suggested != current_type.upper()
        finding = record_finding(
            result,
            evidence,
            detected,
            str(suggestion.get("Reasoning", "")),
            f"cast {current_type} -> {suggested}",
        )
        if not detected or not hil.review_detection(finding).approved:
            return

        self.apply_step(
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
