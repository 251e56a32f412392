"""§2.1.1 String outliers: typos and inconsistent representations.

Statistical step: sample the most frequent values of each text column
(1000 by default).  Semantic detection: ask the LLM whether the values
contain typos or redundant representations (Figure 2).  Semantic cleaning:
ask for an old → new value mapping of the sampled values (Figure 3) and
execute it through a ``CASE WHEN`` rewrite.  The sample holds at most 1000
values, the paper's cleaning batch size, so one cleaning prompt covers it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.core.context import MAX_CATEGORICAL_DISTINCT, SAMPLE_VALUES, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.dataframe.schema import ColumnType
from repro.llm import prompts
from repro.profiling.column_profile import ColumnProfile


class StringOutlierOperator(CleaningOperator):

    issue_type = "string_outliers"
    # Skip string review for columns whose values are mostly unique free text.
    max_free_text_unique_ratio = 0.8

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, ColumnProfile]]:
        for column_name in context.data_columns():
            profile = context.profile().column(column_name)
            if profile.dtype is ColumnType.VARCHAR:
                yield column_name, profile

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, profile: ColumnProfile
    ) -> None:
        column_name = result.target
        if profile.distinct_count > MAX_CATEGORICAL_DISTINCT:
            result.skipped_reason = (
                f"{profile.distinct_count} distinct values exceed the categorical limit "
                f"({MAX_CATEGORICAL_DISTINCT}); treated as free text."
            )
            return
        if profile.unique_ratio > self.max_free_text_unique_ratio and profile.distinct_count > 50:
            result.skipped_reason = (
                f"unique ratio {profile.unique_ratio:.2f} indicates free text; skipped."
            )
            return

        # Statistical step: the frequent-value sample that goes into the prompt.
        value_counts = profile.frequent_values(SAMPLE_VALUES)
        if not value_counts:
            result.skipped_reason = "column has no non-null values"
            return
        evidence = "value distribution: " + ", ".join(
            f"{value!r} {count / profile.row_count:.1%}" for value, count in value_counts[:5]
        )

        # Semantic detection (Figure 2).
        detection_prompt = prompts.string_outlier_detection(column_name, value_counts)
        detection = self.ask_json(context, detection_prompt, purpose="string_outlier_detection")
        if detection is None:
            result.skipped_reason = "unparseable detection response"
            return
        finding = record_finding(
            result,
            evidence,
            bool(detection.get("Unusualness")),
            str(detection.get("Reasoning", "")),
            str(detection.get("Summary", "")),
        )
        if not finding.detected or not hil.review_detection(finding).approved:
            return

        # Semantic cleaning (Figure 3).
        cleaning_prompt = prompts.string_outlier_cleaning(
            column_name, finding.llm_summary, [value for value, _ in value_counts]
        )
        _explanation, answer = self.ask_mapping(context, cleaning_prompt, purpose="string_outlier_cleaning")
        mapping: Dict[str, str] = {old: new for old, new in answer.items() if old != new}
        if not mapping:
            return

        self.apply_step(
            context,
            hil,
            result,
            "value_map",
            f"string_{column_name}",
            {"column": column_name, "mapping": mapping},
            [
                f"String outlier cleaning for column {column_name}.",
                f"Reasoning: {finding.llm_reasoning}",
                f"Summary: {finding.llm_summary}",
            ],
        )
