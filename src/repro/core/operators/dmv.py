"""§2.1.3 Disguised missing values.

Values like ``"N/A"``, ``"null"`` or ``"--"`` are not NULL in the database
but semantically mean that the value is missing.  The LLM reviews the
distinct values of each column; cleaning is a ``CASE WHEN ... THEN NULL``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.context import MAX_CATEGORICAL_DISTINCT, SAMPLE_VALUES, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.dataframe.schema import ColumnType
from repro.llm import prompts
from repro.profiling.column_profile import ColumnProfile


class DisguisedMissingValueOperator(CleaningOperator):

    issue_type = "disguised_missing_value"

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, ColumnProfile]]:
        for column_name in context.data_columns():
            profile = context.profile().column(column_name)
            if (
                profile.dtype is ColumnType.VARCHAR
                and profile.distinct_count <= MAX_CATEGORICAL_DISTINCT
            ):
                yield column_name, profile

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, profile: ColumnProfile
    ) -> None:
        column_name = result.target
        value_counts = profile.frequent_values(SAMPLE_VALUES)
        if not value_counts:
            result.skipped_reason = "column has no non-null values"
            return
        evidence = f"{profile.null_fraction:.1%} NULL, {profile.distinct_count} distinct values"

        detection_prompt = prompts.dmv_detection(column_name, value_counts)
        detection = self.ask_json(context, detection_prompt, purpose="dmv_detection")
        dmvs = []
        if detection is not None:
            dmvs = [str(v) for v in detection.get("DisguisedMissingValues", []) if str(v).strip() != ""]
        present = set(value for value, _ in value_counts)
        dmvs = [v for v in dmvs if v in present]
        finding = record_finding(
            result,
            evidence,
            bool(dmvs),
            str(detection.get("Reasoning", "")) if detection else "",
            f"disguised missing values: {dmvs}" if dmvs else "no disguised missing values",
        )
        if not dmvs or not hil.review_detection(finding).approved:
            return

        self.apply_step(
            context,
            hil,
            result,
            "null_values",
            f"dmv_{column_name}",
            {"column": column_name, "values": dmvs},
            [
                f"Disguised missing value cleaning for column {column_name}.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
