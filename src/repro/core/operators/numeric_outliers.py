"""§2.1.5 Numeric outliers.

Statistics capture the observed minimum/maximum; the LLM reviews the
semantically acceptable range ("an age of 851 is impossible") and values
outside it are nulled with a thresholding ``CASE WHEN``.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.llm import prompts
from repro.profiling.column_profile import ColumnProfile


class NumericOutlierOperator(CleaningOperator):

    issue_type = "numeric_outliers"

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, ColumnProfile]]:
        for column_name in context.data_columns():
            profile = context.profile().column(column_name)
            if profile.is_numeric:
                yield column_name, profile

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, profile: ColumnProfile
    ) -> None:
        column_name = result.target
        if profile.minimum is None or profile.maximum is None:
            result.skipped_reason = "column has no numeric values"
            return
        evidence = f"min {profile.minimum}, max {profile.maximum}, mean {profile.mean}"

        review_prompt = prompts.numeric_range_review(
            column_name,
            str(profile.dtype),
            profile.minimum,
            profile.maximum,
            round(profile.mean, 3) if profile.mean is not None else None,
        )
        review = self.ask_json(context, review_prompt, purpose="numeric_range")
        if review is None:
            result.skipped_reason = "unparseable range review"
            return
        has_outliers = bool(review.get("HasOutliers"))
        low = review.get("AcceptableMin")
        high = review.get("AcceptableMax")
        finding = record_finding(
            result,
            evidence,
            has_outliers,
            str(review.get("Reasoning", "")),
            f"acceptable range [{low}, {high}]",
        )
        if not has_outliers or (low is None and high is None) or not hil.review_detection(finding).approved:
            return

        self.apply_step(
            context,
            hil,
            result,
            "range",
            f"range_{column_name}",
            {"column": column_name, "low": low, "high": high},
            [
                f"Numeric outlier cleaning for {column_name}: values outside [{low}, {high}] become NULL.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
