"""§2.1.5 Numeric outliers.

Statistics capture the observed minimum/maximum; the LLM reviews the
semantically acceptable range ("an age of 851 is impossible") and values
outside it are nulled with a thresholding ``CASE WHEN``.
"""

from __future__ import annotations

from typing import List

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import case_when_threshold, select_with_replacements
from repro.llm import prompts


class NumericOutlierOperator(CleaningOperator):

    issue_type = "numeric_outliers"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        for column_name in context.data_columns():
            column_profile = context.profile().column(column_name)
            if not column_profile.is_numeric:
                continue
            with self.target_span(column_name):
                results.append(self._run_column(context, hil, column_name))
        return results

    def _run_column(self, context: CleaningContext, hil: HumanInTheLoop, column_name: str) -> OperatorResult:
        result = OperatorResult(issue_type=self.issue_type, target=column_name)
        profile = context.profile().column(column_name)
        if profile.minimum is None or profile.maximum is None:
            result.skipped_reason = "column has no numeric values"
            return result
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
            result.llm_calls = self.take_llm_calls()
            return result
        has_outliers = bool(review.get("HasOutliers"))
        low = review.get("AcceptableMin")
        high = review.get("AcceptableMax")
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            has_outliers,
            llm_reasoning=str(review.get("Reasoning", "")),
            llm_summary=f"acceptable range [{low}, {high}]",
        )
        result.finding = finding
        if not has_outliers or (low is None and high is None) or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        target_table = context.next_table_name(f"range_{column_name}")
        expression = case_when_threshold(column_name, low, high)
        sql = select_with_replacements(
            context.current_table_name,
            target_table,
            [ROW_ID_COLUMN] + context.data_columns(),
            {column_name: expression},
            comments=[
                f"Numeric outlier cleaning for {column_name}: values outside [{low}, {high}] become NULL.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
        decision = hil.review_cleaning(finding, {}, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return result
        replay = {
            "kind": "range",
            "target_table": target_table,
            "column": column_name,
            "low": low,
            "high": high,
        }
        repairs, removed = self.apply_sql(
            context, sql, target_table, self.issue_type, finding.llm_summary,
            decision=replay, target=column_name,
        )
        result.repairs = repairs
        result.removed_row_ids = removed
        result.sql = sql
        result.replay = replay
        result.llm_calls = self.take_llm_calls()
        return result
