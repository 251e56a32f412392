"""§2.1.8 Column uniqueness.

Some columns — primary keys, identifiers — should be unique.  Statistics
compute the unique ratio; the LLM decides whether uniqueness is semantically
required and which column should prioritise the record to keep (e.g. the
latest timestamp).  Cleaning keeps one row per key value via a window
function.
"""

from __future__ import annotations

from typing import List

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import keep_first_statement, quote_identifier
from repro.llm import prompts


class ColumnUniquenessOperator(CleaningOperator):

    issue_type = "column_uniqueness"

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        # One snapshot for the whole loop: every column is judged on the table
        # as it was before this operator removed any rows.
        profile = context.profile()
        threshold = context.config.uniqueness_threshold
        for column_name in context.data_columns():
            column_profile = profile.column(column_name)
            ratio = column_profile.unique_ratio
            # Only nearly-unique columns are key candidates worth reviewing;
            # exactly-unique columns need no cleaning.
            if ratio < threshold or ratio >= 1.0 or column_profile.row_count == 0:
                continue
            with self.target_span(column_name):
                results.append(self._run_column(context, hil, column_name, ratio))
        return results

    def _run_column(
        self, context: CleaningContext, hil: HumanInTheLoop, column_name: str, ratio: float
    ) -> OperatorResult:
        result = OperatorResult(issue_type=self.issue_type, target=column_name)
        profile = context.profile().column(column_name)
        evidence = f"unique ratio {ratio:.3f}"
        other_columns = [c for c in context.data_columns() if c != column_name]

        review_prompt = prompts.uniqueness_review(column_name, ratio, str(profile.dtype), other_columns)
        review = self.ask_json(context, review_prompt, purpose="uniqueness_review")
        should_be_unique = bool(review and review.get("ShouldBeUnique"))
        order_column = review.get("OrderByColumn") if review else None
        if order_column not in other_columns:
            order_column = None
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            should_be_unique,
            llm_reasoning=str(review.get("Reasoning", "")) if review else "",
            llm_summary=(
                f"keep one row per {column_name}"
                + (f" ordered by {order_column} DESC" if order_column else "")
            ),
        )
        result.finding = finding
        if not should_be_unique or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        order_by = f"{quote_identifier(order_column)} DESC" if order_column else ROW_ID_COLUMN
        target_table = context.next_table_name(f"unique_{column_name}")
        sql = keep_first_statement(
            context.current_table_name,
            target_table,
            [column_name],
            order_by,
            comments=[
                f"Column uniqueness cleaning: {column_name} should be unique.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
        decision = hil.review_cleaning(finding, {}, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return result
        replay = {
            "kind": "unique",
            "target_table": target_table,
            "column": column_name,
            "order_column": order_column,
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
