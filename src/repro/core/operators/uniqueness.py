"""§2.1.8 Column uniqueness.

Some columns — primary keys, identifiers — should be unique.  Statistics
compute the unique ratio; the LLM decides whether uniqueness is semantically
required and which column should prioritise the record to keep (e.g. the
latest timestamp).  Cleaning keeps one row per key value via a window
function.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.llm import prompts


class ColumnUniquenessOperator(CleaningOperator):

    issue_type = "column_uniqueness"
    # Unique ratio from which a column is considered a key candidate.
    uniqueness_threshold = 0.95

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, float]]:
        # One snapshot for every target: each column is judged on the table
        # as it was before this operator removed any rows.
        profile = context.profile()
        for column_name in context.data_columns():
            column_profile = profile.column(column_name)
            ratio = column_profile.unique_ratio
            # Only nearly-unique columns are key candidates worth reviewing;
            # exactly-unique columns need no cleaning.
            if self.uniqueness_threshold <= ratio < 1.0 and column_profile.row_count != 0:
                yield column_name, ratio

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, ratio: float
    ) -> None:
        column_name = result.target
        profile = context.profile().column(column_name)
        evidence = f"unique ratio {ratio:.3f}"
        other_columns = [c for c in context.data_columns() if c != column_name]

        review_prompt = prompts.uniqueness_review(column_name, ratio, str(profile.dtype), other_columns)
        review = self.ask_json(context, review_prompt, purpose="uniqueness_review")
        should_be_unique = bool(review and review.get("ShouldBeUnique"))
        order_column = review.get("OrderByColumn") if review else None
        if order_column not in other_columns:
            order_column = None
        finding = record_finding(
            result,
            evidence,
            should_be_unique,
            str(review.get("Reasoning", "")) if review else "",
            (
                f"keep one row per {column_name}"
                + (f" ordered by {order_column} DESC" if order_column else "")
            ),
        )
        if not should_be_unique or not hil.review_detection(finding).approved:
            return

        self.apply_step(
            context,
            hil,
            result,
            "unique",
            f"unique_{column_name}",
            {"column": column_name, "order_column": order_column},
            [
                f"Column uniqueness cleaning: {column_name} should be unique.",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
