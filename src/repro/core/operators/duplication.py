"""§2.1.7 Duplication.

Statistics select fully duplicated rows; the LLM decides whether duplicates
are semantically acceptable (e.g. coarse-grained logging) or erroneous.
Erroneous duplicates are removed with a ``SELECT DISTINCT``-equivalent that
keeps the first occurrence (implemented with ``ROW_NUMBER`` over the data
columns so the hidden row-id bookkeeping column is preserved).
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.llm import prompts
from repro.obs import current_span
from repro.profiling.table_profile import TableProfile


class DuplicationOperator(CleaningOperator):

    issue_type = "duplication"

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, TableProfile]]:
        yield context.base_table, context.profile()

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, profile: TableProfile
    ) -> None:
        duplicate_rows = profile.duplicate_rows
        span = current_span()
        if span is not None:
            span.annotate(duplicate_rows=duplicate_rows)
        if duplicate_rows == 0:
            result.skipped_reason = "no duplicated rows detected statistically"
            return

        evidence = f"{duplicate_rows} fully duplicated rows"
        review_prompt = prompts.duplication_review(context.base_table, duplicate_rows, profile.duplicate_samples)
        review = self.ask_json(context, review_prompt, purpose="duplication_review")
        erroneous = bool(review and review.get("Erroneous"))
        finding = record_finding(
            result,
            evidence,
            erroneous,
            str(review.get("Reasoning", "")) if review else "",
            "duplicates are erroneous" if erroneous else "duplicates are acceptable",
        )
        if not erroneous or not hil.review_detection(finding).approved:
            return

        self.apply_step(
            context,
            hil,
            result,
            "dedup",
            "dedup",
            {"columns": context.data_columns()},
            [
                f"Duplication cleaning: remove {duplicate_rows} duplicated rows (keep the first occurrence).",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
