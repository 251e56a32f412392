"""§2.1.6 Functional dependencies.

Following Baran, only single-attribute FDs are considered.  Statistics score
each candidate with conditional entropy; the LLM reviews whether the
statistically strong FD is *meaningful in the real world* (the Flights
``flight → actual arrival time`` dependency is the canonical rejection),
then provides the correct dependent value for each violating group, and the
repair is a ``CASE WHEN`` keyed on the determinant.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.context import ROW_ID_COLUMN, CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.core.sqlgen import conditional_update_expression, select_with_replacements
from repro.llm import prompts
from repro.profiling.fd import FDCandidate, fd_violation_groups


class FunctionalDependencyOperator(CleaningOperator):

    issue_type = "functional_dependency"
    # Number of violation example groups included in the review prompt.
    review_examples = 3
    # Cap on groups sent for correction in one prompt.
    correction_batch = 200

    # Minimum average rows per determinant value: below this the "dependency"
    # is an artefact of near-unique determinants rather than a real rule.
    min_group_size = 3.0
    # Maximum fraction of rows that may violate the candidate: real dependencies
    # hold for most of the (mostly clean) data, so a candidate contradicted by a
    # third of the table is a statistical artefact, not a rule.
    max_violation_fraction = 0.3

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        profile = context.profile()
        row_count = max(1, profile.row_count)
        candidates = []
        for candidate in profile.fd_candidates:
            if candidate.violating_groups == 0:
                continue
            if candidate.violating_rows / row_count > self.max_violation_fraction:
                continue
            determinant_profile = profile.column(candidate.determinant)
            distinct = max(1, determinant_profile.distinct_count)
            if row_count / distinct < self.min_group_size:
                continue
            candidates.append(candidate)
        candidates = candidates[: context.config.fd_max_candidates]
        for candidate in candidates:
            with self.target_span(f"{candidate.determinant} -> {candidate.dependent}"):
                results.append(self._run_candidate(context, hil, candidate))
        return results

    def _run_candidate(
        self, context: CleaningContext, hil: HumanInTheLoop, candidate: FDCandidate
    ) -> OperatorResult:
        target = f"{candidate.determinant} -> {candidate.dependent}"
        result = OperatorResult(issue_type=self.issue_type, target=target)
        table = context.data_only_table()
        violations = fd_violation_groups(table, candidate.determinant, candidate.dependent)
        if not violations:
            result.skipped_reason = "no violations remain"
            return result
        evidence = (
            f"entropy score {candidate.score:.3f}, {len(violations)} violating groups, "
            f"{candidate.violating_rows} violating rows"
        )

        review_prompt = prompts.fd_review(
            candidate.determinant,
            candidate.dependent,
            candidate.score,
            violations[: self.review_examples],
        )
        review = self.ask_json(context, review_prompt, purpose="fd_review")
        meaningful = bool(review and review.get("Meaningful"))
        finding = self.make_finding(
            self.issue_type,
            target,
            evidence,
            meaningful,
            llm_reasoning=str(review.get("Reasoning", "")) if review else "",
            llm_summary="meaningful dependency" if meaningful else "dependency judged not meaningful",
        )
        result.finding = finding
        if not meaningful or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        mapping: Dict[str, str] = {}
        for start in range(0, len(violations), self.correction_batch):
            batch = violations[start: start + self.correction_batch]
            correction_prompt = prompts.fd_correction(candidate.determinant, candidate.dependent, batch)
            _explanation, batch_mapping = self.ask_mapping(context, correction_prompt, purpose="fd_correction")
            mapping.update({k: v for k, v in batch_mapping.items() if v})
        if not mapping:
            result.llm_calls = self.take_llm_calls()
            return result

        target_table = context.next_table_name(f"fd_{candidate.dependent}")
        expression = conditional_update_expression(candidate.dependent, candidate.determinant, mapping)
        sql = select_with_replacements(
            context.current_table_name,
            target_table,
            [ROW_ID_COLUMN] + context.data_columns(),
            {candidate.dependent: expression},
            comments=[
                f"Functional dependency repair: {target}.",
                f"Statistical evidence: {evidence}",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
        decision = hil.review_cleaning(finding, mapping, sql)
        if not decision.approved:
            result.skipped_reason = "cleaning rejected by reviewer"
            result.llm_calls = self.take_llm_calls()
            return result
        replay = {
            "kind": "fd_map",
            "target_table": target_table,
            "determinant": candidate.determinant,
            "dependent": candidate.dependent,
            "mapping": dict(mapping),
        }
        repairs, removed = self.apply_sql(
            context, sql, target_table, self.issue_type, finding.llm_summary,
            decision=replay, target=target,
        )
        result.repairs = repairs
        result.removed_row_ids = removed
        result.sql = sql
        result.replay = replay
        result.llm_calls = self.take_llm_calls()
        return result
