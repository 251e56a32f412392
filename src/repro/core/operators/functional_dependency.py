"""§2.1.6 Functional dependencies.

Following Baran, only single-attribute FDs are considered.  Statistics score
each candidate with conditional entropy; the LLM reviews whether the
statistically strong FD is *meaningful in the real world* (the Flights
``flight → actual arrival time`` dependency is the canonical rejection),
then provides the correct dependent value for each violating group, and the
repair is a ``CASE WHEN`` keyed on the determinant.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.llm import prompts
from repro.obs import span as obs_span
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

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, FDCandidate]]:
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
        for candidate in candidates[: context.config.fd_max_candidates]:
            yield f"{candidate.determinant} -> {candidate.dependent}", candidate

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, candidate: FDCandidate
    ) -> None:
        table = context.data_only_table()
        with obs_span("profile.fd_violations"):
            violations = fd_violation_groups(table, candidate.determinant, candidate.dependent)
        if not violations:
            result.skipped_reason = "no violations remain"
            return
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
        finding = record_finding(
            result,
            evidence,
            meaningful,
            str(review.get("Reasoning", "")) if review else "",
            "meaningful dependency" if meaningful else "dependency judged not meaningful",
        )
        if not meaningful or not hil.review_detection(finding).approved:
            return

        mapping: Dict[str, str] = {}
        for start in range(0, len(violations), self.correction_batch):
            batch = violations[start: start + self.correction_batch]
            correction_prompt = prompts.fd_correction(candidate.determinant, candidate.dependent, batch)
            _explanation, batch_mapping = self.ask_mapping(context, correction_prompt, purpose="fd_correction")
            mapping.update({k: v for k, v in batch_mapping.items() if v})
        if not mapping:
            return

        self.apply_step(
            context,
            hil,
            result,
            "fd_map",
            f"fd_{candidate.dependent}",
            {
                "determinant": candidate.determinant,
                "dependent": candidate.dependent,
                "mapping": mapping,
            },
            [
                f"Functional dependency repair: {result.target}.",
                f"Statistical evidence: {evidence}",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
