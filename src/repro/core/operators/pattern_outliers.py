"""§2.1.2 Pattern outliers: inconsistent structural representations.

The operator asks the LLM for a list of semantically meaningful regular
expressions that cover the column values, counts how many values each one
covers (:func:`repro.profiling.patterns.pattern_counts` over the column
values it already holds, first match wins), asks whether the pattern mix is
an inconsistent representation of one concept, and cleans by rewriting the
non-conforming values into the standard pattern.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator, record_finding
from repro.core.result import OperatorResult
from repro.dataframe.schema import ColumnType
from repro.llm import prompts
from repro.profiling.column_profile import ColumnProfile
from repro.profiling.patterns import match_fraction, non_matching_values, pattern_counts


class PatternOutlierOperator(CleaningOperator):

    issue_type = "pattern_outliers"
    # One retry when the first pattern list does not cover the column ("recursively ask").
    max_generation_rounds = 2
    coverage_threshold = 0.95

    def targets(self, context: CleaningContext) -> Iterator[Tuple[str, ColumnProfile]]:
        for column_name in context.data_columns():
            profile = context.profile().column(column_name)
            if (
                profile.dtype is ColumnType.VARCHAR
                and profile.distinct_count <= context.config.max_categorical_distinct
            ):
                yield column_name, profile

    def clean_target(
        self, context: CleaningContext, hil: HumanInTheLoop, result: OperatorResult, profile: ColumnProfile
    ) -> None:
        config = context.config
        column_name = result.target
        value_counts = profile.frequent_values(config.sample_values)
        if not value_counts or profile.distinct_count <= 1:
            result.skipped_reason = "not enough distinct values for pattern analysis"
            return
        # The helpers read the dictionary codes the column's profile encoded.
        column = context.current_table().column(column_name)

        patterns: List[str] = []
        for _round in range(self.max_generation_rounds):
            generation_prompt = prompts.pattern_generation(column_name, value_counts)
            generated = self.ask_json(context, generation_prompt, purpose="pattern_generation")
            if generated is None:
                break
            patterns = [p for p in generated.get("Patterns", []) if isinstance(p, str) and p.strip()]
            if match_fraction(column, patterns) >= self.coverage_threshold:
                break
        # Empty when no pattern compiles: pattern_counts drops the ones that do not.
        counts = pattern_counts(column, patterns)
        if not counts:
            result.skipped_reason = "no usable patterns generated"
            return
        evidence = "pattern distribution: " + ", ".join(f"{p!r} x{c}" for p, c in counts)

        consistency_prompt = prompts.pattern_consistency(column_name, counts)
        consistency = self.ask_json(context, consistency_prompt, purpose="pattern_consistency")
        detected = bool(consistency and consistency.get("Inconsistent")) and len(
            [c for _, c in counts if c > 0]
        ) > 1
        finding = record_finding(
            result,
            evidence,
            detected,
            str(consistency.get("Reasoning", "")) if consistency else "",
            f"standard pattern {consistency.get('StandardPattern')}" if consistency else "",
        )
        if not detected or not hil.review_detection(finding).approved:
            return

        standard_pattern = str(consistency.get("StandardPattern", "")) if consistency else ""
        outliers = non_matching_values(column, standard_pattern)
        if not outliers:
            return
        mapping: Dict[str, str] = {}
        batch_size = config.cleaning_batch_size
        for start in range(0, len(outliers), batch_size):
            batch = outliers[start: start + batch_size]
            cleaning_prompt = prompts.pattern_cleaning(column_name, standard_pattern, batch)
            _explanation, batch_mapping = self.ask_mapping(context, cleaning_prompt, purpose="pattern_cleaning")
            for old, new in batch_mapping.items():
                if old != new and new:
                    mapping[old] = new
        if not mapping:
            return

        self.apply_step(
            context,
            hil,
            result,
            "value_map",
            f"pattern_{column_name}",
            {"column": column_name, "mapping": mapping, "standard_pattern": standard_pattern},
            [
                f"Pattern outlier cleaning for column {column_name}.",
                f"Standard pattern: {standard_pattern}",
                f"Reasoning: {finding.llm_reasoning}",
            ],
        )
