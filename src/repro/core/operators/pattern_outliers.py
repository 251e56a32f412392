"""§2.1.2 Pattern outliers: inconsistent structural representations.

The operator asks the LLM for a list of semantically meaningful regular
expressions that cover the column values, counts how many values each one
covers (:func:`repro.profiling.patterns.pattern_counts` over the column
values it already holds, first match wins), asks whether the pattern mix is
an inconsistent representation of one concept, and cleans by rewriting the
non-conforming values into the standard pattern.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.context import CleaningContext
from repro.core.hil import HumanInTheLoop
from repro.core.operators.base import CleaningOperator
from repro.core.result import OperatorResult
from repro.dataframe.schema import ColumnType
from repro.llm import prompts
from repro.profiling.patterns import match_fraction, non_matching_values, pattern_counts


class PatternOutlierOperator(CleaningOperator):

    issue_type = "pattern_outliers"
    # One retry when the first pattern list does not cover the column ("recursively ask").
    max_generation_rounds = 2
    coverage_threshold = 0.95

    def run(self, context: CleaningContext, hil: HumanInTheLoop) -> List[OperatorResult]:
        results: List[OperatorResult] = []
        for column_name in context.data_columns():
            column_profile = context.profile().column(column_name)
            if column_profile.dtype is not ColumnType.VARCHAR:
                continue
            if column_profile.distinct_count > context.config.max_categorical_distinct:
                continue
            with self.target_span(column_name):
                results.append(self._run_column(context, hil, column_name))
        return results

    def _run_column(self, context: CleaningContext, hil: HumanInTheLoop, column_name: str) -> OperatorResult:
        config = context.config
        result = OperatorResult(issue_type=self.issue_type, target=column_name)
        profile = context.profile().column(column_name)
        value_counts = profile.frequent_values(config.sample_values)
        if not value_counts or profile.distinct_count <= 1:
            result.skipped_reason = "not enough distinct values for pattern analysis"
            return result
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
            result.llm_calls = self.take_llm_calls()
            return result
        evidence = "pattern distribution: " + ", ".join(f"{p!r} x{c}" for p, c in counts)

        consistency_prompt = prompts.pattern_consistency(column_name, counts)
        consistency = self.ask_json(context, consistency_prompt, purpose="pattern_consistency")
        detected = bool(consistency and consistency.get("Inconsistent")) and len(
            [c for _, c in counts if c > 0]
        ) > 1
        finding = self.make_finding(
            self.issue_type,
            column_name,
            evidence,
            detected,
            llm_reasoning=str(consistency.get("Reasoning", "")) if consistency else "",
            llm_summary=f"standard pattern {consistency.get('StandardPattern')}" if consistency else "",
        )
        result.finding = finding
        if not detected or not hil.review_detection(finding).approved:
            result.llm_calls = self.take_llm_calls()
            return result

        standard_pattern = str(consistency.get("StandardPattern", "")) if consistency else ""
        outliers = non_matching_values(column, standard_pattern)
        if not outliers:
            result.llm_calls = self.take_llm_calls()
            return result
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
            result.llm_calls = self.take_llm_calls()
            return result

        return self.apply_step(
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
