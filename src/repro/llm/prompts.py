"""Prompt templates used by the Cocoon cleaning operators.

The string-outlier detection and cleaning prompts follow Figures 2 and 3 of
the paper verbatim (modulo whitespace); the remaining issue types use prompts
in the same style: statistical context first, then a narrowly scoped semantic
question, then an explicit machine-readable response format.

Every prompt starts with a distinctive instruction sentence; the simulated
model recognises the task from that sentence, exactly as a hosted model would
from the instructions themselves.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple


def format_value(value: Any) -> str:
    """Render a single cell value for inclusion in a prompt.

    Single quotes inside values are doubled (SQL-style escaping) so that the
    value list remains unambiguous to parse, both for tests and for the
    simulated model that reads the prompt back.
    """
    if value is None:
        return "NULL"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"


def format_value_counts(value_counts: Sequence[Tuple[str, int]]) -> str:
    """Render ``[(value, count), ...]`` as ``'v' (n rows), ...`` for prompts."""
    return ", ".join(f"{format_value(value)} ({count} rows)" for value, count in value_counts)


def format_value_list(values: Sequence[Any]) -> str:
    """Render a plain list of values."""
    return ", ".join(format_value(v) for v in values)


# ---------------------------------------------------------------------------
# 2.1.1 String outliers (Figures 2 and 3)
# ---------------------------------------------------------------------------
def string_outlier_detection(column_name: str, value_counts: Sequence[Tuple[str, int]]) -> str:
    """Figure 2: semantic detection of string outliers for one column."""
    sample_values_list_str = format_value_counts(value_counts)
    return (
        f"{column_name} has the following distinct values: {sample_values_list_str}\n"
        "Please review if there are:\n"
        'Strange characters or typos (e.g., "cofffee").\n'
        'Inconsistent representations of the same concept (e.g., "New York" and "NY").\n'
        "If so, report them as unusual values.\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "The values are ... They are unusual/acceptable ...",\n'
        '"Unusualness": true/false,\n'
        '"Summary": "xxx values are unusual because ..."\n'
        "}\n"
        "```"
    )


def string_outlier_cleaning(column_name: str, summary: str, batch_values: Sequence[str]) -> str:
    """Figure 3: semantic cleaning (value mapping) for one batch of values."""
    batch_values_list_str = format_value_list(batch_values)
    return (
        f"{column_name} is unusual: {summary}\n"
        f"It has the following values: {batch_values_list_str}\n"
        "Maps those unusual values to the correct ones to address the problems.\n"
        "If old values are meaningless, map to empty string.\n"
        "Return in the following format:\n"
        "```yml\n"
        "explanation: >\n"
        "  The problem is ... The correct values are ...\n"
        "mapping:\n"
        "  old_value: new_value\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.2 Pattern outliers
# ---------------------------------------------------------------------------
def pattern_generation(column_name: str, value_counts: Sequence[Tuple[str, int]]) -> str:
    """Ask for a list of semantically meaningful regex patterns covering the values."""
    sample_values_list_str = format_value_counts(value_counts)
    return (
        f"{column_name} has the following distinct values: {sample_values_list_str}\n"
        "Write a list of semantically meaningful regular expression patterns that cover all column values.\n"
        "Patterns must be meaningful (e.g., \\d{2}/\\d{2}/\\d{4} for day/month/year dates), not catch-alls like .*\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "The values follow ...",\n'
        '"Patterns": ["regex1", "regex2"]\n'
        "}\n"
        "```"
    )


def pattern_cleaning(column_name: str, standard_pattern: str, values: Sequence[str]) -> str:
    """Ask for a mapping that rewrites non-conforming values into the standard pattern."""
    values_list_str = format_value_list(values)
    return (
        f"{column_name} should follow the standard pattern {standard_pattern} but these values do not: "
        f"{values_list_str}\n"
        "Rewrite each value into the standard pattern without changing its meaning "
        "(reformat dates, zero-pad numbers, drop stray characters).\n"
        "If a value cannot be rewritten safely, omit it from the mapping.\n"
        "Return in the following format:\n"
        "```yml\n"
        "explanation: >\n"
        "  The values are rewritten to ...\n"
        "mapping:\n"
        "  old_value: new_value\n"
        "```"
    )


def pattern_consistency(column_name: str, pattern_counts: Sequence[Tuple[str, int]]) -> str:
    """Ask whether the verified patterns reveal inconsistent representations."""
    pattern_list_str = ", ".join(f"'{p}' ({c} rows)" for p, c in pattern_counts)
    return (
        f"{column_name} values match the following regular expression patterns: {pattern_list_str}\n"
        "Assess if these patterns are inconsistent representations of the same concept.\n"
        "If so, choose the pattern that should be the standard representation (prefer the most frequent).\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"Inconsistent": true/false,\n'
        '"StandardPattern": "regex"\n'
        "}\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.3 Disguised missing values
# ---------------------------------------------------------------------------
def dmv_detection(column_name: str, value_counts: Sequence[Tuple[str, int]]) -> str:
    sample_values_list_str = format_value_counts(value_counts)
    return (
        f"{column_name} has the following distinct values: {sample_values_list_str}\n"
        "Identify values that are currently not NULL, but semantically mean that the value is missing "
        '(e.g., string values like "N/A", "null", "unknown", placeholder dashes).\n'
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"DisguisedMissingValues": ["value1", "value2"]\n'
        "}\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.4 Column type
# ---------------------------------------------------------------------------
def column_type_suggestion(
    column_name: str,
    current_type: str,
    value_counts: Sequence[Tuple[str, int]],
) -> str:
    sample_values_list_str = format_value_counts(value_counts)
    return (
        f"{column_name} currently has database type {current_type} and the following distinct values: "
        f"{sample_values_list_str}\n"
        "Suggest the most suitable data type semantically (one of VARCHAR, INTEGER, DOUBLE, BOOLEAN, DATE, TIMESTAMP).\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"SuggestedType": "TYPE",\n'
        '"ValueMapping": {"raw": "typed literal"}\n'
        "}\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.5 Numeric outliers
# ---------------------------------------------------------------------------
def numeric_range_review(column_name: str, dtype: str, minimum: Any, maximum: Any, mean: Any) -> str:
    return (
        f"{column_name} is a {dtype} column with minimum {minimum}, maximum {maximum} and mean {mean}.\n"
        "Review the acceptable range for this column semantically, based on what the column represents in the real world.\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"HasOutliers": true/false,\n'
        '"AcceptableMin": number or null,\n'
        '"AcceptableMax": number or null\n'
        "}\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.6 Functional dependencies
# ---------------------------------------------------------------------------
def fd_review(
    determinant: str,
    dependent: str,
    entropy_score: float,
    violation_examples: Sequence[Tuple[str, Sequence[Tuple[str, int]]]],
) -> str:
    examples = "; ".join(
        f"{determinant}='{lhs}' maps to " + ", ".join(f"'{value}' ({count} rows)" for value, count in rhs)
        for lhs, rhs in violation_examples
    )
    return (
        f"The functional dependency {determinant} -> {dependent} is statistically strong "
        f"(entropy score {entropy_score:.3f}).\n"
        f"Example violations: {examples}\n"
        "Review if this statistically strong functional dependency is meaningful semantically "
        "(i.e., in the real world one value of the determinant should always have one value of the dependent).\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"Meaningful": true/false\n'
        "}\n"
        "```"
    )


def fd_correction(
    determinant: str,
    dependent: str,
    violation_groups: Sequence[Tuple[str, Sequence[Tuple[str, int]]]],
) -> str:
    groups = "; ".join(
        f"{determinant}='{lhs}' has {dependent} values " + ", ".join(f"'{value}' ({count} rows)" for value, count in rhs)
        for lhs, rhs in violation_groups
    )
    return (
        f"The functional dependency {determinant} -> {dependent} is violated by the following groups: {groups}\n"
        "Provide the correct mapping for each group so that each determinant value maps to a single dependent value.\n"
        "Return in the following format:\n"
        "```yml\n"
        "explanation: >\n"
        "  The correct values are ...\n"
        "mapping:\n"
        "  determinant_value: correct_dependent_value\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.7 Duplication
# ---------------------------------------------------------------------------
def duplication_review(table_name: str, duplicate_count: int, sample_rows: Sequence[Mapping[str, Any]]) -> str:
    rows = "; ".join(
        "{" + ", ".join(f"{k}: {format_value(v)}" for k, v in row.items()) + "}" for row in sample_rows
    )
    return (
        f"Table {table_name} contains {duplicate_count} fully duplicated rows. Sample duplicates: {rows}\n"
        "Determine if these duplications are semantically acceptable "
        "(e.g., duplication in logging with coarse time granularity) or erroneous.\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"Erroneous": true/false\n'
        "}\n"
        "```"
    )


# ---------------------------------------------------------------------------
# 2.1.8 Column uniqueness
# ---------------------------------------------------------------------------
def uniqueness_review(
    column_name: str,
    unique_ratio: float,
    dtype: str,
    candidate_order_columns: Sequence[str],
) -> str:
    return (
        f"{column_name} is a {dtype} column whose unique ratio is {unique_ratio:.3f}.\n"
        "Decide if the column should be unique semantically (e.g., a primary key or identifier).\n"
        f"If it should be unique, build a window function keyed on {column_name}, choosing from these columns "
        f"to prioritise which record to keep: {', '.join(candidate_order_columns) if candidate_order_columns else '(none)'}\n"
        "Now, respond in JSON:\n"
        "```\n"
        "{\n"
        '"Reasoning": "...",\n'
        '"ShouldBeUnique": true/false,\n'
        '"OrderByColumn": "column or null"\n'
        "}\n"
        "```"
    )
