"""SQL generation helpers.

The paper stresses that Cocoon's output is a set of *well-commented SQL
queries*: scalable (pushed down to the database), interpretable (the LLM
reasoning is preserved as comments) and reusable (the script re-runs on new
data).  These helpers build those statements.

Every builder takes an optional :class:`~repro.core.dialects.Dialect`; the
default (:class:`~repro.core.dialects.ReproDialect`) renders exactly what
these helpers always rendered, and passing
:class:`~repro.core.dialects.SqliteDialect` re-targets the same cleaning
decision at stdlib ``sqlite3`` — see ``docs/dialects.md``.
"""

from __future__ import annotations

import math
import textwrap
from typing import Iterable, List, Mapping, Optional, Sequence

from repro.core.dialects import DEFAULT_DIALECT, Dialect


def quote_identifier(name: str, dialect: Optional[Dialect] = None) -> str:
    """Quote an identifier per the dialect's rules (see Dialect.quote_identifier)."""
    return (dialect or DEFAULT_DIALECT).quote_identifier(name)


def quote_literal(value: object, dialect: Optional[Dialect] = None) -> str:
    """Render a Python value as a SQL literal.

    Non-finite floats never render bare (``nan``/``inf`` would not re-parse
    on any engine): NaN becomes ``NULL``, ±inf the strings ``'inf'``/``'-inf'``.
    """
    return (dialect or DEFAULT_DIALECT).quote_literal(value)


def comment_block(lines: Iterable[str], width: int = 96) -> str:
    """Render reasoning text as a SQL comment block."""
    out: List[str] = []
    for line in lines:
        for wrapped in textwrap.wrap(line, width=width) or [""]:
            out.append(f"-- {wrapped}")
    return "\n".join(out)


def case_when_mapping(
    column: str,
    mapping: Mapping[str, Optional[str]],
    else_null_for: Sequence[str] = (),
    dialect: Optional[Dialect] = None,
) -> str:
    """``CASE column WHEN 'old' THEN 'new' ... ELSE column END`` for a value mapping.

    Values mapped to the empty string become NULL (the paper's convention for
    "meaningless" values).
    """
    dialect = dialect or DEFAULT_DIALECT
    col = dialect.quote_identifier(column)
    subject = dialect.case_subject(col)
    branches = []
    for old, new in mapping.items():
        if new is None or new == "":
            branches.append(f"        WHEN {dialect.quote_literal(old)} THEN NULL")
        else:
            branches.append(
                f"        WHEN {dialect.quote_literal(old)} THEN {dialect.quote_literal(new)}"
            )
    for old in else_null_for:
        branches.append(f"        WHEN {dialect.quote_literal(old)} THEN NULL")
    body = "\n".join(branches)
    return f"CASE {subject}\n{body}\n        ELSE {col}\n    END"


def case_when_null(
    column: str, null_values: Sequence[str], dialect: Optional[Dialect] = None
) -> str:
    """``CASE WHEN column IN (...) THEN NULL ELSE column END`` for DMV cleaning."""
    dialect = dialect or DEFAULT_DIALECT
    col = dialect.quote_identifier(column)
    condition = dialect.in_token_condition(col, null_values)
    return f"CASE WHEN {condition} THEN NULL ELSE {col} END"


def case_when_threshold(
    column: str,
    low: Optional[float],
    high: Optional[float],
    dialect: Optional[Dialect] = None,
) -> str:
    """``CASE WHEN column < low OR column > high THEN NULL ELSE column END``.

    Non-finite bounds are dropped (they were previously interpolated as bare
    ``nan``/``inf`` and produced unparseable SQL); with both bounds dropped
    the condition degrades to ``FALSE`` and the CASE passes everything
    through, exactly like the no-bounds call always did.
    """
    dialect = dialect or DEFAULT_DIALECT
    col = dialect.quote_identifier(column)
    bounds = []
    if low is not None and math.isfinite(low):
        bounds.append(("<", low))
    if high is not None and math.isfinite(high):
        bounds.append((">", high))
    condition = dialect.threshold_condition(col, bounds)
    return f"CASE WHEN {condition} THEN NULL ELSE {col} END"


def cast_expression(
    column: str,
    target_type: str,
    value_mapping: Optional[Mapping[str, str]] = None,
    dialect: Optional[Dialect] = None,
) -> str:
    """``CAST(column AS type)``, optionally preceded by a value-normalising CASE."""
    dialect = dialect or DEFAULT_DIALECT
    col = dialect.quote_identifier(column)
    inner = col
    if value_mapping:
        inner = case_when_mapping(column, dict(value_mapping), dialect=dialect)
    return dialect.cast_expression(inner, target_type)


def select_with_replacements(
    source_table: str,
    target_table: str,
    columns: Sequence[str],
    replacements: Mapping[str, str],
    comments: Sequence[str] = (),
    dialect: Optional[Dialect] = None,
) -> str:
    """Build ``CREATE OR REPLACE TABLE target AS SELECT ...`` replacing some columns.

    ``replacements`` maps a column name to the SQL expression that produces its
    cleaned value; all other columns are passed through unchanged.
    """
    dialect = dialect or DEFAULT_DIALECT
    select_items = []
    for column in columns:
        col = dialect.quote_identifier(column)
        if column in replacements:
            select_items.append(f"    {replacements[column]} AS {col}")
        else:
            select_items.append(f"    {col}")
    select_list = ",\n".join(select_items)
    header = comment_block(comments) + "\n" if comments else ""
    return (
        f"{header}{dialect.create_table_prelude(target_table)}\n"
        f"SELECT\n{select_list}\nFROM {dialect.quote_identifier(source_table)}"
    )


def keep_first_statement(
    source_table: str,
    target_table: str,
    partition_columns: Sequence[str],
    order_sql: str,
    comments: Sequence[str] = (),
    columns: Optional[Sequence[str]] = None,
    dialect: Optional[Dialect] = None,
) -> str:
    """One row per partition, keeping the first under ``order_sql``.

    This is the shared shape behind duplication and uniqueness cleaning.  On
    engines with QUALIFY it renders the historical single-statement form; on
    others the dialect lowers it to a ROW_NUMBER subquery, which needs the
    explicit output ``columns`` to project the helper column away.
    """
    dialect = dialect or DEFAULT_DIALECT
    header = comment_block(comments) if comments else ""
    return dialect.keep_first_statement(
        source_table,
        target_table,
        partition_columns,
        order_sql,
        header=header,
        columns=columns,
    )


def conditional_update_expression(
    target_column: str,
    key_column: str,
    key_to_value: Mapping[str, str],
    dialect: Optional[Dialect] = None,
) -> str:
    """``CASE key_column WHEN 'k' THEN 'v' ... ELSE target END`` for FD repairs."""
    dialect = dialect or DEFAULT_DIALECT
    key = dialect.case_subject(dialect.quote_identifier(key_column))
    target = dialect.quote_identifier(target_column)
    branches = "\n".join(
        f"        WHEN {dialect.quote_literal(k)} THEN {dialect.quote_literal(v)}"
        for k, v in key_to_value.items()
    )
    return f"CASE {key}\n{branches}\n        ELSE {target}\n    END"
