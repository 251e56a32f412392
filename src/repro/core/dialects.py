"""SQL dialects: the one place a cleaning decision becomes SQL text.

The paper's promise is that Cocoon's output is a *reusable SQL script* that
pushes cleaning down to the database where the data lives.  A dialect
object renders whole cleaning statements — the projection that rewrites one
column, the keep-first-row deduplication, and the CASE/CAST expressions
inside them — following the per-dialect compiler shape of pytrilogy
(SNIPPETS.md snippet 3).  :meth:`repro.core.plan.PlanStep.render` picks the
statement for each step kind and calls the dialect; nothing else renders a
cleaning statement.

Two dialects ship:

* :class:`ReproDialect` — the in-process ``repro.sql`` engine and the
  default.  Every golden corpus and recorded ``PlanStep`` statement is its
  output.
* :class:`SqliteDialect` — stdlib ``sqlite3``.  It overrides the hooks
  sqlite spells differently: ``CREATE OR REPLACE TABLE`` becomes ``DROP
  TABLE IF EXISTS`` + ``CREATE TABLE``, ``QUALIFY`` becomes a
  ``ROW_NUMBER()`` subquery, and the engine's forgiving ``CAST``
  (:func:`repro.dataframe.schema.coerce_value`: failed casts become NULL)
  becomes guarded ``CASE``/``GLOB``/``CAST`` chains — sqlite's native CAST
  never fails, it parses numeric *prefixes*, so ``CAST('12abc' AS
  INTEGER)`` would silently produce 12 instead of NULL without the guards.

Known sqlite lowering limits (exercised nowhere in the registry datasets or
golden scenarios; all verified by ``repro.sql.differential``):

* numeric-text guards accept ``[+-]digits[.digits]`` only — no exponents;
* date/timestamp recognition wants zero-padded two-digit month/day and
  validates ranges (01-12 / 01-31) but not days-per-month or leap years;
* booleans surface as sqlite integers 0/1 (sqlite has no bool storage
  class) and dates as ISO text — the differential harness compares them
  through the same coercion the in-process schema layer uses.
"""

from __future__ import annotations

import math
import textwrap
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dataframe.schema import _FALSE_STRINGS, _TRUE_STRINGS, ColumnType, parse_type
from repro.sql.tokenizer import KEYWORDS, is_word


def comment_block(lines: Iterable[str], width: int = 96) -> str:
    """Render reasoning text as a SQL comment block."""
    out: List[str] = []
    for line in lines:
        for wrapped in textwrap.wrap(line, width=width) or [""]:
            out.append(f"-- {wrapped}")
    return "\n".join(out)


def _header(comments: Sequence[str]) -> str:
    """The comment block that leads a statement, with its newline (or nothing)."""
    return comment_block(comments) + "\n" if comments else ""


class ReproDialect:
    """The in-process ``repro.sql`` engine, and the rules every dialect shares.

    The statement builders render a whole cleaning statement through a few
    spelling hooks (:meth:`quote_identifier`, :meth:`create_table_prelude`,
    :meth:`keep_first_statement`, :meth:`case_subject`,
    :meth:`cast_expression`, :meth:`threshold_condition`,
    :meth:`in_token_condition`); another engine subclasses this and
    overrides only the hooks it spells differently.
    """

    name = "repro"

    # -- quoting ---------------------------------------------------------------
    def quote_identifier(self, name: str) -> str:
        """Double-quote an identifier unless it is a plain lowercase non-keyword word.

        A name stays bare only when the tokenizer reads it back as that one
        word (:func:`repro.sql.tokenizer.is_word`; ``str.isidentifier`` is
        not enough, it admits combining marks such as NFD "état"), it is
        lowercase, and it is no SQL keyword in any case spelling: the
        tokenizer keywordises words case-insensitively, so a bare
        ``select``/``order``/``group`` column would make the generated
        cleaning script fail to re-parse.
        """
        if is_word(name) and name == name.lower() and name.upper() not in KEYWORDS:
            return name
        escaped = name.replace('"', '""')
        return f'"{escaped}"'

    def quote_literal(self, value: object) -> str:
        """Render a Python value as a SQL literal.

        Non-finite floats have no SQL literal spelling: a bare ``nan``/``inf``
        would not re-parse on any engine.  NaN renders as ``NULL`` (it *is*
        NULL under the engine's ``is_null``) and ±inf as the quoted strings
        ``'inf'``/``'-inf'`` — matching the comparison layer's rule that
        non-finite strings are text, never numbers.
        """
        if value is None:
            return "NULL"
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        if isinstance(value, float) and not math.isfinite(value):
            if math.isnan(value):
                return "NULL"
            return "'inf'" if value > 0 else "'-inf'"
        if isinstance(value, (int, float)):
            return str(value)
        escaped = str(value).replace("'", "''")
        return f"'{escaped}'"

    # -- statements ------------------------------------------------------------
    def create_table_prelude(self, target_table: str) -> str:
        """The statement head that (re)creates ``target_table`` from a SELECT."""
        return f"CREATE OR REPLACE TABLE {self.quote_identifier(target_table)} AS"

    def select_with_replacements(
        self,
        source_table: str,
        target_table: str,
        columns: Sequence[str],
        replacements: Mapping[str, str],
        comments: Sequence[str] = (),
    ) -> str:
        """``CREATE OR REPLACE TABLE target AS SELECT ...`` replacing some columns.

        ``replacements`` maps a column name to the SQL expression that produces its
        cleaned value; all other columns are passed through unchanged.
        """
        select_items = []
        for column in columns:
            col = self.quote_identifier(column)
            if column in replacements:
                select_items.append(f"    {replacements[column]} AS {col}")
            else:
                select_items.append(f"    {col}")
        select_list = ",\n".join(select_items)
        return (
            f"{_header(comments)}{self.create_table_prelude(target_table)}\n"
            f"SELECT\n{select_list}\nFROM {self.quote_identifier(source_table)}"
        )

    def keep_first_statement(
        self,
        source_table: str,
        target_table: str,
        partition_columns: Sequence[str],
        order_sql: str,
        comments: Sequence[str] = (),
        columns: Optional[Sequence[str]] = None,
    ) -> str:
        """Keep the first row per partition (duplication/uniqueness cleaning).

        ``order_sql`` is a ready-rendered ORDER BY expression list.
        ``columns`` — the full output column list — is only needed by
        dialects that must lower QUALIFY into a subquery and project the
        helper column away.
        """
        partition = ", ".join(self.quote_identifier(c) for c in partition_columns)
        return (
            f"{_header(comments)}{self.create_table_prelude(target_table)}\n"
            f"SELECT *\nFROM {self.quote_identifier(source_table)}\n"
            f"QUALIFY ROW_NUMBER() OVER (PARTITION BY {partition} ORDER BY {order_sql}) = 1"
        )

    # -- cleaning expressions --------------------------------------------------
    def case_when_mapping(self, column: str, mapping: Mapping[str, Optional[str]]) -> str:
        """``CASE column WHEN 'old' THEN 'new' ... ELSE column END`` for a value mapping.

        Values mapped to the empty string become NULL (the paper's convention for
        "meaningless" values).
        """
        col = self.quote_identifier(column)
        branches = []
        for old, new in mapping.items():
            value = "NULL" if new is None or new == "" else self.quote_literal(new)
            branches.append(f"        WHEN {self.quote_literal(old)} THEN {value}")
        body = "\n".join(branches)
        return f"CASE {self.case_subject(col)}\n{body}\n        ELSE {col}\n    END"

    def case_when_null(self, column: str, null_values: Sequence[str]) -> str:
        """``CASE WHEN column IN (...) THEN NULL ELSE column END`` for DMV cleaning."""
        col = self.quote_identifier(column)
        return f"CASE WHEN {self.in_token_condition(col, null_values)} THEN NULL ELSE {col} END"

    def case_when_threshold(
        self, column: str, low: Optional[float], high: Optional[float]
    ) -> str:
        """``CASE WHEN column < low OR column > high THEN NULL ELSE column END``.

        Non-finite bounds are dropped (a bare ``nan``/``inf`` would not
        parse); with both bounds dropped the condition degrades to ``FALSE``
        and the CASE passes everything through.
        """
        col = self.quote_identifier(column)
        bounds = []
        if low is not None and math.isfinite(low):
            bounds.append(("<", low))
        if high is not None and math.isfinite(high):
            bounds.append((">", high))
        return f"CASE WHEN {self.threshold_condition(col, bounds)} THEN NULL ELSE {col} END"

    def cast_column(
        self, column: str, target_type: str, value_mapping: Optional[Mapping[str, str]] = None
    ) -> str:
        """``CAST(column AS type)``, optionally of a value-normalising CASE."""
        inner = (
            self.case_when_mapping(column, value_mapping)
            if value_mapping
            else self.quote_identifier(column)
        )
        return self.cast_expression(inner, target_type)

    def conditional_update_expression(
        self, target_column: str, key_column: str, key_to_value: Mapping[str, str]
    ) -> str:
        """``CASE key_column WHEN 'k' THEN 'v' ... ELSE target END`` for FD repairs."""
        key = self.case_subject(self.quote_identifier(key_column))
        branches = "\n".join(
            f"        WHEN {self.quote_literal(k)} THEN {self.quote_literal(v)}"
            for k, v in key_to_value.items()
        )
        return f"CASE {key}\n{branches}\n        ELSE {self.quote_identifier(target_column)}\n    END"

    # -- expression hooks ------------------------------------------------------
    def case_subject(self, column_sql: str) -> str:
        """The CASE/IN subject used to match a column against string literals."""
        return column_sql

    def cast_expression(self, inner_sql: str, target_type: str) -> str:
        """A forgiving cast of ``inner_sql`` to ``target_type`` (failures → NULL)."""
        return f"CAST({inner_sql} AS {target_type})"

    def threshold_condition(
        self, column_sql: str, bounds: Sequence[Tuple[str, float]]
    ) -> str:
        """The WHEN condition nulling out-of-range values.

        ``bounds`` is a list of ``(op, value)`` pairs (op is ``<`` or ``>``)
        so dialects that must branch on the runtime storage class of the
        cell can re-render each comparison instead of receiving opaque SQL.
        """
        if not bounds:
            return "FALSE"
        return " OR ".join(
            f"{column_sql} {op} {self.quote_literal(value)}" for op, value in bounds
        )

    def in_token_condition(self, column_sql: str, tokens: Sequence[str]) -> str:
        """Membership test of a column against literal string tokens.

        The in-process engine evaluates ``IN`` through ``sql_equal``: numeric
        *storage* compares numerically against numeric-looking tokens, text
        compares textually.  A plain IN list is exactly that in-process.
        """
        literals = ", ".join(self.quote_literal(t) for t in tokens)
        return f"{column_sql} IN ({literals})"


# --------------------------------------------------------------------------
# sqlite
# --------------------------------------------------------------------------
def _text(inner: str) -> str:
    return f"TRIM(CAST({inner} AS TEXT))"


def _unsigned(text_sql: str) -> str:
    """Strip one leading sign from an already-trimmed text expression."""
    return (
        f"CASE WHEN SUBSTR({text_sql}, 1, 1) IN ('+', '-') "
        f"THEN SUBSTR({text_sql}, 2) ELSE {text_sql} END"
    )


def _integer_text_guard(inner: str) -> str:
    """True when the value's text form matches ``^[+-]?digits$``."""
    u = f"({_unsigned(_text(inner))})"
    return f"{u} <> '' AND {u} NOT GLOB '*[^0-9]*'"


def _float_text_guard(inner: str) -> str:
    """True when the value's text form is ``[+-]?digits[.digits]`` (no exponent)."""
    u = f"({_unsigned(_text(inner))})"
    return (
        f"{u} <> '' AND {u} <> '.' "
        f"AND {u} NOT GLOB '*[^0-9.]*' AND {u} NOT GLOB '*.*.*'"
    )


def _month_ok(expr: str) -> str:
    return f"CAST({expr} AS INTEGER) BETWEEN 1 AND 12"


def _day_ok(expr: str) -> str:
    return f"CAST({expr} AS INTEGER) BETWEEN 1 AND 31"


def _date_branches(t: str) -> List[Tuple[str, str]]:
    """(condition, iso-date expression) per recognised date format, in the
    same order :func:`repro.dataframe.schema.parse_date` tries them."""
    d4 = "[0-9][0-9][0-9][0-9]"
    d2 = "[0-9][0-9]"
    branches: List[Tuple[str, str]] = []
    # %Y-%m-%d
    branches.append((
        f"{t} GLOB '{d4}-{d2}-{d2}' AND {_month_ok(f'SUBSTR({t}, 6, 2)')} "
        f"AND {_day_ok(f'SUBSTR({t}, 9, 2)')}",
        t,
    ))
    # %m/%d/%Y
    branches.append((
        f"{t} GLOB '{d2}/{d2}/{d4}' AND {_month_ok(f'SUBSTR({t}, 1, 2)')} "
        f"AND {_day_ok(f'SUBSTR({t}, 4, 2)')}",
        f"SUBSTR({t}, 7, 4) || '-' || SUBSTR({t}, 1, 2) || '-' || SUBSTR({t}, 4, 2)",
    ))
    # %d/%m/%Y (only reached when the US reading failed)
    branches.append((
        f"{t} GLOB '{d2}/{d2}/{d4}' AND {_month_ok(f'SUBSTR({t}, 4, 2)')} "
        f"AND {_day_ok(f'SUBSTR({t}, 1, 2)')}",
        f"SUBSTR({t}, 7, 4) || '-' || SUBSTR({t}, 4, 2) || '-' || SUBSTR({t}, 1, 2)",
    ))
    # %Y/%m/%d
    branches.append((
        f"{t} GLOB '{d4}/{d2}/{d2}' AND {_month_ok(f'SUBSTR({t}, 6, 2)')} "
        f"AND {_day_ok(f'SUBSTR({t}, 9, 2)')}",
        f"SUBSTR({t}, 1, 4) || '-' || SUBSTR({t}, 6, 2) || '-' || SUBSTR({t}, 9, 2)",
    ))
    # %m-%d-%Y
    branches.append((
        f"{t} GLOB '{d2}-{d2}-{d4}' AND {_month_ok(f'SUBSTR({t}, 1, 2)')} "
        f"AND {_day_ok(f'SUBSTR({t}, 4, 2)')}",
        f"SUBSTR({t}, 7, 4) || '-' || SUBSTR({t}, 1, 2) || '-' || SUBSTR({t}, 4, 2)",
    ))
    return branches


def _exact_real(value: float) -> str:
    """A sqlite expression that evaluates to exactly the double ``value``.

    sqlite's decimal parser misreads some shortest round-trip spellings by
    an ulp (3.40.1 reads ``4.058564076247631e-302`` one ulp high; about one
    random double in 200 misreads, most of all below 1e-300), and ``%.17g``
    does not help.  An odd integer mantissa scaled by exact powers of two,
    each at most 2**62 and written as an integer-valued REAL, has no
    rounding step: 12.5 renders as ``(25.0 / 2.0)``.  Integers and
    integral floats below 2**53 keep their own spelling.
    """
    if isinstance(value, int) or (value.is_integer() and abs(value) < 2 ** 53):
        return str(value)
    fraction, exponent = math.frexp(value)
    mantissa, exponent = int(fraction * 2 ** 53), exponent - 53
    while mantissa % 2 == 0:
        mantissa //= 2
        exponent += 1
    op = "/" if exponent < 0 else "*"
    factors = []
    remaining = abs(exponent)
    while remaining:
        step = min(remaining, 62)
        factors.append(f" {op} {2 ** step}.0")
        remaining -= step
    return f"({mantissa}.0{''.join(factors)})"


def _case(branches: Sequence[Tuple[str, str]], else_sql: str = "NULL") -> str:
    body = "\n".join(f"    WHEN {cond} THEN {value}" for cond, value in branches)
    return f"CASE\n{body}\n    ELSE {else_sql}\nEND"


class SqliteDialect(ReproDialect):
    """Stdlib ``sqlite3``: no QUALIFY, no CREATE OR REPLACE, no failing CAST.

    Every lowering mirrors the in-process semantics the differential harness
    checks against: :func:`~repro.dataframe.schema.coerce_value` for casts,
    the textual CASE fast path for value mappings, and the numeric-coercing
    comparison rules for thresholds.
    """

    name = "sqlite"

    def quote_identifier(self, name: str) -> str:
        # Always quote: our KEYWORDS list is the in-process tokenizer's, not
        # sqlite's (INDEX, GLOB, …), so "plain word" is not a safe judgement
        # here and quoting everything costs nothing.
        escaped = name.replace('"', '""')
        return f'"{escaped}"'

    def create_table_prelude(self, target_table: str) -> str:
        target = self.quote_identifier(target_table)
        return f"DROP TABLE IF EXISTS {target};\nCREATE TABLE {target} AS"

    def keep_first_statement(
        self,
        source_table: str,
        target_table: str,
        partition_columns: Sequence[str],
        order_sql: str,
        comments: Sequence[str] = (),
        columns: Optional[Sequence[str]] = None,
    ) -> str:
        if not columns:
            raise ValueError(
                "SqliteDialect needs the explicit output column list to lower "
                "QUALIFY (the ROW_NUMBER helper column must be projected away)"
            )
        partition = ", ".join(self.quote_identifier(c) for c in partition_columns)
        select_list = ", ".join(self.quote_identifier(c) for c in columns)
        rn = self.quote_identifier("_cocoon_rn")
        return (
            f"{_header(comments)}{self.create_table_prelude(target_table)}\n"
            f"SELECT {select_list}\n"
            f"FROM (\n"
            f"    SELECT *, ROW_NUMBER() OVER (PARTITION BY {partition} ORDER BY {order_sql}) AS {rn}\n"
            f"    FROM {self.quote_identifier(source_table)}\n"
            f")\n"
            f"WHERE {rn} = 1"
        )

    def case_subject(self, column_sql: str) -> str:
        # The in-process CASE fast path matches str(subject) against the
        # literal keys, so '120' matches the integer 120.  sqlite compares
        # storage classes (120 = '120' is false); casting the subject to
        # TEXT restores the textual matching the recorded mappings assume.
        return f"CAST({column_sql} AS TEXT)"

    def cast_expression(self, inner_sql: str, target_type: str) -> str:
        target = parse_type(target_type)
        x = f"({inner_sql})"
        numeric_storage = f"TYPEOF({x}) IN ('integer', 'real')"
        if target is ColumnType.INTEGER:
            return _case([
                (numeric_storage, f"CAST({x} AS INTEGER)"),
                (_integer_text_guard(x), f"CAST({_text(x)} AS INTEGER)"),
                (_float_text_guard(x), f"CAST(CAST({_text(x)} AS REAL) AS INTEGER)"),
            ])
        if target is ColumnType.DOUBLE:
            return _case([
                (numeric_storage, f"CAST({x} AS REAL)"),
                (_float_text_guard(x), f"CAST({_text(x)} AS REAL)"),
            ])
        if target is ColumnType.BOOLEAN:
            truthy = ", ".join(f"'{s}'" for s in sorted(_TRUE_STRINGS))
            falsy = ", ".join(f"'{s}'" for s in sorted(_FALSE_STRINGS))
            return _case([
                (numeric_storage, f"CASE WHEN {x} <> 0 THEN 1 ELSE 0 END"),
                (f"LOWER({_text(x)}) IN ({truthy})", "1"),
                (f"LOWER({_text(x)}) IN ({falsy})", "0"),
            ])
        if target is ColumnType.DATE:
            return _case(_date_branches(_text(x)))
        if target is ColumnType.TIMESTAMP:
            t = _text(x)
            d4 = "[0-9][0-9][0-9][0-9]"
            d2 = "[0-9][0-9]"
            hms = f"{d2}:{d2}:{d2}"
            hm = f"{d2}:{d2}"
            iso_md = f"{_month_ok(f'SUBSTR({t}, 6, 2)')} AND {_day_ok(f'SUBSTR({t}, 9, 2)')}"
            us_md = f"{_month_ok(f'SUBSTR({t}, 1, 2)')} AND {_day_ok(f'SUBSTR({t}, 4, 2)')}"
            branches: List[Tuple[str, str]] = [
                (f"{t} GLOB '{d4}-{d2}-{d2} {hms}' AND {iso_md}", t),
                (
                    f"{t} GLOB '{d4}-{d2}-{d2}T{hms}' AND {iso_md}",
                    f"SUBSTR({t}, 1, 10) || ' ' || SUBSTR({t}, 12)",
                ),
                (
                    f"{t} GLOB '{d2}/{d2}/{d4} {hm}' AND {us_md}",
                    f"SUBSTR({t}, 7, 4) || '-' || SUBSTR({t}, 1, 2) || '-' || SUBSTR({t}, 4, 2)"
                    f" || ' ' || SUBSTR({t}, 12) || ':00'",
                ),
                (f"{t} GLOB '{d4}-{d2}-{d2} {hm}' AND {iso_md}", f"{t} || ':00'"),
            ]
            branches.extend(
                (cond, f"{value} || ' 00:00:00'") for cond, value in _date_branches(t)
            )
            return _case(branches)
        # VARCHAR: empty string → NULL; integral reals drop the trailing .0
        # the way str(int(x)) does in-process.
        return _case([
            (f"{x} = ''", "NULL"),
            (
                f"TYPEOF({x}) = 'real' AND CAST({x} AS INTEGER) = {x}",
                f"CAST(CAST({x} AS INTEGER) AS TEXT)",
            ),
        ], else_sql=f"CAST({x} AS TEXT)")

    def threshold_condition(
        self, column_sql: str, bounds: Sequence[Tuple[str, float]]
    ) -> str:
        # The in-process engine compares numbers and numeric-looking text
        # numerically, and everything else *textually* against str(bound).
        # sqlite's native ordering puts every TEXT above every number, so
        # each bound branches on the runtime storage class: numeric cells
        # (and fully-numeric text, per the same guard the casts use) compare
        # through CAST AS REAL against the bound spelled exactly
        # (:func:`_exact_real`), other text compares against the bound's
        # string form.
        if not bounds:
            return "FALSE"
        numeric = (
            f"TYPEOF({column_sql}) IN ('integer', 'real') "
            f"OR ({_float_text_guard(column_sql)})"
        )
        parts = []
        for op, value in bounds:
            parts.append(
                f"CASE WHEN {numeric} "
                f"THEN CAST({column_sql} AS REAL) {op} {_exact_real(value)} "
                f"ELSE CAST({column_sql} AS TEXT) {op} {self.quote_literal(str(value))} END"
            )
        return " OR ".join(parts)

    def in_token_condition(self, column_sql: str, tokens: Sequence[str]) -> str:
        # sql_equal semantics: numeric *storage* matches numeric-looking
        # tokens by value (0.0 IN ('0') holds in-process), everything else
        # matches the token text exactly.  sqlite's native IN would compare
        # storage classes and miss both directions.
        numeric_tokens = []
        for token in tokens:
            try:
                parsed = float(str(token).strip())
            except (TypeError, ValueError):
                continue
            if math.isfinite(parsed):
                numeric_tokens.append(parsed)
        text_match = (
            f"CAST({column_sql} AS TEXT) IN "
            f"({', '.join(self.quote_literal(t) for t in tokens)})"
        )
        if not numeric_tokens:
            return text_match
        numeric_match = (
            f"CAST({column_sql} AS REAL) IN "
            f"({', '.join(self.quote_literal(v) for v in numeric_tokens)})"
        )
        return (
            f"CASE WHEN TYPEOF({column_sql}) IN ('integer', 'real') "
            f"THEN {numeric_match} ELSE {text_match} END"
        )


#: The dialect a step renders with when none is passed.
DEFAULT_DIALECT = ReproDialect()
