"""The Database facade: the object the rest of the system connects to.

Cocoon "connects to databases" — Snowflake, DuckDB, BigQuery, SQL Server in
the paper.  Here the same role is played by :class:`Database`, an in-process
engine with the familiar ``register`` / ``sql`` / ``table`` API (mirroring
DuckDB's Python API shape) so that the cleaning pipeline, the profiler and
the baselines all issue real SQL.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.obs import get_tracer
from repro.obs import span as obs_span
from repro.obs.report import render_explain
from repro.sql.ast_nodes import Statement
from repro.sql.catalog import Catalog
from repro.sql.executor import Executor
from repro.sql.parser import parse


def summarise_sql(query: str, limit: int = 120) -> str:
    """One-line summary of a statement for span attributes: comments stripped,
    whitespace collapsed, truncated with an ellipsis."""
    no_comments = re.sub(r"--[^\n]*", " ", query)
    collapsed = " ".join(no_comments.split())
    if len(collapsed) > limit:
        return collapsed[: limit - 1] + "…"
    return collapsed


class QueryLog:
    """Record of every statement executed, for interpretability and tests."""

    def __init__(self) -> None:
        self.statements: List[str] = []

    def record(self, sql: str) -> None:
        self.statements.append(sql)

    def __len__(self) -> int:
        return len(self.statements)


class Database:
    """An in-memory SQL database."""

    def __init__(self, name: str = "memory", compiled: Optional[bool] = None) -> None:
        """``compiled`` passes through to :class:`Executor` (None reads the
        ``REPRO_SQL_COMPILED`` environment variable)."""
        self.name = name
        self.catalog = Catalog()
        self.executor = Executor(self.catalog, compiled=compiled)
        self.query_log = QueryLog()

    # -- table management -----------------------------------------------------
    def register(self, table: Table, name: Optional[str] = None, replace: bool = True) -> None:
        """Register an in-memory table under ``name`` (defaults to its own name)."""
        if name is not None and name != table.name:
            table = table.rename(name)
        self.catalog.register(table, replace=replace)

    def table(self, name: str) -> Table:
        return self.catalog.get(name)

    def has_table(self, name: str) -> bool:
        return self.catalog.has(name)

    def drop_table(self, name: str, if_exists: bool = True) -> None:
        self.catalog.drop(name, if_exists=if_exists)

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    def schema(self, name: str) -> Dict[str, ColumnType]:
        return self.catalog.schema(name)

    # -- query execution ---------------------------------------------------------
    def sql(self, query: str, parsed: Optional[Statement] = None) -> Optional[Table]:
        """Parse and execute a SQL statement, returning a result table (or None).

        ``parsed`` is ``query``'s AST when the caller already holds it (a
        plan replaying the same statements batch after batch); it is logged
        and traced as ``query`` either way.
        """
        self.query_log.record(query)
        with obs_span("sql.query", statement=summarise_sql(query)) as sp:
            statement = parse(query) if parsed is None else parsed
            result = self.executor.execute(statement)
            if result is not None:
                sp.annotate(rows_out=result.num_rows)
        return result

    def explain_analyze(self, query: str) -> Tuple[Optional[Table], str]:
        """Execute a statement under a forced trace root and report per-plan-node
        timings in an ``EXPLAIN ANALYZE``-style rendering.

        Works regardless of whether tracing is globally enabled: the root span
        is forced, and the executor's stage spans (scan, filter,
        aggregate, window, project, qualify, distinct, sort) nest beneath it.
        Returns ``(result_table, report_text)``.
        """
        self.query_log.record(query)
        with get_tracer().span(
            "sql.query", force=True, statement=summarise_sql(query)
        ) as sp:
            statement = parse(query)
            result = self.executor.execute(statement)
            if result is not None:
                sp.annotate(rows_out=result.num_rows)
        return result, render_explain(sp.to_dict())

    def execute_script(self, script: str) -> Optional[Table]:
        """Execute a ``;``-separated script, returning the last result."""
        result: Optional[Table] = None
        for statement in split_statements(script):
            result = self.sql(statement)
        return result

    # -- convenience helpers used by the pipeline ----------------------------------
    def scalar(self, query: str) -> Any:
        """Run a query expected to return a single cell."""
        result = self.sql(query)
        if result is None or result.num_rows == 0 or result.num_columns == 0:
            return None
        return result.cell(0, result.column_names[0])

    def column_values(self, query: str) -> List[Any]:
        """Run a query and return the first output column as a list."""
        result = self.sql(query)
        if result is None or result.num_columns == 0:
            return []
        return list(result.columns[0].values)


def split_statements(script: str) -> List[str]:
    """Split a SQL script on ``;`` while respecting string literals and comments."""
    statements: List[str] = []
    buf: List[str] = []
    in_string = False
    in_line_comment = False
    i = 0
    while i < len(script):
        ch = script[i]
        if in_line_comment:
            buf.append(ch)
            if ch == "\n":
                in_line_comment = False
            i += 1
            continue
        if in_string:
            buf.append(ch)
            if ch == "'":
                if i + 1 < len(script) and script[i + 1] == "'":
                    buf.append("'")
                    i += 2
                    continue
                in_string = False
            i += 1
            continue
        if ch == "'":
            in_string = True
            buf.append(ch)
            i += 1
            continue
        if ch == "-" and script.startswith("--", i):
            in_line_comment = True
            buf.append(ch)
            i += 1
            continue
        if ch == ";":
            text = "".join(buf).strip()
            if text:
                statements.append(text)
            buf = []
            i += 1
            continue
        buf.append(ch)
        i += 1
    text = "".join(buf).strip()
    if text and not all(line.strip().startswith("--") or not line.strip() for line in text.splitlines()):
        statements.append(text)
    return statements
