"""The Database facade: the object the rest of the system connects to.

Cocoon "connects to databases" — Snowflake, DuckDB, BigQuery, SQL Server in
the paper.  Here the same role is played by :class:`Database`, an in-process
engine with the familiar ``register`` / ``sql`` / ``table`` API (mirroring
DuckDB's Python API shape) so that every cleaning step runs as real SQL.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.obs import span as obs_span
from repro.sql.catalog import Catalog
from repro.sql.executor import Executor, PreparedStatement


class Database:
    """An in-memory SQL database."""

    def __init__(self, name: str = "memory") -> None:
        self.name = name
        self.catalog = Catalog()
        self.executor = Executor(self.catalog)

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

    def table_names(self) -> List[str]:
        return self.catalog.table_names()

    def schema(self, name: str) -> Dict[str, ColumnType]:
        return self.catalog.schema(name)

    # -- query execution ---------------------------------------------------------
    def sql(self, query: Union[str, PreparedStatement]) -> Table:
        """Execute a SQL statement, returning its result table.

        ``query`` is statement text, or a :class:`PreparedStatement` when
        the caller runs the same statement many times (a plan replaying its
        steps batch after batch): a string is prepared and run once.  Either
        way the statement is traced by its text.
        """
        prepared = query if isinstance(query, PreparedStatement) else PreparedStatement(query)
        with obs_span("sql.query", statement=prepared.summary) as sp:
            result = self.executor.execute(prepared)
            sp.annotate(rows_out=result.num_rows)
        return result

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
        if result.num_rows == 0 or result.num_columns == 0:
            return None
        return result.cell(0, result.column_names[0])

    def column_values(self, query: str) -> List[Any]:
        """Run a query and return the first output column as a list."""
        result = self.sql(query)
        if result.num_columns == 0:
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
