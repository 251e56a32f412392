"""Table catalog: the engine's registry of named tables.

A :class:`Catalog` is the single source of truth for which
:class:`~repro.dataframe.table.Table` objects a query can see.  The
:class:`~repro.sql.executor.Executor` resolves every ``FROM`` name through
it, and both :meth:`~repro.sql.database.Database.register` and
``CREATE [OR REPLACE] TABLE … AS`` register into it; a table leaves it only
by being replaced under its name.  Each
:class:`~repro.sql.database.Database` owns exactly one catalog; nothing
here is shared across databases.
"""

from __future__ import annotations

from typing import Dict, List

from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.sql.errors import CatalogError


class Catalog:
    """Holds the named tables visible to queries.

    Table names are case-insensitive, matching the behaviour of the engines
    the paper targets (DuckDB, Snowflake, BigQuery).
    """

    def __init__(self) -> None:
        self._tables: Dict[str, Table] = {}

    def _key(self, name: str) -> str:
        return name.lower()

    def register(self, table: Table, replace: bool = True) -> None:
        """Make ``table`` visible to queries under its own name.

        With ``replace`` False a name collision raises
        :class:`~repro.sql.errors.CatalogError` instead of overwriting.
        """
        key = self._key(table.name)
        if not replace and key in self._tables:
            raise CatalogError(f"Table {table.name!r} already exists")
        self._tables[key] = table

    def get(self, name: str) -> Table:
        """Look up a table by (case-insensitive) name, raising ``CatalogError`` if absent."""
        key = self._key(name)
        if key not in self._tables:
            raise CatalogError(f"Table {name!r} does not exist; known tables: {self.table_names()}")
        return self._tables[key]

    def has(self, name: str) -> bool:
        """Whether a table of this name is registered."""
        return self._key(name) in self._tables

    def table_names(self) -> List[str]:
        """Registered table names (original casing), sorted."""
        return sorted(t.name for t in self._tables.values())

    def schema(self, name: str) -> Dict[str, ColumnType]:
        """Column name → type mapping, as exposed by a database catalog."""
        table = self.get(name)
        return {c.name: c.dtype for c in table.columns}
