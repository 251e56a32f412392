"""A miniature in-memory SQL engine.

The paper's system executes all of its error detection and cleaning through
SQL against a database (DuckDB in the authors' experiments) so the result is
"scalable, interpretable, and reusable".  This package is the reproduction's
database substrate: a from-scratch SQL engine covering exactly the surface
that the Cocoon pipeline emits and the profiler issues —

* single-table ``SELECT``: one named table or derived subquery in ``FROM``,
  or no ``FROM`` at all (``JOIN`` is rejected at parse time)
* select lists with arbitrary expressions, aliases and ``DISTINCT``
* ``CASE WHEN … THEN … ELSE … END`` and ``CAST(expr AS type)``
* ``IN`` / ``BETWEEN`` / ``IS NULL`` / ``LIKE … ESCAPE``
* scalar functions (``UPPER``/``LOWER``/``TRIM``/``REGEXP_MATCHES``/
  ``REGEXP_REPLACE``/``COALESCE``/``NULLIF`` …)
* aggregates with ``GROUP BY`` / ``HAVING``
* window functions (``ROW_NUMBER``/``RANK``/``DENSE_RANK`` and aggregates
  ``OVER (PARTITION BY … ORDER BY …)``) with ``QUALIFY``
* ``WHERE``, ``ORDER BY``, ``LIMIT``/``OFFSET``
* ``CREATE [OR REPLACE] TABLE/VIEW … AS SELECT`` and ``DROP TABLE/VIEW``

The entry point is :class:`repro.sql.database.Database`; the layers beneath
it are :mod:`repro.sql.tokenizer` → :mod:`repro.sql.parser` (AST in
:mod:`repro.sql.ast_nodes`) → :mod:`repro.sql.planner` →
:mod:`repro.sql.executor` (expressions compiled by
:mod:`repro.sql.compiler`) over a :mod:`repro.sql.catalog`.  ``docs/architecture.md`` places the package in
the full system; ``docs/benchmarks.md`` tracks executor performance.
"""

from repro.sql.errors import SQLError, ParseError, ExecutionError, CatalogError
from repro.sql.database import Database
from repro.sql.parser import parse, parse_expression

__all__ = [
    "Database",
    "SQLError",
    "ParseError",
    "ExecutionError",
    "CatalogError",
    "parse",
    "parse_expression",
]
