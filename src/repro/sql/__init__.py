"""A miniature in-memory SQL engine.

The paper's system executes all of its error detection and cleaning through
SQL against a database (DuckDB in the authors' experiments) so the result is
"scalable, interpretable, and reusable".  This package is the reproduction's
database substrate: a from-scratch SQL engine that runs exactly what the
cleaner renders.  It has two consumers in the cleaning path, and both run
:meth:`repro.core.plan.PlanStep.render` output and nothing else:
``CleaningOperator.apply_step`` executes each step as an operator applies
it, and ``CleaningPlan.replay`` re-runs the row-local steps on new rows.
The surface is:

* ``CREATE [OR REPLACE] TABLE name AS SELECT`` and bare ``SELECT``
* ``*`` or ``expr [AS alias]`` select items
* ``FROM`` one table name, or no ``FROM`` at all
* ``QUALIFY ROW_NUMBER() OVER (PARTITION BY … ORDER BY expr [DESC]) = 1``
* integer, float, string, ``NULL``, ``TRUE`` and ``FALSE`` literals, unary
  minus, bare and double-quoted identifiers
* simple and searched ``CASE``, ``CAST(expr AS type)`` and ``IN``
* the comparison operators and ``OR``

Anything else raises :class:`ParseError`.  The entry point is
:class:`repro.sql.database.Database`, whose ``sql`` runs statement text or a
:class:`PreparedStatement` (parsed and compiled once, for a caller that
runs the same statement many times); the layers beneath it are
:mod:`repro.sql.tokenizer` → :mod:`repro.sql.parser` (AST in
:mod:`repro.sql.ast_nodes`) → :mod:`repro.sql.executor` (expressions
compiled by :mod:`repro.sql.compiler`) over a :mod:`repro.sql.catalog`.
``docs/architecture.md`` places the package in the full system.
"""

from repro.sql.errors import SQLError, ParseError, ExecutionError, CatalogError
from repro.sql.database import Database, PreparedStatement
from repro.sql.parser import parse, parse_expression

__all__ = [
    "Database",
    "PreparedStatement",
    "SQLError",
    "ParseError",
    "ExecutionError",
    "CatalogError",
    "parse",
    "parse_expression",
]
