"""Query executor: evaluates parsed statements against the catalog.

The executor runs the AST produced by :mod:`repro.sql.parser` against the
tables registered in a :class:`repro.sql.catalog.Catalog`.  Every statement
reads at most one ``FROM`` table.

One stage pipeline
------------------
Every SELECT is first **planned** (:func:`repro.sql.planner.plan_select`)
into an explicit stage pipeline, then run over column vectors: scan →
filter → qualify → count | project.  Each expression is compiled *once per
query* into a closure by :mod:`repro.sql.compiler`, the filter and the
qualify stage gather vectors by index, projection reuses source vectors
where it can, and rows exist as dicts only inside the reference
interpreter.  Every table the executor builds types each column from its
values, so a projection over such a table passes an unchanged column
through as the same (immutable) ``Column`` object.  A SELECT without
``FROM`` runs the same pipeline over one zero-column row.

:meth:`Executor._eval` is that reference interpreter: the compiler falls
back to it for any node it does not specialise, and ``compiled=False``
compiles *every* expression to its ``_eval`` fallback closure, so the
compiled differential pins expression semantics over the one pipeline.
"""

from __future__ import annotations

import os
import weakref
from typing import Any, Dict, List, Optional, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import coerce_value, is_null
from repro.dataframe.table import Table
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CountStar,
    CreateTableAs,
    Expression,
    FirstPerPartition,
    FunctionCall,
    InList,
    Literal,
    Select,
    Star,
    Statement,
    UnaryOp,
)
from repro.obs import span as obs_span
from repro.sql.catalog import Catalog
from repro.sql.comparison import compare_values, sql_equal
from repro.sql.compiler import ColumnarBinding
from repro.sql.errors import ExecutionError
from repro.sql.functions import call_scalar
from repro.sql.planner import plan_select

Row = Dict[str, Any]


class Executor:
    """Evaluates statements produced by :mod:`repro.sql.parser`.

    Parameters
    ----------
    catalog:
        The table registry queries resolve names against.
    compiled:
        When True (default), each expression compiles to a specialised
        closure; when False every expression compiles to the closure that
        calls the reference interpreter (:meth:`_eval`), inside the same
        stage pipeline.  ``None`` reads the ``REPRO_SQL_COMPILED``
        environment variable (any value other than ``"0"`` enables), so
        differential CI jobs can select the reference closures without
        touching call sites.
    """

    def __init__(self, catalog: Catalog, compiled: Optional[bool] = None):
        self.catalog = catalog
        if compiled is None:
            compiled = os.environ.get("REPRO_SQL_COMPILED", "1") != "0"
        self.compiled = compiled
        # Tables this executor built, by id: their column dtypes are inferred
        # from their values, so a projection may carry those columns over.
        self._emitted: "weakref.WeakValueDictionary[int, Table]" = weakref.WeakValueDictionary()

    # -- public API -----------------------------------------------------------
    def execute(self, statement: Statement) -> Table:
        if isinstance(statement, CreateTableAs):
            table = self._execute_select(statement.query, result_name=statement.name)
            self.catalog.register(table, replace=statement.or_replace)
            return table
        return self._execute_select(statement, result_name="result")

    # -- SELECT pipeline --------------------------------------------------------
    def _execute_select(self, select: Select, result_name: str) -> Table:
        """Run one planned SELECT over column vectors.

        Rows are represented as an index into parallel vectors until the
        very end; every stage emits its observability span.
        """
        plan = plan_select(select)
        carried: Dict[int, Column] = {}
        names, vectors, n = self._scan(select.from_table, carried)

        if plan.filter is not None:
            predicate = ColumnarBinding(self, names, vectors).compile(plan.filter.predicate)
            with obs_span("sql.filter", rows_in=n) as sp:
                keep = [i for i in range(n) if _truthy(predicate(i))]
                vectors, n = _gather(vectors, keep, n)
                sp.annotate(rows_out=n)

        if plan.qualify is not None:
            binding = ColumnarBinding(self, names, vectors)
            with obs_span("sql.qualify", rows_in=n) as sp:
                keep = _first_per_partition(plan.qualify.first, binding, n)
                vectors, n = _gather(vectors, keep, n)
                sp.annotate(rows_out=n)

        if plan.count is not None:
            with obs_span("sql.aggregate", rows_in=n):
                name = self._output_names(select, names)[0]
                return self._emit(Table(result_name, [Column(name, [n])]))

        binding = ColumnarBinding(self, names, vectors)
        with obs_span("sql.project", rows_in=n) as sp:
            out_names = self._output_names(select, names)
            out_vectors: List[List[Any]] = []
            for item in select.items:
                if isinstance(item.expression, Star):
                    out_vectors.extend(vectors)
                    continue
                if isinstance(item.expression, ColumnRef):
                    vec = binding.vector_for(item.expression)
                    if vec is not None:
                        out_vectors.append(vec)
                        continue
                fn = binding.compile(item.expression)
                out_vectors.append([fn(i) for i in range(n)])
            sp.annotate(columns=len(out_names))

        # A vector that is still a carried column's own list passes through:
        # the same Column under its own name, its dtype under an alias.
        columns = []
        for name, vec in zip(out_names, out_vectors):
            source = carried.get(id(vec))
            if source is None:
                columns.append(Column(name, vec))
            else:
                columns.append(source if source.name == name else Column(name, vec, source.dtype))
        return self._emit(Table(result_name, columns))

    def _emit(self, table: Table) -> Table:
        self._emitted[id(table)] = table
        return table

    def _scan(
        self, name: Optional[str], carried: Optional[Dict[int, Column]] = None
    ) -> Tuple[List[str], List[List[Any]], int]:
        """The FROM table as ``(column names, column vectors, row count)``.

        Without a FROM table the query reads one zero-column row.  When the
        source is a table this executor emitted, ``carried`` receives its
        columns keyed by the id of their value vectors.
        """
        if name is None:
            return [], [], 1
        with obs_span("sql.scan", source=name) as sp:
            table = self.catalog.get(name)
            vectors: List[List[Any]] = [c.values for c in table.columns]
            if carried is not None and self._emitted.get(id(table)) is table:
                carried.update((id(c.values), c) for c in table.columns)
            # A zero-column table has no rows to scan.
            n = len(vectors[0]) if vectors else 0
            sp.annotate(rows_out=n)
        return list(table.column_names), vectors, n

    def _output_names(self, select: Select, source_columns: List[str]) -> List[str]:
        names: List[str] = []
        for item in select.items:
            if isinstance(item.expression, Star):
                names.extend(source_columns)
                continue
            if item.alias:
                names.append(item.alias)
            elif isinstance(item.expression, ColumnRef):
                names.append(item.expression.name)
            else:
                names.append(_expression_label(item.expression, len(names)))
        # De-duplicate while preserving order (SQL allows duplicate output names; Table does not).
        seen: Dict[str, int] = {}
        unique: List[str] = []
        for name in names:
            if name in seen:
                seen[name] += 1
                unique.append(f"{name}_{seen[name]}")
            else:
                seen[name] = 0
                unique.append(name)
        return unique

    # -- reference interpreter --------------------------------------------------------------
    def _eval(self, expr: Expression, row: Row) -> Any:
        """Evaluate ``expr`` on one row dict (column name -> value).

        The compiled closures in :mod:`repro.sql.compiler` must agree with
        this function on every value and every error.
        """
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            if expr.name in row:
                return row[expr.name]
            raise ExecutionError(f"Unknown column {expr.name!r}; available: {sorted(row)}")
        if isinstance(expr, UnaryOp):
            return _apply_unary(expr.op, self._eval(expr.operand, row))
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                left = self._eval(expr.left, row)
                if left is False:
                    return False
                right = self._eval(expr.right, row)
                if right is False:
                    return False
                if is_null(left) or is_null(right):
                    return None
                return _truthy(left) and _truthy(right)
            if expr.op == "OR":
                left = self._eval(expr.left, row)
                if _truthy(left):
                    return True
                right = self._eval(expr.right, row)
                if _truthy(right):
                    return True
                if is_null(left) or is_null(right):
                    return None
                return False
            return _apply_binary(expr.op, self._eval(expr.left, row), self._eval(expr.right, row))
        if isinstance(expr, InList):
            value = self._eval(expr.operand, row)
            if is_null(value):
                return None
            items = [self._eval(i, row) for i in expr.items]
            found = any((not is_null(i)) and sql_equal(value, i) for i in items)
            return (not found) if expr.negated else found
        if isinstance(expr, CaseWhen):
            return self._eval_case(expr, row)
        if isinstance(expr, Cast):
            return coerce_value(self._eval(expr.operand, row), expr.target)
        if isinstance(expr, FunctionCall):
            return call_scalar(expr.name, [self._eval(a, row) for a in expr.args])
        raise ExecutionError(f"Unsupported expression node: {type(expr).__name__}")

    def _eval_case(self, expr: CaseWhen, row: Row) -> Any:
        if expr.operand is not None:
            subject = self._eval(expr.operand, row)
            # Fast path: CASE col WHEN <literal> THEN ... with literal branches is a
            # dictionary lookup; cleaning queries generate hundreds of branches.
            lookup = getattr(expr, "_literal_lookup", None)
            if lookup is None and all(isinstance(cond, Literal) for cond, _ in expr.whens):
                lookup = {str(cond.value): result for cond, result in expr.whens}
                setattr(expr, "_literal_lookup", lookup)
            if lookup is not None:
                if not is_null(subject) and str(subject) in lookup:
                    return self._eval(lookup[str(subject)], row)
            else:
                for condition, result in expr.whens:
                    candidate = self._eval(condition, row)
                    if not is_null(subject) and not is_null(candidate) and sql_equal(subject, candidate):
                        return self._eval(result, row)
        else:
            for condition, result in expr.whens:
                if _truthy(self._eval(condition, row)):
                    return self._eval(result, row)
        if expr.default is not None:
            return self._eval(expr.default, row)
        return None


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def _gather(vectors: List[List[Any]], keep: List[int], n: int) -> Tuple[List[List[Any]], int]:
    """The vectors restricted to the ``keep`` rows (unchanged when all stay)."""
    if len(keep) != n:
        vectors = [[vec[i] for i in keep] for vec in vectors]
    return vectors, len(keep)


def _first_per_partition(first: FirstPerPartition, binding: ColumnarBinding, n: int) -> List[int]:
    """The rows ``ROW_NUMBER() OVER (PARTITION BY … ORDER BY …) = 1`` keeps, in row order.

    Each partition's rows are sorted stably by the order key, so ties keep
    their row order and the first of them wins.
    """
    partition_fns = [binding.compile(e) for e in first.partition_by]
    order_fn = binding.compile(first.order_by)
    partitions: Dict[Tuple, List[int]] = {}
    for i in range(n):
        key = tuple(_hashable(fn(i)) for fn in partition_fns)
        partitions.setdefault(key, []).append(i)
    firsts = [
        sorted(indices, key=lambda i: _sort_key(order_fn(i), first.descending))[0]
        for indices in partitions.values()
    ]
    return sorted(firsts)


def _truthy(value: Any) -> bool:
    if is_null(value):
        return False
    return bool(value)


def _hashable(value: Any) -> Any:
    if is_null(value):
        return "\0null"
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


def _sort_key(value: Any, descending: bool) -> Tuple:
    # NULL and NaN (is_null covers both) sort after every real value in
    # either direction, so sort keys stay total over floats incl. NaN/inf.
    if is_null(value):
        return (1, "")
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        return (0, -value) if descending else (0, value)
    key = str(value)
    if descending:
        key = "".join(chr(0x10FFFF - ord(c)) for c in key)
    return (0, key)


def _apply_unary(op: str, value: Any) -> Any:
    if is_null(value):
        return None
    if op == "NOT":
        return not _truthy(value)
    return -value


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    """A comparison operator over two values; NULL when either is NULL."""
    if is_null(left) or is_null(right):
        return None
    if op == "=":
        return sql_equal(left, right)
    if op == "<>":
        return not sql_equal(left, right)
    cmp = compare_values(left, right)
    return {"<": cmp < 0, ">": cmp > 0, "<=": cmp <= 0, ">=": cmp >= 0}[op]


def _expression_label(expr: Expression, index: int) -> str:
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    if isinstance(expr, CountStar):
        return "count"
    if isinstance(expr, Cast):
        inner = expr.operand
        if isinstance(inner, ColumnRef):
            return inner.name
    if isinstance(expr, CaseWhen):
        return f"case_{index}"
    return f"col_{index}"
