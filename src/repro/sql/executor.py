"""Query executor: evaluates parsed statements against the catalog.

The executor runs the AST produced by :mod:`repro.sql.parser` against the
tables registered in a :class:`repro.sql.catalog.Catalog`.  Every statement
reads at most one ``FROM`` item (a named table or a derived subquery); the
parser rejects joins.

One stage pipeline
------------------
Every SELECT is first **planned** (:func:`repro.sql.planner.plan_select`)
into an explicit stage pipeline, then run over column vectors: scan →
filter → group | (window → project → qualify) → distinct → order → limit.
Each expression is compiled *once per query* into a closure by
:mod:`repro.sql.compiler`, filters gather vectors by index, projection
reuses source vectors where it can, and rows exist as dicts only inside the
reference interpreter.  A SELECT without ``FROM`` runs the same pipeline
over one zero-column row.

:meth:`Executor._eval` is that reference interpreter: the compiler falls
back to it for any node it does not specialise, and ``compiled=False``
compiles *every* expression to its ``_eval`` fallback closure, so the
compiled differential pins expression semantics over the one pipeline.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache
from typing import Any, Dict, List, Optional, Tuple

from repro.dataframe.column import Column
from repro.dataframe.schema import coerce_value, is_null
from repro.dataframe.table import Table
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    DropTable,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Select,
    Star,
    Statement,
    TableRef,
    UnaryOp,
    WindowFunction,
)
from repro.obs import span as obs_span
from repro.sql.catalog import Catalog
from repro.sql.comparison import compare_values, sql_between, sql_equal
from repro.sql.compiler import ColumnarBinding
from repro.sql.errors import ExecutionError
from repro.sql.functions import AGGREGATE_NAMES, call_scalar, make_aggregate
from repro.sql.planner import plan_select

# Comparison semantics live in repro.sql.comparison so the aggregates in
# repro.sql.functions can share them without importing this module; the old
# private name stays importable here for existing tests.
_compare = compare_values

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

    # -- public API -----------------------------------------------------------
    def execute(self, statement: Statement) -> Optional[Table]:
        if isinstance(statement, Select):
            return self._execute_select(statement, result_name="result")
        if isinstance(statement, CreateTableAs):
            table = self._execute_select(statement.query, result_name=statement.name)
            self.catalog.register(table, replace=statement.or_replace)
            return table
        if isinstance(statement, DropTable):
            self.catalog.drop(statement.name, if_exists=statement.if_exists)
            return None
        raise ExecutionError(f"Unsupported statement type: {type(statement).__name__}")

    # -- SELECT pipeline --------------------------------------------------------
    def _execute_select(self, select: Select, result_name: str) -> Table:
        """Run one planned SELECT over column vectors.

        Rows are represented as an index into parallel vectors until the
        very end; every stage emits its observability span.
        """
        plan = plan_select(select)
        names, vectors, n = self._scan(select.from_table)

        if plan.filter is not None:
            predicate = ColumnarBinding(self, names, vectors).compile(plan.filter.predicate)
            with obs_span("sql.filter", rows_in=n) as sp:
                keep = [i for i in range(n) if _truthy(predicate(i))]
                if len(keep) != n:
                    vectors = [[vec[i] for i in keep] for vec in vectors]
                n = len(keep)
                sp.annotate(rows_out=n)

        binding = ColumnarBinding(self, names, vectors)

        if plan.group is not None:
            with obs_span("sql.aggregate", rows_in=n, group_keys=len(select.group_by)) as sp:
                out_names, out_rows = self._grouped(select, binding, n)
                sp.annotate(rows_out=len(out_rows))
            return self._finish_rows(select, result_name, out_names, out_rows, binding, positions=None)

        window_values: Dict[int, List[Any]] = {}
        if plan.windows:
            with obs_span("sql.window", functions=len(plan.windows), rows_in=n):
                for node in plan.windows:
                    window_values[id(node)] = self._window(node, binding, n)

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
                fn = binding.compile(item.expression, windows=window_values)
                out_vectors.append([fn(i) for i in range(n)])
            sp.annotate(columns=len(out_names))

        # `positions` maps output rows back to source rows for ORDER BY
        # expressions that reference unprojected columns.
        positions: Optional[List[int]] = list(range(n))
        if select.qualify is not None:
            qualify_fn = binding.compile(select.qualify, windows=window_values)
            with obs_span("sql.qualify", rows_in=n) as sp:
                keep = [i for i in range(n) if _truthy(qualify_fn(i))]
                if len(keep) != n:
                    out_vectors = [[vec[i] for i in keep] for vec in out_vectors]
                positions = keep
                sp.annotate(rows_out=len(keep))

        if select.distinct or select.order_by:
            out_rows = [list(cells) for cells in zip(*out_vectors)]
            return self._finish_rows(select, result_name, out_names, out_rows, binding, positions)

        # Pure vector tail: slice and build columns directly (no transpose).
        if select.offset is not None:
            out_vectors = [vec[select.offset:] for vec in out_vectors]
        if select.limit is not None:
            out_vectors = [vec[: select.limit] for vec in out_vectors]
        return Table(result_name, [Column(name, vec) for name, vec in zip(out_names, out_vectors)])

    def _scan(self, ref: Optional[TableRef]) -> Tuple[List[str], List[List[Any]], int]:
        """The FROM item as ``(column names, column vectors, row count)``.

        Without a FROM item the query reads one zero-column row.
        """
        if ref is None:
            return [], [], 1
        with obs_span("sql.scan", source=ref.name or (ref.alias or "subquery")) as sp:
            if ref.subquery is not None:
                table = self._execute_select(ref.subquery, result_name=ref.alias or "subquery")
            else:
                table = self.catalog.get(ref.name)
            vectors: List[List[Any]] = [c.values for c in table.columns]
            # A zero-column table has no rows to scan.
            n = len(vectors[0]) if vectors else 0
            sp.annotate(rows_out=n)
        return list(table.column_names), vectors, n

    def _finish_rows(
        self,
        select: Select,
        result_name: str,
        out_names: List[str],
        out_rows: List[List[Any]],
        binding: ColumnarBinding,
        positions: Optional[List[int]],
    ) -> Table:
        """Row-major tail of the pipeline: DISTINCT, ORDER BY, LIMIT."""
        if select.distinct:
            with obs_span("sql.distinct", rows_in=len(out_rows)) as sp:
                positions = None
                seen = set()
                deduped = []
                for row in out_rows:
                    key = tuple("\0null" if is_null(v) else str(v) for v in row)
                    if key in seen:
                        continue
                    seen.add(key)
                    deduped.append(row)
                out_rows = deduped
                sp.annotate(rows_out=len(out_rows))

        if select.order_by:
            with obs_span("sql.sort", rows_in=len(out_rows), keys=len(select.order_by)):
                out_rows = self._sort_rows(select, out_names, out_rows, binding, positions)

        if select.offset is not None:
            out_rows = out_rows[select.offset:]
        if select.limit is not None:
            out_rows = out_rows[: select.limit]
        return Table.from_rows(result_name, out_names, out_rows)

    def _sort_rows(
        self,
        select: Select,
        names: List[str],
        out_rows: List[List[Any]],
        binding: ColumnarBinding,
        positions: Optional[List[int]],
    ) -> List[List[Any]]:
        """ORDER BY over the output rows.

        Each key resolves once per query: projected columns and ordinal
        positions read the output row; other expressions compile against
        the source vectors (without window context) when source positions
        survive, else evaluate on a dict of the output row (post-DISTINCT).
        """
        name_index = {name: i for i, name in enumerate(names)}
        resolvers: List[Tuple[str, Any]] = []
        for item in select.order_by:
            expr = item.expression
            if isinstance(expr, ColumnRef) and expr.name in name_index:
                resolvers.append(("out", name_index[expr.name]))
            elif isinstance(expr, Literal) and isinstance(expr.value, int):
                resolvers.append(("out", expr.value - 1))
            elif positions is not None:
                resolvers.append(("src", binding.compile(expr)))
            else:
                resolvers.append(("dict", expr))

        def key(position: int) -> Tuple:
            row = out_rows[position]
            parts = []
            for (kind, target), item in zip(resolvers, select.order_by):
                if kind == "out":
                    value = row[target]
                elif kind == "src":
                    value = target(positions[position])
                else:
                    value = self._eval(target, dict(zip(names, row)))
                parts.append(_sort_key(value, item.descending))
            return tuple(parts)

        order = sorted(range(len(out_rows)), key=key)
        return [out_rows[i] for i in order]

    def _grouped(
        self, select: Select, binding: ColumnarBinding, n: int
    ) -> Tuple[List[str], List[List[Any]]]:
        """GROUP BY over vectors: groups hold row indices, aggregates fold them."""
        groups: Dict[Tuple, List[int]] = {}
        order: List[Tuple] = []
        if select.group_by:
            key_fns = [binding.compile(e) for e in select.group_by]
            for i in range(n):
                key = tuple(_hashable(fn(i)) for fn in key_fns)
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(i)
        else:
            groups[()] = list(range(n))
            order.append(())

        names = self._output_names(select, source_columns=[])
        item_fns = [binding.compile_aggregate(item.expression) for item in select.items]
        having_fn = binding.compile_aggregate(select.having) if select.having is not None else None
        out_rows: List[List[Any]] = []
        for key in order:
            indices = groups[key]
            if having_fn is not None and not _truthy(having_fn(indices)):
                continue
            out_rows.append([fn(indices) for fn in item_fns])
        return names, out_rows

    def _window(self, node: WindowFunction, binding: ColumnarBinding, n: int) -> List[Any]:
        """One window function over vectors: a value per source row."""
        partition_fns = [binding.compile(e) for e in node.window.partition_by]
        order_fns = [binding.compile(item.expression) for item in node.window.order_by]
        partitions: Dict[Tuple, List[int]] = {}
        for i in range(n):
            key = tuple(_hashable(fn(i)) for fn in partition_fns)
            partitions.setdefault(key, []).append(i)
        result: List[Any] = [None] * n
        name = node.name.upper()
        arg_fn = None
        if name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
            if node.args and not isinstance(node.args[0], Star):
                arg_fn = binding.compile(node.args[0])
        for indices in partitions.values():
            ordered = indices
            if node.window.order_by:
                ordered = sorted(
                    indices,
                    key=lambda i: tuple(
                        _sort_key(fn(i), item.descending)
                        for fn, item in zip(order_fns, node.window.order_by)
                    ),
                )
            if name == "ROW_NUMBER":
                for rank, i in enumerate(ordered, start=1):
                    result[i] = rank
            elif name in ("RANK", "DENSE_RANK"):
                prev_key: Any = object()
                rank = 0
                dense = 0
                for position, i in enumerate(ordered, start=1):
                    # Tie detection uses raw expression values, not sort keys.
                    key = tuple(fn(i) for fn in order_fns)
                    if key != prev_key:
                        dense += 1
                        rank = position
                        prev_key = key
                    result[i] = rank if name == "RANK" else dense
            elif name in ("COUNT", "SUM", "MIN", "MAX", "AVG"):
                agg = make_aggregate(
                    name,
                    count_star=(len(node.args) == 1 and isinstance(node.args[0], Star)) or not node.args,
                )
                for i in ordered:
                    agg.add_checked(arg_fn(i) if arg_fn is not None else 1)
                total = agg.result()
                for i in ordered:
                    result[i] = total
            else:
                raise ExecutionError(f"Unsupported window function: {node.name}")
        return result

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
    def _eval(
        self,
        expr: Expression,
        row: Row,
        window_values: Optional[Dict[int, List[Any]]] = None,
        row_index: Optional[int] = None,
    ) -> Any:
        """Evaluate ``expr`` on one row dict (column name -> value).

        The compiled closures in :mod:`repro.sql.compiler` must agree with
        this function on every value and every error.
        """
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            key = expr.qualified if expr.table else expr.name
            if key in row:
                return row[key]
            if expr.name in row:
                return row[expr.name]
            raise ExecutionError(f"Unknown column {key!r}; available: {sorted(k for k in row if '.' not in k)}")
        if isinstance(expr, Star):
            raise ExecutionError("'*' is only valid in a select list or COUNT(*)")
        if isinstance(expr, UnaryOp):
            return _apply_unary(expr.op, self._eval(expr.operand, row, window_values, row_index))
        if isinstance(expr, BinaryOp):
            if expr.op == "AND":
                left = self._eval(expr.left, row, window_values, row_index)
                if left is False:
                    return False
                right = self._eval(expr.right, row, window_values, row_index)
                if right is False:
                    return False
                if is_null(left) or is_null(right):
                    return None
                return _truthy(left) and _truthy(right)
            if expr.op == "OR":
                left = self._eval(expr.left, row, window_values, row_index)
                if _truthy(left):
                    return True
                right = self._eval(expr.right, row, window_values, row_index)
                if _truthy(right):
                    return True
                if is_null(left) or is_null(right):
                    return None
                return False
            left = self._eval(expr.left, row, window_values, row_index)
            right = self._eval(expr.right, row, window_values, row_index)
            return _apply_binary(expr.op, left, right)
        if isinstance(expr, Like):
            value = self._eval(expr.operand, row, window_values, row_index)
            pattern = self._eval(expr.pattern, row, window_values, row_index)
            escape = self._eval(expr.escape, row, window_values, row_index) if expr.escape is not None else None
            if is_null(value) or is_null(pattern) or (expr.escape is not None and is_null(escape)):
                return None
            return _like_match(value, pattern, escape)
        if isinstance(expr, IsNull):
            value = self._eval(expr.operand, row, window_values, row_index)
            return (not is_null(value)) if expr.negated else is_null(value)
        if isinstance(expr, InList):
            value = self._eval(expr.operand, row, window_values, row_index)
            if is_null(value):
                return None
            items = [self._eval(i, row, window_values, row_index) for i in expr.items]
            found = any((not is_null(i)) and sql_equal(value, i) for i in items)
            return (not found) if expr.negated else found
        if isinstance(expr, Between):
            value = self._eval(expr.operand, row, window_values, row_index)
            low = self._eval(expr.low, row, window_values, row_index)
            high = self._eval(expr.high, row, window_values, row_index)
            return sql_between(value, low, high, expr.negated)
        if isinstance(expr, CaseWhen):
            return self._eval_case(expr, row, window_values, row_index)
        if isinstance(expr, Cast):
            return coerce_value(self._eval(expr.operand, row, window_values, row_index), expr.target)
        if isinstance(expr, WindowFunction):
            if window_values is None or row_index is None or id(expr) not in window_values:
                raise ExecutionError("Window function used outside of a windowed context")
            return window_values[id(expr)][row_index]
        if isinstance(expr, FunctionCall):
            if expr.name in AGGREGATE_NAMES and expr.name not in ("MIN", "MAX"):
                raise ExecutionError(f"Aggregate {expr.name} used outside GROUP BY context")
            args = [self._eval(a, row, window_values, row_index) for a in expr.args]
            return call_scalar(expr.name, args)
        raise ExecutionError(f"Unsupported expression node: {type(expr).__name__}")

    def _eval_case(
        self,
        expr: CaseWhen,
        row: Row,
        window_values: Optional[Dict[int, List[Any]]],
        row_index: Optional[int],
    ) -> Any:
        if expr.operand is not None:
            subject = self._eval(expr.operand, row, window_values, row_index)
            # Fast path: CASE col WHEN <literal> THEN ... with literal branches is a
            # dictionary lookup; cleaning queries generate hundreds of branches.
            lookup = getattr(expr, "_literal_lookup", None)
            if lookup is None and all(isinstance(cond, Literal) for cond, _ in expr.whens):
                lookup = {str(cond.value): result for cond, result in expr.whens}
                setattr(expr, "_literal_lookup", lookup)
            if lookup is not None:
                if not is_null(subject) and str(subject) in lookup:
                    return self._eval(lookup[str(subject)], row, window_values, row_index)
            else:
                for condition, result in expr.whens:
                    candidate = self._eval(condition, row, window_values, row_index)
                    if not is_null(subject) and not is_null(candidate) and sql_equal(subject, candidate):
                        return self._eval(result, row, window_values, row_index)
        else:
            for condition, result in expr.whens:
                if _truthy(self._eval(condition, row, window_values, row_index)):
                    return self._eval(result, row, window_values, row_index)
        if expr.default is not None:
            return self._eval(expr.default, row, window_values, row_index)
        return None


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
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


def _like_to_regex(pattern: str, escape: Optional[str] = None) -> str:
    """Translate a LIKE pattern to an anchored regex.

    With an ``ESCAPE`` character, the character following it is taken
    literally — the standard way to match a literal ``%`` or ``_`` (or the
    escape character itself).  A pattern ending in a dangling escape is
    malformed.
    """
    out = []
    i = 0
    n = len(pattern)
    while i < n:
        ch = pattern[i]
        if escape is not None and ch == escape:
            if i + 1 >= n:
                raise ExecutionError(f"LIKE pattern {pattern!r} ends with its ESCAPE character")
            out.append(re.escape(pattern[i + 1]))
            i += 2
            continue
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
        i += 1
    return "^" + "".join(out) + "$"


@lru_cache(maxsize=512)
def _like_regex(pattern: str, escape: Optional[str]) -> "re.Pattern":
    """Compiled, case-insensitive regex for a LIKE pattern.

    Cached per ``(pattern, escape)`` so repeated evaluation — one call per
    row in the interpreter, and the compiled engine's closures — translates
    and compiles each distinct pattern once.  ``lru_cache`` does not cache
    raised exceptions, so malformed patterns (dangling ESCAPE) keep raising
    on every evaluation, exactly like the uncached code did.
    """
    return re.compile(_like_to_regex(pattern, escape), re.IGNORECASE)


def _like_match(value: Any, pattern: Any, escape: Any = None) -> bool:
    """Non-null LIKE evaluation shared by the Like node, BinaryOp('LIKE') and
    the compiled engine's Like closures."""
    escape_char: Optional[str] = None
    if escape is not None:
        escape_char = str(escape)
        if len(escape_char) != 1:
            raise ExecutionError(f"ESCAPE must be a single character, got {escape_char!r}")
    return _like_regex(str(pattern), escape_char).match(str(value)) is not None


def _apply_unary(op: str, value: Any) -> Any:
    if op == "NOT":
        if is_null(value):
            return None
        return not _truthy(value)
    if is_null(value):
        return None
    if op == "-":
        return -value
    if op == "+":
        return +value
    raise ExecutionError(f"Unknown unary operator {op}")


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    if op == "||":
        if is_null(left) or is_null(right):
            return None
        return f"{left}{right}"
    if op == "LIKE":
        if is_null(left) or is_null(right):
            return None
        return _like_match(left, right)
    if is_null(left) or is_null(right):
        return None
    if op == "=":
        return sql_equal(left, right)
    if op == "<>":
        return not sql_equal(left, right)
    if op in ("<", ">", "<=", ">="):
        cmp = _compare(left, right)
        if cmp is None:
            return None
        return {"<": cmp < 0, ">": cmp > 0, "<=": cmp <= 0, ">=": cmp >= 0}[op]
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        if right == 0:
            return None
        result = left / right
        return result
    if op == "%":
        if right == 0:
            return None
        return left % right
    raise ExecutionError(f"Unknown binary operator {op}")


def _expression_label(expr: Expression, index: int) -> str:
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    if isinstance(expr, WindowFunction):
        return expr.name.lower()
    if isinstance(expr, Cast):
        inner = expr.operand
        if isinstance(inner, ColumnRef):
            return inner.name
    if isinstance(expr, CaseWhen):
        return f"case_{index}"
    return f"col_{index}"
