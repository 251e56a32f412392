"""Reference interpreter for the SQL engine's expressions.

:mod:`repro.sql.compiler` compiles each expression once into closures
over column vectors.  :func:`_eval` is the tree-walking interpreter the
engine ran before those closures existed, kept unchanged as their oracle: it
evaluates an expression on one row dict, and the closures must agree with
it on every value and every error.

:func:`interpreted` runs the engine on the interpreter instead: inside it,
every statement that compiles a program compiles each expression to a
closure that calls :meth:`Oracle.evaluate` on a row dict built for that row,
inside the same stage pipeline.  A program compiled before (a reused
:class:`~repro.sql.executor.PreparedStatement`, a plan's replay chain) keeps
its closures, so every differential asserts that :attr:`Oracle.calls` is
nonzero.
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Dict, Iterator, Sequence

import repro.sql.executor
from repro.dataframe.schema import coerce_value, is_null
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    InList,
    Literal,
    UnaryOp,
)
from repro.sql.comparison import compare_values, sql_equal
from repro.sql.compiler import ColumnarBinding, ScalarFn, _negate, _truthy
from repro.sql.errors import ExecutionError

Row = Dict[str, Any]


def _eval(expr: Expression, row: Row) -> Any:
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
        return _negate(_eval(expr.operand, row))
    if isinstance(expr, BinaryOp):
        if expr.op == "OR":
            left = _eval(expr.left, row)
            if _truthy(left):
                return True
            right = _eval(expr.right, row)
            if _truthy(right):
                return True
            if is_null(left) or is_null(right):
                return None
            return False
        return _apply_binary(expr.op, _eval(expr.left, row), _eval(expr.right, row))
    if isinstance(expr, InList):
        value = _eval(expr.operand, row)
        if is_null(value):
            return None
        items = [_eval(i, row) for i in expr.items]
        if any((not is_null(i)) and sql_equal(value, i) for i in items):
            return True
        # No item matches: NULL when an item is NULL (it might have).
        return None if any(is_null(i) for i in items) else False
    if isinstance(expr, CaseWhen):
        return _eval_case(expr, row)
    if isinstance(expr, Cast):
        return coerce_value(_eval(expr.operand, row), expr.target)
    raise ExecutionError(f"Unsupported expression node: {type(expr).__name__}")


def _eval_case(expr: CaseWhen, row: Row) -> Any:
    if expr.operand is not None:
        subject = _eval(expr.operand, row)
        # Fast path: CASE col WHEN <literal> THEN ... with literal branches is a
        # dictionary lookup; cleaning queries generate hundreds of branches.
        lookup = getattr(expr, "_literal_lookup", None)
        if lookup is None and all(isinstance(cond, Literal) for cond, _ in expr.whens):
            lookup = {str(cond.value): result for cond, result in expr.whens}
            setattr(expr, "_literal_lookup", lookup)
        if lookup is not None:
            if not is_null(subject) and str(subject) in lookup:
                return _eval(lookup[str(subject)], row)
        else:
            for condition, result in expr.whens:
                candidate = _eval(condition, row)
                if not is_null(subject) and not is_null(candidate) and sql_equal(subject, candidate):
                    return _eval(result, row)
    else:
        for condition, result in expr.whens:
            if _truthy(_eval(condition, row)):
                return _eval(result, row)
    if expr.default is not None:
        return _eval(expr.default, row)
    return None


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


class Oracle:
    """The interpreter, counting the rows it evaluated an expression on."""

    def __init__(self) -> None:
        self.calls = 0

    def evaluate(self, expr: Expression, row: Row) -> Any:
        self.calls += 1
        return _eval(expr, row)


class InterpreterBinding(ColumnarBinding):
    """A binding whose every expression runs on the interpreter."""

    def __init__(self, names: Sequence[str], oracle: Oracle):
        super().__init__(names)
        self.oracle = oracle

    def row_at(self, i: int) -> Row:
        """The row dict the interpreter sees for row ``i``."""
        return {name: vec[i] for name, vec in zip(self.names, self.vectors)}

    def compile(self, expr: Expression) -> ScalarFn:
        evaluate = self.oracle.evaluate
        return lambda i: evaluate(expr, self.row_at(i))


@contextlib.contextmanager
def interpreted() -> Iterator[Oracle]:
    """Compile every new program on an :class:`InterpreterBinding` of the
    :class:`Oracle` this yields."""
    oracle = Oracle()
    original = repro.sql.executor.ColumnarBinding
    repro.sql.executor.ColumnarBinding = functools.partial(InterpreterBinding, oracle=oracle)
    try:
        yield oracle
    finally:
        repro.sql.executor.ColumnarBinding = original


def engine(compiled: bool) -> "contextlib.AbstractContextManager[Any]":
    """The compiled closures (``True``) or the interpreter oracle (``False``)."""
    return contextlib.nullcontext() if compiled else interpreted()
