"""Expression compilation for the executor's stage pipeline.

:class:`ColumnarBinding` binds a set of column vectors (parallel value
lists, one per column) and compiles AST expressions into closures evaluated
by *row index*:

* :meth:`ColumnarBinding.compile` returns ``fn(i) -> value`` — the scalar
  value of the expression at row ``i``;
* :meth:`ColumnarBinding.compile_aggregate` returns ``fn(indices) -> value``
  — the aggregate value of the expression over the group of row indices.

Compilation happens **once per query**: literals are constant-folded, column
references resolve to a direct ``list.__getitem__`` on their vector, CASE
literal branches become a dictionary built at compile time, and LIKE
patterns hit the module-level regex LRU.  Per-row work reduces to closure
calls over pre-bound vectors.

Parity with the reference interpreter (``Executor._eval``) is the contract,
not speed at any cost:

* every null/short-circuit/error behaviour is mirrored node for node, using
  the *same* helper functions (``_apply_binary``, ``_like_match``,
  ``sql_equal``, ``compare_values``, ``sql_between``, ``coerce_value``);
* errors stay **eval-time**: an unknown column, a misused aggregate or a
  window function outside its context compiles into a *raising closure*, so
  a query over an empty table raises exactly when the interpreter would
  (never), with identical messages;
* any expression node the compiler does not recognise falls back to a
  closure that calls ``Executor._eval`` on a row dict materialised for that
  row only — behavioural parity is the gate, not coverage.

With ``Executor(compiled=False)`` every scalar expression compiles to that
fallback closure, which is how the compiled differential holds the
specialised closures to the interpreter over the one pipeline.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dataframe.schema import coerce_value, is_null
from repro.sql.ast_nodes import (
    Between,
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    IsNull,
    Like,
    Literal,
    Star,
    UnaryOp,
    WindowFunction,
)
from repro.sql.comparison import compare_values, parse_num, sql_between, sql_equal
from repro.sql.errors import ExecutionError
from repro.sql.functions import AGGREGATE_NAMES, call_scalar, make_aggregate

ScalarFn = Callable[[int], Any]
AggregateFn = Callable[[Sequence[int]], Any]
WindowValues = Optional[Dict[int, List[Any]]]


class ColumnarBinding:
    """Column vectors for one pipeline stage, plus the expression compiler.

    A binding is created per stage because filtering replaces the vectors:
    closures compiled against a binding index into *its* vectors, so the
    executor rebinds after every gather.
    """

    def __init__(self, executor: Any, names: Sequence[str], vectors: Sequence[List[Any]]):
        self.executor = executor
        self.names: List[str] = list(names)
        self.vectors: List[List[Any]] = list(vectors)
        self._by_name: Dict[str, List[Any]] = dict(zip(self.names, self.vectors))

    # -- row materialisation (fallback path only) ---------------------------
    def make_row(self, i: int) -> Dict[str, Any]:
        """The row dict the interpreter would see for row ``i``."""
        return {name: vec[i] for name, vec in zip(self.names, self.vectors)}

    def vector_for(self, ref: ColumnRef) -> Optional[List[Any]]:
        """The vector a column reference resolves to, or None if unknown.

        Mirrors ``Executor._eval``'s lookup order on a single-table row:
        the qualified ``alias.column`` key first, then the bare name.
        """
        key = ref.qualified if ref.table else ref.name
        if key in self._by_name:
            return self._by_name[key]
        if ref.name in self._by_name:
            return self._by_name[ref.name]
        return None

    # -- scalar compilation -------------------------------------------------
    def compile(self, expr: Expression, windows: WindowValues = None) -> ScalarFn:
        """Compile ``expr`` to ``fn(i) -> value`` over this binding's vectors."""
        from repro.sql.executor import (  # local import: executor imports this module
            _apply_binary,
            _apply_unary,
            _like_match,
            _truthy,
        )

        if not self.executor.compiled:
            return self._fallback(expr, windows)

        if isinstance(expr, Literal):
            value = expr.value
            return lambda i: value

        if isinstance(expr, ColumnRef):
            vec = self.vector_for(expr)
            if vec is not None:
                return vec.__getitem__
            key = expr.qualified if expr.table else expr.name
            available = sorted(k for k in self.names if "." not in k)

            def unknown_column(i: int) -> Any:
                raise ExecutionError(f"Unknown column {key!r}; available: {available}")

            return unknown_column

        if isinstance(expr, Star):

            def star_misuse(i: int) -> Any:
                raise ExecutionError("'*' is only valid in a select list or COUNT(*)")

            return star_misuse

        if isinstance(expr, UnaryOp):
            operand_fn = self.compile(expr.operand, windows)
            op = expr.op
            return lambda i: _apply_unary(op, operand_fn(i))

        if isinstance(expr, BinaryOp):
            op = expr.op
            if op == "AND":
                left_fn = self.compile(expr.left, windows)
                right_fn = self.compile(expr.right, windows)

                def and_fn(i: int) -> Any:
                    left = left_fn(i)
                    if left is False:
                        return False
                    right = right_fn(i)
                    if right is False:
                        return False
                    if is_null(left) or is_null(right):
                        return None
                    return _truthy(left) and _truthy(right)

                return and_fn
            if op == "OR":
                left_fn = self.compile(expr.left, windows)
                right_fn = self.compile(expr.right, windows)

                def or_fn(i: int) -> Any:
                    left = left_fn(i)
                    if _truthy(left):
                        return True
                    right = right_fn(i)
                    if _truthy(right):
                        return True
                    if is_null(left) or is_null(right):
                        return None
                    return False

                return or_fn
            left_fn = self.compile(expr.left, windows)
            if isinstance(expr.right, Literal) and not is_null(expr.right.value):
                const_fn = _compile_const_compare(left_fn, op, expr.right.value)
                if const_fn is not None:
                    return const_fn
            right_fn = self.compile(expr.right, windows)
            if op == "=":

                def eq_fn(i: int) -> Any:
                    left = left_fn(i)
                    right = right_fn(i)
                    if is_null(left) or is_null(right):
                        return None
                    return sql_equal(left, right)

                return eq_fn
            if op == "<>":

                def ne_fn(i: int) -> Any:
                    left = left_fn(i)
                    right = right_fn(i)
                    if is_null(left) or is_null(right):
                        return None
                    return not sql_equal(left, right)

                return ne_fn
            if op in ("<", ">", "<=", ">="):
                below = op in ("<", "<=")
                allow_equal = op in ("<=", ">=")

                def cmp_fn(i: int) -> Any:
                    left = left_fn(i)
                    right = right_fn(i)
                    if is_null(left) or is_null(right):
                        return None
                    cmp = compare_values(left, right)
                    if cmp is None:
                        return None
                    if cmp == 0:
                        return allow_equal
                    return cmp < 0 if below else cmp > 0

                return cmp_fn
            return lambda i: _apply_binary(op, left_fn(i), right_fn(i))

        if isinstance(expr, Like):
            value_fn = self.compile(expr.operand, windows)
            pattern_fn = self.compile(expr.pattern, windows)
            escape_fn = self.compile(expr.escape, windows) if expr.escape is not None else None

            def like_fn(i: int) -> Any:
                value = value_fn(i)
                pattern = pattern_fn(i)
                escape = escape_fn(i) if escape_fn is not None else None
                if is_null(value) or is_null(pattern) or (escape_fn is not None and is_null(escape)):
                    return None
                return _like_match(value, pattern, escape)

            return like_fn

        if isinstance(expr, IsNull):
            operand_fn = self.compile(expr.operand, windows)
            if expr.negated:
                return lambda i: not is_null(operand_fn(i))
            return lambda i: is_null(operand_fn(i))

        if isinstance(expr, InList):
            operand_fn = self.compile(expr.operand, windows)
            negated = expr.negated
            if all(isinstance(item, Literal) for item in expr.items):
                # Constant fold: drop NULL literals (they can never match).
                candidates = [item.value for item in expr.items if not is_null(item.value)]

                def in_literals_fn(i: int) -> Any:
                    value = operand_fn(i)
                    if is_null(value):
                        return None
                    found = any(sql_equal(value, item) for item in candidates)
                    return (not found) if negated else found

                return in_literals_fn
            item_fns = [self.compile(item, windows) for item in expr.items]

            def in_fn(i: int) -> Any:
                value = operand_fn(i)
                if is_null(value):
                    return None
                # Evaluate every item, like the interpreter's list comprehension
                # (an item that raises must raise even after a match).
                items = [fn(i) for fn in item_fns]
                found = any((not is_null(item)) and sql_equal(value, item) for item in items)
                return (not found) if negated else found

            return in_fn

        if isinstance(expr, Between):
            operand_fn = self.compile(expr.operand, windows)
            low_fn = self.compile(expr.low, windows)
            high_fn = self.compile(expr.high, windows)
            negated = expr.negated

            def between_fn(i: int) -> Any:
                return sql_between(operand_fn(i), low_fn(i), high_fn(i), negated)

            return between_fn

        if isinstance(expr, CaseWhen):
            return self._compile_case(expr, windows)

        if isinstance(expr, Cast):
            operand_fn = self.compile(expr.operand, windows)
            target = expr.target
            return lambda i: coerce_value(operand_fn(i), target)

        if isinstance(expr, WindowFunction):
            if windows is not None and id(expr) in windows:
                return windows[id(expr)].__getitem__

            def no_window_context(i: int) -> Any:
                raise ExecutionError("Window function used outside of a windowed context")

            return no_window_context

        if isinstance(expr, FunctionCall):
            name = expr.name
            if name in AGGREGATE_NAMES and name not in ("MIN", "MAX"):

                def aggregate_misuse(i: int) -> Any:
                    raise ExecutionError(f"Aggregate {name} used outside GROUP BY context")

                return aggregate_misuse
            arg_fns = [self.compile(a, windows) for a in expr.args]
            return lambda i: call_scalar(name, [fn(i) for fn in arg_fns])

        # Unknown node: fall back to the reference interpreter for this row.
        return self._fallback(expr, windows)

    def _compile_case(self, expr: CaseWhen, windows: WindowValues) -> ScalarFn:
        from repro.sql.executor import _truthy

        default_fn = self.compile(expr.default, windows) if expr.default is not None else None
        if expr.operand is not None:
            subject_fn = self.compile(expr.operand, windows)
            if all(isinstance(cond, Literal) for cond, _ in expr.whens):
                # CASE col WHEN <literal> ... with literal branches compiles to a
                # dict lookup (duplicate keys: last wins, like the interpreter).
                lookup = {str(cond.value): self.compile(result, windows) for cond, result in expr.whens}

                def case_lookup_fn(i: int) -> Any:
                    subject = subject_fn(i)
                    if not is_null(subject):
                        branch = lookup.get(str(subject))
                        if branch is not None:
                            return branch(i)
                    return default_fn(i) if default_fn is not None else None

                return case_lookup_fn
            when_fns = [(self.compile(cond, windows), self.compile(result, windows)) for cond, result in expr.whens]

            def case_operand_fn(i: int) -> Any:
                subject = subject_fn(i)
                for cond_fn, result_fn in when_fns:
                    candidate = cond_fn(i)
                    if not is_null(subject) and not is_null(candidate) and sql_equal(subject, candidate):
                        return result_fn(i)
                return default_fn(i) if default_fn is not None else None

            return case_operand_fn
        when_fns = [(self.compile(cond, windows), self.compile(result, windows)) for cond, result in expr.whens]

        def case_searched_fn(i: int) -> Any:
            for cond_fn, result_fn in when_fns:
                if _truthy(cond_fn(i)):
                    return result_fn(i)
            return default_fn(i) if default_fn is not None else None

        return case_searched_fn

    def _fallback(self, expr: Expression, windows: WindowValues) -> ScalarFn:
        executor = self.executor

        def fallback_fn(i: int) -> Any:
            return executor._eval(expr, self.make_row(i), window_values=windows, row_index=i)

        return fallback_fn

    # -- aggregate compilation ---------------------------------------------
    def compile_aggregate(self, expr: Expression) -> AggregateFn:
        """Compile ``expr`` to ``fn(indices) -> value`` over groups of rows.

        Aggregate calls fold their argument over the group, scalar operators
        combine aggregate sub-results, and any other expression evaluates on
        the group's first row (it is a grouping expression, constant per
        group).
        """
        from repro.sql.executor import _apply_binary, _apply_unary, _like_match

        if isinstance(expr, FunctionCall) and expr.name in AGGREGATE_NAMES:
            name = expr.name
            distinct = expr.distinct
            count_star = len(expr.args) == 1 and isinstance(expr.args[0], Star)
            separator = ","
            if name in ("STRING_AGG", "GROUP_CONCAT") and len(expr.args) > 1:
                sep_expr = expr.args[1]
                if isinstance(sep_expr, Literal):
                    separator = str(sep_expr.value)
            arg_fn = None if count_star else self.compile(expr.args[0])

            def aggregate_fn(indices: Sequence[int]) -> Any:
                agg = make_aggregate(name, distinct=distinct, count_star=count_star, separator=separator)
                if count_star:
                    for _ in indices:
                        agg.add_checked(1)
                else:
                    for i in indices:
                        agg.add_checked(arg_fn(i))
                return agg.result()

            return aggregate_fn

        if isinstance(expr, BinaryOp):
            left_fn = self.compile_aggregate(expr.left)
            right_fn = self.compile_aggregate(expr.right)
            op = expr.op
            return lambda indices: _apply_binary(op, left_fn(indices), right_fn(indices))

        if isinstance(expr, UnaryOp):
            operand_fn = self.compile_aggregate(expr.operand)
            op = expr.op
            return lambda indices: _apply_unary(op, operand_fn(indices))

        if isinstance(expr, Like):
            value_fn = self.compile_aggregate(expr.operand)
            pattern_fn = self.compile_aggregate(expr.pattern)
            escape_fn = self.compile_aggregate(expr.escape) if expr.escape is not None else None

            def like_agg_fn(indices: Sequence[int]) -> Any:
                value = value_fn(indices)
                pattern = pattern_fn(indices)
                escape = escape_fn(indices) if escape_fn is not None else None
                if is_null(value) or is_null(pattern) or (escape_fn is not None and is_null(escape)):
                    return None
                return _like_match(value, pattern, escape)

            return like_agg_fn

        if isinstance(expr, Cast):
            operand_fn = self.compile_aggregate(expr.operand)
            target = expr.target
            return lambda indices: coerce_value(operand_fn(indices), target)

        if isinstance(expr, FunctionCall):
            name = expr.name
            arg_fns = [self.compile_aggregate(a) for a in expr.args]
            return lambda indices: call_scalar(name, [fn(indices) for fn in arg_fns])

        if isinstance(expr, CaseWhen):
            scalar_fn = self.compile(expr)
            executor = self.executor

            def case_agg_fn(indices: Sequence[int]) -> Any:
                if indices:
                    return scalar_fn(indices[0])
                return executor._eval_case(expr, {}, None, None)

            return case_agg_fn

        # Grouping expression: evaluate on the group's first row.
        scalar_fn = self.compile(expr)
        executor = self.executor

        def first_row_fn(indices: Sequence[int]) -> Any:
            if indices:
                return scalar_fn(indices[0])
            return executor._eval(expr, {})

        return first_row_fn


def _compile_const_compare(left_fn: ScalarFn, op: str, lit: Any) -> Optional[ScalarFn]:
    """Specialised closure for ``<expr> <op> <literal>`` comparisons.

    The literal's numeric interpretation is resolved once at compile time, so
    the per-row work of the common ``col = 'x'`` / ``col < 5`` predicates
    drops to a type check and a direct comparison.  Every branch mirrors
    ``sql_equal``/``compare_values`` exactly — numeric operands compare as
    floats (so oversized ints keep the interpreter's float rounding), NaN
    values read as NULL, and any operand type outside the fast paths falls
    through to the shared helpers.  Literal shapes this function does not
    cover return None and compile through the generic closures.
    """
    eq = op in ("=", "<>")
    if not eq and op not in ("<", ">", "<=", ">="):
        return None
    negate = op == "<>"
    below = op in ("<", "<=")
    allow_equal = op in ("<=", ">=")

    if isinstance(lit, (int, float)) and not isinstance(lit, bool) and math.isfinite(lit):
        lit_num = float(lit)
        if eq:

            def eq_const_num(i: int) -> Any:
                v = left_fn(i)
                cls = v.__class__
                if cls is int or cls is float:
                    if v != v:
                        return None
                    equal = float(v) == lit_num
                    return (not equal) if negate else equal
                if is_null(v):
                    return None
                equal = sql_equal(v, lit)
                return (not equal) if negate else equal

            return eq_const_num

        def cmp_const_num(i: int) -> Any:
            v = left_fn(i)
            cls = v.__class__
            if cls is int or cls is float:
                if v != v:
                    return None
                fv = float(v)
                if fv == lit_num:
                    return allow_equal
                return (fv < lit_num) if below else (fv > lit_num)
            if is_null(v):
                return None
            cmp = compare_values(v, lit)
            if cmp is None:
                return None
            if cmp == 0:
                return allow_equal
            return cmp < 0 if below else cmp > 0

        return cmp_const_num

    if isinstance(lit, str):
        parsed = parse_num(lit)
        if eq:

            def eq_const_text(i: int) -> Any:
                v = left_fn(i)
                cls = v.__class__
                if cls is str:
                    # Two strings always compare textually, even when both
                    # look numeric — numeric_pair coerces only mixed pairs.
                    return (v != lit) if negate else (v == lit)
                if cls is int or cls is float or cls is bool:
                    if v != v:
                        return None
                    equal = float(v) == parsed if parsed is not None else str(v) == lit
                    return (not equal) if negate else equal
                if is_null(v):
                    return None
                equal = sql_equal(v, lit)
                return (not equal) if negate else equal

            return eq_const_text

        def cmp_const_text(i: int) -> Any:
            v = left_fn(i)
            if v.__class__ is str:
                if v == lit:
                    return allow_equal
                return (v < lit) if below else (v > lit)
            if is_null(v):
                return None
            cmp = compare_values(v, lit)
            if cmp is None:
                return None
            if cmp == 0:
                return allow_equal
            return cmp < 0 if below else cmp > 0

        return cmp_const_text

    return None
