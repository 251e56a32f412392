"""Expression compilation for the executor's stage pipeline.

:class:`ColumnarBinding` names the column slots of one source schema and
:meth:`ColumnarBinding.compile` turns an AST expression into ``fn(i) ->
value``, the value of the expression at row ``i`` of the vectors currently
loaded into the binding (:meth:`ColumnarBinding.load`).

Compilation happens **once per prepared statement and source schema**:
literals are constant-folded, column references resolve to a slot, and CASE
literal branches become a dictionary built at compile time.  Running the
statement on another table of the same schema only loads that table's
vectors; per-row work reduces to closure calls over the loaded vectors.

Compile-time work never changes what a statement means:

* every null/short-circuit/error behaviour follows SQL's three-valued logic
  through the same shared helpers (``sql_equal``, ``compare_values``,
  ``coerce_value``, ``call_scalar``);
* errors stay **eval-time**: an unknown column, or an expression node the
  compiler does not know, compiles into a *raising closure*, so a query
  over an empty table raises exactly when a row is evaluated (never).

``tests/sql/interpreter_oracle.py`` keeps a tree-walking interpreter of the
same expressions; the compiled differential holds every closure to it, and
``repro.sql.differential`` holds the whole engine to sqlite3.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.dataframe.schema import coerce_value, is_null
from repro.sql.ast_nodes import (
    BinaryOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Expression,
    FunctionCall,
    InList,
    Literal,
    UnaryOp,
)
from repro.sql.comparison import compare_values, parse_num, sql_equal
from repro.sql.errors import ExecutionError
from repro.sql.functions import call_scalar

ScalarFn = Callable[[int], Any]


class ColumnarBinding:
    """The column slots of one source schema, plus the expression compiler.

    Closures compiled against a binding read the vectors loaded into it at
    call time, so one compilation serves every table of the schema and every
    pipeline stage: the executor loads the scanned vectors, then reloads
    after each gather.  A binding holds the vectors of one run at a time.
    """

    def __init__(self, names: Sequence[str]):
        self.names: List[str] = list(names)
        # Loaded in place, never rebound: every closure holds this list.
        self.vectors: List[List[Any]] = []
        self._slots: Dict[str, int] = {name: j for j, name in enumerate(self.names)}

    def load(self, vectors: Sequence[List[Any]]) -> None:
        """Point every compiled closure at ``vectors`` (one per column slot)."""
        self.vectors[:] = vectors

    def slot(self, ref: ColumnRef) -> Optional[int]:
        """The slot a column reference resolves to, or None if unknown."""
        return self._slots.get(ref.name)

    # -- scalar compilation -------------------------------------------------
    def compile(self, expr: Expression) -> ScalarFn:
        """Compile ``expr`` to ``fn(i) -> value`` over the loaded vectors."""
        if isinstance(expr, Literal):
            value = expr.value
            return lambda i: value

        if isinstance(expr, ColumnRef):
            slot = self.slot(expr)
            if slot is not None:
                vectors = self.vectors
                return lambda i: vectors[slot][i]
            key = expr.name
            available = sorted(self.names)

            def unknown_column(i: int) -> Any:
                raise ExecutionError(f"Unknown column {key!r}; available: {available}")

            return unknown_column

        if isinstance(expr, UnaryOp):
            operand_fn = self.compile(expr.operand)
            op = expr.op
            return lambda i: _apply_unary(op, operand_fn(i))

        if isinstance(expr, BinaryOp):
            op = expr.op
            if op == "AND":
                left_fn = self.compile(expr.left)
                right_fn = self.compile(expr.right)

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
                left_fn = self.compile(expr.left)
                right_fn = self.compile(expr.right)

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
            left_fn = self.compile(expr.left)
            if isinstance(expr.right, Literal) and not is_null(expr.right.value):
                const_fn = _compile_const_compare(left_fn, op, expr.right.value)
                if const_fn is not None:
                    return const_fn
            right_fn = self.compile(expr.right)
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
            below = op in ("<", "<=")
            allow_equal = op in ("<=", ">=")

            def cmp_fn(i: int) -> Any:
                left = left_fn(i)
                right = right_fn(i)
                if is_null(left) or is_null(right):
                    return None
                cmp = compare_values(left, right)
                if cmp == 0:
                    return allow_equal
                return cmp < 0 if below else cmp > 0

            return cmp_fn

        if isinstance(expr, InList):
            operand_fn = self.compile(expr.operand)
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
            item_fns = [self.compile(item) for item in expr.items]

            def in_fn(i: int) -> Any:
                value = operand_fn(i)
                if is_null(value):
                    return None
                # Evaluate every item: an item that raises must raise even
                # after a match.
                items = [fn(i) for fn in item_fns]
                found = any((not is_null(item)) and sql_equal(value, item) for item in items)
                return (not found) if negated else found

            return in_fn

        if isinstance(expr, CaseWhen):
            return self._compile_case(expr)

        if isinstance(expr, Cast):
            operand_fn = self.compile(expr.operand)
            target = expr.target
            return lambda i: coerce_value(operand_fn(i), target)

        if isinstance(expr, FunctionCall):
            name = expr.name
            arg_fns = [self.compile(a) for a in expr.args]
            return lambda i: call_scalar(name, [fn(i) for fn in arg_fns])

        message = f"Unsupported expression node: {type(expr).__name__}"

        def unsupported(i: int) -> Any:
            raise ExecutionError(message)

        return unsupported

    def _compile_case(self, expr: CaseWhen) -> ScalarFn:
        default_fn = self.compile(expr.default) if expr.default is not None else None
        if expr.operand is not None:
            subject_fn = self.compile(expr.operand)
            if all(isinstance(cond, Literal) for cond, _ in expr.whens):
                # CASE col WHEN <literal> ... with literal branches compiles to a
                # dict lookup (duplicate keys: last wins, like the interpreter oracle).
                lookup = {str(cond.value): self.compile(result) for cond, result in expr.whens}
                # An FD repair (``CASE key WHEN 'k' THEN 'v' ... ELSE col``)
                # gives a whole group one text, which many rows already hold:
                # where the branch yields a str equal to the row's own str
                # cell, hand back the cell object, so the step diffs see it
                # unchanged by identity.  Only a plain column default is
                # read early; reading a cell cannot fail.
                keep_equal_cells = isinstance(expr.default, ColumnRef)

                def case_lookup_fn(i: int) -> Any:
                    subject = subject_fn(i)
                    if not is_null(subject):
                        branch = lookup.get(str(subject))
                        if branch is not None:
                            value = branch(i)
                            if keep_equal_cells and type(value) is str:
                                cell = default_fn(i)
                                if type(cell) is str and cell == value:
                                    return cell
                            return value
                    return default_fn(i) if default_fn is not None else None

                return case_lookup_fn
            when_fns = [(self.compile(cond), self.compile(result)) for cond, result in expr.whens]

            def case_operand_fn(i: int) -> Any:
                subject = subject_fn(i)
                for cond_fn, result_fn in when_fns:
                    candidate = cond_fn(i)
                    if not is_null(subject) and not is_null(candidate) and sql_equal(subject, candidate):
                        return result_fn(i)
                return default_fn(i) if default_fn is not None else None

            return case_operand_fn
        when_fns = [(self.compile(cond), self.compile(result)) for cond, result in expr.whens]

        def case_searched_fn(i: int) -> Any:
            for cond_fn, result_fn in when_fns:
                if _truthy(cond_fn(i)):
                    return result_fn(i)
            return default_fn(i) if default_fn is not None else None

        return case_searched_fn


def _truthy(value: Any) -> bool:
    if is_null(value):
        return False
    return bool(value)


def _apply_unary(op: str, value: Any) -> Any:
    if is_null(value):
        return None
    if op == "NOT":
        return not _truthy(value)
    return -value


def _compile_const_compare(left_fn: ScalarFn, op: str, lit: Any) -> Optional[ScalarFn]:
    """Specialised closure for ``<expr> <op> <literal>`` comparisons.

    The literal's numeric interpretation is resolved once at compile time, so
    the per-row work of the common ``col = 'x'`` / ``col < 5`` predicates
    drops to a type check and a direct comparison.  Every branch mirrors
    ``sql_equal``/``compare_values`` exactly — numeric operands compare as
    floats (so oversized ints keep ``compare_values``' float rounding), NaN
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
            if cmp == 0:
                return allow_equal
            return cmp < 0 if below else cmp > 0

        return cmp_const_text

    return None
