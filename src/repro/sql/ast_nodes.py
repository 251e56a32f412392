"""Abstract syntax tree node definitions for the mini SQL engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Union

from repro.dataframe.schema import ColumnType


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------
class Expression:
    """Base class for all expression nodes."""


@dataclass
class Literal(Expression):
    value: Any


@dataclass
class ColumnRef(Expression):
    name: str


@dataclass
class Star(Expression):
    """``*`` as a select item."""


@dataclass
class UnaryOp(Expression):
    op: str          # '-'
    operand: Expression


@dataclass
class BinaryOp(Expression):
    op: str          # '=', '<>', '<', '>', '<=', '>=', 'OR'
    left: Expression
    right: Expression


@dataclass
class InList(Expression):
    operand: Expression
    items: List[Expression]


@dataclass
class CaseWhen(Expression):
    """``CASE [operand] WHEN cond THEN value ... [ELSE default] END``."""
    whens: List[tuple]                 # list of (condition_expr, result_expr)
    default: Optional[Expression] = None
    operand: Optional[Expression] = None


@dataclass
class Cast(Expression):
    operand: Expression
    target: ColumnType


# --------------------------------------------------------------------------
# Statements
# --------------------------------------------------------------------------
@dataclass
class SelectItem:
    expression: Expression
    alias: Optional[str] = None


@dataclass
class FirstPerPartition:
    """``QUALIFY ROW_NUMBER() OVER (PARTITION BY … ORDER BY expr [DESC]) = 1``."""
    partition_by: List[Expression]
    order_by: Expression
    descending: bool = False


@dataclass
class Select:
    items: List[SelectItem]
    from_table: Optional[str] = None
    qualify: Optional[FirstPerPartition] = None


@dataclass
class CreateTableAs:
    name: str
    query: Select
    or_replace: bool = False


Statement = Union[Select, CreateTableAs]
