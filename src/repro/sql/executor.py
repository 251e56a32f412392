"""Query executor: runs prepared statements against the catalog.

The executor runs the AST produced by :mod:`repro.sql.parser` against the
tables registered in a :class:`repro.sql.catalog.Catalog`.  Every statement
reads at most one ``FROM`` table.

Prepare once, run many times
----------------------------
Every statement runs as a :class:`PreparedStatement`: its text is parsed
once, and its SELECT's expressions compile once per source schema into
closures (:mod:`repro.sql.compiler`).  The SELECT runs as one stage
pipeline — scan → qualify → project — with the qualify stage present only
when the statement has a ``QUALIFY``.  A one-shot query is prepared and run
once; a plan replaying the same statements batch after batch prepares them
once and each batch only scans its table and evaluates the closures over
its column vectors.  The qualify stage gathers vectors by index, and
projection reuses source vectors where it can; no stage builds a row dict.
Every table the executor builds types each column from its values, so a
projection over such a table passes an unchanged column through as the
same (immutable) ``Column`` object.  A SELECT without ``FROM`` runs the
same pipeline over one zero-column row.
"""

from __future__ import annotations

import re
import threading
import weakref
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.dataframe.column import Column
from repro.dataframe.schema import is_null
from repro.dataframe.table import Table
from repro.sql.ast_nodes import (
    CaseWhen,
    Cast,
    ColumnRef,
    CreateTableAs,
    Expression,
    Select,
    Star,
    Statement,
)
from repro.obs import span as obs_span
from repro.sql.catalog import Catalog
from repro.sql.compiler import ColumnarBinding, ScalarFn
from repro.sql.parser import parse


def summarise_sql(query: str, limit: int = 120) -> str:
    """One-line summary of a statement for span attributes: comments stripped,
    whitespace collapsed, truncated with an ellipsis."""
    no_comments = re.sub(r"--[^\n]*", " ", query)
    collapsed = " ".join(no_comments.split())
    if len(collapsed) > limit:
        return collapsed[: limit - 1] + "…"
    return collapsed


class PreparedStatement:
    """One statement, parsed and summarised once, run many times.

    The statement's expressions compile once per source schema
    (:meth:`program`); a later run on a table of that schema only scans the
    table and evaluates the closures.  Parsing waits for the first run, so a
    one-shot query parses inside its ``sql.query`` span.
    """

    def __init__(self, text: str):
        self.text = text
        #: The one-line span summary of :attr:`text`.
        self.summary = summarise_sql(text)
        self._statement: Optional[Statement] = None
        self._programs: Dict[Tuple[str, ...], _Program] = {}

    @property
    def statement(self) -> Statement:
        if self._statement is None:
            self._statement = parse(self.text)
        return self._statement

    @property
    def select(self) -> Select:
        """The statement's SELECT: the query of a ``CREATE TABLE … AS``."""
        statement = self.statement
        return statement.query if isinstance(statement, CreateTableAs) else statement

    def program(self, names: Sequence[str]) -> "_Program":
        """The compiled closures for a source table with columns ``names``."""
        key = tuple(names)
        program = self._programs.get(key)
        if program is None:
            program = self._programs[key] = _Program(self.select, names)
        return program


class _Program:
    """A SELECT compiled against one source schema.

    Each project item is ``None`` for ``*``, the slot of a column passed
    through, or a closure.  ``lock`` serialises runs, because the
    binding holds the vectors of one run at a time.
    """

    def __init__(self, select: Select, names: Sequence[str]):
        binding = self.binding = ColumnarBinding(names)
        self.lock = threading.Lock()
        self.partition: List[ScalarFn] = []
        self.order: Optional[ScalarFn] = None
        self.descending = False
        if select.qualify is not None:
            first = select.qualify
            self.partition = [binding.compile(e) for e in first.partition_by]
            self.order = binding.compile(first.order_by)
            self.descending = first.descending
        self.out_names = _output_names(select, names)
        self.items: List[Union[None, int, ScalarFn]] = []
        for item in select.items:
            expression = item.expression
            if isinstance(expression, Star):
                self.items.append(None)
                continue
            slot = binding.slot(expression) if isinstance(expression, ColumnRef) else None
            self.items.append(slot if slot is not None else binding.compile(expression))


class Executor:
    """Runs :class:`PreparedStatement` objects against a catalog, the
    table registry queries resolve names against."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        # Tables this executor built, by id: their column dtypes are inferred
        # from their values, so a projection may carry those columns over.
        self._emitted: "weakref.WeakValueDictionary[int, Table]" = weakref.WeakValueDictionary()

    # -- public API -----------------------------------------------------------
    def execute(self, prepared: PreparedStatement) -> Table:
        statement = prepared.statement
        if isinstance(statement, CreateTableAs):
            table = self._execute_select(prepared, result_name=statement.name)
            self.catalog.register(table, replace=statement.or_replace)
            return table
        return self._execute_select(prepared, result_name="result")

    # -- SELECT pipeline --------------------------------------------------------
    def _execute_select(self, prepared: PreparedStatement, result_name: str) -> Table:
        """Run one prepared SELECT over the column vectors of its FROM table."""
        carried: Dict[int, Column] = {}
        names, vectors, n = self._scan(prepared.select.from_table, carried)
        program = prepared.program(names)
        with program.lock:
            try:
                program.binding.load(vectors)
                return self._run(program, result_name, vectors, n, carried)
            finally:
                # Drop the run's vectors: a prepared statement outlives its tables.
                program.binding.load(())

    def _run(
        self,
        program: _Program,
        result_name: str,
        vectors: List[List[Any]],
        n: int,
        carried: Dict[int, Column],
    ) -> Table:
        """The stages after the scan.

        Rows are represented as an index into parallel vectors until the
        very end; every stage emits its observability span.
        """
        if program.order is not None:
            with obs_span("sql.qualify", rows_in=n) as sp:
                keep = _first_per_partition(program, n)
                vectors, n = _gather(vectors, keep, n)
                program.binding.load(vectors)
                sp.annotate(rows_out=n)

        with obs_span("sql.project", rows_in=n) as sp:
            out_vectors: List[List[Any]] = []
            for item in program.items:
                if item is None:
                    out_vectors.extend(vectors)
                elif isinstance(item, int):
                    out_vectors.append(vectors[item])
                else:
                    out_vectors.append([item(i) for i in range(n)])
            sp.annotate(columns=len(program.out_names))

        # A vector that is still a carried column's own list passes through:
        # the same Column under its own name, its dtype under an alias.
        columns = []
        for name, vec in zip(program.out_names, out_vectors):
            source = carried.get(id(vec))
            if source is None:
                columns.append(Column(name, vec))
            else:
                columns.append(source if source.name == name else Column(name, vec, source.dtype))
        table = Table(result_name, columns)
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


# --------------------------------------------------------------------------
# helpers
# --------------------------------------------------------------------------
def _gather(vectors: List[List[Any]], keep: List[int], n: int) -> Tuple[List[List[Any]], int]:
    """The vectors restricted to the ``keep`` rows (unchanged when all stay)."""
    if len(keep) != n:
        vectors = [[vec[i] for i in keep] for vec in vectors]
    return vectors, len(keep)


def _first_per_partition(program: _Program, n: int) -> List[int]:
    """The rows ``ROW_NUMBER() OVER (PARTITION BY … ORDER BY …) = 1`` keeps, in row order.

    Each partition keeps its least row under :func:`_sort_key`; ``min``
    returns the first of equal keys, so ties keep the earliest row, as a
    stable sort does.
    """
    partition_fns, order_fn, descending = program.partition, program.order, program.descending
    partitions: Dict[Tuple, List[int]] = {}
    for i in range(n):
        key = tuple(_hashable(fn(i)) for fn in partition_fns)
        partitions.setdefault(key, []).append(i)
    firsts = [
        min(indices, key=lambda i: _sort_key(order_fn(i), descending))
        for indices in partitions.values()
    ]
    return sorted(firsts)


def _hashable(value: Any) -> Any:
    if is_null(value):
        return "\0null"
    if isinstance(value, (list, dict, set)):
        return str(value)
    return value


class _Descending:
    """Text that sorts in reverse code-point order: the DESC key of a string."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __eq__(self, other: "_Descending") -> bool:  # type: ignore[override]
        return self.text == other.text

    def __lt__(self, other: "_Descending") -> bool:
        return other.text < self.text


def _sort_key(value: Any, descending: bool) -> Tuple:
    """The ORDER BY key of one value: the least key comes first.

    One total order over every value, as SQL engines order storage classes:
    numbers (bools as 0/1) by value, before text (``str`` of anything else)
    by code point, so ``'ab'`` follows ``'a'``.  ``descending`` reverses
    both, and NULL and NaN (``is_null`` covers both) come last either way.
    """
    if is_null(value):
        return (2,)
    if isinstance(value, (bool, int, float)):
        number = int(value) if isinstance(value, bool) else value
        return (1, -number) if descending else (0, number)
    text = str(value)
    return (0, _Descending(text)) if descending else (1, text)


def _output_names(select: Select, source_columns: Sequence[str]) -> List[str]:
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


def _expression_label(expr: Expression, index: int) -> str:
    if isinstance(expr, Cast):
        inner = expr.operand
        if isinstance(inner, ColumnRef):
            return inner.name
    if isinstance(expr, CaseWhen):
        return f"case_{index}"
    return f"col_{index}"
