"""The Cocoon cleaning pipeline."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.core.context import ROW_ID_COLUMN, CleaningConfig, CleaningContext
from repro.core.hil import AutoApprove, HumanInTheLoop
from repro.core.result import CleaningResult, OperatorResult
from repro.core.workflow import default_operators
from repro.core.operators import CleaningOperator
from repro.dataframe.column import Column
from repro.dataframe.io import read_csv
from repro.dataframe.schema import ColumnType
from repro.dataframe.table import Table
from repro.llm.base import LLMClient
from repro.llm.simulated import SimulatedSemanticLLM
from repro.obs import span as obs_span
from repro.obs.lineage import LineageRecorder
from repro.sql.database import Database


def run_operators(
    context: CleaningContext,
    hil: HumanInTheLoop,
    operators: Optional[Sequence[CleaningOperator]] = None,
) -> List[OperatorResult]:
    """Run cleaning operators against a prepared context.

    This is the single execution path shared by :class:`CocoonCleaner` and the
    streaming engine, which passes its own operator subset.  ``operators``
    runs exactly those operators, in the order given; None means the
    canonical workflow order of the issues the context's config enables.
    """
    if operators is None:
        operators = default_operators(context.config.enabled_issues)
    results: List[OperatorResult] = []
    for operator in operators:
        with obs_span(f"operator.{operator.issue_type}") as sp:
            operator_results = operator.run(context, hil)
            sp.annotate(
                targets=len(operator_results),
                llm_calls=sum(r.llm_calls for r in operator_results),
            )
        results.extend(operator_results)
    return results


class CocoonCleaner:
    """End-to-end data cleaning with LLM-backed semantic judgement.

    Typical use::

        cleaner = CocoonCleaner()                 # simulated LLM, auto-approve HIL
        result = cleaner.clean(table)
        print(result.sql_script)                  # the interpretable artifact
        cleaned = result.cleaned_table            # the repaired table

    Pass ``llm=AnthropicClient(...)`` for a hosted model and a
    :class:`~repro.core.hil.CallbackReviewer` to put a human in the loop.
    """

    def __init__(
        self,
        llm: Optional[LLMClient] = None,
        config: Optional[CleaningConfig] = None,
        hil: Optional[HumanInTheLoop] = None,
    ):
        self.llm = llm if llm is not None else SimulatedSemanticLLM()
        self.config = config or CleaningConfig()
        self.hil = hil or AutoApprove()
        self.database = Database()
        # Original table name → the base name it was assigned in the database.
        # Distinct originals that sanitise identically ("My Data" / "my-data")
        # get numeric suffixes instead of silently overwriting each other.
        self._assigned_names: Dict[str, str] = {}

    # -- public API -------------------------------------------------------------
    def clean(self, table: Table) -> CleaningResult:
        """Clean an in-memory table and return repairs, SQL and the cleaned table."""
        base_name = self._base_name_for(table.name or "dataset")
        working = self._with_row_ids(table, base_name)
        self.database.register(working, replace=True)
        lineage = LineageRecorder(phase="batch")
        context = CleaningContext(
            self.database, self.llm, base_name, config=self.config, lineage=lineage
        )

        llm_calls_before = self.llm.call_count
        with obs_span(
            "pipeline.clean", table=table.name or base_name, rows=table.num_rows
        ) as sp:
            operator_results = run_operators(context, self.hil)
            sp.annotate(llm_calls=self.llm.call_count - llm_calls_before)

        cleaned_with_ids = context.current_table()
        cleaned = cleaned_with_ids.drop([ROW_ID_COLUMN]).rename(table.name)
        result = CleaningResult(
            table_name=table.name,
            dirty_table=table,
            cleaned_table=cleaned,
            operator_results=operator_results,
            sql_script=self._render_script(
                base_name, [r.sql for r in operator_results if r.applied]
            ),
            llm_calls=self.llm.call_count - llm_calls_before,
            base_table=base_name,
            lineage=lineage,
        )
        return result

    def clean_csv(self, path: Union[str, Path]) -> CleaningResult:
        """Convenience wrapper: read a CSV file and clean it."""
        return self.clean(read_csv(path, infer_types=False))

    # -- helpers -----------------------------------------------------------------
    def _base_name_for(self, original: str) -> str:
        """Assign a unique database base name for an original table name.

        Cleaning the same table again reuses its assigned name (the re-run
        replaces the old registration); a *different* original that happens to
        sanitise to an already-claimed name is disambiguated with a numeric
        suffix so two tables never clobber each other in the shared database.
        """
        if original in self._assigned_names:
            return self._assigned_names[original]
        base = self._sanitise_name(original)
        claimed = set(self._assigned_names.values())
        candidate = base
        counter = 1
        while candidate in claimed or self.database.has_table(candidate):
            counter += 1
            candidate = f"{base}_{counter}"
        self._assigned_names[original] = candidate
        return candidate

    @staticmethod
    def _sanitise_name(name: str) -> str:
        cleaned = re.sub(r"[^A-Za-z0-9_]", "_", name).strip("_").lower()
        return cleaned or "dataset"

    @staticmethod
    def _with_row_ids(table: Table, base_name: str) -> Table:
        """Attach the hidden row-id column that carries row identity through SQL."""
        if ROW_ID_COLUMN in table.column_names:
            return table.rename(base_name)
        row_ids = Column(ROW_ID_COLUMN, list(range(table.num_rows)), ColumnType.INTEGER)
        return Table(base_name, [row_ids] + list(table.columns))

    @staticmethod
    def _render_script(base_name: str, statements: Sequence[str]) -> str:
        header = (
            f"-- Cocoon cleaning pipeline for table {base_name}\n"
            f"-- Each statement materialises one cleaning step; reasoning is preserved as comments.\n"
        )
        if not statements:
            return header + "-- No cleaning steps were necessary.\n"
        return header + "\n\n".join(f"{statement};" for statement in statements) + "\n"
