"""Every corpus of the sqlite differential replays alike under the interpreter oracle.

:func:`repro.sql.differential.run_all` cleans each registry dataset and
golden scenario and checks its plan against sqlite3.  This test takes the
same corpora from ``run_all`` itself, swapping its per-corpus check for a
replay: ``plan.emit(ReproDialect())`` runs on a fresh database on the
compiled closures, and again on a fresh database under the interpreter
oracle (``interpreter_oracle.py``).  The two final tables must have the same
column names, dtypes and row order, and every cell must be NULL on both
sides or equal with the same type.
"""

from __future__ import annotations

from repro.core.pipeline import CocoonCleaner
from repro.core.plan import extract_plan
from repro.dataframe.schema import is_null
from repro.sql import differential

from interpreter_oracle import interpreted


def replay_on_both_engines(dirty, name, kind, config=None):
    plan = extract_plan(CocoonCleaner(config=config).clean(dirty))
    dirty_with_ids = differential._with_row_ids(dirty, plan.base_table)
    compiled = differential.run_plan_in_process(plan, dirty_with_ids)
    with interpreted() as oracle:
        reference = differential.run_plan_in_process(plan, dirty_with_ids)
    return f"{kind} {name}", compiled, reference, oracle.calls


def differing_cells(compiled, reference):
    return [
        (column.name, row, a, b)
        for column, other in zip(compiled.columns, reference.columns)
        for row, (a, b) in enumerate(zip(column.values, other.values))
        if not (is_null(a) and is_null(b)) and not (type(a) is type(b) and a == b)
    ]


def test_every_corpus_replays_alike_under_the_oracle(monkeypatch):
    monkeypatch.setattr(differential, "run_differential", replay_on_both_engines)
    replays = differential.run_all()
    assert replays
    for corpus, compiled, reference, calls in replays:
        assert calls > 0, corpus
        assert compiled.column_names == reference.column_names, corpus
        assert [c.dtype for c in compiled.columns] == [c.dtype for c in reference.columns], corpus
        assert compiled.num_rows == reference.num_rows, corpus
        assert differing_cells(compiled, reference) == [], corpus
