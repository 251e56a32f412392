"""The SELECT stage pipeline: which ``sql.*`` stage spans a statement opens.

A statement runs scan → qualify → project: the scan only when it has a
``FROM``, the qualify stage only when it has a ``QUALIFY``.  Each stage
opens its own span under the statement's ``sql.query`` span.
"""

import pytest

from repro import obs

QUALIFY = "QUALIFY ROW_NUMBER() OVER (PARTITION BY city ORDER BY age) = 1"


def stage_spans(db, sql):
    """The child spans of the statement's ``sql.query`` span, in order."""
    with obs.span("test.stages", force=True) as root:
        db.sql(sql)
    (query,) = root.children
    assert query.name == "sql.query"
    return query.children


@pytest.mark.parametrize(
    "sql, stages",
    [
        ("SELECT name FROM people", ["sql.scan", "sql.project"]),
        (f"SELECT name FROM people {QUALIFY}", ["sql.scan", "sql.qualify", "sql.project"]),
        ("SELECT 1", ["sql.project"]),
    ],
    ids=["scan-project", "full-pipeline", "no-from-no-scan"],
)
def test_stage_spans(db, sql, stages):
    assert [span.name for span in stage_spans(db, sql)] == stages


def test_stages_report_the_rows_they_pass_on(db):
    spans = {s.name: s.attrs for s in stage_spans(db, f"SELECT name, age FROM people {QUALIFY}")}
    assert spans["sql.scan"] == {"source": "people", "rows_out": 5}
    # NY, New York and LA each keep their youngest row.
    assert spans["sql.qualify"] == {"rows_in": 5, "rows_out": 3}
    assert spans["sql.project"] == {"rows_in": 3, "columns": 2}
