"""Interpretable outputs: the commented SQL pipeline and an HTML report.

Appendix A of the paper describes the user-facing artifacts: an HTML report
that walks through each cleaning step with the LLM's reasoning, and the SQL
pipeline whose comments document why each transformation was applied.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import List, Union

from repro.core.result import CleaningResult


def render_sql_pipeline(result: CleaningResult) -> str:
    """The commented SQL script (Figure 5 of the paper)."""
    return result.sql_script


def render_html_report(result: CleaningResult, max_preview_rows: int = 10) -> str:
    """Render the cleaning run as a standalone HTML document (Figure 4)."""
    parts: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Cocoon cleaning report: {html.escape(result.table_name)}</title>",
        "<style>",
        "body { font-family: sans-serif; margin: 2em; color: #222; }",
        "h1 { color: #234; } h2 { color: #345; margin-top: 1.5em; }",
        "table { border-collapse: collapse; margin: 0.5em 0; }",
        "td, th { border: 1px solid #bbb; padding: 2px 8px; font-size: 13px; }",
        ".step { border-left: 4px solid #68a; padding-left: 1em; margin: 1em 0; }",
        ".skipped { color: #888; }",
        ".reasoning { background: #f4f7fb; padding: 0.5em; border-radius: 4px; }",
        "pre { background: #f6f6f6; padding: 0.75em; overflow-x: auto; font-size: 12px; }",
        "</style></head><body>",
        f"<h1>Cocoon cleaning report: {html.escape(result.table_name)}</h1>",
        f"<p>{result.dirty_table.num_rows} rows &times; {result.dirty_table.num_columns} columns; "
        f"{len(result.repairs)} cell repairs; {len(result.removed_row_ids)} rows removed; "
        f"{result.llm_calls} LLM calls.</p>",
    ]
    parts.append("<h2>Cleaning steps</h2>")
    for step in result.operator_results:
        parts.append("<div class='step'>")
        parts.append(f"<h3>{html.escape(step.issue_type)} &mdash; {html.escape(step.target)}</h3>")
        if step.finding is not None:
            parts.append(
                f"<p><b>Statistical evidence:</b> {html.escape(step.finding.statistical_evidence)}</p>"
            )
            parts.append(
                f"<div class='reasoning'><b>LLM reasoning:</b> {html.escape(step.finding.llm_reasoning)}<br>"
                f"<b>Summary:</b> {html.escape(step.finding.llm_summary)}</div>"
            )
        if step.skipped_reason:
            parts.append(f"<p class='skipped'>Skipped: {html.escape(step.skipped_reason)}</p>")
        elif step.sql:
            parts.append(f"<p>{len(step.repairs)} cells repaired, {len(step.removed_row_ids)} rows removed.</p>")
            parts.append(f"<pre>{html.escape(step.sql)}</pre>")
        else:
            parts.append("<p class='skipped'>No cleaning applied.</p>")
        parts.append("</div>")

    parts.append("<h2>Cleaned data preview</h2>")
    parts.append(_table_preview(result, max_preview_rows))
    parts.append("<h2>Full SQL pipeline</h2>")
    parts.append(f"<pre>{html.escape(result.sql_script)}</pre>")
    parts.append("</body></html>")
    return "\n".join(parts)


def _table_preview(result: CleaningResult, max_rows: int) -> str:
    table = result.cleaned_table
    head = table.head(max_rows)
    cells: List[str] = ["<table><tr>"]
    cells.extend(f"<th>{html.escape(str(c))}</th>" for c in head.column_names)
    cells.append("</tr>")
    for row in head.rows():
        cells.append("<tr>")
        cells.extend(
            f"<td>{html.escape('NULL' if v is None else str(v))}</td>" for v in row.values()
        )
        cells.append("</tr>")
    cells.append("</table>")
    return "".join(cells)


def write_report(result: CleaningResult, directory: Union[str, Path]) -> List[Path]:
    """Write the HTML report and SQL pipeline to ``directory``; return the paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    html_path = directory / f"{result.table_name}_report.html"
    sql_path = directory / f"{result.table_name}_pipeline.sql"
    html_path.write_text(render_html_report(result), encoding="utf-8")
    sql_path.write_text(render_sql_pipeline(result), encoding="utf-8")
    return [html_path, sql_path]
