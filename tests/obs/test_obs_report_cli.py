"""Flame renderings and the ``python -m repro.obs`` CLI."""

import json

from repro.obs.cli import main as obs_main
from repro.obs.report import render_flame, render_file_summary, summarise_spans
from repro.obs.trace import Tracer


def _sample_trace():
    tracer = Tracer(enabled=True)
    with tracer.span("service.job", trace_id="job-1", job_id=1) as root:
        with tracer.span("pipeline.clean", table="t", rows=10):
            with tracer.span("operator.disguised_missing_value") as op:
                op.count("llm_calls", 2)
                op.count("llm:dmv_detection", 2)
                op.count("cache_hits", 1)
                op.count("cache_misses", 1)
            with tracer.span("sql.query", statement="SELECT * FROM t"):
                with tracer.span("sql.scan", source="t", rows_out=10):
                    pass
                with tracer.span("sql.qualify", rows_in=10, rows_out=7):
                    pass
    return root.to_dict()


class TestRenderings:
    def test_flame_lists_every_level_with_share(self):
        text = render_flame(_sample_trace())
        lines = text.splitlines()
        assert lines[0].startswith("service.job")
        assert any(line.strip().startswith("pipeline.clean") for line in lines)
        assert any("operator.disguised_missing_value" in line for line in lines)
        assert any("sql.qualify" in line for line in lines)
        assert "100.0%" in lines[0]
        assert "[llm=2, hit=1, miss=1]" in text

    def test_flame_depth_limit(self):
        text = render_flame(_sample_trace(), max_depth=0)
        assert text.count("\n") == 0  # only the root line survives

    def test_summarise_aggregates_llm_and_sql(self):
        summary = summarise_spans([_sample_trace(), _sample_trace()])
        assert summary["traces"] == 2
        assert summary["llm_by_purpose"] == {"dmv_detection": 4}
        assert summary["cache"] == {"hits": 2, "misses": 2, "hit_rate": 0.5}
        assert summary["by_name"]["sql.qualify"]["count"] == 2
        # sql.query itself is not a plan node; scan/qualify are.
        assert {label.split()[0] for _, label in summary["sql_nodes"]} == {
            "sql.scan",
            "sql.qualify",
        }
        labels = {label for _, label in summary["sql_nodes"]}
        assert labels == {"sql.scan rows=10", "sql.qualify rows 10 -> 7"}

    def test_file_summary_mentions_top_spans(self):
        text = render_file_summary([_sample_trace()])
        assert "traces      : 1" in text
        assert "service.job" in text
        assert "llm:dmv_detection" in text


class TestCli:
    def _write_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(json.dumps(_sample_trace()) + "\n", encoding="utf-8")
        return path

    def test_validate_mode(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert obs_main([str(path), "--validate"]) == 0
        assert "1 trace lines, schema ok" in capsys.readouterr().out

    def test_summary_and_flame(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        assert obs_main([str(path), "--flame"]) == 0
        out = capsys.readouterr().out
        assert "top spans by cumulative wall time" in out
        assert "--- trace job-1 ---" in out

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert obs_main([str(tmp_path / "nope.jsonl")]) == 2
        assert "no such trace file" in capsys.readouterr().err

    def test_invalid_file_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"name": "x"}\n', encoding="utf-8")
        assert obs_main([str(path)]) == 1
        assert "invalid trace file" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert obs_main([str(path)]) == 0
        assert "empty" in capsys.readouterr().out
