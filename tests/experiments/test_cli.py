"""``python -m repro.experiments`` argument handling and golden workflow."""

from __future__ import annotations

import json

import pytest

from repro.experiments.__main__ import build_parser, main

SCALE = "0.03"
ARGS_FAST = ["--datasets", "hospital", "--systems", "CleanAgent", "RetClean", "--scale", SCALE]


class TestArgumentValidation:
    def test_unknown_dataset_exits_nonzero_listing_choices(self, capsys):
        code = main(["table1", "--datasets", "hospitals", "--scale", SCALE])
        captured = capsys.readouterr()
        assert code == 2
        assert "hospitals" in captured.err
        assert "hospital" in captured.err and "movies" in captured.err
        assert captured.out == ""  # nothing ran

    def test_unknown_system_exits_nonzero_listing_choices(self, capsys):
        code = main(["table1", "--systems", "Cocoon", "ChatGPT", "--scale", SCALE])
        captured = capsys.readouterr()
        assert code == 2
        assert "ChatGPT" in captured.err
        assert "HoloClean" in captured.err and "Cocoon" in captured.err

    def test_unknown_artifact_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["table9"])
        assert excinfo.value.code == 2

    def test_refresh_requires_golden(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--refresh"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--no-resume"]])
    def test_removed_grid_flags_rejected(self, flag, capsys):
        # The grid runs sequentially and writes --out once; the pool and
        # resume flags are gone, so argparse rejects them.
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix"] + flag)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    def test_bad_scale_rejected(self, scale, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table2", "--datasets", "hospital", "--scale", scale])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "--scale must be a finite number > 0" in captured.err
        assert captured.out == ""  # nothing ran

    def test_parser_exposes_all_artifacts(self):
        parser = build_parser()
        text = parser.format_help()
        for artifact in ("table1", "table2", "table3", "figure-f1", "matrix", "all"):
            assert artifact in text


class TestArtifactOutput:
    def test_table1_prints_the_table(self, capsys):
        assert main(["table1"] + ARGS_FAST) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "CleanAgent" in out and "RetClean" in out
        assert "Cocoon" not in out.split("Paper-reported")[0]

    def test_figure_f1_prints_the_chart(self, capsys):
        assert main(["figure-f1"] + ARGS_FAST) == 0
        assert "F1 comparison across systems" in capsys.readouterr().out

    def test_matrix_prints_summary_and_writes_the_run_once(self, tmp_path, capsys):
        out_path = tmp_path / "results.json"
        # A stale document at the path is replaced, never resumed from.
        out_path.write_text(json.dumps({"cells": {"table1/stale": {}}}))
        code = main(["matrix", "--out", str(out_path)] + ARGS_FAST)
        captured = capsys.readouterr()
        assert code == 0
        summary = captured.out.strip().splitlines()[-1]
        assert summary.startswith("matrix: 5 cells in 3 repair groups; wall ")
        assert summary.endswith(" 0 LLM calls")
        document = json.loads(out_path.read_text())
        assert document["schema_version"] == 1
        assert document["config"]["datasets"] == ["hospital"]
        assert sorted(document["cells"]) == [
            "table1/hospital/CleanAgent/seed=0/scale=0.03",
            "table1/hospital/RetClean/seed=0/scale=0.03",
            "table2/hospital/census/seed=0/scale=0.03",
            "table3/hospital/CleanAgent/seed=0/scale=0.03",
            "table3/hospital/RetClean/seed=0/scale=0.03",
        ]
        for cell in document["cells"].values():
            assert set(cell["timing"]) == {"runtime_seconds"}


class TestGoldenWorkflow:
    def test_refresh_then_check_then_tamper(self, tmp_path, capsys):
        golden_path = tmp_path / "GOLDEN.json"
        refresh = ["matrix", "--golden", "--refresh", "--golden-path", str(golden_path)] + ARGS_FAST
        assert main(refresh) == 0
        assert "refreshed" in capsys.readouterr().out

        # The check reruns the config recorded in the corpus, whatever the CLI says.
        out_path = tmp_path / "results.json"
        check = ["matrix", "--golden", "--golden-path", str(golden_path), "--out", str(out_path)]
        assert main(check) == 0
        assert "passed" in capsys.readouterr().out
        # A golden check still writes the run it checked (CI uploads it).
        assert json.loads(out_path.read_text())["cells"].keys() == json.loads(golden_path.read_text())["cells"].keys()

        document = json.loads(golden_path.read_text())
        cell_id = next(iter(document["cells"]))
        document["cells"][cell_id]["total_errors"] = 99999
        golden_path.write_text(json.dumps(document))
        assert main(check) == 1
        drift = capsys.readouterr().out
        assert "drift" in drift and "99999" in drift and cell_id in drift

    def test_check_without_corpus_exits_2(self, tmp_path, capsys):
        code = main(["matrix", "--golden", "--golden-path", str(tmp_path / "missing.json")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_check_rejects_explicit_grid_flags(self, capsys):
        # A --golden check runs the corpus config; restricting it would
        # silently check something else, so the flags are rejected.
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--golden", "--scale", "0.5", "--datasets", "hospital"])
        assert excinfo.value.code == 2
