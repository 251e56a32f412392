"""``python -m repro.stream`` CLI: CSV mode, directory mode, outputs."""

from __future__ import annotations

import json

import pytest

from repro.dataframe.io import read_csv, write_csv
from repro.datasets import load_dataset
from repro.stream.cli import main


@pytest.fixture(scope="module")
def hospital():
    return load_dataset("hospital", seed=0, scale=0.05)


class TestCsvMode:
    def test_streams_file_and_writes_outputs(self, tmp_path, hospital, capsys):
        source = tmp_path / "hospital.csv"
        write_csv(hospital.dirty, source)
        out = tmp_path / "out"
        code = main([str(source), "--batch-rows", "20", "--out", str(out), "--no-drift"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "prime" in captured and "replay" in captured

        stats = json.loads((out / "stream_stats.json").read_text(encoding="utf-8"))
        assert stats["batches"] == 3
        assert stats["rows_ingested"] == hospital.dirty.num_rows
        assert stats["primes"] == 1
        assert stats["replans"] == 0

        cleaned = read_csv(out / "hospital_cleaned.csv", infer_types=False)
        assert cleaned.num_rows == stats["rows_emitted"]
        batch_files = sorted(out.glob("batch_*.csv"))
        assert len(batch_files) == 3
        emitted = sum(read_csv(p, infer_types=False).num_rows for p in batch_files)
        assert emitted == stats["rows_emitted"]

    def test_prime_rows_buffers_before_priming(self, tmp_path, hospital, capsys):
        source = tmp_path / "h.csv"
        write_csv(hospital.dirty, source)
        out = tmp_path / "out"
        code = main([str(source), "--batch-rows", "10", "--prime-rows", "30",
                     "--out", str(out), "--no-drift", "--quiet"])
        assert code == 0
        stats = json.loads((out / "stream_stats.json").read_text(encoding="utf-8"))
        assert stats["primes"] == 1
        # Batches 0-1 buffered, batch 2 primed, batches 3-4 replayed.
        assert stats["replayed_batches"] == 2
        assert stats["rows_emitted"] == hospital.dirty.num_rows

    def test_quiet_suppresses_batch_lines(self, tmp_path, hospital, capsys):
        source = tmp_path / "h.csv"
        write_csv(hospital.dirty, source)
        assert main([str(source), "--batch-rows", "30", "--no-drift", "--quiet"]) == 0
        assert "[batch" not in capsys.readouterr().out


class TestDirectoryMode:
    def test_processes_landed_files_in_name_order(self, tmp_path, hospital, capsys):
        landing = tmp_path / "landing"
        landing.mkdir()
        n = hospital.dirty.num_rows
        for i, (a, b) in enumerate([(0, 20), (20, 40), (40, n)]):
            write_csv(hospital.dirty.take(list(range(a, b))), landing / f"part_{i:02d}.csv")
        out = tmp_path / "out"
        code = main([str(landing), "--batch-rows", "100", "--out", str(out), "--no-drift"])
        assert code == 0
        stats = json.loads((out / "stream_stats.json").read_text(encoding="utf-8"))
        assert stats["batches"] == 3
        assert stats["rows_ingested"] == n


class TestArgumentValidation:
    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "ghost.csv")]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_bad_batch_rows_exits_2(self, tmp_path, capsys):
        source = tmp_path / "x.csv"
        source.write_text("a\n1\n", encoding="utf-8")
        assert main([str(source), "--batch-rows", "0"]) == 2
        assert "--batch-rows" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-0.1"])
    def test_bad_drift_threshold_exits_2(self, tmp_path, capsys, threshold):
        source = tmp_path / "x.csv"
        source.write_text("a\n1\n", encoding="utf-8")
        assert main([str(source), f"--drift-threshold={threshold}"]) == 2
        assert "--drift-threshold" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--poll", "-1"),
            ("--poll", "0"),
            ("--poll", "nan"),
            ("--poll", "inf"),
            ("--max-files", "0"),
            ("--max-files", "-2"),
            ("--idle-polls", "0"),
            ("--idle-polls", "-1"),
        ],
    )
    def test_bad_directory_flags_exit_2(self, tmp_path, capsys, flag, value):
        # Valid values of the other flags come first, so only the bad one can
        # stop the tail; the later occurrence of a flag wins.
        args = [str(tmp_path), "--follow", "--poll", "0.01", "--idle-polls", "1", flag, value]
        assert main(args) == 2
        assert flag in capsys.readouterr().err
