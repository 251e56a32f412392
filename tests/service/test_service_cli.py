"""``python -m repro.service``: argument handling and one end-to-end run."""

import pytest

from repro.dataframe.io import read_csv, write_csv
from repro.datasets import load_dataset
from repro.service.cli import main


def test_removed_chunk_rows_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--input-dir", str(tmp_path), "--output-dir", str(tmp_path), "--chunk-rows", "100"])
    assert exit_info.value.code == 2
    assert "--chunk-rows" in capsys.readouterr().err


def test_cleans_every_csv_in_the_directory(tmp_path, capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    write_csv(load_dataset("hospital", seed=0, scale=0.05).dirty, inputs / "hospital.csv")
    output = tmp_path / "out"
    assert main(["--input-dir", str(inputs), "--output-dir", str(output), "--workers", "1", "--no-reports"]) == 0
    assert read_csv(output / "hospital_cleaned.csv").num_rows > 0
    assert "[succeeded] hospital" in capsys.readouterr().out
