"""Fast checks of the benchmark harness itself (tiny inputs, seconds each).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
if str(ROOT) not in sys.path:
    sys.path.append(str(ROOT))

from perfbench import inputs, run  # noqa: E402
from perfbench.layers import (  # noqa: E402
    Instrument,
    SpanRecord,
    assert_pristine,
    current_bindings,
    self_times,
)
from perfbench.workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(capsys, workload: str, trace: int) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_workload_prints_every_metric_with_its_unit(capsys, workload, trace):
    doc = run_tiny(capsys, workload, trace)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in doc["metrics"].values()), doc["metrics"]
    else:
        assert doc["metrics"]["bench.unattributed_ratio"]["value"] <= run.MAX_UNATTRIBUTED


def _flip(table, row=0):
    column = table.column_names[-1]
    return table.set_cell(row, column, "corrupted-cell")


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_one_flipped_cleaned_cell_counts_as_failed(capsys, monkeypatch, workload):
    from repro.core.pipeline import CocoonCleaner
    from repro.dataframe.io import read_csv_text, to_csv_text
    from repro.server.gateway import CleaningGateway
    from repro.stream import StreamingCleaner

    if workload.startswith("clean-"):
        original = CocoonCleaner.clean

        def corrupted(self, table):
            result = original(self, table)
            result.cleaned_table = _flip(result.cleaned_table)
            return result

        monkeypatch.setattr(CocoonCleaner, "clean", corrupted)
    elif workload == "stream-upsert":
        original = StreamingCleaner.cleaned_table
        monkeypatch.setattr(StreamingCleaner, "cleaned_table", lambda self: _flip(original(self)))
    else:
        original = CleaningGateway.job_result

        def corrupted(self, job_id):
            doc = original(self, job_id)
            doc["csv"] = to_csv_text(_flip(read_csv_text(doc["csv"], infer_types=False)))
            return doc

        monkeypatch.setattr(CleaningGateway, "job_result", corrupted)
    doc = run_tiny(capsys, workload, 0)
    assert doc["correct"] is False and doc["failed"] >= 1


def test_installing_and_removing_wrappers_restores_every_binding():
    from repro.core import context
    from repro.llm.base import LLMClient
    from repro.profiling.table_profile import profile_table

    before = current_bindings()
    instrument = Instrument()
    with pytest.raises(RuntimeError):
        with instrument.installed():
            assert LLMClient.complete is not before[(id(LLMClient), "complete")]
            # Module functions are wrapped under every alias, not just at home.
            assert context.profile_table is not profile_table
            raise RuntimeError("leave the block early")
    after = current_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert context.profile_table is profile_table
    assert_pristine()


def test_self_times_add_up_to_the_root_span():
    spans = [
        SpanRecord("core:operation", 1, None, 0.0, 10.0),
        SpanRecord("profiling:profile_table", 2, 1, 1.0, 4.0),
        SpanRecord("profiling.fd:discover_fds", 3, 2, 2.0, 3.0),
        SpanRecord("llm:LLMClient.complete", 4, 1, 5.0, 9.0),
    ]
    split = self_times(spans)
    assert split == {"core": 3.0, "profiling": 2.0, "profiling.fd": 1.0, "llm": 4.0}
    assert sum(split.values()) == 10.0
    # Overlapping children on other threads are charged to the root once.
    overlapping = spans[:1] + [
        SpanRecord("core:CocoonCleaner.clean", 5, 1, 1.0, 6.0),
        SpanRecord("dataframe:read_csv_text", 6, 1, 5.0, 7.0),
    ]
    assert self_times(overlapping)["core"] == pytest.approx(4.0 + 5.0)


def test_inputs_are_a_function_of_the_seed():
    assert inputs.job_list(4, 2)[0].csv_text == inputs.job_list(4, 2)[0].csv_text
    assert inputs.job_list(4, 4)[0].csv_text != inputs.job_list(5, 4)[0].csv_text
    first, second = inputs.upsert_stream(4, 3), inputs.upsert_stream(4, 3)
    assert first.backfill == second.backfill and first.batches == second.batches
    assert inputs.upsert_stream(5, 3).backfill != first.backfill
    ids = first.backfill.column("record_id").values
    assert 0.95 <= len(set(ids)) / len(ids) < 1.0
    stamps = [t for table in [first.backfill] + first.batches for t in table.column("updated_at").values]
    assert stamps == sorted(stamps)


def test_a_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("traces", "__pycache__"))
    command = BENCHMARK["command"] + ["--workload", "clean-hospital", "--seed", "1", "--seconds", "1", "--trace", "0"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout
