"""Pin every operator's per-target outcome and the lineage it records.

Each registry dataset (scale 0.05) and the two extra fixtures of
``test_apply_step.py`` (hospital with replayed rows, the ``keys`` table) is
cleaned twice: under the simulated model, and under a model that answers
every prompt with text holding no JSON and no mapping.  Per run, two
SHA-256 hashes are pinned:

* ``outcomes`` — every :class:`~repro.core.result.OperatorResult`'s issue,
  target, skip reason, finding fields, LLM call count, SQL, repair count
  and removed row ids;
* ``lineage`` — every lineage record, its ``llm`` provenance included
  (trace and span ids, which depend on the tracer, are left out).

A refactor of the operators must leave every hash unchanged.  To print
the current hashes after an intended change::

    PYTHONPATH=src python tests/core/test_operator_outcomes.py
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

import pytest

from repro.core import CocoonCleaner
from repro.core.result import CleaningResult, OperatorResult
from repro.llm.base import LLMClient
from repro.llm.simulated import SimulatedSemanticLLM

from test_apply_step import _runs


class UnparseableLLM(LLMClient):
    """A model whose every answer is prose: no JSON object, no mapping."""

    model_name = "unparseable"

    def _complete(self, prompt: str, system: Optional[str] = None) -> str:
        return "no json here"


MODELS = {"simulated": SimulatedSemanticLLM, "unparseable": UnparseableLLM}


def _outcome(op: OperatorResult) -> list:
    finding = op.finding
    return [
        op.issue_type,
        op.target,
        op.skipped_reason,
        None
        if finding is None
        else [
            finding.issue_type,
            finding.target,
            finding.statistical_evidence,
            finding.detected,
            finding.llm_reasoning,
            finding.llm_summary,
        ],
        op.llm_calls,
        op.sql,
        len(op.repairs),
        op.removed_row_ids,
    ]


def _sha(doc) -> str:
    text = json.dumps(doc, default=str, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def outcome_hashes(result: CleaningResult) -> Dict[str, str]:
    """SHA-256 of the per-target outcomes and of the lineage of one clean."""
    records = [
        {k: v for k, v in record.items() if k not in ("trace_id", "span_id")}
        for record in sorted(result.lineage.records, key=lambda r: r["seq"])
    ]
    return {
        "outcomes": _sha([_outcome(op) for op in result.operator_results]),
        "lineage": _sha(records),
    }


def _clean_all():
    """(run name, model name) -> the clean's result."""
    out = {}
    for name, table in _runs():
        for model, factory in MODELS.items():
            out[(name, model)] = CocoonCleaner(llm=factory()).clean(table)
    return out


@pytest.fixture(scope="module")
def cleaned():
    return _clean_all()


EXPECTED: Dict[str, Dict[str, str]] = {
    "hospital/simulated": {
        "outcomes": "c4faeef051412217adabc59374442398159bcabb640d9c5686e99ff6e630438d",
        "lineage": "782053e3d6eae46a7cb6a91a3a19afb5d1181b2ea24538015f26f75fa6dfbdb0",
    },
    "hospital/unparseable": {
        "outcomes": "51c6a01f26361cc6d69e819b0618669aac7c2cf61f557cc2b5eee17394722e45",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "flights/simulated": {
        "outcomes": "c43a45cc1bc4e54d04a95c74567fdccdc89e3efa427fd5693c22d2b415e419bc",
        "lineage": "eaa2eb2b8436ac9e143d5105dcf7307bd61268cb66187eab3ec251a92030765d",
    },
    "flights/unparseable": {
        "outcomes": "b349007e19865a4c49ffb7c7ca2bc22bd6fa886246e5539ebeb73b75ef21e488",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "beers/simulated": {
        "outcomes": "2f965747fe23e6cf4413f24abdd8ee434d1e0b0b7f96aebb04af2917f0379d45",
        "lineage": "1502f408a0f597365600745ea6b68e8a0ee0ec75a0382f7792b1c6f768aaf3cd",
    },
    "beers/unparseable": {
        "outcomes": "6d616b21df683d26189556635dabf9b450d0a337c37809eab0d3bec2f41f9bbe",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "rayyan/simulated": {
        "outcomes": "708e2d5c26a4f5f1ed7a05fe781e9df0c166577081ea4e808c7ba9e3c4c1eadc",
        "lineage": "7bc88e3aa0995f905db8e753c1919e3fcee92cded111a50ca534fc4b8e3958f9",
    },
    "rayyan/unparseable": {
        "outcomes": "3f919d6bd9da1427470ff227180be13483f2464d28953960b3be1a22e27ae517",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "movies/simulated": {
        "outcomes": "dd5f3621902deec54a8dc88c386c3762c9a984f649c2eb75443ef962b7d8de71",
        "lineage": "a7c52697a480a3b380c342e5d01f06db8c1bc908432b8e6634f6055ffd086739",
    },
    "movies/unparseable": {
        "outcomes": "d481c7581b0e3506da17399ec0bd3bb90b38f685030deadb4aaf5582c223eac7",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "hospital+duplicates/simulated": {
        "outcomes": "4b45b9a86bb6dc4bb216a3ae274c5b47de7a57c3ee94b74cc26aa395e7511860",
        "lineage": "43e45294ccd90bb3abb0bd627385d9c2b3da8dab14627e3920d4d8affb430ab8",
    },
    "hospital+duplicates/unparseable": {
        "outcomes": "849b65145aded20761db222d488cb3a0bbd5259768806695ca9563835fa7d6cf",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
    "keys/simulated": {
        "outcomes": "ec66e5373eee2b831cf6e8e47a0ea51301898f9e7aa0ab73b25d4b5ac0b57a7c",
        "lineage": "2f2929894bbfc46aab1d70e95d99dfb00bc073a0fec56cc089bc239fab7413f7",
    },
    "keys/unparseable": {
        "outcomes": "dd71a8a71020f67c2786a53079d075bf6b576a9dee00465ff1b15d3c9d609490",
        "lineage": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    },
}


class TestOperatorOutcomes:
    def test_every_run_is_pinned(self, cleaned):
        assert sorted(EXPECTED) == sorted(f"{name}/{model}" for name, model in cleaned)

    def test_outcomes_and_lineage_match_the_pins(self, cleaned):
        actual = {f"{name}/{model}": outcome_hashes(r) for (name, model), r in cleaned.items()}
        assert actual == EXPECTED

    def test_per_target_calls_sum_to_the_clean(self, cleaned):
        for key, result in cleaned.items():
            assert sum(op.llm_calls for op in result.operator_results) == result.llm_calls, key
            assert result.llm_calls > 0, key

    def test_unparseable_answers_apply_nothing(self, cleaned):
        for (name, model), result in cleaned.items():
            if model == "unparseable":
                assert not any(op.applied for op in result.operator_results), name
                assert not result.lineage.records, name

    def test_lineage_provenance_is_the_targets_own_calls(self, cleaned):
        for key, result in cleaned.items():
            calls = {op.step.step_id: op.llm_calls for op in result.operator_results if op.applied}
            for record in result.lineage.records:
                if record["event"] == "edit":
                    assert len(record["llm"]) == calls[record["step_id"]], key


if __name__ == "__main__":
    for (name, model), result in _clean_all().items():
        print(f'    "{name}/{model}": {{')
        for key, digest in outcome_hashes(result).items():
            print(f'        "{key}": "{digest}",')
        print("    },")
