"""The built-in scenario catalogue.

Each entry is a :class:`~repro.scenarios.spec.ScenarioSpec` exercising one
error family (or a deliberate mix) over a registry dataset at the golden
configuration (seed 0, scale 0.05 — the same knobs ``GOLDEN_experiments``
pins).  The catalogue is what ``GOLDEN_scenarios.json`` is built from and
what the CI ``scenario-smoke`` job replays through a booted server.

Two entries matter beyond coverage:

* ``drift-mid-stream`` — a stationary prefix long enough to prime on and
  clear the drift detector's ``MIN_ROWS`` floor, then a representation
  migration (``schema_evolution``/codes) at rate 1.0.  The replay harness
  asserts this provably triggers the stream re-plan path (a
  ``stream.replan`` span) *and* that the cumulative stream output stays
  byte-identical to the whole-table batch pipeline.
* ``stationary-baseline`` — same traffic shape, no mid-stream change; the
  drift differential test requires the detector to stay silent here.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.workflow import COLUMN_LEVEL_ISSUES
from repro.scenarios.models import (
    AdversarialValueModel,
    DuplicateStormModel,
    FDViolationModel,
    KeywordColumnModel,
    LocaleMixModel,
    NullSpikeModel,
    ScenarioError,
    SchemaEvolutionModel,
    TypoModel,
    UnitDriftModel,
)
from repro.scenarios.spec import ScenarioPhase, ScenarioSpec, TrafficSpec

#: Golden configuration: every built-in uses the same seed/scale the
#: experiment corpus pins, so scenario cells regress on the same axis.
GOLDEN_SEED = 0
GOLDEN_SCALE = 0.05


def _specs() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name="typo-storm",
            base_dataset="hospital",
            models=[
                TypoModel(rate=0.08, columns=["HospitalName", "City", "CountyName"], min_length=4),
                TypoModel(rate=0.05, columns=["MeasureName"], min_length=6),
            ],
            description="Classic single-edit typos concentrated on name-like columns.",
        ),
        ScenarioSpec(
            name="unit-drift",
            base_dataset="beers",
            models=[
                UnitDriftModel(rate=0.15, columns=["abv"], factor=1000.0),
                TypoModel(rate=0.04, columns=["beer_name"], min_length=5),
            ],
            description="abv silently migrates from fraction to per-mille; a few typos ride along.",
        ),
        ScenarioSpec(
            name="schema-evolution",
            base_dataset="hospital",
            models=[
                SchemaEvolutionModel(rate=0.2, columns=["ProviderNumber"], mode="zero_pad", width=8),
                SchemaEvolutionModel(rate=0.25, columns=["EmergencyService"], mode="codes"),
            ],
            description="A producer migrated id width and boolean codes mid-extract.",
        ),
        ScenarioSpec(
            name="locale-mix",
            base_dataset="beers",
            models=[LocaleMixModel(rate=0.12, columns=["abv", "city"])],
            description="Decimal commas and accented vowels from a second locale.",
        ),
        ScenarioSpec(
            name="fd-chaos",
            base_dataset="hospital",
            models=[
                FDViolationModel(rate=0.3, determinant="MeasureCode", dependent="Condition"),
                FDViolationModel(rate=0.15, determinant="ProviderNumber", dependent="ZipCode"),
            ],
            description="Correlated FD violations: whole determinant groups agree on the wrong value.",
        ),
        ScenarioSpec(
            name="duplicate-storm",
            base_dataset="beers",
            models=[DuplicateStormModel(rate=0.15, near_typo_rate=0.4)],
            description="A burst of exact and near duplicates appended to the table.",
        ),
        ScenarioSpec(
            name="adversarial-values",
            base_dataset="flights",
            models=[
                AdversarialValueModel(rate=0.06, columns=["actual_departure", "actual_arrival"]),
                NullSpikeModel(rate=0.05, columns=["scheduled_departure"]),
            ],
            description="'nan'/'inf'/'Infinity', quotes and escapes — the PR 5 bug zoo.",
        ),
        ScenarioSpec(
            name="keyword-columns",
            base_dataset="hospital",
            columns=["City", "State", "Score", "Sample"],
            models=[
                KeywordColumnModel(rate=0.5),
                TypoModel(rate=0.06, min_length=4),
            ],
            description="Half the columns renamed to SQL keywords, typos on the renamed schema.",
        ),
        ScenarioSpec(
            name="dmv-flood",
            base_dataset="rayyan",
            models=[
                NullSpikeModel(rate=0.12, columns=["article_language", "journal_abbreviation"]),
                NullSpikeModel(rate=0.05, columns=["article_pagination"], as_null=True),
            ],
            description="Disguised and genuine missing values spiking across columns.",
        ),
        ScenarioSpec(
            name="drift-mid-stream",
            base_dataset="hospital",
            columns=["City", "State", "EmergencyService", "Score"],
            phases=[
                ScenarioPhase(rows=30, models=[]),
                ScenarioPhase(
                    rows=None,
                    models=[
                        SchemaEvolutionModel(rate=1.0, columns=["EmergencyService"], mode="codes")
                    ],
                ),
            ],
            traffic=TrafficSpec(batch_rows=10, prime_rows=30),
            expect_drift=True,
            batch_parity=True,
            cleaning_issues=list(COLUMN_LEVEL_ISSUES),
            description=(
                "Stationary 30-row prefix, then EmergencyService migrates yes/no -> Y/N "
                "at rate 1.0: the stream must re-plan that column and still match the "
                "batch pipeline byte-for-byte."
            ),
        ),
        ScenarioSpec(
            name="stationary-baseline",
            base_dataset="hospital",
            columns=["City", "State", "EmergencyService", "Score"],
            phases=[
                ScenarioPhase(rows=30, models=[]),
                ScenarioPhase(rows=None, models=[]),
            ],
            traffic=TrafficSpec(batch_rows=10, prime_rows=30),
            expect_drift=False,
            batch_parity=True,
            cleaning_issues=list(COLUMN_LEVEL_ISSUES),
            description="Same shape and traffic as drift-mid-stream, but nothing changes: "
            "the drift detector must stay silent and parity is exact.",
        ),
    ]


def builtin_specs() -> Dict[str, ScenarioSpec]:
    """Name -> spec for every built-in scenario (golden seed/scale applied)."""
    specs: Dict[str, ScenarioSpec] = {}
    for spec in _specs():
        spec.seed = GOLDEN_SEED
        spec.scale = GOLDEN_SCALE
        specs[spec.name] = spec
    return specs


def scenario_names() -> List[str]:
    return sorted(builtin_specs())


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario; unknown names fail loudly with choices."""
    specs = builtin_specs()
    if name not in specs:
        raise ScenarioError(
            f"unknown scenario {name!r}; valid scenarios: {sorted(specs)}"
        )
    return specs[name]
