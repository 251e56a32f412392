"""Pin every byte of SQL a clean renders, per registry dataset and golden scenario.

The goldens pin cleaning *results* and the dialect differential compares
*tables*; neither notices a change in the statement text itself.  This test
hashes the four renderings of each table's cleaning decisions:

* ``sql_script`` — the statements the clean executed;
* ``plan.emit()`` — the replayable script in the default dialect;
* ``plan.emit(SqliteDialect())`` — the same plan lowered for sqlite3;
* the row-local replay chain a stream re-runs on every batch.

A refactor of the SQL rendering must leave every hash unchanged.  To print
the current hashes after an intended change::

    PYTHONPATH=src python tests/core/test_rendered_sql.py
"""

from __future__ import annotations

import hashlib
from typing import Dict

import pytest

from repro.core import CleaningConfig, CocoonCleaner, extract_plan
from repro.core.dialects import ReproDialect, SqliteDialect
from repro.datasets import load_dataset
from repro.scenarios.catalog import builtin_specs
from repro.scenarios.spec import generate

DATASET_SCALES = {"hospital": 0.3, "flights": 0.3, "beers": 0.3, "rayyan": 0.3, "movies": 0.1}
SCENARIOS = sorted(builtin_specs())


def _clean(name: str):
    if name in DATASET_SCALES:
        return CocoonCleaner().clean(load_dataset(name, seed=0, scale=DATASET_SCALES[name]).dirty)
    generated = generate(builtin_specs()[name])
    issues = generated.spec.cleaning_issues
    config = CleaningConfig(enabled_issues=list(issues)) if issues is not None else None
    return CocoonCleaner(config=config).clean(generated.dataset.dirty)


def rendered_sql_hashes(name: str) -> Dict[str, str]:
    """SHA-256 of each SQL rendering of one table's cleaning decisions."""
    result = _clean(name)
    plan = extract_plan(result)
    assert plan.emit(ReproDialect()) == plan.emit()
    chain = plan._replay_chain(f"{plan.base_table}__replay")
    texts = {
        "sql_script": result.sql_script,
        "emit": plan.emit(),
        "emit_sqlite": plan.emit(SqliteDialect()),
        "replay_chain": "\n;\n".join(prepared.text for _, _, prepared in chain),
    }
    return {key: hashlib.sha256(text.encode("utf-8")).hexdigest() for key, text in texts.items()}


EXPECTED: Dict[str, Dict[str, str]] = {
    "hospital": {
        "sql_script": "3c2121c2f5d9d6e06a5dd288da91bd970cd47a2926d3b2f4dea615fccbc45c03",
        "emit": "7d7d9e2ab7e5d3b2896b78aac82fef2aa8b950f6513e582c4c583826964b333b",
        "emit_sqlite": "8adaa33fa012f14b48db172a90f7de85fe26b66f7670c3dbedca80c06723a6a2",
        "replay_chain": "5009c0ac985f2281bbc1679a740392970ffd018b8aa62ad4fa5c489dae32128e",
    },
    "flights": {
        "sql_script": "7062f7614d6ba7d6860358ead7b2d545fe58b7826aa27674969a5104c6061d6d",
        "emit": "f57ee2da2cd284e1eba206c84e0b1d4376c833739235b87849b399709a114027",
        "emit_sqlite": "ccc009ea12c9472b4afa1b2fb944dd62cc291022a8b9cad5fdf65c84a3d91ffc",
        "replay_chain": "599bdded455892b98d04d1c74f51f5af0f589a1f6e223e1187d97d07cac8bb77",
    },
    "beers": {
        "sql_script": "9938dc1d0835726955de32ee0359802b56ed47c3d3e39925a282472676a1db02",
        "emit": "c07b52ac7f7d91ce5ec9a6bd1fca52ca36ee3af2353ade567004e2c7e467360f",
        "emit_sqlite": "2ff5ff2a61e930d4cbcd435c0a5e562b944237c527e45b9920e0db685c25259a",
        "replay_chain": "4995c9768614a1aaa2dc14eaae2877bcd218f2768e2686e317d74d1f73de8d90",
    },
    "rayyan": {
        "sql_script": "4539494b67818c12bbaee0e17f1fb30d98c9c9e246f9af2bd3376b46924f17f0",
        "emit": "3973312d46ef5bf9016dfbfce85a597621f2c9fe1486b2a2a750bccb5467787d",
        "emit_sqlite": "3bf7a924149e79ba6a3b3e79e986b758125104582b7bae6131fa238825c0663a",
        "replay_chain": "97d17106e5c09a1f6bab9a909ea189a9ff86f4b372faa77034c338470d19125e",
    },
    "movies": {
        "sql_script": "6019ccfd8ebb38b87ec5ceb66627427c51597352ccd5a9fc65e0c82dc31f0fc6",
        "emit": "38def173f8159d481cf3935ec23d73d233e976e2bbbf74522d36749b34b66ad4",
        "emit_sqlite": "eb52a943e5f8683f0797cdcb737d234a6be61ba08fb3dae84eb136605b5efcea",
        "replay_chain": "849332c0fc92d2b65c54e705d25c086699b0cdf4bd044ab4ed178c038ca7e39d",
    },
    "adversarial-values": {
        "sql_script": "ee89e4252c49cfa56a23ec25d0947c5cbe9250535a6335d744f0d1379b59f34c",
        "emit": "164007cf9cda7708e30000f8705fed7eb8b34621dfa4875660fff5591cc113c1",
        "emit_sqlite": "1a97596f2fbd2cf8c87684b7bfb752b26f2cfdffc5c898b3ba2f2ba49a9b46c1",
        "replay_chain": "4c712bc95b600d512fe9511b45992461511c648b7b4c8c3d636320b4b8d243cf",
    },
    "dmv-flood": {
        "sql_script": "737df38b073651a5cf7c76a070995673132be4b13bfe921b055677d9b6c8fd5e",
        "emit": "ecd0685a58354df15a770acaed3ce8af4a4fb41c41293e72af1e5dc1dab752e2",
        "emit_sqlite": "555fa15dcf0919940913a808ed3c2eca7a5ff6a1a397939152758fdddfc8a4d3",
        "replay_chain": "8a1e1f16c072f2b95d644c161ea8f079db87681a5afdb5ffbf0ac86aa57eccfd",
    },
    "drift-mid-stream": {
        "sql_script": "0ba6dbe50d061e9f4237d65ebc91fd9a790ecb2e70fe7350c0129c2ed522de5d",
        "emit": "f01047b639802265106d8dead920f596fe93e9d704a024d5fdf7cfbbc6f36e9c",
        "emit_sqlite": "d846ee2dba49f3afc3d0ced7c1351ea54a5b1b8daee9d0a8974502223ea3bb96",
        "replay_chain": "cf18440b6c73c30e716cc2ab16cd5c47c2ac5f4a6fdb4f750a1a5f8fa4174418",
    },
    "duplicate-storm": {
        "sql_script": "38dcb8844538d491cb23f2883172ec92c776704d74e0f67562e8d045c6cb8655",
        "emit": "b03724b542fc0ba8f3baebb36db10c03ebb822a469483871b2f98fdfe8270fc1",
        "emit_sqlite": "bcbc184305c193cb7440a344fa739a0c671e3d6e8994ae4876411aef4bcaa6d8",
        "replay_chain": "f3a7373b039aa5d69c2be47809a1de9be0e22755afdf0a62c422ea99795842cf",
    },
    "fd-chaos": {
        "sql_script": "039ad7ceb149f9e5dad61592a83bfb3a0784085d015ac5659d2afe30065f712b",
        "emit": "74044f6f58507737cef20e3078476a2ac483a7e8bdc349bc1d8e2437c17c5860",
        "emit_sqlite": "c83719a345f5cd5c6c61ab631ceee2f36b9b617d6ab05ad318c22b48806452ca",
        "replay_chain": "19c1ad63fc81df1bad7fd60a3fd5ac8b8fb7dd01f4a13e5c42a92c00611c5eab",
    },
    "keyword-columns": {
        "sql_script": "d8a1934123101a7a12d21d15063c2817a48312b5372a1d6310f9150d7ffe3359",
        "emit": "914ccfc450e4d8c1fb7d091a14be9a95fd3abe979282b0bfbbc442005e18d19c",
        "emit_sqlite": "78d1b944c84e40285f931698d4fd67b650dbede217e4dc54f53a67da1ac8f8b1",
        "replay_chain": "d438a99206eba71e617b7324f80a26e7238211ac2ee4295ffa2b191f548f2dbc",
    },
    "locale-mix": {
        "sql_script": "982030b442eeb048b586efab000dce9ee32fce6304e76421a4cbdbffb3b3209a",
        "emit": "b0697cb39126d9e78da8d9bef23b11a984dcc74ff8713fdad03110ff5dd24082",
        "emit_sqlite": "e0436138f0246a934ba068c38c0d2397486bbc4d82198dc303cd224e8409967f",
        "replay_chain": "38cb0af968815d3b829b6998a5da899079e34f46f69df02f5b637b06b6c76b35",
    },
    "schema-evolution": {
        "sql_script": "df1a926aa5e8a740e4d31c4431fa9eb4f967d838e3dafaa39fa50d0a13fb6f16",
        "emit": "3f7093f8374718d986f1eea52ebab33939ba03f6ca4208cc94236c1c77456eed",
        "emit_sqlite": "c24a882d4b6e563d7d939763afbafff7df6d5e03d5dd0f636bf7747f4f2ee5ce",
        "replay_chain": "b1d4948e48e8ea02d14297eec4e1c323c30171c1b08115f8a6ef47f8c6baac4f",
    },
    "stationary-baseline": {
        "sql_script": "0ff2a6e9665116f677641622839a2c906fbc8509f07517e264bef7864a17c654",
        "emit": "6db802a767814c4781ed27a610dd01781b2f442a9744575a9ece51c406fd1859",
        "emit_sqlite": "06ee372387a7ffec580aba030870b72c9e3eb4368e0da2e48edfc2e40f9b221e",
        "replay_chain": "91b600f644a00afe92103ac6abbf10671c72980d2b0e0b88c86f2c88003bace8",
    },
    "typo-storm": {
        "sql_script": "3a0896c7461b3468dadc22f467c08e9f5d7b75ed479cbd87c89d99d3fd4e7efe",
        "emit": "5d6cc53df6e2b2a80dfefa83e783300caa22499a6af4c7e2465f94f7cad42351",
        "emit_sqlite": "81e655bcd7feac31eb347fbbfafcfffdba6f89d96249a564a4943675993e0929",
        "replay_chain": "8fde8c56908e31dc89df7a054db84bdb65c64fa4228a4339cb2deb91d45b0477",
    },
    "unit-drift": {
        "sql_script": "70678d230d1691e02f473b643ee0065c6bda6b055921d8a9e802e055fd65f83c",
        "emit": "f8fc1815c59d9158ef4c3511ac6ca344ba1b4584e8d987230fea945cf6f6c156",
        "emit_sqlite": "a7a30950aea60104c1e9bbe56f5ab6a32cf166b0ee976c4ca8b12f62b383d52b",
        "replay_chain": "5c59445f32ecef35445694c19e1476240949611fb546e56e02f80d3b9911e776",
    },
}


@pytest.mark.parametrize("name", list(DATASET_SCALES) + SCENARIOS)
def test_rendered_sql_is_pinned(name):
    assert rendered_sql_hashes(name) == EXPECTED[name]


if __name__ == "__main__":  # pragma: no cover - regenerates EXPECTED
    for table in list(DATASET_SCALES) + SCENARIOS:
        print(f'    "{table}": {{')
        for key, digest in rendered_sql_hashes(table).items():
            print(f'        "{key}": "{digest}",')
        print("    },")
