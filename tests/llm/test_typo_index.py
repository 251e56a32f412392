"""The indexed typo search must answer exactly like the brute-force scans.

``SemanticModel`` looks typos up in a per-distribution :class:`TypoIndex`
and in a deletion index over the domain vocabulary; ``typo_oracle.py`` keeps
the pairwise and vocabulary scans they replaced.  Every public answer that
depends on the typo search — suspects, clusters, cleaning mappings, reviews —
must be identical, in content and in order, under any string hash seed, and
when threads share one model.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.llm.knowledge.vocabulary import DOMAIN_VOCABULARY
from repro.llm.semantic import SemanticModel, TypoIndex, vocabulary_correction

from typo_oracle import BruteForceSemanticModel, BruteForceTypos, fix_vocabulary_typos_baseline

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"

BASES = [
    "heart attack", "pneumonia", "Brewing Company", "İstanbul", "Frozen River 2",
    "149 min", "10:30 p.m.", "Pale Ale", "American IPA", "Robert Wilson", "Straße",
    "ab", "x", "eng", "English", "N/A",
]
VOCABULARY_WORDS = sorted(w for w in DOMAIN_VOCABULARY if len(w) >= 4)
EDIT_CHARS = "aeinorstl0129 -İıß"


@st.composite
def typo_values(draw) -> str:
    """A base value (some non-ASCII, some short, some with digits) with a few edits."""
    text = draw(st.sampled_from(BASES + VOCABULARY_WORDS))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "delete", "substitute", "upper", "lower", "title"]))
        position = draw(st.integers(0, len(text)))
        char = draw(st.sampled_from(EDIT_CHARS))
        if edit == "insert":
            text = text[:position] + char + text[position:]
        elif edit == "delete":
            text = text[:position] + text[position + 1:]
        elif edit == "substitute":
            text = text[:position] + char + text[position + 1:]
        else:
            text = getattr(text, edit)()
    return text


# Counts from a small range, so ties are common.
distributions = st.lists(
    st.tuples(typo_values(), st.integers(1, 6)), max_size=24, unique_by=lambda p: p[0]
)
settings_grid = st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]), st.sampled_from([0, 1, 2, 3]))


def targets(index, value_counts):
    """The index's answer for every value of the distribution, at its own count."""
    return [index.target(str(value), count) for value, count in value_counts]


def answers(model: SemanticModel, value_counts, batch):
    """Every public answer that reads the typo search, with dict order kept."""
    review = model.review_string_values("col", value_counts)
    explanation, mapping = model.map_string_values("col", review.summary, batch, value_counts)
    return (
        list(model._typo_suspects(value_counts).items()),
        [(key, members) for key, members in model.cluster_values(value_counts).items()],
        review,
        explanation,
        list(mapping.items()),
    )


class TestVocabularyFix:
    """A vocabulary fix rewrites the misspelled word, never a correct word containing it."""

    @pytest.mark.parametrize(
        "value, expected",
        [
            ("Brewin Brewing Co", "brewing Brewing Co"),
            ("Porte Porter", "porter Porter"),
            ("heart atack", "heart attack"),
            ("Pneumonai", None),
        ],
    )
    def test_whole_words_only(self, value, expected):
        assert SemanticModel()._fix_vocabulary_typos(value) == expected

    def test_suspect_keeps_correct_words(self):
        counts = [("Brewing Co", 9), ("Brewin Brewing Co", 1)]
        assert SemanticModel()._typo_suspects(counts) == {"Brewin Brewing Co": "brewing Brewing Co"}

    def test_vocabulary_neighbours_match_the_scan(self):
        # A deletion, a doubling and a substitution inside every known word.
        for known in VOCABULARY_WORDS:
            i = len(known) // 2
            head, tail = known[:i], known[i + 1:]
            for word in (head + tail, head + known[i] * 2 + tail, head + "e" + tail):
                assert SemanticModel()._fix_vocabulary_typos(word) == fix_vocabulary_typos_baseline(word), word

    def test_correction_prefers_closest_then_shortest_then_alphabetical(self):
        assert vocabulary_correction("patiens") == "patient"
        assert vocabulary_correction("zzzzzz") is None


class TestIndexMatchesOracle:
    @given(distributions, st.integers(0, 24))
    @settings(max_examples=250, deadline=None)
    def test_answers_equal_brute_force(self, value_counts, batch_size):
        batch = [v for v, _ in value_counts[:batch_size]]
        assert answers(SemanticModel(), value_counts, batch) == answers(
            BruteForceSemanticModel(), value_counts, batch
        )

    @given(distributions, settings_grid)
    @settings(max_examples=250, deadline=None)
    def test_index_equals_brute_force_at_every_setting(self, value_counts, params):
        ratio, distance = params
        frequent = tuple((v, c) for v, c in value_counts if c >= 2)
        assert targets(TypoIndex(frequent, ratio, distance), value_counts) == targets(
            BruteForceTypos(frequent, ratio, distance), value_counts
        )

    @given(distributions, distributions)
    @settings(max_examples=60, deadline=None)
    def test_reused_model_equals_fresh_models(self, first, second):
        # One model asked about two distributions in turn keeps answering each
        # as a fresh model would: the cached index never leaks across them.
        shared = SemanticModel()
        for value_counts in (first, second, first):
            batch = [v for v, _ in value_counts]
            assert answers(shared, value_counts, batch) == answers(SemanticModel(), value_counts, batch)

    def test_non_ascii_lowercase_changes_length(self):
        assert len("İstanbul") == 8 and len("İstanbul".lower()) == 9
        counts = [("İstanbul", 5), ("İstanbull", 1), ("Istanbul", 1), ("İstanbulx", 1)]
        batch = [v for v, _ in counts]
        assert answers(SemanticModel(), counts, batch) == answers(BruteForceSemanticModel(), counts, batch)
        frequent = tuple((v, c) for v, c in counts if c >= 2)
        for distance in (0, 1, 2, 3):
            fast = TypoIndex(frequent, SemanticModel.TYPO_MIN_COUNT_RATIO, distance)
            oracle = BruteForceTypos(frequent, SemanticModel.TYPO_MIN_COUNT_RATIO, distance)
            assert targets(fast, counts) == targets(oracle, counts)

    def test_count_ties_go_to_the_earliest_frequent_value(self):
        counts = [("Pale Alex", 4), ("Pale Aley", 4), ("Pale Alez", 1)]
        assert SemanticModel()._typo_suspects(counts) == {"Pale Alez": "Pale Alex"}
        counts = [("Pale Aley", 4), ("Pale Alex", 4), ("Pale Alez", 1)]
        assert SemanticModel()._typo_suspects(counts) == {"Pale Alez": "Pale Aley"}


HASH_SEED_SCRIPT = """
from repro.datasets import load_dataset
from repro.llm.semantic import SemanticModel
from test_typo_index import BASES, answers
from typo_oracle import BruteForceSemanticModel

corpus = [[(v, i % 4 + 1) for i, v in enumerate(BASES)]]
for name in ("hospital", "beers"):
    table = load_dataset(name, seed=0, scale=0.05).dirty
    for column in table.column_names:
        counts = {}
        for value in table.column(column).non_null():
            counts[str(value)] = counts.get(str(value), 0) + 1
        corpus.append(sorted(counts.items(), key=lambda p: -p[1]))
for value_counts in corpus:
    batch = [v for v, _ in value_counts]
    fast = answers(SemanticModel(), value_counts, batch)
    assert fast == answers(BruteForceSemanticModel(), value_counts, batch), value_counts
    print(repr(fast))
"""


def test_answers_agree_under_every_hash_seed():
    outputs = set()
    for seed in (0, 5, 11):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]), PYTHONHASHSEED=str(seed))
        run = subprocess.run(
            [sys.executable, "-c", HASH_SEED_SCRIPT], env=env, capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_threads_sharing_one_model_answer_like_sequential_runs():
    # Threads alternate between two distributions on one model, so each keeps
    # finding the other distribution's index cached.  More threads than cores
    # and a short switch interval make the interleavings frequent.
    first = [("heart attack", 9), ("heart attakc", 1), ("pneumonia", 5), ("pneumonai", 1)]
    second = [("Pale Ale", 7), ("Pale Alee", 1), ("American IPA", 4), ("Amercan IPA", 1)]
    expected = {id(vc): answers(SemanticModel(), vc, [v for v, _ in vc]) for vc in (first, second)}
    shared = SemanticModel()
    orders = [(first, second), (second, first)] * 2
    start = threading.Barrier(len(orders))
    failures = []

    def worker(order):
        start.wait(timeout=30)
        for _ in range(300):
            for value_counts in order:
                if answers(shared, value_counts, [v for v, _ in value_counts]) != expected[id(value_counts)]:
                    failures.append(value_counts)

    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures
