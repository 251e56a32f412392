"""The banded edit distance must answer exactly like the full Levenshtein table.

``repro.llm.semantic.edit_distance`` fills only the diagonals within
``limit`` of the main one; ``typo_oracle.edit_distance_full`` fills the
whole table.  Both report a distance above ``limit`` as ``limit + 1``, so
they must agree on every pair and every limit, whichever argument comes
first.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.llm.semantic import edit_distance

from typo_oracle import edit_distance_full

# ASCII, non-ASCII letters whose case mapping changes length, and a space.
ALPHABET = "abcz İıßé"
texts = st.text(alphabet=ALPHABET, max_size=10)
limits = st.integers(min_value=0, max_value=3)


def assert_agrees(a: str, b: str, limit: int) -> None:
    expected = edit_distance_full(a, b, limit)
    assert edit_distance(a, b, limit) == expected, (a, b, limit)
    assert edit_distance(b, a, limit) == edit_distance_full(b, a, limit) == expected, (b, a, limit)


@given(texts, texts, limits)
@settings(max_examples=400, deadline=None)
def test_unrelated_strings(a, b, limit):
    assert_agrees(a, b, limit)


@st.composite
def edited_pairs(draw):
    """A string and a copy with a few single-character edits."""
    text = draw(texts)
    edited = text
    for _ in range(draw(st.integers(0, 5))):
        position = draw(st.integers(0, len(edited)))
        char = draw(st.sampled_from(ALPHABET))
        edit = draw(st.sampled_from(["insert", "delete", "substitute"]))
        if edit == "insert":
            edited = edited[:position] + char + edited[position:]
        elif edit == "delete":
            edited = edited[:position] + edited[position + 1:]
        else:
            edited = edited[:position] + char + edited[position + 1:]
    return text, edited


@given(edited_pairs(), limits)
@settings(max_examples=400, deadline=None)
def test_near_strings(pair, limit):
    assert_agrees(*pair, limit)


@given(texts, limits, st.booleans(), st.data())
@settings(max_examples=300, deadline=None)
def test_length_difference_at_the_band_edge(text, limit, past_edge, data):
    """A length gap of ``limit`` (answerable) or ``limit + 1`` (always over)."""
    extra = data.draw(st.text(alphabet=ALPHABET, min_size=limit + past_edge, max_size=limit + past_edge))
    position = data.draw(st.integers(0, len(text)))
    assert_agrees(text, text[:position] + extra + text[position:], limit)


def test_empty_and_identical_strings():
    for limit in range(4):
        assert_agrees("", "", limit)
        assert_agrees("", "ab"[:limit], limit)
        assert_agrees("", "abcd"[: limit + 1], limit)
        assert_agrees("ßİ", "ßİ", limit)
    assert edit_distance("", "abc", 3) == 3
    assert edit_distance("", "abcd", 3) == 4
    assert edit_distance("kitten", "sitting", 3) == 3
    assert edit_distance("kitten", "sitting", 2) == 3
