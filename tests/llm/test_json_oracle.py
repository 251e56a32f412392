"""``extract_json`` answers like the repair-only parser it replaced.

``json_oracle.py`` keeps ``extract_json`` as it was before strict JSON was
decoded first: brace-scan, normalise and ``json.loads`` every reply.  Over
replies that are strict JSON, fenced, wrapped in prose, written with Python
literals or trailing commas, with braces and quotes inside strings, several
objects, unclosed objects or no JSON at all, both must return the same dict
or raise :class:`ResponseParseError` with the same message.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.llm.parsing import ResponseParseError, extract_json, render_json

import json_oracle


def outcome(parser, text):
    try:
        return ("ok", parser(text))
    except ResponseParseError as error:
        return ("ResponseParseError", str(error))
    except (ValueError, RecursionError) as error:
        return (type(error).__name__, str(error))


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6), st.floats(allow_nan=False, allow_infinity=False),
    st.text(alphabet=st.sampled_from('ab {}[]",:\\\'TrueFalseNone\né'), max_size=8),
)
PAYLOADS = st.recursive(
    st.dictionaries(st.text(max_size=5), SCALARS, max_size=4),
    lambda children: st.dictionaries(
        st.text(max_size=5), st.one_of(SCALARS, children, st.lists(children, max_size=2)), max_size=3
    ),
    max_leaves=8,
)


def python_literals(text):
    """Spell JSON's literals the Python way, outside strings only."""
    out, in_string, escape = [], False, False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        else:
            for word, python in (("true", "True"), ("false", "False"), ("null", "None")):
                if text.startswith(word, i):
                    out.append(python)
                    i += len(word)
                    break
            else:
                out.append(ch)
                i += 1
            continue
        out.append(ch)
        i += 1
    return "".join(out)


def trailing_commas(text):
    return text.replace("}", ",}").replace("]", ",]").replace("{,}", "{}").replace("[,]", "[]")


SHAPES = {
    "strict": lambda body: body,
    "fenced": lambda body: f"```json\n{body}\n```",
    "prose": lambda body: f"Here is my answer: {body} Hope that helps.",
    "fenced in prose": lambda body: f"Sure.\n```\n{body}\n```\nDone.",
    "python": python_literals,
    "trailing commas": trailing_commas,
    "unclosed": lambda body: body[:-1],
    "two objects": lambda body: f"{body} and {{\"second\": 1}}",
    "truncated fence": lambda body: f"```json\n{body[: len(body) // 2]}",
    "no json": lambda body: body.replace("{", "(").replace("}", ")"),
}


@settings(max_examples=600, deadline=None)
@given(PAYLOADS, st.sampled_from(sorted(SHAPES)), st.sampled_from([None, 2]))
def test_replies_parse_like_the_repair_only_parser(payload, shape, indent):
    reply = SHAPES[shape](json.dumps(payload, indent=indent, ensure_ascii=shape == "strict"))
    assert outcome(extract_json, reply) == outcome(json_oracle.extract_json, reply)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=st.sampled_from('{}[]":,` \n\\abTrueFalseNonenull1.5json'), max_size=30))
@example('{"a": "}"} trailing')
@example('{"a": "\\"}", "b": True}')
@example('```json\n{"a": 1,}\n```')
@example('```\nnot json\n```\n{"fallback": true}')
@example('{"a": NaN, "b": Infinity}')
@example('{"a": 1} {"b": 2}')
@example("no braces at all")
@example("")
def test_arbitrary_text_parses_like_the_repair_only_parser(text):
    assert outcome(extract_json, text) == outcome(json_oracle.extract_json, text)


@pytest.mark.parametrize(
    "reply",
    [
        render_json({"has_issue": True, "values": ["a", "b"]}),
        '{"x": "tab\there"}',
        '{"a": ' + "[" * 5000 + "]" * 5000 + "}",
        '{"a": ' + "[" * 5000,
    ],
)
def test_edge_replies_parse_like_the_repair_only_parser(reply):
    assert outcome(extract_json, reply) == outcome(json_oracle.extract_json, reply)
