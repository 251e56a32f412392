"""Parsing of LLM responses.

Cocoon asks models to respond either in JSON (detection prompts, Figure 2)
or in a small YAML document with an ``explanation`` block and a ``mapping``
dictionary (cleaning prompts, Figure 3).  Model output is wrapped in Markdown
code fences and may contain prose around the fenced block, so the parsers
here are deliberately forgiving: they extract the first fenced block if one
exists, and implement the small YAML subset needed for the mapping format
without a YAML dependency.  A JSON reply is decoded strictly first, by the
standard library's C scanner; only a reply that is not valid JSON from its
first ``{`` (Python literals, trailing commas, an unclosed object) takes the
character-by-character repair path of brace matching and normalisation.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple

_FENCE_RE = re.compile(r"```[a-zA-Z]*\s*\n(.*?)```", re.DOTALL)
_DECODER = json.JSONDecoder()


class ResponseParseError(ValueError):
    """Raised when a model response cannot be interpreted."""


def extract_fenced_block(text: str) -> Optional[str]:
    """Return the contents of the first Markdown code fence, if any."""
    match = _FENCE_RE.search(text)
    if match:
        return match.group(1)
    return None


def extract_json(text: str) -> Dict[str, Any]:
    """Extract and parse the first JSON object found in ``text``.

    Accepts raw JSON, fenced JSON, or JSON embedded in prose.  Python-style
    booleans (``True``/``False``) and trailing commas are tolerated because
    models produce them occasionally.

    Each candidate (the first fenced block, then the whole text) is decoded
    strictly first, from its first ``{``, by the C scanner of
    :meth:`json.JSONDecoder.raw_decode`.  Only when that fails does the
    candidate take the repair path: brace-scan the object
    (:func:`_find_braced_block`), normalise it (:func:`_normalise_json`) and
    decode that.  The fast path returns what the repair path would.  On
    valid JSON the brace scan ends at the same ``}`` the decoder does, since
    both read strings and escapes alike.  Outside its strings valid JSON
    holds no ``True``, ``False`` or ``None`` and no trailing comma, so the
    normaliser leaves the object unchanged and ``json.loads`` returns the
    same dict.  ``tests/llm/test_json_oracle.py`` holds this to the
    repair-only parser kept in ``tests/llm/json_oracle.py``.
    """
    candidates: List[str] = []
    fenced = extract_fenced_block(text)
    if fenced is not None:
        candidates.append(fenced)
    candidates.append(text)
    for candidate in candidates:
        start = candidate.find("{")
        if start == -1:
            continue
        try:
            return _DECODER.raw_decode(candidate, start)[0]
        except (ValueError, RecursionError):
            # ValueError covers JSONDecodeError.  A RecursionError (deep
            # nesting) is left to the repair path, which meets it only if
            # the brace scan closes the object, as the repair-only parser did.
            pass
        block = _find_braced_block(candidate)
        if block is None:
            continue
        normalised = _normalise_json(block)
        try:
            parsed = json.loads(normalised)
        except json.JSONDecodeError:
            continue
        if isinstance(parsed, dict):
            return parsed
    raise ResponseParseError(f"No JSON object found in response: {text[:200]!r}")


def _find_braced_block(text: str) -> Optional[str]:
    start = text.find("{")
    if start == -1:
        return None
    depth = 0
    in_string = False
    escape = False
    for i in range(start, len(text)):
        ch = text[i]
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            continue
        if ch == '"':
            in_string = True
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[start: i + 1]
    return None


def _normalise_json(text: str) -> str:
    """Fix Python-style booleans/None and trailing commas, but never inside strings."""
    out: List[str] = []
    i = 0
    in_string = False
    escape = False
    while i < len(text):
        ch = text[i]
        if in_string:
            out.append(ch)
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
            i += 1
            continue
        if ch == '"':
            in_string = True
            out.append(ch)
            i += 1
            continue
        if ch == ",":
            # A trailing comma: only whitespace between it and a closing bracket.
            j = i + 1
            while j < len(text) and text[j].isspace():
                j += 1
            if j < len(text) and text[j] in "}]":
                i += 1
                continue
        for word, replacement in (("True", "true"), ("False", "false"), ("None", "null")):
            if text.startswith(word, i) and not _is_word_char(text, i - 1) and not _is_word_char(text, i + len(word)):
                out.append(replacement)
                i += len(word)
                break
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _is_word_char(text: str, index: int) -> bool:
    if index < 0 or index >= len(text):
        return False
    return text[index].isalnum() or text[index] == "_"


# ---------------------------------------------------------------------------
# YAML-lite for the Figure 3 cleaning format
# ---------------------------------------------------------------------------
def parse_mapping_yaml(text: str) -> Tuple[str, Dict[str, str]]:
    """Parse the ``explanation`` / ``mapping`` YAML document of Figure 3.

    Returns ``(explanation, mapping)``.  The parser handles:

    * ``explanation: >`` folded blocks (subsequent indented lines)
    * ``mapping:`` followed by indented ``key: value`` pairs
    * optional single/double quotes around keys and values
    * empty-string values (``old: ''`` or ``old:``) meaning "map to empty"
    """
    content = extract_fenced_block(text) or text
    lines = content.splitlines()
    explanation_parts: List[str] = []
    mapping: Dict[str, str] = {}
    mode = None  # None | 'explanation' | 'mapping'
    for raw_line in lines:
        line = raw_line.rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        lowered = stripped.lower()
        if lowered.startswith("explanation:"):
            mode = "explanation"
            rest = stripped[len("explanation:"):].strip()
            if rest and rest not in (">", "|", ">-", "|-"):
                explanation_parts.append(rest)
            continue
        if lowered.startswith("mapping:") and not line.startswith(" " * 4):
            mode = "mapping"
            continue
        if mode == "explanation":
            if not raw_line.startswith((" ", "\t")):
                mode = None
            else:
                explanation_parts.append(stripped)
                continue
        if mode == "mapping":
            key, value = _split_mapping_line(stripped)
            if key is not None:
                mapping[key] = value
            continue
        # A top-level key:value line outside both blocks is treated as mapping
        # content; some models omit the "mapping:" header for short answers.
        key, value = _split_mapping_line(stripped)
        if key is not None and mode is None and ":" in stripped:
            mapping[key] = value
    explanation = " ".join(explanation_parts).strip()
    return explanation, mapping


def _split_mapping_line(line: str) -> Tuple[Optional[str], str]:
    if line.startswith("- "):
        line = line[2:]
    if ":" not in line:
        return None, ""
    key, _, value = line.partition(":")
    key = _unquote(key.strip())
    value = _unquote(value.strip())
    if not key.strip():
        # The response format treats whitespace-only keys as meaningless:
        # the round-trip contract (tests/property) drops them on parse.
        return None, ""
    return key, value


def _unquote(text: str) -> str:
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        inner = text[1:-1]
        if text[0] == "'":
            inner = inner.replace("''", "'")
        return inner
    return text


# ---------------------------------------------------------------------------
# YAML-lite serialisation (used by the simulated model to answer Figure 3)
# ---------------------------------------------------------------------------
def render_mapping_yaml(explanation: str, mapping: Dict[str, str]) -> str:
    """Render an explanation + mapping in the Figure 3 response format."""
    lines = ["```yml", "explanation: >", f"  {explanation}", "mapping:"]
    for old, new in mapping.items():
        lines.append(f"  {_quote(old)}: {_quote(new)}")
    lines.append("```")
    return "\n".join(lines)


def _quote(text: str) -> str:
    if text == "":
        return "''"
    # "- " would read back as a YAML list-item marker, so force quotes.
    if re.search(r"[:#'\"\n]|^\s|^- |\s$", text):
        escaped = text.replace("'", "''")
        return f"'{escaped}'"
    return text


def render_json(payload: Dict[str, Any]) -> str:
    """Render a JSON response wrapped in a code fence, as models tend to do."""
    return "```json\n" + json.dumps(payload, indent=2) + "\n```"
