"""The brace-scanning JSON extractor, kept as the oracle for ``repro.llm.parsing``.

A verbatim copy of ``extract_json`` and its helpers before strict JSON was
decoded first: every reply is brace-scanned and normalised character by
character, then handed to ``json.loads``.  ``tests/llm/test_json_oracle.py``
holds the production parser to it, dict for dict and error for error.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from repro.llm.parsing import ResponseParseError

_FENCE_RE = re.compile(r"```[a-zA-Z]*\s*\n(.*?)```", re.DOTALL)


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
    """
    candidates: List[str] = []
    fenced = extract_fenced_block(text)
    if fenced is not None:
        candidates.append(fenced)
    candidates.append(text)
    for candidate in candidates:
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
