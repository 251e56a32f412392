"""Language-name knowledge (drives the Rayyan ``article_language`` cleaning).

The paper's running example maps full language names to their ISO 639-2/B
bibliographic codes: ``"English" -> "eng"``, ``"French" -> "fre"``,
``"German" -> "ger"``, ``"Chinese" -> "chi"``.  The table below covers the
languages that appear in systematic-review corpora like Rayyan.
"""

from __future__ import annotations

from typing import Dict, List, Optional

# ISO 639-2/B code → list of surface forms that denote the same language.
LANGUAGE_CODES: Dict[str, List[str]] = {
    "eng": ["english", "en", "eng", "inglese", "anglais"],
    "fre": ["french", "fr", "fre", "fra", "francais", "français"],
    "ger": ["german", "de", "ger", "deu", "deutsch"],
    "chi": ["chinese", "zh", "chi", "zho", "mandarin"],
    "spa": ["spanish", "es", "spa", "espanol", "español", "castilian"],
    "por": ["portuguese", "pt", "por", "portugues", "português"],
    "ita": ["italian", "it", "ita", "italiano"],
    "rus": ["russian", "ru", "rus"],
    "jpn": ["japanese", "ja", "jpn", "jp"],
    "kor": ["korean", "ko", "kor"],
    "ara": ["arabic", "ar", "ara"],
    "dut": ["dutch", "nl", "dut", "nld", "flemish"],
    "pol": ["polish", "pl", "pol"],
    "tur": ["turkish", "tr", "tur"],
    "swe": ["swedish", "sv", "swe"],
    "dan": ["danish", "da", "dan"],
    "nor": ["norwegian", "no", "nor"],
    "fin": ["finnish", "fi", "fin"],
    "gre": ["greek", "el", "gre", "ell"],
    "heb": ["hebrew", "he", "heb"],
    "hin": ["hindi", "hi", "hin"],
    "tha": ["thai", "th", "tha"],
    "vie": ["vietnamese", "vi", "vie"],
    "cze": ["czech", "cs", "cze", "ces"],
    "hun": ["hungarian", "hu", "hun"],
    "rum": ["romanian", "ro", "rum", "ron"],
    "ukr": ["ukrainian", "uk", "ukr"],
    "per": ["persian", "fa", "per", "fas", "farsi"],
    "ind": ["indonesian", "id", "ind"],
    "mal": ["malay", "ms", "may", "mal"],
    "cro": ["croatian", "hr", "hrv", "cro"],
    "srp": ["serbian", "sr", "srp"],
    "slv": ["slovenian", "sl", "slv", "slovene"],
    "bul": ["bulgarian", "bg", "bul"],
    "cat": ["catalan", "ca", "cat"],
    "est": ["estonian", "et", "est"],
    "lav": ["latvian", "lv", "lav"],
    "lit": ["lithuanian", "lt", "lit"],
}

# Reverse index: lowercase surface form → canonical code.
_SURFACE_TO_CODE: Dict[str, str] = {}
for _code, _forms in LANGUAGE_CODES.items():
    _SURFACE_TO_CODE[_code] = _code
    for _form in _forms:
        _SURFACE_TO_CODE[_form.lower()] = _code


def language_code(value: str) -> Optional[str]:
    """Return the ISO code for a language surface form, or None if unknown."""
    return _SURFACE_TO_CODE.get(value.strip().lower())


def language_variants(value: str) -> List[str]:
    """All known surface forms for the language denoted by ``value``."""
    code = language_code(value)
    if code is None:
        return []
    return [code] + LANGUAGE_CODES[code]
