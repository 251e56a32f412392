"""Domain vocabulary for typo detection.

A hosted LLM knows that "cofffee" is a misspelling of "coffee" because it
knows English.  The simulated model approximates this with (a) a vocabulary
of domain words that appear across the benchmark domains (hospital quality
measures, beer styles, film metadata, bibliographic records, airline fields)
and (b) frequency-based intra-column evidence (a rare value one edit away
from a frequent value is a typo of it) implemented in the semantic engine.
"""

from __future__ import annotations

import re
from typing import Set

DOMAIN_VOCABULARY: Set[str] = {
    # general
    "the", "and", "of", "for", "with", "from", "hospital", "center", "centre",
    "medical", "regional", "community", "memorial", "university", "general",
    "county", "health", "care", "clinic", "surgery", "surgical", "emergency",
    "acute", "patients", "patient", "heart", "attack", "failure", "pneumonia",
    "infection", "children", "baptist", "methodist", "saint", "north", "south",
    "east", "west", "street", "avenue", "road", "drive", "boulevard", "suite",
    # hospital measure vocabulary
    "given", "aspirin", "arrival", "discharge", "blood", "culture", "antibiotic",
    "prophylactic", "received", "within", "hours", "hour", "minutes", "percent",
    "average", "number", "provider", "measure", "condition", "state", "city",
    "phone", "address", "zip", "sample", "score", "type", "owner", "service",
    "government", "voluntary", "proprietary", "yes", "no",
    # beers vocabulary
    "ale", "lager", "stout", "porter", "pilsner", "india", "pale", "ipa",
    "amber", "wheat", "brown", "blonde", "golden", "imperial", "double",
    "session", "brewing", "brewery", "company", "beer", "oatmeal", "cream",
    "light", "dark", "red", "black", "white", "city", "state", "ounces",
    # movies vocabulary
    "drama", "comedy", "action", "thriller", "horror", "romance", "adventure",
    "animation", "documentary", "crime", "fantasy", "mystery", "biography",
    "family", "musical", "western", "history", "sport", "war", "director",
    "creator", "actors", "year", "release", "rating", "votes", "duration",
    "genre", "language", "country", "english", "french", "german", "spanish",
    "chinese", "japanese", "italian", "hindi", "korean", "russian",
    # flights vocabulary
    "flight", "scheduled", "actual", "departure", "arrival", "time", "gate",
    "terminal", "airline", "airport",
    # rayyan vocabulary
    "journal", "article", "title", "abstract", "authors", "pagination",
    "volume", "issue", "issn", "pubmed", "included", "excluded", "maybe",
    "review", "systematic", "trial", "randomized", "controlled", "study",
    "jan", "feb", "mar", "apr", "may", "jun", "jul", "aug", "sep", "oct",
    "nov", "dec",
}

_WORD_RE = re.compile(r"[a-zA-Z]+")


def words_of(text: str) -> list:
    """Split a value into lowercase alphabetic words."""
    return [w.lower() for w in _WORD_RE.findall(str(text))]
