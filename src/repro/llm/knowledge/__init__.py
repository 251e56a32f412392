"""Knowledge bases backing the simulated semantic model.

A hosted LLM brings world knowledge: that "eng" and "English" denote the same
language, that "oz" abbreviates "ounce", that "N/A" means a missing value,
that a patient age of 851 is implausible.  The simulated model substitutes
explicit, curated knowledge bases for that world knowledge so the rest of the
system can be exercised offline.  Each module holds one family of facts.
"""

from repro.llm.knowledge.languages import LANGUAGE_CODES, language_variants
from repro.llm.knowledge.abbreviations import (
    US_STATES,
    UNIT_SYNONYMS,
    MONTHS,
    WEEKDAYS,
    GENERIC_SYNONYMS,
    concept_key,
)
from repro.llm.knowledge.nullwords import NULL_WORDS, is_disguised_missing
from repro.llm.knowledge.types import (
    BOOLEAN_WORDS,
    TRUE_WORDS,
    FALSE_WORDS,
    semantic_boolean,
    looks_like_identifier_column,
    expected_numeric_range,
)
from repro.llm.knowledge.vocabulary import DOMAIN_VOCABULARY

__all__ = [
    "LANGUAGE_CODES",
    "language_variants",
    "US_STATES",
    "UNIT_SYNONYMS",
    "MONTHS",
    "WEEKDAYS",
    "GENERIC_SYNONYMS",
    "concept_key",
    "NULL_WORDS",
    "is_disguised_missing",
    "BOOLEAN_WORDS",
    "TRUE_WORDS",
    "FALSE_WORDS",
    "semantic_boolean",
    "looks_like_identifier_column",
    "expected_numeric_range",
    "DOMAIN_VOCABULARY",
]
