"""Text search over entry metadata.

Two query styles: ``simple_search`` runs a case-insensitive regular
expression over the name field only (substring match unless the pattern
uses ``^``/``$``), while ``extended_search`` tokenizes the query and scores
entries across name, keywords, shortDescription and description with
OR semantics and field-weighted term frequency.

Both search a sequence of records, where a record has the ``entry``
itself, whose ``identifier`` names a hit, and the field-weighted token
counts that :func:`terms` made for it once, when the record was built.
Searching only reads the records, so any number of threads may search the
same sequence.
"""

from __future__ import annotations

import re
import sys
from typing import Sequence

from .errors import PatternError

#: the text query modes: a name regex, or scored tokens over every field
MODES = ("simple", "extended")
#: score weight per field for extended search
FIELD_WEIGHTS = {"name": 4, "keywords": 3, "shortDescription": 2, "description": 1}

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on anything non-alphanumeric."""
    return _TOKEN_RE.findall(text.lower())


def terms(entry) -> dict[str, int]:
    """Each token of an entry's name, keywords and descriptions with its
    occurrences in each field times that field's :data:`FIELD_WEIGHTS`
    value, summed over the fields."""
    # in the order of FIELD_WEIGHTS; a space never joins two keywords' tokens
    texts = (entry.name, " ".join(entry.keywords), entry.short_description, entry.description)
    weighted: dict[str, int] = {}
    for text, weight in zip(texts, FIELD_WEIGHTS.values()):
        # interned, so all entries share one string per token: under half the
        # memory, and a search compares its tokens with keys in cache
        for token in map(sys.intern, tokenize(text)):
            weighted[token] = weighted.get(token, 0) + weight
    return weighted


def simple_search(pattern: str, records: Sequence) -> list[str]:
    """Identifiers whose name matches the pattern, sorted."""
    try:
        rx = re.compile(pattern, re.IGNORECASE)
    except re.error as exc:
        raise PatternError(f"invalid pattern {pattern!r}: {exc}") from exc
    return sorted([record.entry.identifier for record in records if rx.search(record.entry.name)])


def extended_search(query: str, records: Sequence) -> list[tuple[str, int]]:
    """``(identifier, score)`` pairs with a positive score, best first and
    ties by identifier; a token repeated in the query counts again."""
    tokens = tokenize(query)
    hits: list[tuple[str, int]] = []
    for record in records:
        weighted = record.terms
        score = 0
        for token in tokens:
            score += weighted.get(token, 0)
        if score:
            hits.append((record.entry.identifier, score))
    hits.sort(key=lambda hit: (-hit[1], hit[0]))
    return hits
