"""Text search over entry metadata.

Two query styles: ``simple_search`` runs a case-insensitive regular
expression over the name field only (substring match unless the pattern
uses ``^``/``$``), while ``extended_search`` tokenizes the query and scores
entries across name, keywords, shortDescription and description with
OR semantics and field-weighted term frequency.

Both search a mapping of identifier -> record, where a record has the
``entry`` itself and the ``terms`` that :func:`terms` counted for it once,
when the record was built.  Searching only reads the records, so any
number of threads may search the same mapping.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

from .errors import PatternError

#: the text query modes: a name regex, or scored tokens over every field
MODES = ("simple", "extended")
#: score weight per field for extended search
FIELD_WEIGHTS = {"name": 4, "keywords": 3, "shortDescription": 2, "description": 1}

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on anything non-alphanumeric."""
    return _TOKEN_RE.findall(text.lower())


def terms(entry) -> dict[str, Counter[str]]:
    """Token counts of an entry's name, keywords and descriptions, per
    :data:`FIELD_WEIGHTS` field."""
    return {
        "name": Counter(tokenize(entry.name)),
        "keywords": Counter(t for k in entry.keywords for t in tokenize(k)),
        "shortDescription": Counter(tokenize(entry.short_description)),
        "description": Counter(tokenize(entry.description)),
    }


@dataclass(frozen=True)
class SearchHit:
    identifier: str
    score: int


def simple_search(pattern: str, records: Mapping) -> list[str]:
    """Identifiers whose name matches the pattern, sorted."""
    try:
        rx = re.compile(pattern, re.IGNORECASE)
    except re.error as exc:
        raise PatternError(f"invalid pattern {pattern!r}: {exc}") from exc
    return sorted(i for i, record in records.items() if rx.search(record.entry.name))


def extended_search(query: str, records: Mapping) -> list[SearchHit]:
    """Hits with positive field-weighted term-frequency score, best first."""
    tokens = tokenize(query)
    if not tokens:
        return []
    hits: list[SearchHit] = []
    for identifier, record in records.items():
        score = 0
        for field, counter in record.terms.items():
            raw = sum(counter[t] for t in tokens)
            if raw:
                score += raw * FIELD_WEIGHTS[field]
        if score:
            hits.append(SearchHit(identifier, score))
    hits.sort(key=lambda h: (-h.score, h.identifier))
    return hits
