"""Count fingerprints of closed constructions.

The fingerprint, called GTD (global trail distribution), counts labels of
a construction's objects and closed facts at a chosen depth:

    depth 0   ``kind:<kind>``            objects of each kind
    depth 1   ``rel:<predicate>``        facts with each predicate
    depth 2   ``path:<p1>-<kind>-<p2>``  unordered pairs of distinct facts
                                         sharing an object of that kind
                                         (p1 <= p2 lexicographically)

Each depth includes all keys of the lower depths.  Depth 2 compares no
fact pairs: it counts, per predicate, the facts containing each set of
same-kind objects that share a fact, and inclusion-exclusion over the sets
gives the pairs sharing at least one object, in O(facts x 2^arity).

Componentwise superset comparison of fingerprints is the candidate filter
for structural search: whenever one closed construction embeds into
another, the bigger one's fingerprint dominates the smaller one's, so
filtering never loses a true match.  The converse fails, which is why
matches are confirmed exactly afterwards.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .errors import ConstructionError
from .model import Construction, FactSet
from .rules import RuleSet, closure

VALID_DEPTHS = (0, 1, 2)
DEFAULT_DEPTH = 2


@dataclass(frozen=True)
class Gtd:
    """Label-count fingerprint of a closed construction at one depth."""

    depth: int
    counts: Mapping[str, int]


def gtd(construction: Construction, closed: FactSet, depth: int) -> Gtd:
    """Count the labels of a construction and its closed ``(predicate,
    args)`` pairs at the given depth (0, 1 or 2); a closed fact naming an
    undeclared object raises :class:`ConstructionError`."""
    if depth not in VALID_DEPTHS:
        raise ValueError(f"depth must be one of {VALID_DEPTHS}, got {depth!r}")
    kinds = construction.kinds
    undeclared = {arg for _, args in closed for arg in args} - kinds.keys()
    if undeclared:
        raise ConstructionError(f"closed fact references undeclared object {min(undeclared)!r}")
    counts: Counter[str] = Counter(f"kind:{o.kind}" for o in construction.objects)
    if depth >= 1:
        counts.update(f"rel:{predicate}" for predicate, _ in closed)
    if depth >= 2:
        # same-kind object set -> predicate -> facts containing the set
        containing: dict[tuple[str, ...], dict[str, int]] = {}
        for predicate, args in closed:
            by_kind: dict[str, list[str]] = {}
            for name in sorted(set(args)):
                by_kind.setdefault(kinds[name], []).append(name)
            for names in by_kind.values():
                for size in range(1, len(names) + 1):
                    for subset in combinations(names, size):
                        per_predicate = containing.setdefault(subset, {})
                        per_predicate[predicate] = per_predicate.get(predicate, 0) + 1
        # inclusion-exclusion: pairs sharing a set of size s count with sign (-1)^(s+1)
        paths: dict[tuple[str, str, str], int] = {}
        for subset, per_predicate in containing.items():
            sign, kind = (1 if len(subset) % 2 else -1), kinds[subset[0]]
            ranked = sorted(per_predicate.items())
            for i, (p1, n1) in enumerate(ranked):
                for p2, n2 in ranked[i:]:
                    pairs = n1 * (n1 - 1) // 2 if p1 == p2 else n1 * n2
                    paths[p1, kind, p2] = paths.get((p1, kind, p2), 0) + sign * pairs
        counts.update({f"path:{p1}-{k}-{p2}": n for (p1, k, p2), n in paths.items() if n})
    # sorted keys put the selective path counts early for gtd_subsumes; interned,
    # a store's thousands of fingerprints share a few dozen key strings
    return Gtd(depth, {sys.intern(key): n for key, n in sorted(counts.items())})


def gtd_subsumes(candidate: Gtd, query: Gtd) -> bool:
    """True iff the candidate has at least the query's count for every key."""
    if candidate.depth != query.depth:
        raise ValueError(
            f"depth mismatch: candidate depth {candidate.depth}, query depth {query.depth}"
        )
    return all(candidate.counts.get(key, 0) >= n for key, n in query.counts.items())


def serialize_gtd(fingerprint: Gtd) -> str:
    """Single-line cache form: ``depth=<d>`` then ``key=count`` sorted by key."""
    parts = [f"depth={fingerprint.depth}"]
    parts.extend(f"{key}={n}" for key, n in sorted(fingerprint.counts.items()))
    return " ".join(parts)


def parse_gtd(text: str) -> Gtd:
    """Inverse of :func:`serialize_gtd`; raises ``ValueError`` on bad input.
    Keys are interned, as :func:`gtd` interns them."""
    parts = text.split()
    if not parts or not parts[0].startswith("depth="):
        raise ValueError(f"fingerprint must start with 'depth=', got {text!r}")
    depth = int(parts[0][len("depth="):])
    if depth not in VALID_DEPTHS:
        raise ValueError(f"depth must be one of {VALID_DEPTHS}, got {depth}")
    counts: dict[str, int] = {}
    for part in parts[1:]:
        key, sep, value = part.rpartition("=")
        if not sep or not key:
            raise ValueError(f"bad fingerprint component {part!r}")
        n = int(value)
        if n < 1:
            raise ValueError(f"fingerprint counts must be positive, got {part!r}")
        counts[sys.intern(key)] = n
    return Gtd(depth, counts)


def construction_gtd(
    construction: Construction, ruleset: RuleSet, depth: int = DEFAULT_DEPTH
) -> Gtd:
    """Close the construction and fingerprint the result."""
    return gtd(construction, closure(construction, ruleset), depth)
