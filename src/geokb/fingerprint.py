"""Count fingerprints of closed constructions.

The fingerprint, called GTD (global trail distribution), counts labels of
a construction's objects and closed facts in three key families:

    ``kind:<kind>``            objects of each kind
    ``rel:<predicate>``        facts with each predicate
    ``path:<p1>-<kind>-<p2>``  unordered pairs of distinct facts sharing
                               an object of that kind (p1 <= p2
                               lexicographically)

The ``path:`` counts compare no fact pairs: they count, per predicate, the
facts containing each set of same-kind objects that share a fact, and
inclusion-exclusion over the sets gives the pairs sharing at least one
object, in O(facts x 2^arity).

Componentwise superset comparison of fingerprints is the candidate filter
for structural search: whenever one closed construction embeds into
another, the bigger one's fingerprint dominates the smaller one's, so
filtering never loses a true match.  The converse fails, which is why
matches are confirmed exactly afterwards.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import combinations

from .errors import ConstructionError
from .model import Construction, FactSet
from .rules import RuleSet, closure

#: a fingerprint: key -> positive count, keys sorted and interned
Gtd = dict[str, int]

#: the fixed first word of a fingerprint's text form
GTD_HEADER = "depth=2"


def gtd(construction: Construction, closed: FactSet) -> Gtd:
    """Count the labels of a construction and its closed ``(predicate,
    args)`` pairs in all three key families; a closed fact naming an
    undeclared object raises :class:`ConstructionError`."""
    kinds = construction.kinds
    undeclared = {arg for _, args in closed for arg in args} - kinds.keys()
    if undeclared:
        raise ConstructionError(f"closed fact references undeclared object {min(undeclared)!r}")
    counts: Counter[str] = Counter(f"kind:{o.kind}" for o in construction.objects)
    counts.update(f"rel:{predicate}" for predicate, _ in closed)
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
    return {sys.intern(key): n for key, n in sorted(counts.items())}


def gtd_subsumes(candidate: Gtd, query: Gtd) -> bool:
    """True iff the candidate has at least the query's count for every key."""
    # a plain loop: it runs once per stored entry per query, and a generator
    # under all() costs a frame switch per key
    count = candidate.get
    for key, n in query.items():
        if count(key, 0) < n:
            return False
    return True


def serialize_gtd(fingerprint: Gtd) -> str:
    """Single-line cache form: :data:`GTD_HEADER` then ``key=count`` sorted by key."""
    parts = [GTD_HEADER]
    parts.extend(f"{key}={n}" for key, n in sorted(fingerprint.items()))
    return " ".join(parts)


def parse_gtd(text: str) -> Gtd:
    """Inverse of :func:`serialize_gtd`; raises ``ValueError`` on bad input,
    a first word other than :data:`GTD_HEADER` included.  Keys are interned,
    as :func:`gtd` interns them."""
    parts = text.split()
    if not parts or parts[0] != GTD_HEADER:
        raise ValueError(f"fingerprint must start with {GTD_HEADER!r}, got {text!r}")
    counts: dict[str, int] = {}
    for part in parts[1:]:
        key, sep, value = part.rpartition("=")
        if not sep or not key:
            raise ValueError(f"bad fingerprint component {part!r}")
        n = int(value)
        if n < 1:
            raise ValueError(f"fingerprint counts must be positive, got {part!r}")
        counts[sys.intern(key)] = n
    return counts


def construction_gtd(construction: Construction, ruleset: RuleSet) -> Gtd:
    """Close the construction and fingerprint the result."""
    return gtd(construction, closure(construction, ruleset))
