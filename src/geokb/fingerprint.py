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
matches are confirmed exactly afterwards.  :class:`GtdIndex` answers that
comparison, in both directions, for a whole store at once.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from collections.abc import Sequence
from itertools import combinations, compress

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
    # keys sorted, the order GtdIndex.dominating reads them in and the one a
    # cached fingerprint parses back in; interned, a store's thousands of
    # fingerprints share a few dozen key strings
    return {sys.intern(key): n for key, n in sorted(counts.items())}


def gtd_subsumes(candidate: Gtd, query: Gtd) -> bool:
    """True iff the candidate has at least the query's count for every key:
    the comparison :class:`GtdIndex` makes for a whole store at once."""
    count = candidate.get
    for key, n in query.items():
        if count(key, 0) < n:
            return False
    return True


#: turns the digits of ``bin`` into bytes that are false for 0 and true for 1
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _slots(mask: int) -> list[int]:
    """The positions of a mask's set bits, ascending."""
    bits = bin(mask)[:1:-1].encode("ascii").translate(_BIT_BYTES)  # lowest bit first
    return list(compress(range(len(bits)), bits))


class GtdIndex:
    """Fingerprints of a store, one per slot, as range-encoded bitmaps
    (Chan and Ioannidis, "Bitmap index design and evaluation", SIGMOD
    1998).  For each key it keeps the distinct counts stored under the key,
    ascending, and for each of them one integer mask over the slots whose
    count for the key is at least that count.  So a query reads one mask
    per key, whatever the number of slots, in the filter-then-verify style
    of gIndex (Yan, Yu and Han, SIGMOD 2004).

    Never changed once built: :meth:`with_slot` derives a new index with
    one more slot, so a reader holding this one keeps its answers.  Slots
    are only ever added, so a mask only ever gains bits.
    """

    __slots__ = ("size", "_postings")

    def __init__(
        self, size: int = 0, postings: dict[str, tuple[list[int], list[int]]] | None = None
    ):
        #: slots in use, numbered from 0
        self.size = size
        #: key -> (distinct counts ascending, the mask of each count)
        self._postings = {} if postings is None else postings

    @classmethod
    def build(cls, fingerprints: Sequence[Gtd]) -> GtdIndex:
        """The index holding each fingerprint in the slot of its position."""
        slots_by_count: defaultdict[str, defaultdict[int, list[int]]] = defaultdict(
            lambda: defaultdict(list)
        )
        for slot, fingerprint in enumerate(fingerprints):
            for key, n in fingerprint.items():
                slots_by_count[key][n].append(slot)
        postings = {}
        for key, by_count in slots_by_count.items():
            counts = sorted(by_count)
            bits = bytearray((len(fingerprints) + 7) // 8)
            masks = []
            for n in reversed(counts):  # each mask adds its own count's slots to the next one's
                for slot in by_count[n]:
                    bits[slot >> 3] |= 1 << (slot & 7)
                masks.append(int.from_bytes(bits, "little"))
            masks.reverse()
            postings[key] = (counts, masks)
        return cls(len(fingerprints), postings)

    def with_slot(self, fingerprint: Gtd) -> GtdIndex:
        """A new index holding ``fingerprint`` in the next slot, ``size``.
        A slot is never rewritten, so this only sets bits; only the postings
        of the fingerprint's keys are copied, the rest are shared."""
        postings = dict(self._postings)
        bit = 1 << self.size
        for key, n in fingerprint.items():
            counts, masks = postings.get(key, ([], []))
            i = bisect_left(counts, n)
            if i == len(counts) or counts[i] != n:
                counts = counts[:i] + [n] + counts[i:]
                masks = masks[:i] + [masks[i] if i < len(masks) else 0] + masks[i:]
            postings[key] = (counts, [mask | bit for mask in masks[: i + 1]] + masks[i + 1 :])
        return GtdIndex(self.size + 1, postings)

    def dominating(self, fingerprint: Gtd) -> list[int]:
        """The slots whose fingerprint dominates ``fingerprint``
        (``gtd_subsumes(stored, fingerprint)``), ascending; every slot for
        the empty fingerprint."""
        postings = self._postings
        hits = (1 << self.size) - 1
        for key, n in fingerprint.items():
            counts, masks = postings.get(key, ((), ()))
            i = bisect_left(counts, n)
            if i == len(counts):  # an absent key, or more than any slot has
                return []
            hits &= masks[i]
        return _slots(hits)

    def dominated(self, fingerprint: Gtd) -> list[int]:
        """The slots whose fingerprint ``fingerprint`` dominates
        (``gtd_subsumes(fingerprint, stored)``), ascending: all slots but
        those with more of some key than ``fingerprint`` has."""
        count = fingerprint.get
        over = 0
        for key, (counts, masks) in self._postings.items():
            i = bisect_right(counts, count(key, 0))
            if i < len(counts):
                over |= masks[i]
        return _slots(((1 << self.size) - 1) & ~over)

    def fingerprints(self) -> list[Gtd]:
        """The fingerprint held in each slot, by slot.  A mask holds every
        slot of the masks after it, so the slots whose count for a key is
        exactly a count are its mask less the next one's, read with the
        reader :meth:`dominating` and :meth:`dominated` use."""
        held: list[Gtd] = [{} for _ in range(self.size)]
        for key, (counts, masks) in self._postings.items():
            for n, mask, above in zip(counts, masks, [*masks[1:], 0]):
                for slot in _slots(mask & ~above):
                    held[slot][key] = n
        return held


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
