"""Random construction and text generators shared by the test modules."""

from __future__ import annotations

import random
from collections import Counter

from geokb.model import (
    Construction,
    DISTINCT_ARG_PREDICATES,
    FactPair,
    ObjectDecl,
    PREDICATES,
    normalize_fact,
    parse_construction,
)

BARE_TRIANGLE_TEXT = """\
point A
point B
point C
line a
line b
line c
line_through(a, B, C)
line_through(b, A, C)
line_through(c, A, B)
"""

TRIANGLE_WITH_CIRCLE_TEXT = BARE_TRIANGLE_TEXT + "circle k\n"

# Three lines through one shared point: its fingerprint, path counts too, dominates
# the bare triangle's, but no triangle embeds into it.
CONCURRENT_LINES_TEXT = """\
point P
point X
point Y
point Z
line a
line b
line c
line_through(a, P, X)
line_through(b, P, Y)
line_through(c, P, Z)
"""


def bare_triangle() -> Construction:
    return parse_construction(BARE_TRIANGLE_TEXT)


def triangle_with_circle() -> Construction:
    return parse_construction(TRIANGLE_WITH_CIRCLE_TEXT)


def concurrent_lines() -> Construction:
    return parse_construction(CONCURRENT_LINES_TEXT)


def parallel_chain(n: int) -> Construction:
    """Lines l0..l{n-1}, each stated parallel to the next; the closure makes
    every pair parallel."""
    names = [f"l{i}" for i in range(n)]
    return Construction(
        frozenset(ObjectDecl(name, "line") for name in names),
        frozenset(normalize_fact(("parallel", pair)) for pair in zip(names, names[1:])),
    )


def collinear_points(n: int) -> Construction:
    """Points P0..P{n-1} on one line; the closure states every triple collinear."""
    names = [f"P{i}" for i in range(n)]
    return Construction(
        frozenset([ObjectDecl("m", "line"), *(ObjectDecl(name, "point") for name in names)]),
        frozenset(("incident", (name, "m")) for name in names),
    )


def random_line_figure(rng: random.Random, max_lines: int = 6) -> Construction:
    """Lines only, with about 1.5 facts per line, each ``parallel`` or
    ``perpendicular``, so that classes of parallel lines form, meet
    perpendiculars and merge."""
    names = [f"l{i}" for i in range(rng.randint(2, max_lines))]
    facts = {
        normalize_fact((rng.choice(("parallel", "perpendicular")), tuple(rng.sample(names, 2))))
        for _ in range(rng.randint(1, 3 * len(names) // 2))
    }
    return Construction(frozenset(ObjectDecl(name, "line") for name in names), frozenset(facts))


def _feasible(predicate: str, pool: dict[str, list[str]]) -> bool:
    kinds = PREDICATES[predicate]
    if predicate in DISTINCT_ARG_PREDICATES:
        return len(pool[kinds[0]]) >= len(kinds)
    if predicate == "equidistant":
        return len(pool["point"]) >= 2
    needed = Counter(kinds)
    return all(len(pool[kind]) >= 1 for kind in needed)


def random_fact(rng: random.Random, pool: dict[str, list[str]]) -> FactPair | None:
    feasible = [p for p in PREDICATES if _feasible(p, pool)]
    if not feasible:
        return None
    predicate = rng.choice(feasible)
    kinds = PREDICATES[predicate]
    if predicate in DISTINCT_ARG_PREDICATES:
        args = rng.sample(pool[kinds[0]], len(kinds))
    elif predicate == "equidistant":
        args = rng.sample(pool["point"], 2) + rng.sample(pool["point"], 2)
    else:
        args = [rng.choice(pool[kind]) for kind in kinds]
    return normalize_fact((predicate, tuple(args)))


def random_construction(
    rng: random.Random,
    max_points: int = 5,
    max_lines: int = 4,
    max_circles: int = 2,
    max_facts: int = 10,
) -> Construction:
    pool = {
        "point": [f"P{i}" for i in range(rng.randint(0, max_points))],
        "line": [f"l{i}" for i in range(rng.randint(0, max_lines))],
        "circle": [f"k{i}" for i in range(rng.randint(0, max_circles))],
    }
    objects = frozenset(
        ObjectDecl(name, kind) for kind, names in pool.items() for name in names
    )
    facts = set()
    for _ in range(rng.randint(0, max_facts)):
        f = random_fact(rng, pool)
        if f is not None:
            facts.add(f)
    return Construction(objects, frozenset(facts))


def induced_subconstruction(
    rng: random.Random, construction: Construction, keep: float = 0.6
) -> Construction:
    kept = {o.name for o in construction.objects if rng.random() < keep}
    objects = frozenset(o for o in construction.objects if o.name in kept)
    facts = frozenset(
        f for f in construction.facts if all(a in kept for a in f[1])
    )
    return Construction(objects, facts)


#: every way :func:`write_kinds` names, which a test of growth should meet
WRITE_KINDS = frozenset({"new key", "below", "between", "above", "repeat"})


def write_kinds(stored: list[dict[str, int]], fingerprint: dict[str, int]) -> set[str]:
    """How a fingerprint appended after ``stored`` meets them: ``repeat``
    if it equals a stored fingerprint, and for each of its keys ``new
    key`` (no stored fingerprint has it), or ``below``, ``between`` or
    ``above`` the key's stored counts (a count equal to a stored one is
    none of these)."""
    kinds = {"repeat"} if fingerprint in stored else set()
    for key, n in fingerprint.items():
        counts = sorted({f[key] for f in stored if key in f})
        if not counts:
            kinds.add("new key")
        elif n < counts[0]:
            kinds.add("below")
        elif n > counts[-1]:
            kinds.add("above")
        elif n not in counts:
            kinds.add("between")
    return kinds


#: characters JSON and UTF-8 treat specially: non-ASCII (one astral), quotes,
#: backslashes, controls, and lone surrogates, high and low
AWKWARD_CHARS = 'aZ0 ãéçõ中😀"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\ud800\udbff\udc00\udfff'


def awkward_text(rng: random.Random, max_len: int = 12) -> str:
    """Text drawn from :data:`AWKWARD_CHARS`.  A high surrogate is never
    followed by a low one: that pair would be read back from its JSON
    escapes as the one astral character it encodes."""
    chars: list[str] = []
    for _ in range(rng.randint(0, max_len)):
        char = rng.choice(AWKWARD_CHARS)
        if chars and "\ud800" <= chars[-1] <= "\udbff" and "\udc00" <= char <= "\udfff":
            continue
        chars.append(char)
    return "".join(chars)
