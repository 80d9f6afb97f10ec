"""Seeded inputs of the benchmark: the stores, the request scripts, and
what the answers must satisfy.

Everything here is a pure function of the seed.  The construction
vocabulary below is a frozen copy of the text format's predicates, so the
inputs do not shift when the program's own tables are reorganised.  The
program sees only the generated text: entries go in through
``Repository.insert(force=True)`` and requests over the wire protocol.

Synthetic entries follow the distribution of ``synthetic_corpus_entry`` in
``tests/test_acceptance.py``: a random construction of at most 4 points, 3
lines, 2 circles and 8 facts, with a triangle planted in every second
entry.

Each script is a cycle that the client replays.  Its mix is chosen so that the
median of every latency class falls inside one group of requests of about
equal cost, with room on both sides: a median that sits between two groups
jumps from run to run.  Groups are spread evenly over the cycle, so a run
that stops part-way through a cycle keeps the mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: predicate -> argument kinds, as in the construction text format
PREDICATES: dict[str, tuple[str, ...]] = {
    "incident": ("point", "line"),
    "on_circle": ("point", "circle"),
    "center": ("point", "circle"),
    "line_through": ("line", "point", "point"),
    "circle_centered": ("circle", "point", "point"),
    "parallel": ("line", "line"),
    "perpendicular": ("line", "line"),
    "collinear": ("point", "point", "point"),
    "concurrent": ("line", "line", "line"),
    "midpoint": ("point", "point", "point"),
    "equidistant": ("point", "point", "point", "point"),
}
DISTINCT_ARGS = {"parallel", "perpendicular", "collinear", "concurrent", "midpoint"}
KINDS = ("point", "line", "circle")
#: latency classes of requests, see Request
REQUEST_KINDS = ("geo", "cand", "text", "insert")

TRIANGLE_OBJECTS = {"TA": "point", "TB": "point", "TC": "point", "ta": "line", "tb": "line", "tc": "line"}
TRIANGLE_FACTS = frozenset({
    ("line_through", ("ta", "TB", "TC")),
    ("line_through", ("tb", "TA", "TC")),
    ("line_through", ("tc", "TA", "TB")),
})

BARE_TRIANGLE = """\
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
TRIANGLE_WITH_CIRCLE = BARE_TRIANGLE + "circle k\n"
# Three lines through one point: the fingerprint filter passes most
# entries with a planted triangle, yet no triangle embeds into it.
CONCURRENT_LINES = """\
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

# Selective shapes: few stored entries hold them.  How many do is a
# matter of chance, so their cost varies by seed.
MIDPOINT_CIRCLE = """\
point A
point B
point M
circle k
midpoint(M, A, B)
circle_centered(k, M, A)
"""
PERPENDICULAR_AT_POINT = """\
point P
point Q
line a
line b
perpendicular(a, b)
incident(P, a)
incident(P, b)
incident(Q, a)
"""
# Four circles through one point: no entry holds it (stored entries have
# at most two circles; drafts use only two in their facts), so its cost is
# the filter's scan of the whole store, the same for every seed.
CIRCLE_PENCIL = "point P\n" + "".join(f"circle k{i}\n" for i in range(1, 5)) + "".join(
    f"on_circle(P, k{i})\n" for i in range(1, 5))
PARALLEL_TRANSVERSAL = """\
point P
point Q
line a
line b
line c
parallel(a, b)
line_through(c, P, Q)
incident(P, a)
incident(Q, b)
"""

SEARCH_ENTRIES = 2000
WRITE_MIX_ENTRIES = 2000
#: requests per write-mix round, half of them inserts
WRITE_MIX_ROUND = 160
DRAFT_OBJECTS = 28
#: regexes over corpus names for the corpus workloads
CORPUS_PATTERNS = ("ceva", "triangle", "^c", "circle", "median|midpoint", "theorem$")


@dataclass(frozen=True)
class Figure:
    objects: tuple[tuple[str, str], ...]  # (name, kind), sorted
    facts: frozenset[tuple[str, tuple[str, ...]]]

    @staticmethod
    def of(objects: dict[str, str], facts) -> "Figure":
        return Figure(tuple(sorted(objects.items())), frozenset(facts))

    @property
    def text(self) -> str:
        """Construction text: objects by kind then name, then sorted facts."""
        lines = [f"{kind} {name}" for name, kind in sorted(self.objects, key=lambda o: (o[1], o[0]))]
        lines.extend(sorted({f"{p}({', '.join(args)})" for p, args in self.facts}))
        return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class Entry:
    """An entry as the generator wrote it.  ``identifier`` is empty when
    the store assigns one."""

    identifier: str
    name: str
    code: str
    level: int = 3
    description: str = "Generated stress-test entry."
    short_description: str = ""
    keywords: tuple[str, ...] = ("synthetic",)
    kind: str = "construction"
    planted: bool = False


@dataclass(frozen=True)
class Request:
    """One request of a client script.

    ``kind`` is the latency class: ``geo`` (confirmed geometric query),
    ``cand`` (unconfirmed), ``text`` or ``insert`` (unforced).  ``key``
    names the distinct request, so repeats can be compared.  ``source`` is
    the index of the stored entry a subfigure or copy was taken from.
    """

    kind: str
    key: str
    query: str = ""
    mode: str = "simple"
    code: str = ""
    draft: Entry | None = None
    source: int | None = None


@dataclass(frozen=True)
class Workload:
    entries: tuple[Entry, ...]
    #: the client takes requests from the scripts in turn, each replayed cyclically
    scripts: tuple[tuple[Request, ...], ...]
    read_only: bool = True
    #: run in rounds of this many requests, each on a fresh copy of the store
    round_requests: int | None = None


# -- random constructions ------------------------------------------------------


def _feasible(predicate: str, pool: dict[str, list[str]]) -> bool:
    kinds = PREDICATES[predicate]
    if predicate in DISTINCT_ARGS:
        return len(pool[kinds[0]]) >= len(kinds)
    if predicate == "equidistant":
        return len(pool["point"]) >= 2
    return all(pool[kind] for kind in kinds)


def random_figure(rng: random.Random, max_points=4, max_lines=3, max_circles=2, max_facts=8) -> Figure:
    pool = {
        "point": [f"P{i}" for i in range(rng.randint(0, max_points))],
        "line": [f"l{i}" for i in range(rng.randint(0, max_lines))],
        "circle": [f"k{i}" for i in range(rng.randint(0, max_circles))],
    }
    facts = set()
    for _ in range(rng.randint(0, max_facts)):
        feasible = [p for p in PREDICATES if _feasible(p, pool)]
        if not feasible:
            continue
        predicate = rng.choice(feasible)
        kinds = PREDICATES[predicate]
        if predicate in DISTINCT_ARGS:
            args = rng.sample(pool[kinds[0]], len(kinds))
        elif predicate == "equidistant":
            args = rng.sample(pool["point"], 2) + rng.sample(pool["point"], 2)
        else:
            args = [rng.choice(pool[kind]) for kind in kinds]
        facts.add((predicate, tuple(args)))
    return Figure.of({name: kind for kind, names in pool.items() for name in names}, facts)


def _with_triangle(figure: Figure) -> Figure:
    return Figure.of({**dict(figure.objects), **TRIANGLE_OBJECTS}, figure.facts | TRIANGLE_FACTS)


def synthetic_store(rng: random.Random, size: int, explicit_ids: bool) -> tuple[list[Entry], list[Figure]]:
    """Entries plus each entry's random part (for subfigures); every second
    entry gets the planted triangle.

    Explicit identifiers are ``SYN00001`` upwards: the store assigns
    ``GEO0001`` to ``GEO9999`` by itself, which would not reach 10k entries.
    """
    entries, parts = [], []
    for i in range(size):
        part, planted = random_figure(rng), i % 2 == 0
        figure = _with_triangle(part) if planted else part
        entries.append(Entry(
            f"SYN{i + 1:05d}" if explicit_ids else "",
            f"Synthetic figure {i:05d}",
            figure.text,
            level=(i % 5) + 1,
            planted=planted,
        ))
        parts.append(part)
    return entries, parts


def _induced(rng: random.Random, figure: Figure, keep: float) -> Figure:
    kept = {name for name, _ in figure.objects if rng.random() < keep}
    return Figure(
        tuple(o for o in figure.objects if o[0] in kept),
        frozenset(f for f in figure.facts if all(a in kept for a in f[1])),
    )


def parallel_chain(n: int, prefix: str) -> str:
    names = [f"{prefix}{i}" for i in range(n)]
    return Figure.of({name: "line" for name in names},
                     {("parallel", (a, b)) for a, b in zip(names, names[1:])}).text


def collinear_points(n: int, prefix: str) -> str:
    names = [f"{prefix.upper()}{i}" for i in range(n)]
    line = f"{prefix}0"
    return Figure.of({**{name: "point" for name in names}, line: "line"},
                     {("incident", (p, line)) for p in names}).text


# -- request helpers -------------------------------------------------------------


def subfigures(rng: random.Random, parts: list[Figure], count: int) -> list[Request]:
    """Selective queries: induced subfigures of an entry's random part with
    at least four objects and three facts.  Each finds its source entry."""
    out = []
    order = list(range(len(parts)))
    rng.shuffle(order)
    for i in order:
        sub = _induced(rng, parts[i], keep=0.85)
        if len(sub.objects) >= 4 and len(sub.facts) >= 3:
            out.append(Request("geo", f"geo:sub{len(out)}", code=sub.text, source=i))
            if len(out) == count:
                return out
    raise ValueError("store too small for the requested subfigures")


def name_patterns(rng: random.Random, size: int, count: int) -> list[Request]:
    """Simple-mode regexes that each select ten synthetic names."""
    return [Request("text", f"simple:{block}", query=f"figure {block:04d}\\d$")
            for block in rng.sample(range(size // 10), count)]


def copies(entries: list[Entry], chosen: list[int]) -> list[Request]:
    """Unforced inserts of exact copies of the chosen stored entries: each
    must come back ``duplicate`` naming its source."""
    return [
        Request("insert", f"copy{n}", draft=Entry(
            "", f"Copy {n} of {entries[i].name}", entries[i].code, entries[i].level,
            description="Exact copy of a stored entry.", keywords=("copy",), kind=entries[i].kind,
        ), source=i)
        for n, i in enumerate(chosen)
    ]


def smallest(entries: list[Entry], count: int) -> list[int]:
    return sorted(range(len(entries)), key=lambda i: (len(entries[i].code), entries[i].identifier))[:count]


def as_kind(kind: str, request: Request) -> Request:
    """The same geometric query with the other confirmation mode."""
    shape = request.key.split(":", 1)[1]
    return Request(kind, f"{kind}:{shape}", code=request.code, source=request.source)


def geo(kind: str, key: str, code: str) -> Request:
    return Request(kind, f"{kind}:{key}", code=code)


def interleave(*groups: list[Request]) -> tuple[Request, ...]:
    """One cycle with each group spread evenly over it, in the group's
    order."""
    slots = []
    for group in groups:
        for i, request in enumerate(group):
            slots.append(((i + 0.5) / len(group), len(slots), request))
    return tuple(request for *_, request in sorted(slots, key=lambda s: s[:2]))


# -- workloads -----------------------------------------------------------------


def search(seed: int, size: int = SEARCH_ENTRIES) -> Workload:
    """Read-only traffic on a synthetic store, from one client.

    Confirmed and unconfirmed queries are mostly the bare triangle, so their
    median is the cost of filtering, confirming and sending about half the
    store.  The inserts copy entries that hold only the planted triangle:
    the gate rejects them after matching them against every entry with a
    triangle, a cost that does not depend on which copy is sent.
    """
    rng = random.Random(f"search:{seed}")
    entries, parts = synthetic_store(rng, size, explicit_ids=True)
    subs = subfigures(rng, parts, 2)
    bare = [i for i, part in enumerate(parts) if entries[i].planted and not part.objects]
    script = interleave(
        list(interleave([geo("geo", "triangle", BARE_TRIANGLE)] * 5, [
            geo("geo", "triangle+circle", TRIANGLE_WITH_CIRCLE), geo("geo", "concurrent", CONCURRENT_LINES), subs[0]])),
        list(interleave([geo("cand", "triangle", BARE_TRIANGLE)] * 5, [
            geo("cand", "triangle+circle", TRIANGLE_WITH_CIRCLE), as_kind("cand", subs[1])])),
        name_patterns(rng, size, 4)
        + [Request("text", f"extended:{q}", query=q, mode="extended") for q in ("synthetic", "stress figure")],
        copies(entries, rng.sample(bare, 2)) * 2,
    )
    return Workload(tuple(entries), (script,))


def corpus_entries() -> list[Entry]:
    from geokb.corpus import ENTRIES

    return [Entry(e.identifier, e.name, e.code, e.level, e.description, e.short_description,
                  tuple(e.keywords), e.kind) for e in ENTRIES]


def figures_corpus(seed: int, corpus: list[Entry]) -> Workload:
    """Adversarial figures against the demo corpus, from one client:
    parallel chains of 10-30 lines and 5-20 collinear points.  Closure and
    the depth-2 fingerprint do nearly all the work; nothing matches.  The
    14-line chain holds the median of both confirmed and unconfirmed
    queries; the largest figures are few, so a run sees many requests."""
    rng = random.Random(f"figures:{seed}")
    prefixes = iter(rng.sample("abcdefghjkmnpqrsuvwxyz", 11))

    def chain(n):
        return geo("geo", f"chain{n}", parallel_chain(n, next(prefixes)))

    def points(n):
        return geo("geo", f"points{n}", collinear_points(n, next(prefixes)))

    small = [chain(10), points(5), points(8), points(10), chain(12)]
    middle = chain(14)
    large = [points(12), chain(18), points(16), chain(30), points(20)]
    script = interleave(
        list(interleave(small, [middle] * 9, large)),
        [as_kind("cand", r) for r in interleave([small[0]], [middle] * 6)],
        [Request("text", f"simple:{p}", query=p) for p in rng.sample(CORPUS_PATTERNS, 3)] * 4,
        copies(corpus, smallest(corpus, 1)) * 4,
    )
    return Workload(tuple(corpus), (script,))


def wire_corpus(seed: int, corpus: list[Entry]) -> Workload:
    """Cheap requests on the demo corpus from one client, so that
    connecting, the thread per connection and JSON framing are a large
    share of each request."""
    rng = random.Random(f"wire:{seed}")
    script = interleave(
        [geo("geo", "triangle", BARE_TRIANGLE)] * 2,
        [geo("cand", "triangle", BARE_TRIANGLE)] * 2,
        [Request("text", f"simple:{p}", query=p) for p in rng.sample(CORPUS_PATTERNS, 4)] * 4,
        copies(corpus, smallest(corpus, 1)),
    )
    return Workload(tuple(corpus), (script,))


def draft_sizes(rng: random.Random) -> list[tuple[int, int, int]]:
    """Object counts (points, lines, circles) for the fresh drafts: all sum
    to DRAFT_OBJECTS, so none is at least another in every kind, and all
    have 3 or more circles, more than any stored entry.  An embedding needs
    at least as many objects of each kind, so no stored entry or other
    draft can contain a fresh draft."""
    sizes = [(p, l, DRAFT_OBJECTS - p - l)
             for p in range(4, DRAFT_OBJECTS) for l in range(3, DRAFT_OBJECTS - p - 2)]
    rng.shuffle(sizes)
    return sizes


def fresh_draft(rng: random.Random, j: int, size: tuple[int, int, int]) -> Entry:
    """A synthetic draft padded with bare objects to the given counts."""
    part = random_figure(rng)
    objects = dict(part.objects)
    for kind, prefix, count in zip(KINDS, ("Q", "m", "w"), size):
        have = sum(k == kind for k in objects.values())
        objects.update({f"{prefix}{n}": kind for n in range(count - have)})
    return Entry("", f"Write-mix draft {j:04d}", Figure.of(objects, part.facts).text,
                 level=(j % 5) + 1, keywords=("draft",))


def write_mix(seed: int, size: int = WRITE_MIX_ENTRIES) -> Workload:
    """Writes beside reads on a store with identifiers assigned by the store.

    The client alternates between an unforced insert (one in four an exact
    copy of a stored entry, the rest fresh drafts) and a read: a name regex
    or a selective geometric query, confirmed or not.  Most geometric reads
    are the circle pencil, which no entry holds, so their median is the
    filter's scan, whose cost does not hang on how many entries hit.  When the inserts run
    out they start again, and a fresh draft sent again must come back as a
    duplicate of itself.  The load runs in rounds of WRITE_MIX_ROUND
    requests, each on a fresh copy of the store, so every round does the
    same work however fast the host is.
    """
    rng = random.Random(f"write-mix:{seed}")
    entries, _parts = synthetic_store(rng, size, explicit_ids=False)
    sizes = draft_sizes(rng)
    rich = [i for i, e in enumerate(entries) if e.code.count("\n") >= 12]
    dupes = iter(copies(entries, rng.sample(rich, len(sizes) // 3)))
    writer = []
    for j, counts in enumerate(sizes):
        writer.append(Request("insert", f"fresh{j}", draft=fresh_draft(rng, j, counts)))
        if j % 3 == 2:
            writer.append(next(dupes))
    reader = interleave(
        name_patterns(rng, size, 4),
        list(interleave([geo("geo", "pencil", CIRCLE_PENCIL)] * 5, [
            geo("geo", "midpoint+circle", MIDPOINT_CIRCLE), geo("geo", "perpendicular", PERPENDICULAR_AT_POINT),
            geo("geo", "parallel+transversal", PARALLEL_TRANSVERSAL)])),
        list(interleave([geo("cand", "pencil", CIRCLE_PENCIL)] * 3, [geo("cand", "perpendicular", PERPENDICULAR_AT_POINT)])),
    )
    return Workload(tuple(entries), (tuple(writer), reader), read_only=False, round_requests=WRITE_MIX_ROUND)
