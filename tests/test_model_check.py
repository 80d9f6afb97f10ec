"""The whole request path against a model, in the style of QuickCheck's
state-machine testing: random sequences of inserts, queries and restarts go
through ``server.handle_request`` to a :class:`Repository` on a temporary
directory, and each answer is compared, as a decoded document in order,
with the one a plain list of entries gives.

The model shares no search code with the store.  It answers from
``tests/oracles.py`` alone: embeddings by trying every map over the naive
closure, dominance and exact duplicates by the pairwise fingerprint, and
extended text queries by their ranking oracle.  An error answer is
compared only as an error, not by its text.  Figures have at most six
objects, so trying every map stays cheap.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import tempfile
from pathlib import Path
from typing import NamedTuple

from hypothesis import HealthCheck, Phase, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from geokb.model import KINDS, Construction, ObjectDecl, normalize_fact, serialize_construction
from geokb.repository import Repository
from geokb.rules import default_rules
from geokb.server import handle_request

from generators import random_construction, random_fact, random_line_figure
from oracles import embeds_by_definition, naive_closure, names_of_kind, pairwise_gtd, ranked_text_hits

MAX_OBJECTS = 6
WORDS = ("Triangle", "circle", "Parallel", "lines", "Ceva", "midpoint")
KEYWORDS = ("alpha", "Beta", "gamma ray")
#: identifiers a draft may give: some the store would assign itself, some it never would
GIVEN = ("GEO0006", "GEO0008", "GEO0010", "P.1", "e_2", "x-9", "GEO0002")
#: name patterns; the last one does not compile, so its query gets an error
PATTERNS = ("tri", "^circle", "1$", "lines|ceva", "parallel", "e", "(")
EXTENDED = ("triangle", "circle lines circle", "alpha 2", "gamma", "nothing")
#: most queries carry no filter; the last filter's key is unknown, so its query gets an error
FILTERS = (None, None, None, None, "level=2", "kind=conjecture", "keyword=ALPHA", "language=PT",
           "level=3 AND kind=construction", "colour=red")
SHAPES = ("fresh", "copy", "sub", "super", "variant")


class Entry(NamedTuple):
    """A stored entry as the model keeps it, with its figure and the
    pairwise fingerprint of the figure's naive closure."""

    identifier: str
    name: str
    description: str
    short_description: str
    keywords: tuple[str, ...]
    code: str
    language: str
    level: int
    kind: str
    figure: Construction
    fingerprint: dict[str, int]


def fresh_figure(rng: random.Random) -> Construction:
    if rng.random() < 0.2:
        return random_line_figure(rng, max_lines=4)
    return random_construction(rng, max_points=3, max_lines=2, max_circles=1, max_facts=6)


def renamed(rng: random.Random, figure: Construction) -> Construction:
    """The figure under new names, each kind's names shuffled."""
    names: dict[str, str] = {}
    for kind, prefix in zip(KINDS, ("Q", "m", "c")):
        old = sorted(o.name for o in figure.objects if o.kind == kind)
        rng.shuffle(old)
        names.update((name, f"{prefix}{i}") for i, name in enumerate(old))
    return Construction(
        frozenset(ObjectDecl(names[o.name], o.kind) for o in figure.objects),
        frozenset(normalize_fact((p, tuple(names[a] for a in args))) for p, args in figure.facts),
    )


def sub_figure(rng: random.Random, figure: Construction) -> Construction:
    """The figure induced on about 60% of its objects, drawn in name order,
    so that the draw does not depend on the process's string hashing."""
    kept = {o.name for o in sorted(figure.objects, key=lambda o: o.name) if rng.random() < 0.6}
    return Construction(
        frozenset(o for o in figure.objects if o.name in kept),
        frozenset(f for f in figure.facts if all(a in kept for a in f[1])),
    )


def with_random_fact(rng: random.Random, figure: Construction) -> Construction:
    """The figure with one more fact over its objects, if one fits them."""
    fact = random_fact(rng, {kind: names_of_kind(figure, kind) for kind in KINDS})
    return Construction(figure.objects, figure.facts | ({fact} if fact else set()))


def extended(rng: random.Random, figure: Construction) -> Construction:
    """The figure with one more object, if it has room, and one more fact."""
    objects = set(figure.objects)
    if len(objects) < MAX_OBJECTS:
        objects.add(ObjectDecl(f"n{len(objects)}", rng.choice(KINDS)))
    return with_random_fact(rng, Construction(frozenset(objects), figure.facts))


def varied(rng: random.Random, figure: Construction) -> Construction:
    """The figure's objects under the same names, with one of its facts
    dropped, if it has any, and one fact drawn at random: a stored figure's
    neighbour that many queries cannot tell from it by names alone."""
    facts = sorted(figure.facts)
    if facts:
        facts.remove(rng.choice(facts))
    return with_random_fact(rng, Construction(figure.objects, frozenset(facts)))


def dominates(fingerprint: dict[str, int], query: dict[str, int]) -> bool:
    return all(fingerprint.get(key, 0) >= n for key, n in query.items())


def passes(entry: Entry, filters: str | None) -> bool:
    """A filter string's conjunction by its definition; unknown keys never
    reach here, since the request is refused."""
    for clause in filters.split(" AND ") if filters else ():
        key, _, value = clause.partition("=")
        if key == "level" and entry.level != int(value):
            return False
        if key == "kind" and entry.kind != value:
            return False
        if key == "keyword" and value.lower() not in [k.lower() for k in entry.keywords]:
            return False
        if key == "language" and entry.language.lower() != value.lower():
            return False
    return True


def hits(entries: list[Entry]) -> list:
    return [(e.identifier, {"Name": e.name, "Description": e.description, "Code": e.code}) for e in entries]


class StoreMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.rules = default_rules()
        self.dir = Path(tempfile.mkdtemp(prefix="geokb-model-"))
        self.repository = Repository(self.dir)
        self.entries: dict[str, Entry] = {}  # identifier -> entry, in insertion order
        self.closures: dict[Construction, frozenset] = {}

    def teardown(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- the model -----------------------------------------------------------

    def closed(self, figure: Construction) -> frozenset:
        if figure not in self.closures:
            self.closures[figure] = naive_closure(figure, self.rules)
        return self.closures[figure]

    def embeds(self, query: Construction, target: Construction) -> bool:
        return embeds_by_definition(query, self.closed(query), target, self.closed(target))

    def stored(self) -> list[Entry]:
        """Every entry, in string order of identifiers."""
        return [self.entries[identifier] for identifier in sorted(self.entries)]

    def figure(self, seed: int, shape: str) -> Construction:
        rng = random.Random(seed)
        if shape == "fresh" or not self.entries:
            return fresh_figure(rng)
        base = rng.choice(self.stored()).figure
        if shape == "copy":
            return renamed(rng, base)
        if shape == "sub":
            return sub_figure(rng, base)
        if shape == "variant":
            return varied(rng, base)
        return extended(rng, base)

    def send(self, request: dict) -> object:
        line = (json.dumps(request, ensure_ascii=False) + "\n").encode("utf-8")
        return json.loads(handle_request(self.repository, line))

    def check(self, answer: object, expected: object) -> None:
        """``expected`` is None for an error, a list of hits in order, or an
        insert answer."""
        if expected is None:
            assert isinstance(answer, dict) and list(answer) == ["Error"], answer
        elif isinstance(expected, list):
            assert isinstance(answer, dict) and list(answer.items()) == expected
        else:
            assert answer == expected

    # -- rules ---------------------------------------------------------------

    @initialize(seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=4))
    def seed_store(self, seeds):
        """A few forced inserts, so that queries and derived drafts meet a store."""
        for seed in seeds:
            self.insert_draft(seed, "fresh", True, None, seed)

    @rule(
        seed=st.integers(0, 2**32), shape=st.sampled_from(SHAPES), force=st.booleans(), text=st.integers(0, 2**32),
    )
    def insert(self, seed, shape, force, text):
        self.insert_draft(seed, shape, force, None, text)

    @rule(
        seed=st.integers(0, 2**32), shape=st.sampled_from(SHAPES), force=st.booleans(),
        given=st.sampled_from(GIVEN), text=st.integers(0, 2**32),
    )
    def insert_with_identifier(self, seed, shape, force, given, text):
        self.insert_draft(seed, shape, force, given, text)

    def insert_draft(self, seed, shape, force, given, text):
        """Send an insert of a draft with the figure that ``seed`` and
        ``shape`` give, forced or not, with the ``given`` identifier or none;
        ``text`` seeds its other members."""
        figure = self.figure(seed, shape)
        rng = random.Random(text)
        draft = Entry(
            given or "", f"{rng.choice(WORDS)} {rng.choice(WORDS)} {rng.randint(1, 3)}",
            rng.choice(("", "A figure with lines.", "circle and alpha")), rng.choice(("", "Triangle")),
            tuple(rng.sample(KEYWORDS, rng.randint(0, 2))), serialize_construction(figure),
            rng.choice(("en", "pt")), rng.randint(1, 5), rng.choice(("construction", "conjecture")),
            figure, pairwise_gtd(figure, self.closed(figure)),
        )
        document = {
            "Name": draft.name, "Description": draft.description, "ShortDescription": draft.short_description,
            "Keywords": list(draft.keywords), "Code": draft.code, "Language": draft.language,
            "Level": draft.level, "Kind": draft.kind,
        }
        if given:
            document["Identifier"] = given
        answer = self.send({"Insert": document, **({"Force": True} if force else {})})
        if given in self.entries:
            return self.check(answer, None)
        report = {"Exact": [], "Containing": [], "Contained": []}
        if not force:
            for entry in self.stored():
                if self.embeds(figure, entry.figure):
                    exact = entry.fingerprint == draft.fingerprint
                    report["Exact" if exact else "Containing"].append(entry.identifier)
                elif self.embeds(entry.figure, figure):
                    report["Contained"].append(entry.identifier)
            if report["Exact"] or report["Containing"]:
                return self.check(answer, {"Status": "duplicate", "Identifier": None, "Duplicates": report})
        identifier = given
        if not identifier:
            number = 1
            while f"GEO{number:04d}" in self.entries:
                number += 1
            identifier = f"GEO{number:04d}"
        self.check(answer, {
            "Status": "inserted", "Identifier": identifier,
            "Duplicates": {"Exact": [], "Containing": [], "Contained": []},
        })
        self.entries[identifier] = draft._replace(identifier=identifier)

    @rule(pattern=st.sampled_from(PATTERNS), filters=st.sampled_from(FILTERS))
    def simple_query(self, pattern, filters):
        answer = self.send({"Query": pattern, **({"Filters": filters} if filters else {})})
        if pattern == "(" or filters == "colour=red":
            return self.check(answer, None)
        self.check(answer, hits([
            e for e in self.stored() if re.search(pattern, e.name, re.IGNORECASE) and passes(e, filters)
        ]))

    @rule(query=st.sampled_from(EXTENDED), filters=st.sampled_from(FILTERS))
    def extended_query(self, query, filters):
        answer = self.send({"Query": query, "Mode": "extended", **({"Filters": filters} if filters else {})})
        if filters == "colour=red":
            return self.check(answer, None)
        ranked = [self.entries[identifier] for identifier, _ in ranked_text_hits(query, self.stored())]
        self.check(answer, hits([e for e in ranked if passes(e, filters)]))

    @rule(
        seed=st.integers(0, 2**32), shape=st.sampled_from(SHAPES), confirm=st.booleans(),
        filters=st.sampled_from(FILTERS),
    )
    def geometric_query(self, seed, shape, confirm, filters):
        figure = self.figure(seed, shape)
        request = {"GeometricQuery": serialize_construction(figure), **({"Filters": filters} if filters else {})}
        answer = self.send({**request, **({} if confirm else {"Confirm": False})})
        if filters == "colour=red":
            return self.check(answer, None)
        fingerprint = pairwise_gtd(figure, self.closed(figure))
        self.check(answer, hits([
            e for e in self.stored()
            if passes(e, filters)
            and (self.embeds(figure, e.figure) if confirm else dominates(e.fingerprint, fingerprint))
        ]))

    @precondition(lambda self: self.entries)
    @rule()
    def restart(self):
        self.repository = Repository(self.dir)

    @invariant()
    def sizes_agree(self):
        assert len(self.repository) == len(self.entries)


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # the explain phase traces every line of a failing example's replays: it
    # made a shrunk failure take minutes and hundreds of MB, against seconds
    phases=[phase for phase in Phase if phase is not Phase.explain],
)
TestStoreMachine = StoreMachine.TestCase
