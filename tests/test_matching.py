from __future__ import annotations

import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from geokb.errors import SearchBudgetExceeded
from geokb.fingerprint import construction_gtd, gtd, gtd_subsumes
from geokb.matching import (
    DEFAULT_BUDGET,
    Embedding,
    embed_closed,
    find_embeddings,
    holds,
    is_subconstruction,
    prepare,
)
from geokb.model import EMPTY_CONSTRUCTION, KINDS, PREDICATES, Construction, ObjectDecl, fact, parse_construction
from geokb.rules import closure
from geokb.corpus import ENTRIES

from generators import (
    BARE_TRIANGLE_TEXT,
    bare_triangle,
    concurrent_lines,
    induced_subconstruction,
    random_construction,
    random_line_figure,
    triangle_with_circle,
)
from oracles import (
    brute_canonical,
    brute_force_embeds,
    brute_force_mappings,
    fact_pairs,
    is_embedding,
    names_of_kind,
)


def mappings_of(embeddings: list[Embedding]) -> list[dict[str, str]]:
    return [e.as_dict() for e in embeddings]


# -- basic shapes ---------------------------------------------------------------


def test_single_point_embeds_three_ways_into_triangle(rules):
    q = parse_construction("point P")
    found = find_embeddings(q, bare_triangle(), rules, limit=10)
    assert mappings_of(found) == [{"P": "A"}, {"P": "B"}, {"P": "C"}]


def test_empty_query_has_the_trivial_embedding(rules):
    found = find_embeddings(EMPTY_CONSTRUCTION, bare_triangle(), rules, limit=5)
    assert found == [Embedding(prepare({}, ()), ())]
    assert (found[0].mapping, found[0].facts) == ((), frozenset())
    assert is_subconstruction(EMPTY_CONSTRUCTION, EMPTY_CONSTRUCTION, rules) is not None


def test_query_embeds_into_itself_with_identity(rules):
    c = triangle_with_circle()
    found = find_embeddings(c, c, rules, limit=100)
    identity = tuple(sorted((n, n) for n in c.kinds))
    assert identity in [e.mapping for e in found]


def test_triangle_embeds_into_triangle_with_circle_but_not_conversely(rules):
    assert is_subconstruction(bare_triangle(), triangle_with_circle(), rules) is not None
    assert is_subconstruction(triangle_with_circle(), bare_triangle(), rules) is None


def test_kind_mismatch_has_no_embedding(rules):
    circle_only = parse_construction("circle k")
    line_only = parse_construction("line a")
    assert is_subconstruction(circle_only, line_only, rules) is None


def test_matched_facts_cover_the_mapped_closure(rules):
    q = bare_triangle()
    t = triangle_with_circle()
    embedding = is_subconstruction(q, t, rules)
    assert embedding is not None
    closed_t = closure(t, rules)
    assert embedding.facts <= closed_t
    mapping = embedding.as_dict()
    expected = {
        fact(predicate, *(mapping[a] for a in args)) for predicate, args in closure(q, rules)
    }
    assert embedding.facts == expected


def test_matching_sees_closed_facts_not_raw_ones(rules):
    # the target never states the incidences, the closure supplies them
    q = parse_construction("point P\nline l\nincident(P, l)")
    t = parse_construction("point A\npoint B\nline a\nline_through(a, A, B)")
    assert is_subconstruction(q, t, rules) is not None


def test_embeddings_are_returned_in_mapping_order_and_limited(rules):
    q = parse_construction("point P\npoint Q")
    t = parse_construction("point A\npoint B\npoint C")
    all_six = find_embeddings(q, t, rules, limit=100)
    assert [e.mapping for e in all_six] == sorted(e.mapping for e in all_six)
    assert len(all_six) == 6
    first_two = find_embeddings(q, t, rules, limit=2)
    assert len(first_two) == 2
    assert set(first_two) <= set(all_six)


def test_limit_must_be_positive(rules):
    with pytest.raises(ValueError):
        find_embeddings(EMPTY_CONSTRUCTION, EMPTY_CONSTRUCTION, rules, limit=0)


def _side(construction, rules):
    return prepare(construction.kinds, closure(construction, rules))


def test_embedding_search_leaves_no_cyclic_garbage(rules):
    """Reference counting alone frees what a search allocates, whether it
    finds embeddings, finds none, stops early or runs out of budget."""
    triangle = _side(bare_triangle(), rules)
    ceva = _side(parse_construction(_CORPUS_CODE["GEO_CEVA"]), rules)
    searches = [
        (triangle, ceva, 1),
        (triangle, ceva, 100),
        (triangle, _side(concurrent_lines(), rules), 1),
        (_side(parse_construction("circle k"), rules), triangle, 1),
    ]
    for query, target, limit in searches:
        embed_closed(query, target, limit)  # builds each query plan before counting
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for query, target, limit in searches:
                embed_closed(query, target, limit)
                embed_closed(query, target, 1, {})
                for targets in embed_closed(query, target, limit):
                    Embedding(query, targets).facts
            for search in (lambda: embed_closed(triangle, ceva, 100, budget=5),
                           lambda: embed_closed(ceva, ceva, 1, {}, budget=5)):
                try:
                    search()
                except SearchBudgetExceeded:
                    pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_and_duplicate_gate_build_no_fact(fresh_seeded_repo, rules):
    """A fact has one form, a plain ``(predicate, args)`` tuple, from parsing
    through closure to a confirmed witness."""
    ceva, triangle = parse_construction(_CORPUS_CODE["GEO_CEVA"]), bare_triangle()
    assert ceva.facts and all(type(f) is tuple for f in ceva.facts | triangle.facts)
    closed = closure(ceva, rules)
    assert closed and all(type(f) is tuple for f in closed)
    assert gtd(ceva, closed) == construction_gtd(ceva, rules)
    assert fact_pairs(prepare(ceva.kinds, closed)) == closed
    hits = fresh_seeded_repo.geometric_query(triangle, confirm=True)
    assert len(hits) > 1 and all(type(f) is tuple for _, embedding in hits for f in embedding.facts)
    report = fresh_seeded_repo.find_duplicates(ceva)
    assert "GEO_CEVA" in report.exact_duplicates


# -- candidate lists shared between searches ------------------------------------------


def _target_and_queries(seed: int, count: int, rules):
    """A target and queries from ``generators``, all figures of one family:
    mixed objects, or lines alone, whose parallel classes make many
    look-alike candidates.  A query is an induced part of the target, which
    embeds, or a random figure, which embeds seldom, and often only a
    search tells."""
    rng = random.Random(seed)
    figure = random_construction if rng.random() < 0.5 else random_line_figure
    target = figure(rng)
    queries = [induced_subconstruction(rng, target) if rng.random() < 0.5 else figure(rng) for _ in range(count)]
    return [_side(query, rules) for query in queries], _side(target, rules)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8), st.sampled_from([1, 3, 100]))
def test_shared_candidate_lists_give_the_searchs_own_answers(rules, seed, count, limit):
    """One dict of candidate lists shared by all queries into one target
    gives each search the targets, in order, that its own lists give."""
    queries, target = _target_and_queries(seed, count, rules)
    fitting: dict = {}
    for query in queries:
        assert embed_closed(query, target, limit, fitting) == embed_closed(query, target, limit)
    for query in queries:  # now every need is met from the dict
        assert embed_closed(query, target, limit, fitting) == embed_closed(query, target, limit)


def _least_budget(search) -> int:
    """The least budget under which ``search(budget)`` finishes, by bisection:
    a search that finishes under a budget finishes under any larger one."""
    low, high = 0, DEFAULT_BUDGET
    while low < high:
        middle = (low + high) // 2
        try:
            search(middle)
        except SearchBudgetExceeded:
            low = middle + 1
        else:
            high = middle
    return low


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_shared_candidate_lists_run_out_of_budget_where_own_lists_do(rules, seed):
    """With a dict being filled and with one in which every need is met."""
    [query], target = _target_and_queries(seed, 1, rules)
    least = _least_budget(lambda budget: embed_closed(query, target, 1, budget=budget))
    assert _least_budget(lambda budget: embed_closed(query, target, 1, {}, budget=budget)) == least
    filled: dict = {}
    embed_closed(query, target, 1, filled)
    assert _least_budget(lambda budget: embed_closed(query, target, 1, filled, budget=budget)) == least


# -- a carried witness ------------------------------------------------------------


def _carried_names(rng: random.Random, query, target, rules, order) -> tuple[str, ...]:
    """Distinct names, one per step of ``order``, as a search may carry them
    to this target: an embedding of the query into the target or into
    another figure, by brute force; the target's names of each step's kind,
    shuffled, and foreign ones once a kind runs out; or names drawn from the
    target's and from others, of any kind."""
    source = rng.choice(("target", "other", "kinds kept", "drawn"))
    if source in ("target", "other"):
        figure = target if source == "target" else random_construction(rng)
        found = brute_force_mappings(query, figure, rules, first_only=True)
        if found:
            return tuple(found[0][name] for name in order)
    if source == "kinds kept":
        left = {kind: names_of_kind(target, kind) for kind in KINDS}
        for names in left.values():
            rng.shuffle(names)
        return tuple(
            left[query.kinds[name]].pop() if left[query.kinds[name]] else f"X{i}" for i, name in enumerate(order)
        )
    pool = sorted(target.kinds) + ["P9", "l9", "k9", "X"]
    return tuple(rng.sample(pool, len(order))) if len(order) <= len(pool) else ()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_a_carried_witness_holds_exactly_when_it_embeds_by_definition(rules, seed):
    """``holds`` against the oracle: the names are injective, kind-preserving
    and fact-preserving over the naive closures."""
    rng = random.Random(seed)
    target = random_construction(rng, max_points=4, max_lines=3, max_circles=2, max_facts=8)
    query = induced_subconstruction(rng, target) if rng.random() < 0.5 else random_construction(
        rng, max_points=3, max_lines=2, max_circles=1, max_facts=5
    )
    query_side, target_side = _side(query, rules), _side(target, rules)
    order = query_side.plan[0]
    names = _carried_names(rng, query, target, rules, order)
    if len(names) == len(order):
        mapping = dict(zip(order, names))
        assert holds(query_side, target_side, names) == is_embedding(query, target, mapping, rules)


# -- oracle agreement --------------------------------------------------------------


def test_embedding_sets_match_brute_force_enumeration(rules):
    rng = random.Random(314)
    compared = 0
    for _ in range(60):
        q = random_construction(rng, max_points=3, max_lines=2, max_circles=1, max_facts=5)
        t = random_construction(rng, max_points=4, max_lines=3, max_circles=2, max_facts=8)
        _assert_brute_force_agreement(q, t, rules)
        compared += 1
    assert compared == 60


def _with_bare_objects(construction: Construction, *objects: tuple[str, str]) -> Construction:
    extra = frozenset(ObjectDecl(name, kind) for name, kind in objects)
    return Construction(construction.objects | extra, construction.facts)


def _assert_brute_force_agreement(query, target, rules, limit=10_000) -> int:
    """The search's embeddings against the oracle's: all of them in mapping
    order when ``limit`` allows, else ``limit`` distinct ones of them; each
    witness the orbit minima of the closed query facts under its mapping."""
    expected = sorted(tuple(sorted(m.items())) for m in brute_force_mappings(query, target, rules))
    found = find_embeddings(query, target, rules, limit=limit)
    mappings = [e.mapping for e in found]
    if limit >= len(expected):
        assert mappings == expected
    else:
        assert len(mappings) == limit and mappings == sorted(set(mappings))
        assert set(mappings) <= set(expected)
    closed_query = closure(query, rules)
    for embedding in found:
        mapping = embedding.as_dict()
        assert embedding.facts == {
            brute_canonical((predicate, tuple(mapping[a] for a in args)))
            for predicate, args in closed_query
        }
    return len(found)


def test_line_figures_with_self_loops_agree_with_brute_force(rules):
    """Line-only figures close to parallel classes, perpendiculars between
    them and, where a line is both, ``perpendicular(a, a)``; as query and as
    target, with all embeddings and with a limit of two to six, which
    their many symmetries often cut short."""
    rng = random.Random(1803)
    loops = hits = cut = 0
    for k in range(60):
        query = random_line_figure(rng, max_lines=4)
        target = random_line_figure(rng, max_lines=6)
        for side in (query, target):
            loops += any(args[0] == args[1] for _, args in closure(side, rules))
        hits += _assert_brute_force_agreement(query, target, rules) > 0
        hits += _assert_brute_force_agreement(target, target, rules) > 0
        limit = 2 + k % 5
        cut += _assert_brute_force_agreement(query, target, rules, limit) == limit
    assert loops > 10 and hits > 60 and cut > 10


def test_repeated_arguments_agree_with_brute_force(rules):
    """A query fact that names one object twice, as ``equidistant(A, B, A,
    C)`` does, reads that object's target name twice."""
    isosceles = parse_construction("point A\npoint B\npoint C\nequidistant(A, B, A, C)")
    rng = random.Random(4711)
    hits = 0
    for _ in range(40):
        target = random_construction(rng, max_points=5, max_lines=2, max_circles=1, max_facts=9)
        hits += _assert_brute_force_agreement(isosceles, target, rules) > 0
        query = random_construction(rng, max_points=3, max_lines=1, max_circles=1, max_facts=5)
        _assert_brute_force_agreement(query, target, rules)
    for code in _CORPUS_CODE.values():
        target = parse_construction(code)
        if len(names_of_kind(target, "point")) <= 6:
            hits += _assert_brute_force_agreement(isosceles, target, rules) > 0
    assert hits > 5


def test_objects_in_no_fact_agree_with_brute_force(rules):
    rng = random.Random(2718)
    hits = 0
    for _ in range(40):
        query = _with_bare_objects(
            random_construction(rng, max_points=2, max_lines=2, max_circles=1, max_facts=3),
            ("Z", "point"), ("z", "line"),
        )
        target = random_construction(rng, max_points=4, max_lines=3, max_circles=2, max_facts=8)
        hits += _assert_brute_force_agreement(query, target, rules) > 0
        padded = _with_bare_objects(target, ("Y", "point"))
        hits += _assert_brute_force_agreement(query, padded, rules) > 0
    assert hits > 10
    assert _assert_brute_force_agreement(
        _with_bare_objects(bare_triangle(), ("k", "circle")), triangle_with_circle(), rules
    ) == 6


def test_prepare_counts_each_fact_once_per_object_it_names(rules):
    """The degree vectors of ``MatchSide.by_kind`` against a count straight
    from its definition, on closures that hold repeated arguments:
    equidistant pairs sharing a point, and the ``perpendicular(a, a)`` of a
    line both parallel and perpendicular to another.  Every declared object
    appears exactly once, under its kind, each kind lists its objects in
    name order, and a vector holds one count per predicate, in
    ``PREDICATES`` order."""
    rng = random.Random(161)
    figures = [random_construction(rng) for _ in range(150)]
    figures += [random_line_figure(rng) for _ in range(150)]
    repeats = 0
    for figure in figures:
        closed = closure(figure, rules)
        expected = {name: Counter() for name in figure.kinds}
        for predicate, args in closed:
            for name in expected:
                if name in args:
                    expected[name][predicate] += 1
            repeats += len(set(args)) < len(args)
        by_kind = prepare(figure.kinds, closed).by_kind
        assert len(by_kind) == len(KINDS)
        listed = [(kind, name) for kind, (names, _) in zip(KINDS, by_kind) for name in names]
        assert sorted(listed) == sorted((kind, name) for name, kind in figure.kinds.items())
        for names, vectors in by_kind:
            assert list(names) == sorted(names) and len(vectors) == len(names)
        degrees = {name: vector for names, vectors in by_kind for name, vector in zip(names, vectors)}
        assert degrees == {n: tuple(c[p] for p in PREDICATES) for n, c in expected.items()}
    assert repeats > 100


def test_presence_agrees_with_brute_force_on_random_pairs(rules):
    rng = random.Random(1618)
    for _ in range(80):
        q = random_construction(rng, max_points=4, max_lines=3, max_circles=1, max_facts=7)
        t = random_construction(rng, max_points=4, max_lines=3, max_circles=2, max_facts=9)
        assert (is_subconstruction(q, t, rules) is not None) == brute_force_embeds(
            q, t, rules
        )


def test_embedding_implies_fingerprint_subsumption(rules):
    rng = random.Random(101)
    hits = 0
    for _ in range(80):
        q = random_construction(rng, max_points=3, max_lines=2, max_circles=1, max_facts=5)
        t = random_construction(rng, max_points=4, max_lines=3, max_circles=2, max_facts=9)
        if is_subconstruction(q, t, rules) is not None:
            hits += 1
            assert gtd_subsumes(construction_gtd(t, rules), construction_gtd(q, rules))
    assert hits > 0


def test_filter_is_complete_but_not_exact(rules):
    """Three concurrent lines dominate the triangle fingerprint, path
    counts included, yet no triangle embeds: the filter needs the exact
    matcher."""
    query = bare_triangle()
    target = concurrent_lines()
    assert gtd_subsumes(construction_gtd(target, rules), construction_gtd(query, rules))
    assert is_subconstruction(query, target, rules) is None
    assert not brute_force_embeds(query, target, rules)


# -- subconstruction relation on the corpus -----------------------------------------


def test_subconstruction_is_reflexive_and_transitive_on_corpus(rules):
    constructions = {e.identifier: parse_construction(e.code) for e in ENTRIES}
    identifiers = sorted(constructions)
    related: dict[tuple[str, str], bool] = {}
    for a in identifiers:
        for b in identifiers:
            related[a, b] = (
                is_subconstruction(constructions[a], constructions[b], rules) is not None
            )
    for a in identifiers:
        assert related[a, a]
    for a in identifiers:
        for b in identifiers:
            if not related[a, b]:
                continue
            for c in identifiers:
                if related[b, c]:
                    assert related[a, c], (a, b, c)


# -- budget -------------------------------------------------------------------------


def test_zero_budget_raises_on_any_real_search(rules):
    with pytest.raises(SearchBudgetExceeded):
        find_embeddings(bare_triangle(), bare_triangle(), rules, limit=1, budget=0)


def test_zero_budget_still_answers_empty_query(rules):
    found = find_embeddings(EMPTY_CONSTRUCTION, bare_triangle(), rules, limit=1, budget=0)
    assert len(found) == 1


def test_budget_large_enough_is_untouched(rules):
    found = find_embeddings(bare_triangle(), bare_triangle(), rules, limit=1, budget=10_000)
    assert len(found) == 1


# The least budgets that let the search finish.  They pin the search order:
# a different object order or candidate order spends a different number of
# steps before it finds the same embeddings.  In the relabelled triangle the
# lines' names sort before the points', which have the higher degree.
_CORPUS_CODE = {e.identifier: e.code for e in ENTRIES}
_RELABELLED_TRIANGLE = """\
point p
point q
point r
line L
line M
line N
line_through(L, q, r)
line_through(M, p, r)
line_through(N, p, q)
"""


# Targets beside the corpus: a figure shaped like an entry of the synthetic
# store (a random figure plus a triangle planted under names of its own), and
# two classes of parallel lines, perpendicular to each other.
_TARGET_CODE = {
    **_CORPUS_CODE,
    "synthetic": """\
circle k0
line l0
line l1
line ta
line tb
line tc
point P0
point P1
point P2
point TA
point TB
point TC
circle_centered(k0, P1, P1)
circle_centered(k0, P2, P0)
collinear(P0, P1, P2)
incident(P1, l0)
incident(P2, l0)
line_through(ta, TB, TC)
line_through(tb, TA, TC)
line_through(tc, TA, TB)
midpoint(P1, P0, P2)
midpoint(P2, P0, P1)
perpendicular(l0, l1)
""",
    "two classes": """\
line p
line q
line r
line s
line t
parallel(p, q)
parallel(q, r)
perpendicular(p, s)
parallel(s, t)
""",
}


@pytest.mark.parametrize(
    "query, target, limit, minimal",
    [
        (BARE_TRIANGLE_TEXT, None, 1, 6),
        (BARE_TRIANGLE_TEXT, None, 100, 51),
        (BARE_TRIANGLE_TEXT, "GEO0003", 1, 9),
        (BARE_TRIANGLE_TEXT, "GEO0002", 100, 69),
        (BARE_TRIANGLE_TEXT, "GEO_CEVA", 100, 105),
        (_RELABELLED_TRIANGLE, "GEO_CEVA", 100, 105),
        # These four were measured with the matcher of commit ddb2786, which
        # kept the mapping in a dict keyed by query name: an isolated object,
        # a line-only figure with a parallel class, a synthetic-store target
        # and a fact that names one point twice.
        (BARE_TRIANGLE_TEXT + "point D\n", "GEO_CEVA", 100, 129),
        ("line a\nline b\nline c\nparallel(a, b)\nperpendicular(b, c)\n", "two classes", 100, 49),
        (BARE_TRIANGLE_TEXT, "synthetic", 100, 51),
        ("point A\npoint B\npoint C\nequidistant(A, B, A, C)\n", "GEO0008", 100, 15),
    ],
)
def test_minimal_budget_of_triangle_search(rules, query, target, limit, minimal):
    q = parse_construction(query)
    t = q if target is None else parse_construction(_TARGET_CODE[target])
    assert find_embeddings(q, t, rules, limit=limit, budget=minimal)
    with pytest.raises(SearchBudgetExceeded):
        find_embeddings(q, t, rules, limit=limit, budget=minimal - 1)
