from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from geokb.errors import ConstructionError
from geokb.model import (
    CANONICAL_ARGS,
    EMPTY_CONSTRUCTION,
    PREDICATES,
    argument_variants,
    fact,
    normalize_fact,
    parse_construction,
    serialize_construction,
)

from generators import random_construction
from oracles import brute_canonical, orbit

NAMES = ["A", "B", "C", "M", "P1", "x", "ab_c"]


def any_fact_strategy():
    def build(predicate, draw_names):
        return predicate, tuple(draw_names)

    return st.sampled_from(sorted(PREDICATES)).flatmap(
        lambda p: st.tuples(
            st.just(p),
            st.lists(
                st.sampled_from(NAMES),
                min_size=len(PREDICATES[p]),
                max_size=len(PREDICATES[p]),
            ),
        ).map(lambda t: build(*t))
    )


# -- parsing ---------------------------------------------------------------


def test_parse_minimal():
    c = parse_construction("point A\npoint B\nline a\nline_through(a, A, B)")
    assert len(c.objects) == 3
    assert c.facts == frozenset({fact("line_through", "a", "A", "B")})


def test_parse_empty():
    assert parse_construction("") == EMPTY_CONSTRUCTION


def test_parse_ignores_comments_and_blanks():
    c = parse_construction("# heading\n\n  \npoint A\n# tail\n")
    assert {o.name for o in c.objects} == {"A"}


def test_parse_declaration_position_is_irrelevant():
    before = parse_construction("point A\npoint B\nline a\nline_through(a, A, B)")
    after = parse_construction("line_through(a, A, B)\npoint A\npoint B\nline a")
    assert before == after


def test_parse_normalizes_facts():
    c = parse_construction("line a\nline b\nparallel(b, a)")
    assert c.facts == frozenset({("parallel", ("a", "b"))})


def test_parse_collapses_equivalent_duplicates():
    c = parse_construction("line a\nline b\nparallel(b, a)\nparallel(a, b)")
    assert len(c.facts) == 1


CATALOGUE_OBJECTS = "point A\npoint B\npoint C\nline a\nline b\ncircle k\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("point A\npoint A", "duplicate declaration"),
        ("point 1A", "bad object name"),
        ("frobnicate(A)", "unknown predicate"),
        ("point A\nline a\nincident(A)", "expects 2 arguments"),
        ("point A\npoint B\npoint C\nequidistant(A, B, A, C, B)", "expects 4 arguments"),
        ("point A\nline a\nincident(a, A)", "must be a point"),
        ("point A\nline a\nincident(A, b)", "undeclared object"),
        ("line a\nparallel(a, a)", "repeated argument"),
        ("point A\npoint B\ncollinear(A, A, B)", "repeated argument"),
        ("point A\npoint B\nequidistant(A, A, A, B)", "distance pair"),
        ("point A incident", "bad object name"),
        ("point A\nline a\nincident(A, 1a)", "bad object name '1a'"),
        ("nonsense line", "expected 'predicate"),
        # the malformed-fact catalogue; each of its rows gives the whole message
        *(
            (CATALOGUE_OBJECTS + line, f"line 7: {line}: {problem}")
            for line, problem in [
                ("parallel(a, a)", "repeated argument"),
                ("perpendicular(b, b)", "repeated argument"),
                ("collinear(A, A, B)", "repeated argument"),
                ("concurrent(a, a, b)", "repeated argument"),
                ("midpoint(A, A, B)", "repeated argument"),
                ("equidistant(A, A, B, C)", "repeated point within a distance pair"),
                ("equidistant(A, B, C, C)", "repeated point within a distance pair"),
                ("incident(a, A)", "argument 1 must be a point, got line 'a'"),
                ("on_circle(A, a)", "argument 2 must be a circle, got line 'a'"),
                ("line_through(a, A)", "expects 3 arguments, got 2"),
            ]
        ),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ConstructionError) as err:
        parse_construction(text)
    if message.startswith("line "):
        assert str(err.value) == message
    else:
        assert message in str(err.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ConstructionError) as err:
        parse_construction("point A\npoint B\n\ncollinear(A, A, B)")
    assert err.value.line == 4
    assert str(err.value).startswith("line 4:")


def test_parse_accepts_tight_and_loose_spacing():
    tight = parse_construction("point A\npoint B\nline a\nline_through(a,A,B)")
    loose = parse_construction("point A\npoint B\nline a\nline_through( a ,  A , B )")
    assert tight == loose


# -- normalization -----------------------------------------------------------


def test_normalize_examples():
    assert normalize_fact(("parallel", ("b", "a"))) == ("parallel", ("a", "b"))
    assert normalize_fact(("equidistant", ("M", "B", "A", "M"))) == ("equidistant", ("A", "M", "B", "M"))
    assert normalize_fact(("incident", ("A", "a"))) == ("incident", ("A", "a"))
    assert normalize_fact(("midpoint", ("M", "B", "A"))) == ("midpoint", ("M", "A", "B"))
    assert normalize_fact(("line_through", ("a", "B", "A"))) == ("line_through", ("a", "A", "B"))


@given(any_fact_strategy())
def test_normalize_is_idempotent(f):
    once = normalize_fact(f)
    assert normalize_fact(once) == once


@given(any_fact_strategy())
def test_normalize_is_brute_force_orbit_minimum(f):
    assert normalize_fact(f) == brute_canonical(f)


def test_canonical_args_is_the_orbit_minimum_on_every_argument_tuple():
    """Every predicate on every argument tuple over four names, repeats
    included: the two-slot forms compare instead of sorting, and each must
    still return the least tuple of the brute-force orbit, as a tuple."""
    pool = ("B", "a", "ab_c", "b")
    for predicate, kinds in PREDICATES.items():
        canonical = CANONICAL_ARGS.get(predicate)
        for args in product(pool, repeat=len(kinds)):
            expected = brute_canonical((predicate, args))[1]
            if canonical is None:
                assert expected == args, predicate
            else:
                ordered = canonical(args)
                assert type(ordered) is tuple and ordered == expected, (predicate, args)


@given(any_fact_strategy(), any_fact_strategy())
def test_semantic_equality_iff_canonical_equality(f, g):
    semantically_equal = g in orbit(f)
    assert (normalize_fact(f) == normalize_fact(g)) == semantically_equal


@given(any_fact_strategy())
def test_argument_variants_match_oracle_orbit(f):
    variants = {(f[0], args) for args in argument_variants(*f)}
    assert variants == orbit(f)


# -- serialization -----------------------------------------------------------


def test_serialize_empty():
    assert serialize_construction(EMPTY_CONSTRUCTION) == ""


def test_serialize_is_sorted_and_stable():
    text = "point B\npoint A\nline a\nline_through(a, A, B)\nparallel(a, a)"
    # build by hand so object order differs from sorted order
    c = parse_construction("point B\npoint A\nline a\nline_through(a, A, B)")
    out = serialize_construction(c)
    assert out == "line a\npoint A\npoint B\nline_through(a, A, B)\n"


def test_serialize_identical_bytes_under_fact_reordering():
    lines = [
        "point A",
        "point B",
        "point C",
        "line a",
        "line b",
        "line_through(a, A, B)",
        "line_through(b, A, C)",
        "collinear(A, B, C)",
    ]
    forward = parse_construction("\n".join(lines))
    backward = parse_construction("\n".join(reversed(lines)))
    assert serialize_construction(forward) == serialize_construction(backward)


def test_parse_serialize_round_trip_on_random_constructions():
    rng = random.Random(20260810)
    for _ in range(200):
        c = random_construction(rng)
        assert parse_construction(serialize_construction(c)) == c


def test_serialize_parse_canonicalizes_text():
    scrambled = "line b\nline a\nparallel(b, a)\npoint A"
    canonical = serialize_construction(parse_construction(scrambled))
    assert canonical == "line a\nline b\npoint A\nparallel(a, b)\n"
    # a second round trip is a fixed point
    assert serialize_construction(parse_construction(canonical)) == canonical


def test_parsing_is_permutation_invariant_over_fact_lines():
    rng = random.Random(7)
    base = random_construction(rng, max_points=5, max_lines=3, max_facts=8)
    text = serialize_construction(base)
    lines = [l for l in text.splitlines()]
    decls = [l for l in lines if l.split()[0] in ("point", "line", "circle")]
    facts = [l for l in lines if l not in decls]
    for _ in range(10):
        rng.shuffle(facts)
        assert parse_construction("\n".join(decls + facts)) == base


# -- validation: parsing is the one check of a construction --------------------


def test_validate_accepts_wellformed_triangle():
    c = parse_construction(
        "point A\npoint B\npoint C\nline a\nline b\nline c\n"
        "line_through(a, B, C)\nline_through(b, A, C)\nline_through(c, A, B)"
    )
    assert len(c.objects) == 6 and len(c.facts) == 3


def test_validate_reports_undeclared_object():
    # both arguments are undeclared; the first one is reported
    with pytest.raises(ConstructionError) as err:
        parse_construction("incident(A, a)")
    assert str(err.value) == "line 1: incident(A, a): undeclared object 'A'"


def test_validate_reports_repeated_argument():
    with pytest.raises(ConstructionError) as err:
        parse_construction("point A\npoint B\ncollinear(A, A, B)")
    assert str(err.value) == "line 3: collinear(A, A, B): repeated argument"


def test_equidistant_allows_shared_point_across_pairs():
    c = parse_construction("point A\npoint B\npoint M\nequidistant(M, A, M, B)")
    assert c.facts == frozenset({("equidistant", ("A", "M", "B", "M"))})
