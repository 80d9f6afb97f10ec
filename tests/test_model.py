from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from geokb.errors import ConstructionError
from geokb.model import (
    CANONICAL_ARGS,
    Construction,
    EMPTY_CONSTRUCTION,
    Fact,
    PREDICATES,
    argument_variants,
    fact,
    normalize_fact,
    parse_construction,
    serialize_construction,
    validate,
)

from generators import random_construction
from oracles import brute_canonical, orbit

NAMES = ["A", "B", "C", "M", "P1", "x", "ab_c"]


def any_fact_strategy():
    def build(predicate, draw_names):
        return Fact(predicate, tuple(draw_names))

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
    assert c.facts == frozenset({Fact("parallel", ("a", "b"))})


def test_parse_collapses_equivalent_duplicates():
    c = parse_construction("line a\nline b\nparallel(b, a)\nparallel(a, b)")
    assert len(c.facts) == 1


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
        ("nonsense line", "expected 'predicate"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ConstructionError) as err:
        parse_construction(text)
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
    assert normalize_fact(Fact("parallel", ("b", "a"))) == Fact("parallel", ("a", "b"))
    assert normalize_fact(Fact("equidistant", ("M", "B", "A", "M"))) == Fact(
        "equidistant", ("A", "M", "B", "M")
    )
    assert normalize_fact(Fact("incident", ("A", "a"))) == Fact("incident", ("A", "a"))
    assert normalize_fact(Fact("midpoint", ("M", "B", "A"))) == Fact(
        "midpoint", ("M", "A", "B")
    )
    assert normalize_fact(Fact("line_through", ("a", "B", "A"))) == Fact(
        "line_through", ("a", "A", "B")
    )


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
            expected = brute_canonical(Fact(predicate, args)).args
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
    variants = {Fact(f.predicate, args) for args in argument_variants(f.predicate, f.args)}
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
        assert validate(c) == []
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


# -- validation ---------------------------------------------------------------


def test_validate_accepts_wellformed_triangle():
    c = parse_construction(
        "point A\npoint B\npoint C\nline a\nline b\nline c\n"
        "line_through(a, B, C)\nline_through(b, A, C)\nline_through(c, A, B)"
    )
    assert validate(c) == []


def test_validate_reports_undeclared_object():
    c = Construction(frozenset(), frozenset({fact("incident", "A", "a")}))
    problems = validate(c)
    assert len(problems) == 2  # both arguments undeclared
    assert all("undeclared" in p.problem for p in problems)
    assert problems[0].subject == "incident(A, a)"


def test_validate_reports_repeated_argument():
    c = parse_construction("point A\npoint B")
    broken = Construction(c.objects, frozenset({Fact("collinear", ("A", "A", "B"))}))
    problems = validate(broken)
    assert [p.problem for p in problems] == ["repeated argument"]


def test_validate_reports_noncanonical_fact():
    c = parse_construction("line a\nline b")
    broken = Construction(c.objects, frozenset({Fact("parallel", ("b", "a"))}))
    assert any("canonical" in p.problem for p in validate(broken))


def test_validate_reports_duplicate_names():
    from geokb.model import ObjectDecl

    c = Construction(
        frozenset({ObjectDecl("A", "point"), ObjectDecl("A", "line")}), frozenset()
    )
    assert any("duplicate object name" in p.problem for p in validate(c))


def test_validator_oracle_on_malformed_fact_catalogue():
    """Every malformed shape the parser rejects is also a validation hit."""
    c = parse_construction("point A\npoint B\npoint C\nline a\nline b\ncircle k")
    bad_facts = [
        Fact("parallel", ("a", "a")),
        Fact("perpendicular", ("b", "b")),
        Fact("collinear", ("A", "A", "B")),
        Fact("concurrent", ("a", "a", "b")),
        Fact("midpoint", ("A", "A", "B")),
        Fact("equidistant", ("A", "A", "B", "C")),
        Fact("equidistant", ("A", "B", "C", "C")),
        Fact("incident", ("a", "A")),
        Fact("on_circle", ("A", "a")),
        Fact("line_through", ("a", "A")),
    ]
    for f in bad_facts:
        broken = Construction(c.objects, frozenset({f}))
        problems = validate(broken)
        assert problems, f"expected a violation for {f}"
        # written as text, the fact is rejected with the first problem validate reports
        with pytest.raises(ConstructionError) as rejected:
            parse_construction(serialize_construction(c) + f.text + "\n")
        assert str(rejected.value).endswith(str(problems[0]))


def test_equidistant_allows_shared_point_across_pairs():
    c = parse_construction("point A\npoint B\npoint M\nequidistant(M, A, M, B)")
    assert validate(c) == []
