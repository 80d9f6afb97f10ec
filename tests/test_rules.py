from __future__ import annotations

import gc
import random
import time

import pytest

from geokb import model
from geokb.corpus import ENTRIES
from geokb.errors import ConstructionError, RuleError
from geokb.model import Construction, ObjectDecl, fact, parse_construction, serialize_construction
from geokb.rules import RuleSet, closure, default_rules, entails, load_rules

from generators import bare_triangle, collinear_points, parallel_chain, random_construction, random_line_figure
from oracles import naive_closure


# -- rule loading -------------------------------------------------------------


def test_load_minimal_rule():
    rs = load_rules("R1: incident(?p, ?l) :- line_through(?l, ?p, ?q).")
    assert len(rs) == 1
    rule = rs.rules[0]
    assert rule.name == "R1"
    assert rule.head.predicate == "incident"
    assert rule.body[0].args == ("l", "p", "q")


def test_default_rules_load_and_count():
    rs = default_rules()
    assert len(rs) == 11
    assert len({r.name for r in rs.rules}) == 11


def test_load_rules_ignores_comments_and_blanks():
    rs = load_rules("# comment\n\nR1: incident(?p, ?l) :- line_through(?l, ?p, ?q).\n")
    assert len(rs) == 1


def test_side_conditions_parse():
    rs = load_rules("R4: parallel(?a, ?c) :- parallel(?a, ?b), parallel(?b, ?c), ?a != ?c.")
    assert rs.rules[0].distinct == (("a", "c"),)


def test_digest_covers_heads_bodies_and_distinctness_only():
    text = (
        "R1: incident(?p, ?l) :- line_through(?l, ?p, ?q).\n"
        "R4: parallel(?a, ?c) :- parallel(?a, ?b), parallel(?b, ?c), ?a != ?c.\n"
    )
    digest = load_rules(text).digest
    assert len(digest) == 64
    renamed_and_reordered = "\n".join(reversed(text.replace("R", "Rule").splitlines()))
    assert load_rules(renamed_and_reordered).digest == digest
    for changed in (
        text.replace("incident(?p, ?l)", "incident(?q, ?l)"),  # head
        text.replace("parallel(?b, ?c), ?a", "perpendicular(?b, ?c), ?a"),  # body
        text.replace(", ?a != ?c", ""),  # distinctness
        text.splitlines()[0],  # one rule fewer
    ):
        assert load_rules(changed).digest != digest
    assert default_rules().digest != digest


@pytest.mark.parametrize(
    "text, message",
    [
        ("R1: incident(?p, ?l) :- line_through(?l, ?q, ?r).", "head variable"),
        ("R1: wrong(?p) :- incident(?p, ?l).", "unknown predicate"),
        ("R1: incident(?p) :- incident(?p, ?l).", "expects 2 arguments"),
        ("R1: incident(?p, ?l) :- line_through(?l, ?p, ?q)", "must end with '.'"),
        ("R1: incident(?p, ?l) :- incident(A, ?l).", "must be variables"),
        ("R1: incident(?p, ?l) :- incident(?l, ?l).", "used both as"),
        ("R1: incident(?p, ?l) :- .", "at least one atom"),
        ("R1: parallel(?a, ?b) :- ?a != ?b.", "at least one atom"),
        ("R1: incident(?p, ?l) :- incident(?p, ?l)).", "unbalanced parentheses"),
        ("R1: incident(?p, ?l) :- incident(?p, ?l.", "unbalanced parentheses"),
        ("R1: incident :- incident(?p, ?l).", "expected 'predicate(?x, ...)'"),
        ("R1: incident(?p, ?l).", "missing ':-'"),
        ("incident(?p, ?l) :- incident(?p, ?l).", "expected '<name>"),
        ("R1: incident(?p, ?l) :- incident(?p, ?l), ?p != ?z.", "side-condition variable"),
        (
            "R1: incident(?p, ?l) :- incident(?p, ?l).\n"
            "R1: center(?p, ?c) :- on_circle(?p, ?c).",
            "duplicate rule name",
        ),
    ],
)
def test_load_rules_errors(text, message):
    with pytest.raises(RuleError) as err:
        load_rules(text)
    assert message in str(err.value)


# -- closure -----------------------------------------------------------------


def test_closure_derives_incidence_from_line_through(rules):
    c = parse_construction("point A\npoint B\nline a\nline_through(a, A, B)")
    closed = closure(c, rules)
    assert fact("incident", "A", "a") in closed
    assert fact("incident", "B", "a") in closed
    assert closed == naive_closure(c, rules)


def test_closure_of_empty_construction_is_empty(rules):
    from geokb.model import EMPTY_CONSTRUCTION

    assert closure(EMPTY_CONSTRUCTION, rules) == frozenset()


def test_closure_parallel_perpendicular_chain(rules):
    c = parse_construction(
        "line a\nline b\nline c\nline d\n"
        "parallel(a, b)\nparallel(b, c)\nperpendicular(c, d)"
    )
    closed = closure(c, rules)
    assert fact("parallel", "a", "c") in closed
    assert fact("perpendicular", "a", "d") in closed
    assert fact("perpendicular", "b", "d") in closed
    assert closed == naive_closure(c, rules)


def test_closure_circle_rules(rules):
    c = parse_construction(
        "point O\npoint A\npoint B\ncircle k\n"
        "circle_centered(k, O, A)\non_circle(B, k)"
    )
    closed = closure(c, rules)
    assert fact("center", "O", "k") in closed
    assert fact("on_circle", "A", "k") in closed
    assert fact("equidistant", "O", "A", "O", "B") in closed


def test_closure_midpoint_rules(rules):
    c = parse_construction("point A\npoint B\npoint M\nmidpoint(M, A, B)")
    closed = closure(c, rules)
    assert fact("collinear", "A", "B", "M") in closed
    assert fact("equidistant", "M", "A", "M", "B") in closed


def test_closure_three_points_on_a_line_are_collinear(rules):
    c = parse_construction(
        "point A\npoint B\npoint C\nline a\n"
        "incident(A, a)\nincident(B, a)\nincident(C, a)"
    )
    closed = closure(c, rules)
    assert fact("collinear", "A", "B", "C") in closed


def test_closure_matches_symmetric_facts_in_either_orientation(rules):
    # parallel(c, b) is stored as parallel(b, c); transitivity must still fire
    c = parse_construction("line a\nline b\nline c\nparallel(b, a)\nparallel(c, b)")
    closed = closure(c, rules)
    assert fact("parallel", "a", "c") in closed


# -- entails -----------------------------------------------------------------


def test_entails_triangle_incidence(rules):
    assert entails(bare_triangle(), rules, ("incident", ("A", "c")))


def test_entails_uses_canonical_order(rules):
    c = parse_construction("point A\npoint B\npoint M\nmidpoint(M, A, B)")
    assert entails(c, rules, ("collinear", ("M", "B", "A")))


def test_entails_nothing_from_empty(rules):
    from geokb.model import EMPTY_CONSTRUCTION

    with pytest.raises(ConstructionError):
        entails(EMPTY_CONSTRUCTION, rules, ("incident", ("A", "a")))


def test_entails_false_for_underivable(rules):
    assert not entails(bare_triangle(), rules, ("parallel", ("a", "b")))


# -- algebraic laws over random constructions ---------------------------------


def as_construction(base: Construction, facts) -> Construction:
    return Construction(base.objects, frozenset(facts))


def test_closure_laws_on_random_sample(rules):
    rng = random.Random(99)
    for _ in range(120):
        c = random_construction(rng, max_points=5, max_lines=4, max_circles=2, max_facts=9)
        closed = closure(c, rules)
        # extensive
        assert c.facts <= closed
        # idempotent
        assert closure(as_construction(c, closed), rules) == closed
        # monotone over fact subsets
        subset = frozenset(f for f in c.facts if rng.random() < 0.5)
        assert closure(as_construction(c, subset), rules) <= closed


def test_closure_is_order_independent(rules):
    rng = random.Random(5)
    c = random_construction(rng, max_facts=10)
    closed = closure(c, rules)
    shuffled_rules = list(rules.rules)
    for _ in range(5):
        rng.shuffle(shuffled_rules)
        assert closure(c, RuleSet(tuple(shuffled_rules))) == closed


def test_closure_equals_naive_oracle_on_small_constructions(rules):
    rng = random.Random(1234)
    checked = 0
    for _ in range(60):
        c = random_construction(rng, max_points=4, max_lines=3, max_circles=1, max_facts=8)
        if len(c.objects) <= 6:
            assert closure(c, rules) == naive_closure(c, rules)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize(
    "figure",
    [parallel_chain(n) for n in (2, 3, 7, 20)] + [collinear_points(n) for n in (3, 4, 9, 16)],
    ids=["chain2", "chain3", "chain7", "chain20", "points3", "points4", "points9", "points16"],
)
def test_closure_equals_naive_oracle_on_adversarial_figures(rules, figure):
    assert closure(figure, rules) == naive_closure(figure, rules)


def test_closure_equals_naive_oracle_with_scans_and_repeated_variables():
    # R1's atoms share no variable, so two of them scan their predicate;
    # R2 repeats ?o inside one atom; R3 has the delta atom last in its body
    custom = load_rules(
        "R1: collinear(?p, ?q, ?r) :- incident(?p, ?l), incident(?q, ?m), incident(?r, ?n),"
        " ?p != ?q, ?p != ?r, ?q != ?r.\n"
        "R2: midpoint(?o, ?p, ?q) :- equidistant(?o, ?p, ?o, ?q), collinear(?o, ?p, ?q).\n"
        "R3: incident(?p, ?l) :- incident(?q, ?l), collinear(?p, ?q, ?r), line_through(?l, ?q, ?r).\n"
    )
    seeded = parse_construction(
        "point O\npoint P\npoint Q\nline l\nline m\n"
        "incident(O, m)\nincident(P, l)\nincident(Q, l)\nline_through(l, P, Q)\n"
        "equidistant(O, P, O, Q)\n"
    )
    closed = closure(seeded, custom)
    assert {fact("midpoint", "O", "P", "Q"), fact("incident", "O", "l")} <= closed
    assert closed == naive_closure(seeded, custom)
    rng = random.Random(77)
    for _ in range(40):
        c = random_construction(rng, max_points=4, max_lines=2, max_circles=1, max_facts=8)
        assert closure(c, custom) == naive_closure(c, custom)


def test_a_closed_construction_validates_and_round_trips_through_text(rules):
    c = parse_construction("point A\npoint B\npoint M\nline a\nline_through(a, A, B)\nmidpoint(M, A, B)")
    closed = Construction(c.objects, closure(c, rules))
    assert len(closed.facts) > len(c.facts)
    # parsing is the one check: the closed facts' text passes it unchanged
    assert parse_construction(serialize_construction(closed)) == closed


def test_closure_leaves_no_cyclic_garbage(rules):
    """Reference counting alone frees what a closure allocates, its join
    index included."""
    figures = [parallel_chain(5), collinear_points(8), *(parse_construction(e.code) for e in ENTRIES)]
    for figure in figures:
        closure(figure, rules)  # builds the rule set's join plans before counting
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for figure in figures:
                assert closure(figure, rules)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- transitive predicates kept as classes ------------------------------------

LINE_RULES = (
    "R4: parallel(?a, ?c) :- parallel(?a, ?b), parallel(?b, ?c), ?a != ?c.\n"
    "R5: parallel(?a, ?c) :- perpendicular(?a, ?b), perpendicular(?b, ?c), ?a != ?c.\n"
    "R6: perpendicular(?a, ?c) :- perpendicular(?a, ?b), parallel(?b, ?c).\n"
)

#: name -> (rules text, the predicates closure keeps as classes)
RULE_FILES = {
    "R4-R6": (LINE_RULES, {"parallel"}),
    # a second transitive predicate, its rule in another argument and body order
    "perpendicular transitive too": (
        LINE_RULES + "R7: perpendicular(?c, ?a) :- perpendicular(?b, ?c), perpendicular(?a, ?b), ?c != ?a.\n",
        {"parallel", "perpendicular"},
    ),
    # R7 derives parallel(?a, ?a), which is no pair of a class; R8 reads it
    # through a probe of the class of ?a
    "loops beside a class": (
        LINE_RULES
        + "R7: parallel(?a, ?c) :- perpendicular(?a, ?b), perpendicular(?b, ?c).\n"
        + "R8: concurrent(?a, ?b, ?c) :- perpendicular(?a, ?b), parallel(?a, ?a), parallel(?b, ?c).\n",
        {"parallel"},
    ),
    # near misses of R4's shape: the join path, which derives loops for the first two
    "no distinctness": (LINE_RULES.replace("parallel(?b, ?c), ?a != ?c", "parallel(?b, ?c)"), set()),
    "distinctness on the wrong pair": (LINE_RULES.replace("parallel(?b, ?c), ?a != ?c", "parallel(?b, ?c), ?a != ?b"), set()),
    "head variable out of place": (LINE_RULES.replace("R4: parallel(?a, ?c)", "R4: parallel(?a, ?b)"), set()),
    "chain of three": (
        LINE_RULES.replace("R4: parallel(?a, ?c)", "R4: parallel(?a, ?d)")
        .replace("parallel(?b, ?c), ?a != ?c", "parallel(?b, ?c), parallel(?c, ?d), ?a != ?d"),
        set(),
    ),
    "no transitive rule": (LINE_RULES.split("\n", 1)[1], set()),
}


def test_default_rules_keep_parallel_as_classes(rules):
    assert rules.transitive == {"parallel"}


@pytest.mark.parametrize("name", RULE_FILES)
def test_transitive_predicates_are_found_by_the_shape_of_their_rule(name):
    text, transitive = RULE_FILES[name]
    assert load_rules(text).transitive == transitive


@pytest.mark.parametrize("name", RULE_FILES)
def test_closure_equals_naive_oracle_on_line_figures(name):
    ruleset = load_rules(RULE_FILES[name][0])
    rng = random.Random(1803)
    for _ in range(40):
        c = random_line_figure(rng, max_lines=6)
        assert closure(c, ruleset) == naive_closure(c, ruleset), serialize_construction(c)


def test_classes_merging_within_a_round_meet_their_perpendiculars(rules):
    # round 1 merges a to f into one class through parallel(b, c) and
    # parallel(d, e), and R5 derives parallel(d, h) from the perpendiculars
    # through k; round 2 merges that class with {g, h}
    c = parse_construction(
        "".join(f"line {n}\n" for n in "abcdefghk")
        + "parallel(a, b)\nparallel(c, d)\nparallel(b, c)\nparallel(e, f)\nparallel(d, e)\n"
        + "parallel(g, h)\nperpendicular(d, k)\nperpendicular(k, h)\n"
    )
    closed = closure(c, rules)
    lines = "abcdefgh"
    assert {p for p, _ in closed} == {"parallel", "perpendicular"}
    assert {args for p, args in closed if p == "parallel"} == {(x, y) for x in lines for y in lines if x < y}
    assert {args for p, args in closed if p == "perpendicular"} == {(x, "k") for x in lines}
    assert closed == naive_closure(c, rules)


def test_a_directed_binary_predicate_is_joined_not_kept_as_classes(monkeypatch):
    # with its symmetry taken away, perpendicular under R4's shape is a
    # directed transitive closure, which classes of names would get wrong
    monkeypatch.delitem(model.SYMMETRY, "perpendicular")
    monkeypatch.delitem(model.CANONICAL_ARGS, "perpendicular")
    directed = load_rules("R1: perpendicular(?a, ?c) :- perpendicular(?a, ?b), perpendicular(?b, ?c), ?a != ?c.")
    assert directed.transitive == frozenset()
    c = Construction(
        frozenset(ObjectDecl(n, "line") for n in "abcd"),
        frozenset({("perpendicular", ("a", "b")), ("perpendicular", ("b", "c")), ("perpendicular", ("d", "c"))}),
    )
    closed = closure(c, directed)
    assert closed == c.facts | {("perpendicular", ("a", "c"))}
    assert closed == naive_closure(c, directed)


def test_a_120_line_chain_closes_to_every_pair_in_output_time(rules):
    """Every pair of the 120 lines is parallel: 120 * 119 / 2 = 7,140 facts.
    Joining R4 found each of them 236 times and took 3.6-4.6 s; as classes
    it takes tens of milliseconds, so 2 s leaves a wide margin."""
    chain = parallel_chain(120)
    start = time.perf_counter()
    closed = closure(chain, rules)
    elapsed = time.perf_counter() - start
    names = sorted(chain.kinds)
    assert len(closed) == 120 * 119 // 2
    assert closed == {("parallel", (x, y)) for i, x in enumerate(names) for y in names[i + 1:]}
    assert elapsed < 2.0, f"closing the 120-line chain took {elapsed:.2f} s"
