from __future__ import annotations

import random
from itertools import combinations

import pytest

from geokb.errors import ConstructionError
from geokb.fingerprint import (
    GtdIndex,
    construction_gtd,
    gtd,
    gtd_subsumes,
    parse_gtd,
    serialize_gtd,
)
from geokb.model import EMPTY_CONSTRUCTION, fact, parse_construction
from geokb.rules import closure

from generators import (
    WRITE_KINDS,
    bare_triangle,
    collinear_points,
    induced_subconstruction,
    parallel_chain,
    random_construction,
    triangle_with_circle,
    write_kinds,
)
from oracles import pairwise_gtd


# -- gtd counts ------------------------------------------------------------------


def test_gtd_counts_for_single_line_through(rules):
    c = parse_construction("point A\npoint B\nline a\nline_through(a, A, B)")
    # objects: A, B, a; facts: line_through plus two incidents, each incident
    # sharing a point and the line with line_through and the line with the other
    assert gtd(c, closure(c, rules)) == {
        "kind:point": 2,
        "kind:line": 1,
        "rel:line_through": 1,
        "rel:incident": 2,
        "path:incident-point-line_through": 2,
        "path:incident-line-line_through": 2,
        "path:incident-line-incident": 1,
    }


def test_build_graph_empty(rules):
    # the empty construction's graph has no object nodes (kind: keys), no
    # relation nodes (rel: keys) and no edges (path: keys)
    assert EMPTY_CONSTRUCTION.objects == frozenset()
    assert closure(EMPTY_CONSTRUCTION, rules) == frozenset()
    assert construction_gtd(EMPTY_CONSTRUCTION, rules) == {}


def test_gtd_totals_on_random_sample(rules):
    rng = random.Random(42)
    for _ in range(60):
        c = random_construction(rng)
        closed = closure(c, rules)
        counts = gtd(c, closed)
        assert sum(n for k, n in counts.items() if k.startswith("kind:")) == len(c.objects)
        assert sum(n for k, n in counts.items() if k.startswith("rel:")) == len(closed)
        assert all(n > 0 for n in counts.values())
        assert counts == pairwise_gtd(c, closed)


def test_gtd_rejects_foreign_facts(rules):
    with pytest.raises(ConstructionError):
        gtd(EMPTY_CONSTRUCTION, frozenset({fact("incident", "A", "a")}))


def test_gtd_matches_pairwise_oracle_on_random_constructions(rules):
    rng = random.Random(0x6D)
    for _ in range(150):
        c = random_construction(rng, max_points=6, max_lines=5, max_circles=3, max_facts=14)
        closed = closure(c, rules)
        assert gtd(c, closed) == pairwise_gtd(c, closed)


@pytest.mark.parametrize(
    "figure", [parallel_chain(2), parallel_chain(9), parallel_chain(30),
               collinear_points(3), collinear_points(8), collinear_points(20)],
    ids=["chain2", "chain9", "chain30", "points3", "points8", "points20"],
)
def test_gtd_matches_pairwise_oracle_on_adversarial_figures(rules, figure):
    closed = closure(figure, rules)
    assert gtd(figure, closed) == pairwise_gtd(figure, closed)


def test_gtd_depth2_path_counts_match_pair_enumeration(rules):
    c = bare_triangle()
    closed = closure(c, rules)
    fingerprint = gtd(c, closed)
    assert {k: n for k, n in fingerprint.items() if not k.startswith("path:")} == {
        "kind:line": 3,
        "kind:point": 3,
        "rel:incident": 6,
        "rel:line_through": 3,
    }

    # independent enumeration over closed fact pairs
    kind_of = c.kinds
    expected: dict[str, int] = {}
    for (pf, af), (pg, ag) in combinations(sorted(closed), 2):
        shared = set(af) & set(ag)
        for kind in {kind_of[n] for n in shared}:
            p1, p2 = sorted((pf, pg))
            key = f"path:{p1}-{kind}-{p2}"
            expected[key] = expected.get(key, 0) + 1
    paths = {k: v for k, v in fingerprint.items() if k.startswith("path:")}
    assert paths == expected
    assert fingerprint["path:incident-point-incident"] == 3


# -- subsumption -------------------------------------------------------------------


def test_empty_query_is_subsumed_by_anything(rules):
    empty = construction_gtd(EMPTY_CONSTRUCTION, rules)
    full = construction_gtd(bare_triangle(), rules)
    assert gtd_subsumes(full, empty)
    assert not gtd_subsumes(empty, full)


def test_triangle_and_circle_subsumption_is_directional(rules):
    triangle = construction_gtd(bare_triangle(), rules)
    with_circle = construction_gtd(triangle_with_circle(), rules)
    assert gtd_subsumes(with_circle, triangle)
    assert not gtd_subsumes(triangle, with_circle)


def test_subsumption_is_reflexive(rules):
    fingerprint = construction_gtd(bare_triangle(), rules)
    assert gtd_subsumes(fingerprint, fingerprint)


def test_subsumption_is_transitive_and_antisymmetric(rules):
    rng = random.Random(17)
    fingerprints = [construction_gtd(random_construction(rng), rules) for _ in range(25)]
    for a in fingerprints:
        for b in fingerprints:
            if gtd_subsumes(a, b) and gtd_subsumes(b, a):
                assert a == b
            for c in fingerprints:
                if gtd_subsumes(a, b) and gtd_subsumes(b, c):
                    assert gtd_subsumes(a, c)


def test_embedding_monotonicity_on_induced_subconstructions(rules):
    rng = random.Random(2718)
    for _ in range(100):
        target = random_construction(rng)
        query = induced_subconstruction(rng, target)
        assert gtd_subsumes(construction_gtd(target, rules), construction_gtd(query, rules))


# -- the index -----------------------------------------------------------------------


def _scan(fingerprints, query) -> tuple[list[int], list[int]]:
    """Brute force: the slots whose fingerprint dominates the query, and the
    slots whose fingerprint the query dominates."""
    return (
        [slot for slot, stored in enumerate(fingerprints) if gtd_subsumes(stored, query)],
        [slot for slot, stored in enumerate(fingerprints) if gtd_subsumes(query, stored)],
    )


def _probe_queries(rng: random.Random, fingerprints, rules) -> list[dict[str, int]]:
    """Queries for an index over ``fingerprints``: the empty fingerprint, a
    key no slot has, a count above every stored count, stored fingerprints
    as they are and with one count raised or lowered, and fresh ones."""
    queries = [{}, {"kind:nowhere": 1}]
    keys = sorted({key for stored in fingerprints for key in stored})
    if keys:
        key = rng.choice(keys)
        queries.append({key: max(stored.get(key, 0) for stored in fingerprints) + 1})
    for stored in rng.sample(fingerprints, min(4, len(fingerprints))):
        queries.append(dict(stored))
        if not stored:
            continue
        key = rng.choice(sorted(stored))
        queries.append({**stored, key: stored[key] + 1})
        queries.append({k: n for k, n in {**stored, key: stored[key] - 1}.items() if n})
    queries.extend(construction_gtd(random_construction(rng), rules) for _ in range(3))
    return queries


def test_index_agrees_with_a_scan_as_slots_are_written(rules):
    """A seeded sequence of appended slots: fresh fingerprints, exact
    repeats of stored ones and stored ones with one count changed, which
    bring new keys and counts below, between and above a key's stored
    counts.  After each write both directions equal a brute-force scan, the
    derived index equals one built from scratch, and each slot's counts are
    its fingerprint."""
    rng = random.Random(0x1DE)
    fingerprints: list[dict[str, int]] = []
    index = GtdIndex()
    seen: set[str] = set()
    for _ in range(80):
        fingerprint = construction_gtd(random_construction(rng), rules)
        if fingerprints and rng.random() < 0.5:
            fingerprint = dict(rng.choice(fingerprints))
            if fingerprint and rng.random() < 0.6:
                key = rng.choice(sorted(fingerprint))
                fingerprint[key] = rng.randint(1, 2 * fingerprint[key] + 1)
        seen |= write_kinds(fingerprints, fingerprint)
        index = index.with_slot(fingerprint)
        fingerprints.append(fingerprint)
        assert index.size == len(fingerprints)
        assert index._postings == GtdIndex.build(fingerprints)._postings
        assert index.fingerprints() == fingerprints
        for query in _probe_queries(rng, fingerprints, rules):
            assert (index.dominating(query), index.dominated(query)) == _scan(fingerprints, query)
    assert seen == WRITE_KINDS


def test_one_high_slot_reads_back_from_a_sparse_mask():
    """A key only the last slot holds, so that its one mask holds one set
    bit, in the store's last 64-bit word; a key every other slot holds in
    one of three counts; and a key of the last slot and of one in the
    middle, in two counts.  Each slot reads back its own fingerprint, from
    an index built at once or grown one slot at a time, for stores that
    end a slot before, at and after a word's edge, and for 1,000 slots."""
    for size in (63, 64, 65, 1000):
        fingerprints = [{"kind:point": 1 + slot % 3} for slot in range(size - 1)]
        fingerprints.append({"kind:circle": 2, "rel:center": 5})
        fingerprints[size // 2]["kind:circle"] = 1
        grown = GtdIndex()
        for fingerprint in fingerprints:
            grown = grown.with_slot(fingerprint)
        for index in (GtdIndex.build(fingerprints), grown):
            counts, masks = index._postings["rel:center"]
            assert counts == [5] and masks == [1 << (size - 1)]
            assert index.fingerprints() == fingerprints


def test_a_slot_write_copies_only_its_own_keys(rules):
    """The cost of a write grows with the entry, not with the store: the
    derived index shares the parent's postings of every key the new
    fingerprint lacks, and the parent keeps its answers."""
    rng = random.Random(0xC0B)
    fingerprints = [construction_gtd(random_construction(rng), rules) for _ in range(30)]
    parent = GtdIndex.build(fingerprints)
    postings = dict(parent._postings)
    queries = [{}, *fingerprints]
    answers = [(parent.dominating(query), parent.dominated(query)) for query in queries]
    triangle = construction_gtd(bare_triangle(), rules)
    for fingerprint in ({}, {"kind:nowhere": 1}, fingerprints[3], triangle):
        child = parent.with_slot(fingerprint)
        lacking = [key for key in postings if key not in fingerprint]
        assert lacking and all(child._postings[key] is postings[key] for key in lacking)
        assert all(child._postings[key] is not postings.get(key) for key in fingerprint)
        assert parent.size == len(fingerprints) and parent._postings == postings
        assert [(parent.dominating(query), parent.dominated(query)) for query in queries] == answers


def test_empty_index_answers_nothing(rules):
    for index in (GtdIndex(), GtdIndex.build([])):
        for query in ({}, {"kind:point": 1}, construction_gtd(bare_triangle(), rules)):
            assert index.dominating(query) == [] and index.dominated(query) == []


def test_index_keeps_its_answers_after_a_derived_index_is_made(rules):
    triangle = construction_gtd(bare_triangle(), rules)
    with_circle = construction_gtd(triangle_with_circle(), rules)
    index = GtdIndex.build([triangle])
    derived = index.with_slot(with_circle).with_slot(triangle)
    assert index.dominating(with_circle) == [] and index.dominated(triangle) == [0]
    assert derived.dominating(with_circle) == [1] and derived.dominated(triangle) == [0, 2]


def test_sixty_collinear_points_leave_one_mask_per_distinct_count(rules):
    points60 = construction_gtd(collinear_points(60), rules)
    assert 84_848_490 in points60.values()
    fingerprints = [points60, construction_gtd(collinear_points(8), rules), points60]
    appended = GtdIndex().with_slot(points60).with_slot(fingerprints[1]).with_slot(points60)
    for index in (GtdIndex.build(fingerprints), appended):
        for key, (counts, masks) in index._postings.items():
            assert counts == sorted({stored[key] for stored in fingerprints if key in stored})
            assert len(masks) == len(counts)
        assert index.dominating(points60) == [0, 2]
        assert index.dominated(fingerprints[1]) == [1]


# -- serialization ------------------------------------------------------------------


def test_serialize_gtd_is_sorted_single_line(rules):
    fingerprint = construction_gtd(bare_triangle(), rules)
    text = serialize_gtd(fingerprint)
    assert "\n" not in text
    parts = text.split()
    assert parts[0] == "depth=2"
    assert parts[1:] == sorted(parts[1:])


def test_serialize_gtd_round_trip(rules):
    rng = random.Random(8)
    for _ in range(40):
        fingerprint = construction_gtd(random_construction(rng), rules)
        assert list(parse_gtd(serialize_gtd(fingerprint)).items()) == list(fingerprint.items())


def test_serialize_empty_gtd():
    assert serialize_gtd({}) == "depth=2"
    assert parse_gtd("depth=2") == {}


@pytest.mark.parametrize(
    "text",
    ["", "kind:point=3", "depth=7", "depth=1 kind:point=3", "depth=02", "depth=2 kind:point=0",
     "depth=2 =3", "depth=2 kind:point"],
)
def test_parse_gtd_rejects_garbage(text):
    with pytest.raises(ValueError):
        parse_gtd(text)
