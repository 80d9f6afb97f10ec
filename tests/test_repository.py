from __future__ import annotations

import hashlib
import json
import random
import re
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from geokb.errors import (
    ConstructionError,
    EntryError,
    FilterError,
    IdentifierCollisionError,
    NotFoundError,
    StorageError,
)
from geokb.fingerprint import construction_gtd, gtd, gtd_subsumes, serialize_gtd
from geokb.matching import embed_closed, find_embeddings
from geokb.model import KINDS, Construction, ObjectDecl, fact_text, parse_construction, serialize_construction
from geokb.corpus import ENTRIES, seed_repository
from geokb.protocol import InsertResult, QueryRequest, decode_response, encode_request
from geokb.repository import (
    DuplicateReport,
    EMPTY_FILTERS,
    FilterSet,
    ProblemEntry,
    Repository,
    cache_digest,
    parse_filters,
)
from geokb.rules import RuleSet, closure, default_rules
from geokb.server import handle_request

from generators import (
    BARE_TRIANGLE_TEXT,
    TRIANGLE_WITH_CIRCLE_TEXT,
    WRITE_KINDS,
    bare_triangle,
    concurrent_lines,
    induced_subconstruction,
    random_construction,
    random_fact,
    triangle_with_circle,
    write_kinds,
)
from oracles import brute_force_embeds, fact_pairs, is_embedding, ranked_text_hits, stored_entries

TRIANGLE_DRAFT = ProblemEntry(
    name="Plain Triangle",
    short_description="Three points and their lines.",
    description="Nothing but a triangle.",
    keywords=("triangle",),
    code=BARE_TRIANGLE_TEXT,
    kind="construction",
    level=1,
)


# -- filters ----------------------------------------------------------------


def test_parse_filters_two_clauses():
    filters = parse_filters("kind=conjecture AND level=3")
    assert len(filters) == 2
    assert filters.clauses == (("kind", "conjecture"), ("level", 3))


def test_parse_filters_empty_matches_everything():
    assert parse_filters("") == EMPTY_FILTERS
    assert parse_filters("   ") == EMPTY_FILTERS
    assert EMPTY_FILTERS.matches(TRIANGLE_DRAFT)


def test_parse_filters_errors():
    with pytest.raises(FilterError, match="unknown filter key"):
        parse_filters("colour=blue")
    with pytest.raises(FilterError, match="malformed filter"):
        parse_filters("kind")
    with pytest.raises(FilterError, match="level must be an integer"):
        parse_filters("level=three")
    with pytest.raises(FilterError, match="between 1 and 5"):
        parse_filters("level=9")
    with pytest.raises(FilterError, match="kind must be one of"):
        parse_filters("kind=problem")


def test_format_filter_accepted_but_selective(seeded_repo):
    assert parse_filters("format=ggb")  # accepted
    assert seeded_repo.text_query(".*", filters=parse_filters("format=ggb")) == []
    everything = seeded_repo.text_query(".*", filters=parse_filters("format=predicate"))
    assert everything == list(stored_entries(seeded_repo))


def test_keyword_filter_is_case_insensitive(seeded_repo):
    upper = seeded_repo.text_query(".*", filters=parse_filters("keyword=TRIANGLE"))
    lower = seeded_repo.text_query(".*", filters=parse_filters("keyword=triangle"))
    assert upper == lower and "GEO_CEVA" in upper


def test_language_filter(seeded_repo):
    portuguese = seeded_repo.text_query(".*", filters=parse_filters("language=pt"))
    assert portuguese == ["GEO0015"]


# -- seeding and record semantics ----------------------------------------------


def test_corpus_seeds_cleanly(seeded_repo):
    assert len(seeded_repo) == len(ENTRIES) >= 20
    assert {"GEO_CEVA", "GEO0281", "GEO0328"} <= set(stored_entries(seeded_repo))


def _entry_document(repo: Repository, identifier: str) -> dict:
    path = repo.data_dir / "entries" / f"{identifier}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def test_get_returns_equal_entry(fresh_seeded_repo):
    entry = fresh_seeded_repo.get("GEO0281")
    assert entry.name == "Incircle of a Triangle"
    assert _entry_document(fresh_seeded_repo, "GEO0281")["GTD"].startswith("depth=2 ")
    with pytest.raises(NotFoundError):
        fresh_seeded_repo.get("GEO9999")


def test_cache_coherence_on_seeded_corpus(seeded_repo):
    assert seeded_repo.check_cache_coherence() == []
    for identifier in stored_entries(seeded_repo):
        entry = seeded_repo.get(identifier)
        recomputed = construction_gtd(parse_construction(entry.code), seeded_repo.ruleset)
        assert serialize_gtd(recomputed) == _entry_document(seeded_repo, identifier)["GTD"]


def test_insert_assigns_lowest_unused_identifier(tmp_path):
    repo = Repository(tmp_path / "data")
    assert repo.insert(TRIANGLE_DRAFT) == "GEO0001"
    second = repo.insert(
        ProblemEntry(name="Circle", code="circle k\n", kind="construction", level=1),
        force=True,
    )
    assert second == "GEO0002"


def test_insert_assigns_gap_left_before_an_explicit_identifier(tmp_path):
    repo = Repository(tmp_path / "data")
    circle = ProblemEntry(name="Circle", code="circle k\n", kind="construction", level=1)
    assert repo.insert(TRIANGLE_DRAFT) == "GEO0001"
    assert repo.insert(replace(circle, identifier="GEO0003"), force=True) == "GEO0003"
    assert repo.insert(circle, force=True) == "GEO0002"
    assert repo.insert(circle, force=True) == "GEO0004"
    # a report stores nothing, so the number stays free
    assert isinstance(repo.insert(TRIANGLE_DRAFT), DuplicateReport)
    assert repo.insert(circle, force=True) == "GEO0005"
    assert Repository(repo.data_dir).insert(circle, force=True) == "GEO0006"


def test_identifiers_continue_past_geo9999_across_a_reload(tmp_path):
    repo = Repository(tmp_path / "data")
    repo._next_number = 9998  # as if GEO0001..GEO9997 were taken; filling them takes seconds
    circle = ProblemEntry(name="Circle", code="circle k\n", kind="construction", level=1)
    assert [repo.insert(circle, force=True) for _ in range(3)] == ["GEO9998", "GEO9999", "GEO10000"]
    assert repo.insert(replace(circle, identifier="GEO10002"), force=True) == "GEO10002"
    assert repo.insert(circle, force=True) == "GEO10001"
    reloaded = Repository(repo.data_dir)
    in_string_order = ["GEO10000", "GEO10001", "GEO10002", "GEO9998", "GEO9999"]
    assert list(stored_entries(reloaded)) == in_string_order
    assert [i for i, _ in reloaded.geometric_query(parse_construction("circle k"))] == in_string_order
    assert reloaded.get("GEO10001") == repo.get("GEO10001")
    reloaded._next_number = 9998  # the lowest unused number at or above it
    assert reloaded.insert(circle, force=True) == "GEO10003"
    assert list(stored_entries(Repository(repo.data_dir))) == sorted(in_string_order + ["GEO10003"])


def test_insert_into_seeded_corpus_skips_taken_numbers(fresh_seeded_repo):
    # corpus occupies GEO0001..GEO0022 plus GEO0281/GEO0328/GEO_CEVA
    identifier = fresh_seeded_repo.insert(
        ProblemEntry(name="Nothing", code="", kind="construction"), force=True
    )
    assert identifier == "GEO0023"


def test_insert_rejects_collision_and_bad_identifiers(fresh_seeded_repo):
    with pytest.raises(IdentifierCollisionError):
        fresh_seeded_repo.insert(
            ProblemEntry(identifier="GEO0281", name="X", code="", kind="construction"),
            force=True,
        )
    with pytest.raises(EntryError):
        fresh_seeded_repo.insert(
            ProblemEntry(identifier="../evil", name="X", code=""), force=True
        )


def test_insert_validates_draft_and_code(tmp_path):
    repo = Repository(tmp_path / "data")
    with pytest.raises(ConstructionError):
        repo.insert(ProblemEntry(name="Broken", code="parallel(a, a)\nline a\n"))
    with pytest.raises(EntryError):
        repo.insert(ProblemEntry(name="Bad level", code="", level=6))
    with pytest.raises(EntryError):
        repo.insert(ProblemEntry(name="Bad kind", code="", kind="sonnet"))
    with pytest.raises(EntryError, match="level must be an integer"):
        repo.insert(ProblemEntry(name="Boolean level", code="", level=True))  # bool is an int
    for field, value, message in (
        ("name", 5, "Name must be a string"),
        ("description", None, "Description must be a string"),
        ("keywords", ("a", 7), "Keywords must be an array of strings"),
        ("keywords", "abc", "Keywords must be an array of strings"),  # not ('a', 'b', 'c')
    ):
        with pytest.raises(EntryError, match=message):
            repo.insert(ProblemEntry(**{"name": "Ill-typed", "code": "", field: value}))
    assert len(repo) == 0
    assert list(repo.data_dir.glob("entries/*")) == []
    identifier = repo.insert(ProblemEntry(name="Listed keywords", code="", keywords=["a"]))
    assert repo.get(identifier).keywords == ("a",)
    assert Repository(repo.data_dir).get(identifier).keywords == ("a",)


def test_an_entry_renamed_in_its_file_is_trusted_under_the_new_name(fresh_seeded_repo, caplog):
    """The store never changes an entry it holds; an entry is corrected by
    editing its file while the store is closed.  ``Name`` is not under the
    digest, so the edited file is trusted as it is."""
    path = fresh_seeded_repo.data_dir / "entries" / "GEO0012.json"
    _edit_entry(fresh_seeded_repo.data_dir, "GEO0012", lambda doc: {**doc, "Name": "Renamed Circle"})
    edited = path.read_bytes()
    with caplog.at_level("WARNING"):
        reloaded = Repository(fresh_seeded_repo.data_dir)
    assert not caplog.records and path.read_bytes() == edited
    assert reloaded.text_query("renamed circle") == ["GEO0012"]
    assert reloaded.text_query("renamed", mode="extended") == ["GEO0012"]
    assert reloaded.text_query("^Circle and Diameter$") == []
    [hit] = reloaded.hits(["GEO0012"])
    assert json.loads(b"{" + hit + b"}")["GEO0012"]["Name"] == "Renamed Circle"
    assert reloaded.check_cache_coherence() == []


def test_an_entry_whose_code_is_edited_in_its_file_is_analysed_again(fresh_seeded_repo, caplog):
    """An edited ``Code`` no longer matches the digest: the reload analyses
    the entry again and rewrites its file, and geometric queries and the
    duplicate gate see the new construction."""
    repo = fresh_seeded_repo
    hits = {i for i, _ in repo.geometric_query(bare_triangle())}
    gained = next(i for i in stored_entries(repo) if i not in hits)
    assert "GEO0281" in hits
    for identifier, code in (("GEO0281", "circle k\n"), (gained, BARE_TRIANGLE_TEXT)):
        _edit_entry(repo.data_dir, identifier, lambda doc, code=code: {**doc, "Code": code})
    with caplog.at_level("WARNING"):
        reloaded = Repository(repo.data_dir)
    assert _refreshed(caplog) == [
        f"refreshing stale fingerprint cache of {i}" for i in sorted(("GEO0281", gained))
    ]
    assert reloaded.check_cache_coherence() == []
    after = dict(reloaded.geometric_query(bare_triangle()))
    assert "GEO0281" not in after
    assert after[gained].as_dict() == {n: n for n in bare_triangle().kinds}
    report = reloaded.find_duplicates(bare_triangle())
    assert gained in report.exact_duplicates
    assert "GEO0281" not in report.exact_duplicates + report.containing_entries
    assert "GEO0281" in reloaded.find_duplicates(parse_construction("circle k\n")).exact_duplicates
    caplog.clear()
    with caplog.at_level("WARNING"):
        again = Repository(repo.data_dir)
    assert not caplog.records  # the rewritten files are trusted
    assert _answers(again) == _answers(reloaded)


def test_reloaded_witnesses_equal_direct_matching(fresh_seeded_repo):
    reloaded = Repository(fresh_seeded_repo.data_dir)
    entries = stored_entries(reloaded)
    for query in (bare_triangle(), triangle_with_circle(), concurrent_lines()):
        confirmed = dict(reloaded.geometric_query(query, confirm=True))
        for identifier, _ in reloaded.geometric_query(query, confirm=False):
            direct = find_embeddings(query, parse_construction(entries[identifier].code), reloaded.ruleset, 1)
            assert confirmed.get(identifier) == (direct[0] if direct else None)


def test_stored_constructions_round_trip(seeded_repo):
    for e in ENTRIES:
        construction = parse_construction(stored_entries(seeded_repo)[e.identifier].code)
        assert construction == parse_construction(e.code)
        assert parse_construction(serialize_construction(construction)) == construction
    with pytest.raises(NotFoundError):
        seeded_repo.get("GEO9999")


# -- duplicate gate ---------------------------------------------------------------


def test_insert_duplicate_of_stored_entry_is_blocked(fresh_seeded_repo):
    ceva = fresh_seeded_repo.get("GEO_CEVA")
    draft = ProblemEntry(
        name="Ceva retold",
        code=ceva.code,
        kind=ceva.kind,
        level=ceva.level,
        keywords=ceva.keywords,
    )
    outcome = fresh_seeded_repo.insert(draft)
    assert isinstance(outcome, DuplicateReport)
    assert "GEO_CEVA" in outcome.exact_duplicates
    assert len(fresh_seeded_repo) == len(ENTRIES)
    # force pushes it through
    identifier = fresh_seeded_repo.insert(draft, force=True)
    assert identifier == "GEO0023"
    assert fresh_seeded_repo.check_cache_coherence() == []


def test_insert_bare_triangle_is_contained_in_incircle_entry(fresh_seeded_repo):
    outcome = fresh_seeded_repo.insert(TRIANGLE_DRAFT)
    assert isinstance(outcome, DuplicateReport)
    assert "GEO0281" in outcome.containing_entries
    assert not outcome.exact_duplicates
    # report lists are disjoint
    all_ids = (
        list(outcome.exact_duplicates)
        + list(outcome.containing_entries)
        + list(outcome.contained_entries)
    )
    assert len(all_ids) == len(set(all_ids))


def test_insert_extension_only_warns_and_goes_through(tmp_path, caplog):
    repo = Repository(tmp_path / "data")
    assert repo.insert(TRIANGLE_DRAFT) == "GEO0001"
    richer = ProblemEntry(
        name="Triangle with circumcircle",
        code=TRIANGLE_WITH_CIRCLE_TEXT
        + "point O\ncircle_centered(k, O, A)\non_circle(B, k)\non_circle(C, k)\n",
        kind="conjecture",
    )
    with caplog.at_level("WARNING"):
        identifier = repo.insert(richer)
    assert identifier == "GEO0002"
    assert "extends stored entries" in caplog.text


def test_insert_log_names_the_first_five_extended_entries_and_the_unsearched_rest(tmp_path, caplog):
    repo = Repository(tmp_path / "data")
    segment = ProblemEntry(name="Segment", code="point A\npoint B\nline a\nline_through(a, A, B)\n",
                           kind="construction")
    for _ in range(5):
        repo.insert(segment, force=True)
    with caplog.at_level("WARNING", logger="geokb.repository"):
        assert repo.insert(TRIANGLE_DRAFT) == "GEO0006"  # extends the five segments
        assert repo.insert(replace(TRIANGLE_DRAFT, code=TRIANGLE_WITH_CIRCLE_TEXT)) == "GEO0007"  # and the triangle
    assert [record.getMessage() for record in caplog.records] == [
        "insert GEO0006 extends stored entries GEO0001, GEO0002, GEO0003, GEO0004, GEO0005;"
        " backward candidates left unsearched: 0",
        "insert GEO0007 extends stored entries GEO0001, GEO0002, GEO0003, GEO0004, GEO0005;"
        " backward candidates left unsearched: 1",
    ]


#: four segments in a chain: its fingerprint dominates the bare triangle's,
#: but it has no cycle, so the triangle does not embed into it
CHAIN_OF_FOUR_TEXT = "".join(f"point P{i}\n" for i in range(5)) + "".join(
    f"line l{i}\nline_through(l{i}, P{i}, P{i + 1})\n" for i in range(4)
)
#: seven figures that each embed into the bare triangle
TRIANGLE_PARTS = (
    "point A\n",
    "line a\n",
    "point A\npoint B\n",
    "point A\nline a\n",
    "point A\npoint B\nline a\nline_through(a, A, B)\n",
    "point A\npoint B\nline a\n",
    "point A\npoint B\npoint C\n",
)


def _chain_and_triangle_parts(data) -> Repository:
    """A store of the chain, GEO0001, and the triangle's parts, GEO0002 to
    GEO0008, each inserted by force."""
    repo = Repository(data)
    for i, code in enumerate((CHAIN_OF_FOUR_TEXT, *TRIANGLE_PARTS)):
        repo.insert(ProblemEntry(name=f"Figure {i}", code=code), force=True)
    return repo


def test_an_insert_that_goes_through_stops_its_backward_searches_at_the_fifth_embedding(
    tmp_path, monkeypatch, caplog
):
    repo = _chain_and_triangle_parts(tmp_path / "data")
    names = {record.side: record.entry.identifier for record in repo._records}
    searched = []

    def counting(query, target, *args, **kwargs):
        searched.append(("forward", names[target]) if target in names else ("backward", names[query]))
        return embed_closed(query, target, *args, **kwargs)

    monkeypatch.setattr("geokb.repository.embed_closed", counting)
    with caplog.at_level("WARNING", logger="geokb.repository"):
        assert repo.insert(TRIANGLE_DRAFT) == "GEO0009"
    # the chain is searched forward and found not to hold the triangle; the
    # parts are searched backward, GEO0007 and GEO0008 not at all
    extended = ["GEO0002", "GEO0003", "GEO0004", "GEO0005", "GEO0006"]
    assert searched == [("forward", "GEO0001")] + [("backward", i) for i in extended]
    assert [record.getMessage() for record in caplog.records] == [
        f"insert GEO0009 extends stored entries {', '.join(extended)}; backward candidates left unsearched: 2"
    ]
    # of the sides stored before, only those searched backward were queries;
    # the draft's own side, now GEO0009's, was the query of the forward search
    planned = [record.entry.identifier for record in repo._records[:8] if "plan" in vars(record.side)]
    assert planned == extended
    # the public call still searches them all
    monkeypatch.undo()
    report = repo.find_duplicates(bare_triangle())
    assert report == DuplicateReport(("GEO0009",), (), tuple(f"GEO{n:04d}" for n in range(2, 9)))


def test_a_blocked_insert_answers_with_every_stored_entry_its_figure_contains(tmp_path):
    repo = _chain_and_triangle_parts(tmp_path / "data")
    assert repo.insert(TRIANGLE_DRAFT, force=True) == "GEO0009"
    answer = handle_request(repo, encode_request(QueryRequest(insert=TRIANGLE_DRAFT)))
    report = repo.find_duplicates(bare_triangle())
    assert len(report.contained_entries) == 7
    assert decode_response(answer) == InsertResult("duplicate", None, report)
    assert len(repo) == 9


def _may_embed(query, target, rules) -> bool:
    """A necessary condition for an embedding, from counts alone: an
    injective map sends distinct objects of a kind, and distinct closed
    facts of a predicate, to distinct ones.  It spares brute force the
    pairs it would have to enumerate in full."""
    def counts(construction):
        return (Counter(construction.kinds.values()), Counter(p for p, _ in closure(construction, rules)))
    return all(small <= large for small, large in zip(counts(query), counts(target)))


def _embeds(query, target, rules) -> bool:
    return _may_embed(query, target, rules) and brute_force_embeds(query, target, rules)


def _renamed(code: str) -> str:
    """The figure of ``code`` with each object renamed, in reverse name
    order, so that look-alike objects are tried in another order."""
    construction = parse_construction(code)
    names = {name: f"N{i:02d}" for i, name in enumerate(sorted(construction.kinds, reverse=True))}
    return serialize_construction(Construction(
        frozenset(ObjectDecl(names[o.name], o.kind) for o in construction.objects),
        frozenset((predicate, tuple(names[a] for a in args)) for predicate, args in construction.facts),
    ))


GEO0281_CODE = next(e.code for e in ENTRIES if e.identifier == "GEO0281")

#: drafts for the gate's oracle, each with the number of stored entries that
#: contain it and that it contains.  The bare triangle is searched forward
#: only; against the padded corpus entry nine stored entries are searched
#: backward, all sharing its candidate lists.  A stored entry's own figure,
#: under its names or others, is an exact duplicate of it
GATE_DRAFTS = {
    "bare triangle": (BARE_TRIANGLE_TEXT, 18, 0),
    "padded corpus entry": (
        next(e.code for e in ENTRIES if e.identifier == "GEO0003") + "point Q0\npoint Q1\nline m0\nline m1\n",
        0,
        5,
    ),
    "GEO0281": (GEO0281_CODE, 1, 1),
    "GEO0281 renamed": (_renamed(GEO0281_CODE), 1, 1),
}


def test_find_duplicates_mirror_report(fresh_seeded_repo):
    repo, rules = fresh_seeded_repo, fresh_seeded_repo.ruleset
    stored = {identifier: parse_construction(entry.code) for identifier, entry in stored_entries(repo).items()}
    for draft, (code, containing, contained) in GATE_DRAFTS.items():
        construction = parse_construction(code)
        report = repo.find_duplicates(construction)
        oracle_containing = {i for i, entry in stored.items() if _embeds(construction, entry, rules)}
        oracle_contained = {i for i, entry in stored.items() if _embeds(entry, construction, rules)}
        assert set(report.exact_duplicates) == oracle_containing & oracle_contained, draft
        assert set(report.containing_entries) | set(report.exact_duplicates) == oracle_containing, draft
        assert set(report.contained_entries) | set(report.exact_duplicates) == oracle_contained, draft
        assert (len(oracle_containing), len(oracle_contained)) == (containing, contained), draft


def test_find_duplicates_classifies_seeded_drafts_as_brute_force_does(fresh_seeded_repo):
    repo, rules = fresh_seeded_repo, fresh_seeded_repo.ruleset
    rng = random.Random(0x6A7E)

    def small_figure():
        return random_construction(rng, max_points=4, max_lines=3, max_circles=1, max_facts=6)

    figures = [small_figure() for _ in range(100)]
    for i, figure in enumerate(figures):
        repo.insert(ProblemEntry(name=f"Random {i}", code=serialize_construction(figure)), force=True)
    stored = {identifier: parse_construction(entry.code) for identifier, entry in stored_entries(repo).items()}
    drafts = [small_figure() for _ in range(40)]
    drafts += [parse_construction(_renamed(serialize_construction(f))) for f in rng.sample(figures, 15)]
    drafts += [stored[identifier] for identifier in ("GEO0003", "GEO0281")]
    seen = set()
    for draft in drafts:
        forward = {i for i, entry in stored.items() if _embeds(draft, entry, rules)}
        backward = {i for i, entry in stored.items() if _embeds(entry, draft, rules)}
        oracle = [sorted(forward & backward), sorted(forward - backward), sorted(backward - forward)]
        report = repo.find_duplicates(draft)
        lists = [report.exact_duplicates, report.containing_entries, report.contained_entries]
        assert [list(found) for found in lists] == oracle
        seen.update(k for k, found in enumerate(lists) if found)
        # a confirmed query and a blocked insert answer from the same oracle
        assert [i for i, _ in repo.geometric_query(draft)] == sorted(forward)
        if forward:
            assert repo.insert(ProblemEntry(name="Draft", code=serialize_construction(draft))) == report
    assert seen == {0, 1, 2}  # each list is met
    assert len(repo) == len(stored)  # no blocked draft was stored


def test_a_draft_equal_to_a_stored_entry_costs_it_one_search(fresh_seeded_repo, monkeypatch):
    stored = _record(fresh_seeded_repo, "GEO0281").side
    searched = []

    def counting(query, target, *args, **kwargs):
        if stored is query or stored is target:  # sides compare by value
            searched.append((query, target))
        return embed_closed(query, target, *args, **kwargs)

    monkeypatch.setattr("geokb.repository.embed_closed", counting)
    for code in (GEO0281_CODE, _renamed(GEO0281_CODE)):
        searched.clear()
        report = fresh_seeded_repo.find_duplicates(parse_construction(code))
        assert report.exact_duplicates == ("GEO0281",)
        assert len(searched) == 1 and searched[0][1] is stored


#: the parts of the triangle a store of copies holds
SEGMENT_TEXT, POINT_TEXT, POINT_PAIR_TEXT = TRIANGLE_PARTS[4], TRIANGLE_PARTS[0], TRIANGLE_PARTS[5]
#: the triangle with a circle through one corner: a distinct side, which a
#: query with no ``on_circle`` fact sees as it sees the triangle with a circle
TRIANGLE_WITH_CIRCLE_THROUGH_A_TEXT = TRIANGLE_WITH_CIRCLE_TEXT + "on_circle(A, k)\n"
#: GEO0001 to GEO0014, seven distinct sides: the triangle with a circle under
#: three identifiers and, once, renamed, which makes it a distinct side;
#: the chain twice; three parts of the triangle two or three times each; and
#: last, the triangle with its circle through a corner
COPIES = (
    TRIANGLE_WITH_CIRCLE_TEXT, SEGMENT_TEXT, CHAIN_OF_FOUR_TEXT, POINT_TEXT, TRIANGLE_WITH_CIRCLE_TEXT,
    _renamed(TRIANGLE_WITH_CIRCLE_TEXT), SEGMENT_TEXT, CHAIN_OF_FOUR_TEXT, POINT_TEXT,
    TRIANGLE_WITH_CIRCLE_TEXT, POINT_PAIR_TEXT, POINT_TEXT, POINT_PAIR_TEXT, TRIANGLE_WITH_CIRCLE_THROUGH_A_TEXT,
)


def _store_of_copies(data) -> Repository:
    repo = Repository(data)
    for i, code in enumerate(COPIES):
        repo.insert(ProblemEntry(name=f"Copy {i}", code=code), force=True)
    return repo


def _stored_sides_searched(repo: Repository, monkeypatch) -> list[int]:
    """Counts the repository's searches from now on: the list it returns
    gets the id of the stored side (the target forward, the query backward)
    of each."""
    stored = {id(record.side) for record in repo._records}
    searched = []

    def counting(query, target, *args, **kwargs):
        searched.append(id(target) if id(target) in stored else id(query))
        return embed_closed(query, target, *args, **kwargs)

    monkeypatch.setattr("geokb.repository.embed_closed", counting)
    return searched


def _sides(repo: Repository, *numbers: int) -> list[int]:
    """The ids of the sides of GEO0001, GEO0002, ... by number."""
    return [id(_record(repo, f"GEO{n:04d}").side) for n in numbers]


def test_a_store_and_its_reload_hold_one_side_per_distinct_figure(tmp_path):
    repo = _store_of_copies(tmp_path / "data")
    for store in (repo, Repository(repo.data_dir)):
        by_code: dict = {}
        for record in store._records:
            assert by_code.setdefault(record.entry.code, record.side) is record.side
        assert len({id(side) for side in by_code.values()}) == len(set(COPIES)) == 7
        assert store.check_cache_coherence() == []


def test_a_confirmed_query_searches_each_distinct_side_once(tmp_path, monkeypatch):
    repo, rules = _store_of_copies(tmp_path / "data"), default_rules()
    size = len(repo._shared)
    searched = _stored_sides_searched(repo, monkeypatch)
    hits = repo.geometric_query(bare_triangle())
    # the candidates are the five triangles and the two chains, in
    # identifier order; a view is searched at its first identifier unless
    # the last hit's names fit it, which the chain's and the renamed
    # triangle's do not, and GEO0014's side, distinct but seen as GEO0001's,
    # is not searched
    assert searched == _sides(repo, 1, 3, 6)
    assert _sides(repo, 14) != _sides(repo, 1)
    oracle = [i for i, e in stored_entries(repo).items() if _embeds(bare_triangle(), parse_construction(e.code), rules)]
    assert [identifier for identifier, _ in hits] == oracle == ["GEO0001", "GEO0005", "GEO0006", "GEO0010", "GEO0014"]
    # each identifier gets a witness into its own entry's figure
    for identifier, embedding in hits:
        assert embedding.facts <= fact_pairs(_record(repo, identifier).side)
    assert len(repo._shared) == size


def test_a_new_view_the_last_hits_names_fit_is_confirmed_without_a_search(tmp_path, monkeypatch):
    """Five triangles, each a distinct view of the bare triangle: itself,
    with a point more, renamed, renamed with a point more, and with a line
    more.  A view is searched only where the last hit's names do not fit
    it: the first, the first renamed one and the one after the renamed
    ones.  Every witness is an embedding into its own figure."""
    renamed = _renamed(BARE_TRIANGLE_TEXT)
    figures = (BARE_TRIANGLE_TEXT, BARE_TRIANGLE_TEXT + "point D\n", renamed, renamed + "point D\n",
               BARE_TRIANGLE_TEXT + "line d\n")
    repo = Repository(tmp_path / "data")
    for i, code in enumerate(figures):
        repo.insert(ProblemEntry(name=f"Triangle {i}", code=code), force=True)
    searched = _stored_sides_searched(repo, monkeypatch)
    hits = repo.geometric_query(bare_triangle())
    assert searched == _sides(repo, 1, 3, 5)
    assert [identifier for identifier, _ in hits] == [f"GEO{n:04d}" for n in range(1, 6)]
    for (_, found), code in zip(hits, figures):
        assert is_embedding(bare_triangle(), parse_construction(code), found.as_dict(), repo.ruleset)


def _oracle_report(repo: Repository, draft: Construction) -> DuplicateReport:
    rules = repo.ruleset
    stored = {identifier: parse_construction(entry.code) for identifier, entry in stored_entries(repo).items()}
    forward = [i for i, entry in stored.items() if _embeds(draft, entry, rules)]
    backward = [i for i, entry in stored.items() if _embeds(entry, draft, rules)]
    return DuplicateReport(
        tuple(i for i in forward if i in backward),
        tuple(i for i in forward if i not in backward),
        tuple(i for i in backward if i not in forward),
    )


def test_the_duplicate_gate_searches_each_distinct_side_once(tmp_path, monkeypatch, caplog):
    repo = _store_of_copies(tmp_path / "data")
    searched = _stored_sides_searched(repo, monkeypatch)
    # find_duplicates: the triangles and chains forward, once per view, so
    # not GEO0014's side, and each searched, since the last hit's names fit
    # neither the chain nor the renamed triangle; the parts backward, once
    # per side
    report = repo.find_duplicates(bare_triangle())
    assert searched == _sides(repo, 1, 3, 6, 2, 4, 11)
    assert report == _oracle_report(repo, bare_triangle())
    assert report.containing_entries == ("GEO0001", "GEO0005", "GEO0006", "GEO0010", "GEO0014")
    assert report.contained_entries == ("GEO0002", "GEO0004", "GEO0007", "GEO0009", "GEO0011", "GEO0012", "GEO0013")
    # a blocked insert: the triangle with a circle is an exact duplicate of
    # four entries, under two sides, is contained in GEO0014, whose view it
    # shares with GEO0001's, and contains the parts
    searched.clear()
    blocked = repo.insert(replace(TRIANGLE_DRAFT, code=TRIANGLE_WITH_CIRCLE_TEXT))
    assert searched == _sides(repo, 1, 6, 2, 4, 11)
    assert blocked == _oracle_report(repo, triangle_with_circle())
    assert blocked.exact_duplicates == ("GEO0001", "GEO0005", "GEO0006", "GEO0010")
    assert blocked.containing_entries == ("GEO0014",)
    # an insert that goes through: a triangle with a fourth line extends the
    # parts, and its backward searches stop at the fifth identifier
    searched.clear()
    draft = replace(TRIANGLE_DRAFT, code=BARE_TRIANGLE_TEXT + "line m\n")
    oracle = _oracle_report(repo, parse_construction(draft.code))
    with caplog.at_level("WARNING", logger="geokb.repository"):
        assert repo.insert(draft) == "GEO0015"
    assert searched == _sides(repo, 3, 2, 4, 11)
    assert oracle.exact_duplicates == oracle.containing_entries == ()
    assert [record.getMessage() for record in caplog.records] == [
        f"insert GEO0015 extends stored entries {', '.join(oracle.contained_entries[:5])};"
        " backward candidates left unsearched: 2"
    ]


def _figures_around(rng: random.Random) -> tuple[Construction, list[Construction]]:
    """A query of points and one other kind, and figures to store made from
    it.  Some share the query's view but differ outside it: the query with
    isolated objects of the kinds it lacks, or with facts of predicates its
    closure lacks, over its objects and new ones.  Some are near misses: an
    isolated object more of a kind the query has, or a fact more of a
    predicate it has.  Some it contains: a part of it, or it less a fact.
    The query itself, a figure unrelated to it, and repeats of some of these
    are stored too, in random order."""
    other = rng.choice(("line", "circle"))
    pool = {"point": [f"P{i}" for i in range(rng.randint(2, 4))], "line": [], "circle": []}
    pool[other] = [f"{other[0]}{i}" for i in range(rng.randint(1, 3))]
    objects = {ObjectDecl(name, kind) for kind, names in pool.items() for name in names}
    query = Construction(frozenset(objects), frozenset(
        f for f in (random_fact(rng, pool) for _ in range(rng.randint(1, 4))) if f is not None
    ))
    closed = closure(query, default_rules())
    predicates = {predicate for predicate, _ in closed}

    def grown(extra_objects=(), extra_facts=()) -> Construction:
        return Construction(query.objects | set(extra_objects), query.facts | set(extra_facts))

    lacking = [kind for kind in KINDS if not pool[kind]]
    isolated = [ObjectDecl(f"X{kind[0]}{i}", kind) for kind in lacking for i in range(rng.randint(1, 2))]
    wider = {**pool, **{kind: [o.name for o in isolated if o.kind == kind] for kind in lacking}}
    drawn = [random_fact(rng, wider) for _ in range(12)]
    unasked = [f for f in drawn if f is not None and f[0] not in predicates][:2]
    asked = [f for f in (random_fact(rng, pool) for _ in range(12)) if f is not None and f[0] in predicates]
    more = [f for f in asked if f not in closed][:1]
    figures = [
        query,
        grown(isolated),
        grown(isolated, unasked),
        grown([ObjectDecl("Z9", rng.choice(("point", other)))]),
        grown((), more),
        induced_subconstruction(rng, query),
        Construction(query.objects, query.facts - {rng.choice(sorted(query.facts))}) if query.facts else query,
        random_construction(rng, max_points=4, max_lines=2, max_circles=1, max_facts=4),
    ]
    figures += rng.choices(figures, k=3)
    rng.shuffle(figures)
    return query, figures


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_searches_go_at_most_once_per_view_forward_and_once_per_side_backward(seed):
    """Forward, a confirmed query and the gate search a view, the names of
    the query's kinds and the closed facts of its predicates, computed here
    from each stored figure's code, at most once, where they first meet it;
    a view they do not search holds a hit, and each hit's witness is an
    embedding by the definition over the naive closure.  Backward, the gate
    searches each distinct stored side.  Answers and reports equal brute
    force."""
    rng = random.Random(seed)
    query, figures = _figures_around(rng)
    rules = default_rules()
    with tempfile.TemporaryDirectory() as data:
        repo = Repository(data)
        for i, figure in enumerate(figures):
            repo.insert(ProblemEntry(name=f"Figure {i}", code=serialize_construction(figure)), force=True)
        stored = {identifier: parse_construction(entry.code) for identifier, entry in stored_entries(repo).items()}
        kinds, predicates = set(query.kinds.values()), {p for p, _ in closure(query, rules)}

        def seen(figure: Construction) -> tuple:
            return (
                frozenset((name, kind) for name, kind in figure.kinds.items() if kind in kinds),
                frozenset(f for f in closure(figure, rules) if f[0] in predicates),
            )

        fingerprint = construction_gtd(query, rules)
        fingerprints = {i: construction_gtd(figure, rules) for i, figure in stored.items()}
        dominating = [i for i in stored if gtd_subsumes(fingerprints[i], fingerprint)]
        dominated = [i for i in stored if gtd_subsumes(fingerprint, fingerprints[i]) and i not in dominating]
        sides = {i: _record(repo, i).side for i in stored}
        view_of = {id(sides[i]): seen(stored[i]) for i in stored}
        views = list(dict.fromkeys(seen(stored[i]) for i in dominating))
        # the query with isolated objects of a kind it lacks shares its view
        assert len({id(sides[i]) for i in dominating}) > len(views)
        searched = []

        def counting(query_side, target_side, *args, **kwargs):
            searched.append((query_side, target_side))
            return embed_closed(query_side, target_side, *args, **kwargs)

        with mock.patch("geokb.repository.embed_closed", counting):
            hits = repo.geometric_query(query)
            forward = [view_of[id(target)] for _, target in searched]
            searched.clear()
            report = repo.find_duplicates(query)
        assert len(set(forward)) == len(forward) and forward == [v for v in views if v in forward]
        assert [i for i, _ in hits] == [i for i in stored if _embeds(query, stored[i], rules)]
        witnesses = dict(hits)
        assert all(i in witnesses for i in dominating if seen(stored[i]) not in forward)
        assert all(is_embedding(query, stored[i], found.as_dict(), rules) for i, found in hits)
        # the gate's forward searches come first and meet the views as the query does
        assert [view_of[id(target)] for _, target in searched[: len(forward)]] == forward
        assert [id(side) for side, _ in searched[len(forward):]] == list(dict.fromkeys(id(sides[i]) for i in dominated))
        assert report == _oracle_report(repo, query)


def test_a_budget_run_out_on_one_side_warns_about_and_drops_each_identifier_holding_it(
    tmp_path, caplog, monkeypatch
):
    repo = Repository(tmp_path / "data")
    for name in ("Segment", "Same segment"):
        repo.insert(ProblemEntry(name=name, code=SEGMENT_TEXT), force=True)
    monkeypatch.setattr("geokb.repository.DEFAULT_BUDGET", 0)
    searched = _stored_sides_searched(repo, monkeypatch)
    segment = parse_construction(SEGMENT_TEXT)
    with caplog.at_level("WARNING", logger="geokb.repository"):
        assert repo.geometric_query(segment) == []
        assert repo.find_duplicates(segment) == DuplicateReport()
        assert repo.find_duplicates(bare_triangle()) == DuplicateReport()
    assert searched == _sides(repo, 1, 1, 1)  # once per request
    assert [record.getMessage() for record in caplog.records] == [
        f"match budget exhausted while checking {checked}; treating as no match"
        for checked in (
            "query against GEO0001", "query against GEO0002", "draft against GEO0001",
            "draft against GEO0002", "GEO0001 against draft", "GEO0002 against draft",
        )
    ]


# -- queries -----------------------------------------------------------------------


def test_text_query_simple_ceva(seeded_repo):
    assert seeded_repo.text_query("ceva") == ["GEO_CEVA"]


def test_text_query_all_conjectures(seeded_repo):
    result = seeded_repo.text_query(".*", filters=parse_filters("kind=conjecture"))
    expected = [e.identifier for e in sorted(ENTRIES, key=lambda e: e.identifier) if e.kind == "conjecture"]
    assert result == expected


def test_text_query_extended_circle_level3(seeded_repo):
    result = seeded_repo.text_query(
        "circle", mode="extended", filters=parse_filters("level=3")
    )
    # independent expectation from the corpus definitions
    from geokb.textindex import FIELD_WEIGHTS, tokenize

    scores = {}
    for e in ENTRIES:
        if e.level != 3:
            continue
        fields = {
            "name": tokenize(e.name),
            "keywords": [t for k in e.keywords for t in tokenize(k)],
            "shortDescription": tokenize(e.short_description),
            "description": tokenize(e.description),
        }
        score = sum(
            fields[f].count("circle") * w for f, w in FIELD_WEIGHTS.items()
        )
        if score:
            scores[e.identifier] = score
    expected = sorted(scores, key=lambda i: (-scores[i], i))
    assert result == expected
    assert "GEO0328" in result


def test_text_query_unknown_mode(seeded_repo):
    with pytest.raises(ValueError):
        seeded_repo.text_query("x", mode="fuzzy")


def test_geometric_query_empty_returns_everything(seeded_repo):
    from geokb.model import EMPTY_CONSTRUCTION

    hits = seeded_repo.geometric_query(EMPTY_CONSTRUCTION, confirm=True)
    assert [identifier for identifier, _ in hits] == list(stored_entries(seeded_repo))
    hits = seeded_repo.geometric_query(
        EMPTY_CONSTRUCTION, filters=parse_filters("kind=construction"), confirm=False
    )
    assert all(
        seeded_repo.get(identifier).kind == "construction" for identifier, _ in hits
    )


def test_geometric_query_confirm_attaches_embeddings(seeded_repo):
    hits = seeded_repo.geometric_query(bare_triangle(), confirm=True)
    assert hits
    for identifier, embedding in hits:
        assert embedding is not None
        assert set(embedding.as_dict()) == {"A", "B", "C", "a", "b", "c"}


def test_geometric_query_results_ascend_by_identifier(seeded_repo):
    hits = seeded_repo.geometric_query(bare_triangle(), confirm=False)
    identifiers = [identifier for identifier, _ in hits]
    assert identifiers == sorted(identifiers)


def test_filter_then_match_equals_match_then_filter(seeded_repo):
    filters = parse_filters("kind=conjecture AND keyword=triangle")
    for confirm in (False, True):
        combined = seeded_repo.geometric_query(bare_triangle(), filters, confirm=confirm)
        unfiltered = seeded_repo.geometric_query(bare_triangle(), confirm=confirm)
        refiltered = [
            (identifier, e)
            for identifier, e in unfiltered
            if filters.matches(seeded_repo.get(identifier))
        ]
        assert [i for i, _ in combined] == [i for i, _ in refiltered]


def test_no_false_negatives_end_to_end(seeded_repo):
    from geokb.matching import is_subconstruction

    query = bare_triangle()
    confirmed = {i for i, _ in seeded_repo.geometric_query(query, confirm=True)}
    for identifier, entry in stored_entries(seeded_repo).items():
        target = parse_construction(entry.code)
        if is_subconstruction(query, target, seeded_repo.ruleset) is not None:
            assert identifier in confirmed


def test_budget_exhaustion_drops_confirmed_matches_with_warning(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr("geokb.repository.DEFAULT_BUDGET", 0)
    repo = Repository(tmp_path / "data")
    seed_repository(repo)
    with caplog.at_level("WARNING"):
        hits = repo.geometric_query(bare_triangle(), confirm=True)
    assert hits == []
    assert "match budget exhausted" in caplog.text
    # candidate listing does not need the matcher
    assert repo.geometric_query(bare_triangle(), confirm=False)


def test_budget_warning_names_the_entry_in_each_direction(tmp_path, caplog, monkeypatch):
    monkeypatch.setattr("geokb.repository.DEFAULT_BUDGET", 0)
    repo = Repository(tmp_path / "data")
    seed_repository(repo)
    smaller = repo.insert(TRIANGLE_DRAFT, force=True)  # GEO0281 strictly contains it
    with caplog.at_level("WARNING"):
        repo.geometric_query(bare_triangle(), confirm=True)
        # an entry's own figure is searched forward only, since its
        # fingerprint equals the draft's; a smaller figure is searched backward
        assert repo.find_duplicates(parse_construction(stored_entries(repo)["GEO0281"].code)) == DuplicateReport()
    messages = {record.getMessage() for record in caplog.records}
    for checked in ("query against GEO0281", "draft against GEO0281", f"{smaller} against draft"):
        assert f"match budget exhausted while checking {checked}; treating as no match" in messages
    for checked in ("GEO0281 against draft", f"draft against {smaller}"):
        assert f"match budget exhausted while checking {checked}; treating as no match" not in messages


# -- persistence -------------------------------------------------------------------


def test_reload_recovers_identical_state(fresh_seeded_repo, tmp_path):
    reloaded = Repository(fresh_seeded_repo.data_dir)
    assert list(stored_entries(reloaded)) == list(stored_entries(fresh_seeded_repo))
    for identifier in stored_entries(reloaded):
        assert reloaded.get(identifier) == fresh_seeded_repo.get(identifier)


def test_interrupted_insert_leaves_no_trace(fresh_seeded_repo):
    # simulate a crash between temp-write and rename
    stray = fresh_seeded_repo.data_dir / "entries" / ".GEO9998.json.tmp"
    stray.write_text("{not even json", encoding="utf-8")
    reloaded = Repository(fresh_seeded_repo.data_dir)
    assert "GEO9998" not in stored_entries(reloaded)
    assert reloaded.text_query(".*") == list(stored_entries(reloaded))


def test_failed_write_removes_its_temp_file(fresh_seeded_repo, monkeypatch):
    def refuse(source, target):
        raise OSError("disk full")

    monkeypatch.setattr("geokb.repository.os.replace", refuse)
    draft = ProblemEntry(name="Unwritten", code="point A\n")
    with pytest.raises(StorageError, match="cannot persist GEO0023: disk full"):
        fresh_seeded_repo.insert(draft, force=True)
    entries = fresh_seeded_repo.data_dir / "entries"
    assert [p.name for p in entries.iterdir() if not p.name.endswith(".json")] == []
    assert "GEO0023" not in stored_entries(fresh_seeded_repo)
    monkeypatch.undo()
    assert fresh_seeded_repo.insert(draft, force=True) == "GEO0023"


def test_stale_cache_is_repaired_on_startup(fresh_seeded_repo, caplog):
    path = fresh_seeded_repo.data_dir / "entries" / "GEO0281.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    stored = doc["GTD"]
    doc["GTD"] = "depth=2 kind:point=99"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with caplog.at_level("WARNING"):
        reloaded = Repository(fresh_seeded_repo.data_dir)
    assert "refreshing stale fingerprint cache" in caplog.text
    assert reloaded.check_cache_coherence() == []
    assert _entry_document(reloaded, "GEO0281")["GTD"] == stored


def test_a_stale_entry_that_cannot_be_rewritten_is_served_from_its_code(
    fresh_seeded_repo, caplog, monkeypatch
):
    """Startup survives an entry file it cannot rewrite: the entry is
    served from a fresh analysis of its code, an error names the file, and
    the file is left as it is."""
    entries = fresh_seeded_repo.data_dir / "entries"
    _edit_entry(fresh_seeded_repo.data_dir, "GEO0001", lambda doc: {**doc, "Code": BARE_TRIANGLE_TEXT})
    edited = (entries / "GEO0001.json").read_bytes()

    def refuse(source, target):
        raise PermissionError("read-only store")

    monkeypatch.setattr("geokb.repository.os.replace", refuse)
    with caplog.at_level("WARNING"):
        repo = Repository(fresh_seeded_repo.data_dir)
    [error] = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert "GEO0001.json" in error and "read-only store" in error
    assert list(stored_entries(repo)) == list(stored_entries(fresh_seeded_repo))
    assert (entries / "GEO0001.json").read_bytes() == edited
    assert sorted(p.name for p in entries.iterdir()) == [f"{i}.json" for i in stored_entries(repo)]
    assert repo.get("GEO0001").code == BARE_TRIANGLE_TEXT and repo.check_cache_coherence() == []
    assert dict(repo.geometric_query(bare_triangle()))["GEO0001"].as_dict() == {
        n: n for n in bare_triangle().kinds
    }
    assert "GEO0001" in repo.insert(TRIANGLE_DRAFT).exact_duplicates


def test_corrupt_entry_file_is_quarantined(fresh_seeded_repo, caplog):
    path = fresh_seeded_repo.data_dir / "entries" / "GEO0281.json"
    path.write_text("{", encoding="utf-8")
    with caplog.at_level("ERROR"):
        reloaded = Repository(fresh_seeded_repo.data_dir)
    assert list(stored_entries(reloaded)) == [i for i in stored_entries(fresh_seeded_repo) if i != "GEO0281"]
    [error] = [r for r in caplog.records if r.levelname == "ERROR"]
    assert "GEO0281.json" in error.getMessage() and "not JSON" in error.getMessage()
    with pytest.raises(IdentifierCollisionError):
        reloaded.insert(replace(TRIANGLE_DRAFT, identifier="GEO0281"), force=True)
    assert path.read_text(encoding="utf-8") == "{"


def test_mismatched_filename_is_quarantined(fresh_seeded_repo, caplog):
    entries = fresh_seeded_repo.data_dir / "entries"
    text = (entries / "GEO0281.json").read_text(encoding="utf-8")
    (entries / "GEO0999.json").write_text(text, encoding="utf-8")
    with caplog.at_level("ERROR"):
        reloaded = Repository(fresh_seeded_repo.data_dir)
    assert list(stored_entries(reloaded)) == list(stored_entries(fresh_seeded_repo))
    assert "GEO0999.json" in caplog.text and "holds identifier 'GEO0281'" in caplog.text
    with pytest.raises(IdentifierCollisionError):
        reloaded.insert(replace(TRIANGLE_DRAFT, identifier="GEO0999"), force=True)
    assert (entries / "GEO0999.json").read_text(encoding="utf-8") == text


def test_illegal_identifier_file_is_quarantined(fresh_seeded_repo, caplog):
    # served, this identifier would make geoclient --out refuse the whole response
    entries = fresh_seeded_repo.data_dir / "entries"
    doc = json.loads((entries / "GEO0281.json").read_text(encoding="utf-8"))
    text = json.dumps({**doc, "Identifier": "bad name"})
    (entries / "bad name.json").write_text(text, encoding="utf-8")
    with caplog.at_level("ERROR"):
        reloaded = Repository(fresh_seeded_repo.data_dir)
    assert list(stored_entries(reloaded)) == list(stored_entries(fresh_seeded_repo))
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "bad name.json" in errors[0] and "invalid identifier" in errors[0]
    assert reloaded._quarantined == {"bad name"}
    assert (entries / "bad name.json").read_text(encoding="utf-8") == text


def _v1_document(doc: dict) -> dict:
    """The document as a store of format version 1 wrote it."""
    keep = ("Identifier", "Name", "Description", "ShortDescription", "Keywords", "Code",
            "Language", "Level", "Kind", "GTD")
    return {**{key: doc[key] for key in keep}, "Version": 1}


BAD_ENTRY_FILES = {
    "not-json": lambda doc: "{",
    "not-an-object": lambda doc: "[]",
    "not-utf8": lambda doc: b"\xff\xfe{}",
    "missing-code": lambda doc: {k: v for k, v in doc.items() if k != "Code"},
    "code-not-a-string": lambda doc: {**doc, "Code": 5},
    "unknown-version": lambda doc: {**doc, "Version": 7},
    "other-identifier": lambda doc: {**doc, "Identifier": "GEO0002"},
    "bad-code-version-1": lambda doc: {**_v1_document(doc), "Code": "line a\nparallel(a, a)\n"},
    "bad-code-stale-digest": lambda doc: {**doc, "Code": "line a\nparallel(a, a)\n"},
    # Level and Kind lie outside the digest, so these would load as trusted
    "level-a-string": lambda doc: {**doc, "Level": "3"},
    "level-a-boolean": lambda doc: {**doc, "Level": True},
    "level-out-of-range": lambda doc: {**doc, "Level": 6},
    "unknown-kind": lambda doc: {**doc, "Kind": "theorem"},
    "empty-language": lambda doc: {**doc, "Language": ""},
    # refused on the wire too; loaded, the entry would silently take the default keywords
    "misspelt-member": lambda doc: {("Keyword" if k == "Keywords" else k): v for k, v in doc.items()},
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRY_FILES))
def test_bad_entry_file_is_skipped_and_its_identifier_kept(tmp_path, caplog, case):
    repo = Repository(tmp_path / "data")
    circle = ProblemEntry(name="Circle", code="circle k\n", kind="construction", level=1)
    assert repo.insert(TRIANGLE_DRAFT) == "GEO0001"
    assert repo.insert(circle) == "GEO0002"
    path = repo.data_dir / "entries" / "GEO0001.json"
    bad = BAD_ENTRY_FILES[case](json.loads(path.read_text(encoding="utf-8")))
    if isinstance(bad, dict):
        bad = json.dumps(bad)
    if isinstance(bad, str):
        bad = bad.encode("utf-8")
    path.write_bytes(bad)
    with caplog.at_level("ERROR"):
        reloaded = Repository(repo.data_dir)
    assert list(stored_entries(reloaded)) == ["GEO0002"]
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "GEO0001.json" in errors[0]
    assert reloaded.insert(circle, force=True) == "GEO0003"
    with pytest.raises(IdentifierCollisionError):
        reloaded.insert(replace(circle, identifier="GEO0001"), force=True)
    assert path.read_bytes() == bad


def test_hidden_entry_files_are_not_loaded(tmp_path, caplog):
    repo = Repository(tmp_path / "data")
    assert repo.insert(TRIANGLE_DRAFT) == "GEO0001"
    assert repo.insert(ProblemEntry(name="Circle", code="circle k\n", level=1)) == "GEO0002"
    entries = repo.data_dir / "entries"
    (entries / ".GEO0001.json").write_bytes((entries / "GEO0001.json").read_bytes())
    (entries / ".#GEO0002.json").symlink_to(entries / "no-such-file")
    (entries / ".GEO0003.json.tmp").write_text("{", encoding="utf-8")
    with caplog.at_level("DEBUG"):
        reloaded = Repository(repo.data_dir)
    assert not [r for r in caplog.records if r.levelname in ("ERROR", "CRITICAL")]
    assert reloaded._quarantined == set()
    assert stored_entries(reloaded) == stored_entries(repo)
    assert reloaded.insert(ProblemEntry(name="Point", code="point P\n", level=1), force=True) == "GEO0003"


def test_unreadable_entry_file_is_skipped_and_its_identifier_kept(tmp_path, caplog):
    repo = Repository(tmp_path / "data")
    circle = ProblemEntry(name="Circle", code="circle k\n", kind="construction", level=1)
    assert [repo.insert(circle, force=True) for _ in range(4)] == ["GEO0001", "GEO0002", "GEO0003", "GEO0004"]
    # file modes do not stop root from reading, so a directory stands for an unreadable file
    (repo.data_dir / "entries" / "GEO0005.json").mkdir()
    with caplog.at_level("ERROR"):
        reloaded = Repository(repo.data_dir)
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "GEO0005.json" in errors[0] and "unreadable" in errors[0]
    assert list(stored_entries(reloaded)) == ["GEO0001", "GEO0002", "GEO0003", "GEO0004"]
    assert reloaded.insert(circle, force=True) == "GEO0006"
    with pytest.raises(IdentifierCollisionError):
        reloaded.insert(replace(circle, identifier="GEO0005"), force=True)


def test_entry_files_have_documented_shape(fresh_seeded_repo):
    path = fresh_seeded_repo.data_dir / "entries" / "GEO_CEVA.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert list(doc) == [
        "Identifier",
        "Name",
        "Description",
        "ShortDescription",
        "Keywords",
        "Code",
        "Language",
        "Level",
        "Kind",
        "GTD",
        "Objects",
        "Closure",
        "Digest",
        "Version",
    ]
    assert doc["Version"] == 2
    construction = parse_construction(doc["Code"])  # code member parses
    assert doc["Objects"] == construction.kinds
    closed = closure(construction, fresh_seeded_repo.ruleset)
    assert doc["Closure"] == sorted(fact_text(predicate, args) for predicate, args in closed)
    assert doc["GTD"] == serialize_gtd(gtd(construction, closed))
    members = [2, fresh_seeded_repo.ruleset.digest, 2, doc["Code"], doc["Objects"], doc["Closure"], doc["GTD"]]
    rendered = json.dumps(members, separators=(",", ":")).encode("ascii")
    assert doc["Digest"] == hashlib.sha256(rendered).hexdigest()
    # the entry's own members are written as an insert request carries them
    request = encode_request(QueryRequest(insert=fresh_seeded_repo.get("GEO_CEVA")))
    assert list(doc.items())[:9] == list(json.loads(request)["Insert"].items())


# -- the entry-file cache -------------------------------------------------------------


def _edit_entry(data_dir, identifier, edit):
    path = data_dir / "entries" / f"{identifier}.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    path.write_text(json.dumps(edit(doc), ensure_ascii=False, indent=2), encoding="utf-8")
    return doc


def _refreshed(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "refreshing stale" in r.getMessage()]


def _record(repo: Repository, identifier: str):
    """The record the repository keeps in the entry's slot."""
    return repo._records[repo._slots[identifier]]


def _code_fingerprint(repo: Repository, identifier: str) -> dict[str, int]:
    """The entry's fingerprint computed from its code: an oracle independent
    of the index, which holds the only stored copy."""
    return construction_gtd(parse_construction(repo.get(identifier).code), repo.ruleset)


def _index_holds(repo: Repository, identifier: str, fingerprint: dict[str, int]) -> bool:
    """Whether the published index holds exactly ``fingerprint`` in the
    entry's slot: the slot dominates it and is dominated by it."""
    slot, index = repo._slots[identifier], repo._index
    return slot in index.dominating(fingerprint) and slot in index.dominated(fingerprint)


def _assert_same_records(loaded: Repository, computed: Repository) -> None:
    assert list(stored_entries(loaded)) == list(stored_entries(computed))
    for identifier in stored_entries(loaded):
        a, b = _record(loaded, identifier), _record(computed, identifier)
        assert a.entry == b.entry
        assert (a.side.by_kind, a.side.facts) == (b.side.by_kind, b.side.facts)
        fingerprint = _code_fingerprint(computed, identifier)
        assert _index_holds(loaded, identifier, fingerprint)
        assert _index_holds(computed, identifier, fingerprint)


def _answers(repo: Repository) -> list:
    out = []
    for query in (bare_triangle(), triangle_with_circle(), concurrent_lines()):
        for confirm in (False, True):
            out.append(repo.geometric_query(query, confirm=confirm))
    out.append([repo.find_duplicates(parse_construction(code)) for code in (BARE_TRIANGLE_TEXT, "circle k\n")])
    return out


def test_warm_load_equals_recomputation_on_seeded_corpus(fresh_seeded_repo, caplog):
    with caplog.at_level("WARNING"):
        warm = Repository(fresh_seeded_repo.data_dir)
    assert not caplog.records
    _assert_same_records(warm, fresh_seeded_repo)
    assert _answers(warm) == _answers(fresh_seeded_repo)
    assert warm.check_cache_coherence() == []


def test_warm_load_equals_recomputation_on_synthetic_entries(tmp_path, caplog):
    from test_acceptance import synthetic_corpus_entry

    rng = random.Random(0x5EED)
    computed = Repository(tmp_path / "data")
    for i in range(300):
        computed.insert(synthetic_corpus_entry(i, rng), force=True)
    with caplog.at_level("WARNING"):
        warm = Repository(computed.data_dir)
    assert not caplog.records
    _assert_same_records(warm, computed)
    # shared strings keep a warm store's memory down: one object per name in
    # the whole store, which every fact naming it holds
    names: dict[str, str] = {}
    for record in warm._records:
        assert all(names.setdefault(n, n) is n for own, _ in record.side.by_kind for n in own)
    assert all(arg is names[arg] for record in warm._records for _, args in fact_pairs(record.side) for arg in args)
    assert all(key is sys.intern(key) for key in warm._index._postings)
    hits = warm.geometric_query(bare_triangle())
    assert len(hits) >= 150  # every even entry holds a planted triangle
    assert hits == computed.geometric_query(bare_triangle())


def _assert_shared(repo: Repository) -> None:
    """Every object name, argument tuple, fact set, tuple of fact sets,
    degree vector, kind's ``(names, vectors)`` pair and the names and
    vectors tuples in it that is equal by value across the store's records
    is one object, and it is the one the store's hash-cons table holds for
    its value."""
    seen: dict = {}

    def one(value) -> bool:
        return seen.setdefault(value, value) is value and repo._shared.get(value) is value

    for record in repo._records:
        for pair in record.side.by_kind:
            names, vectors = pair
            assert one(pair) and one(names) and one(vectors)
            assert all(map(one, names)) and all(map(one, vectors))
        assert one(record.side.facts) and all(map(one, record.side.facts))
        for _, args in fact_pairs(record.side):
            assert one(args) and all(map(one, args))


#: a figure that no corpus entry contains, so an unforced insert of it goes
#: through, under names some corpus entries use
CONCENTRIC_TEXT = (
    "point Ma\npoint Mb\npoint Mc\npoint O1\ncircle k1\ncircle k2\ncenter(O1, k1)\ncenter(O1, k2)\n"
    "on_circle(Ma, k1)\non_circle(Mb, k1)\non_circle(Mc, k2)\n"
)


def test_stored_sides_share_one_object_per_value(fresh_seeded_repo, caplog):
    """Sides loaded from a trusted cache, analysed again on a load, and
    stored by forced and unforced inserts all take their names, argument
    tuples, fact sets and degree vectors from the one table of the store."""
    data = fresh_seeded_repo.data_dir
    _assert_shared(fresh_seeded_repo)
    _edit_entry(data, "GEO0281", CACHE_EDITS["Digest"])
    with caplog.at_level("WARNING"):
        repo = Repository(data)
    assert _refreshed(caplog) == ["refreshing stale fingerprint cache of GEO0281"]
    _assert_shared(repo)
    ceva = repo.get("GEO_CEVA")
    assert isinstance(repo.insert(replace(ceva, identifier=""), force=True), str)
    assert isinstance(repo.insert(ProblemEntry(name="Concentric", code=CONCENTRIC_TEXT)), str)
    _assert_shared(repo)
    # the sharing is real: the copy of Ceva holds the original's objects
    copy = repo._records[-2].side
    assert copy.facts == _record(repo, "GEO_CEVA").side.facts
    assert copy.facts is repo._shared[copy.facts] and all(group is repo._shared[group] for group in copy.facts)
    assert all(args is repo._shared[args] for _, args in fact_pairs(copy))


def test_only_loading_and_stored_inserts_write_the_hash_cons_table(fresh_seeded_repo):
    """Queries, the duplicate check, the coherence check, a blocked insert
    and one refused for its identifier leave the table as it was; each of
    them analyses a figure whose names the store has never seen, so a write
    would show."""
    repo = fresh_seeded_repo
    renamed = parse_construction(_renamed(GEO0281_CODE))
    assert not any(name in repo._shared for name in renamed.kinds)
    size = len(repo._shared)
    assert [hit for hit, _ in repo.geometric_query(renamed, confirm=False)] == ["GEO0281"]
    assert [hit for hit, _ in repo.geometric_query(renamed)] == ["GEO0281"]
    assert repo.find_duplicates(renamed).exact_duplicates == ("GEO0281",)
    assert repo.check_cache_coherence() == []
    draft = ProblemEntry(name="GEO0281 renamed", code=_renamed(GEO0281_CODE))
    assert repo.insert(draft).exact_duplicates == ("GEO0281",)
    with pytest.raises(IdentifierCollisionError):
        repo.insert(replace(draft, identifier="GEO0281"))
    assert len(repo._shared) == size
    assert repo.insert(draft, force=True) == "GEO0023"
    assert all(name in repo._shared for name in renamed.kinds)


CACHE_EDITS = {
    "Code": lambda doc: {**doc, "Code": doc["Code"] + "point Zz\n"},
    "Objects": lambda doc: {**doc, "Objects": {**doc["Objects"], "A": "circle"}},
    "Closure": lambda doc: {**doc, "Closure": doc["Closure"][:-1]},
    "GTD": lambda doc: {**doc, "GTD": "depth=2 kind:point=99"},
    "Digest": lambda doc: {**doc, "Digest": "0" * 64},
}


@pytest.mark.parametrize("member", sorted(CACHE_EDITS))
def test_edited_cache_member_is_repaired_once(fresh_seeded_repo, caplog, member):
    entries = fresh_seeded_repo.data_dir / "entries"
    original = _edit_entry(fresh_seeded_repo.data_dir, "GEO0281", CACHE_EDITS[member])
    with caplog.at_level("WARNING"):
        repaired = Repository(fresh_seeded_repo.data_dir)
    assert _refreshed(caplog) == ["refreshing stale fingerprint cache of GEO0281"]
    assert repaired.check_cache_coherence() == []
    doc = json.loads((entries / "GEO0281.json").read_text(encoding="utf-8"))
    if member == "Code":
        assert repaired.get("GEO0281").code == original["Code"] + "point Zz\n"
        assert doc["Objects"] == {**original["Objects"], "Zz": "point"}
    else:
        assert doc == original
        _assert_same_records(repaired, fresh_seeded_repo)
    caplog.clear()
    with caplog.at_level("WARNING"):
        Repository(fresh_seeded_repo.data_dir)
    assert not caplog.records


MALFORMED_UNDER_A_MATCHING_DIGEST = {
    "undeclared-object": lambda doc: {**doc, "Closure": doc["Closure"] + ["incident(Nobody, a)"]},
    "unknown-predicate": lambda doc: {**doc, "Closure": doc["Closure"] + ["touches(A, a)"]},
    "wrong-arity": lambda doc: {**doc, "Closure": doc["Closure"] + ["incident(A, B, a)"]},
    "unclosed-fact": lambda doc: {**doc, "Closure": doc["Closure"] + ["incident(A, a]"]},
    "closure-not-a-list": lambda doc: {**doc, "Closure": "incident(A, a)"},
    "fact-not-a-string": lambda doc: {**doc, "Closure": doc["Closure"] + [["incident", "A", "a"]]},
    "missing-objects": lambda doc: {k: v for k, v in doc.items() if k != "Objects"},
    "unknown-kind": lambda doc: {**doc, "Objects": {**doc["Objects"], "A": "plane"}},
    "unparsable-gtd": lambda doc: {**doc, "GTD": "depth=two"},
    "gtd-of-another-depth": lambda doc: {**doc, "GTD": "depth=1 kind:point=3"},
    "gtd-not-a-string": lambda doc: {**doc, "GTD": 5},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_UNDER_A_MATCHING_DIGEST))
def test_malformed_cache_under_a_matching_digest_is_recomputed(fresh_seeded_repo, caplog, case):
    repo = fresh_seeded_repo

    def forge(doc):
        doc = MALFORMED_UNDER_A_MATCHING_DIGEST[case](doc)
        return {**doc, "Digest": cache_digest(doc, repo.ruleset)}

    _edit_entry(repo.data_dir, "GEO0281", forge)
    with caplog.at_level("WARNING"):
        repaired = Repository(repo.data_dir)
    assert _refreshed(caplog) == ["refreshing stale fingerprint cache of GEO0281"]
    _assert_same_records(repaired, repo)


def test_coherence_check_finds_a_wrong_closure_under_a_forged_digest(fresh_seeded_repo, caplog):
    repo = fresh_seeded_repo
    dropped = []

    def forge(doc):
        dropped.append(doc["Closure"][0])
        doc = {**doc, "Closure": doc["Closure"][1:]}
        return {**doc, "Digest": cache_digest(doc, repo.ruleset)}

    _edit_entry(repo.data_dir, "GEO0281", forge)
    with caplog.at_level("WARNING"):
        trusting = Repository(repo.data_dir)
    assert not caplog.records  # the digest matches, so the load trusts the file
    assert len(fact_pairs(_record(trusting, "GEO0281").side)) == len(fact_pairs(_record(repo, "GEO0281").side)) - 1
    assert trusting.check_cache_coherence() == ["GEO0281"]


def test_coherence_check_finds_unparsable_code_under_a_forged_digest(fresh_seeded_repo):
    repo = fresh_seeded_repo

    def forge(doc):
        doc = {**doc, "Code": doc["Code"] + "parallel(\n"}
        return {**doc, "Digest": cache_digest(doc, repo.ruleset)}

    _edit_entry(repo.data_dir, "GEO0281", forge)
    assert Repository(repo.data_dir).check_cache_coherence() == ["GEO0281"]


def test_coherence_check_ignores_gtd_keys_out_of_order_under_a_forged_digest(fresh_seeded_repo):
    """The order of a stored fingerprint's keys reaches no query and no
    file: the index takes each key on its own, and a written ``GTD`` is
    sorted."""
    repo = fresh_seeded_repo

    def forge(doc):
        header, *keys = doc["GTD"].split()
        doc = {**doc, "GTD": " ".join([header, *reversed(keys)])}
        return {**doc, "Digest": cache_digest(doc, repo.ruleset)}

    _edit_entry(repo.data_dir, "GEO0281", forge)
    trusting = Repository(repo.data_dir)
    assert _index_holds(trusting, "GEO0281", _code_fingerprint(repo, "GEO0281"))
    assert _answers(trusting) == _answers(repo)
    assert trusting.check_cache_coherence() == []


@pytest.mark.parametrize("forgery", ["count-raised", "key-dropped"])
def test_coherence_check_finds_forged_gtd_counts_the_store_serves(fresh_seeded_repo, caplog, forgery):
    """A ``GTD`` forged under a recomputed digest is trusted, and the index
    serves its counts to queries, so the check must find it there."""
    repo = fresh_seeded_repo
    code = repo.get("GEO0281").code

    def forge(doc):
        header, *keys = doc["GTD"].split()
        if forgery == "count-raised":
            n = _code_fingerprint(repo, "GEO0281")["kind:point"]
            keys = [f"kind:point={n + 1}" if key.startswith("kind:point=") else key for key in keys]
        else:
            keys = keys[1:]
        doc = {**doc, "GTD": " ".join([header, *keys])}
        return {**doc, "Digest": cache_digest(doc, repo.ruleset)}

    _edit_entry(repo.data_dir, "GEO0281", forge)
    with caplog.at_level("WARNING"):
        trusting = Repository(repo.data_dir)
    assert not caplog.records  # the digest matches, so the load trusts the file
    # one point more than the entry has: only a raised count lets it dominate;
    # the entry itself: a dropped key keeps it from dominating its own code
    query = parse_construction(code + "point Zz\n" if forgery == "count-raised" else code)

    def served(repo: Repository) -> bool:
        return "GEO0281" in [i for i, _ in repo.geometric_query(query, confirm=False)]

    assert served(trusting) is (forgery == "count-raised")
    assert served(repo) is (forgery == "key-dropped")
    assert trusting.check_cache_coherence() == ["GEO0281"]


def test_new_rules_refresh_every_entry(fresh_seeded_repo, tmp_path, caplog):
    ruleset = RuleSet(tuple(r for r in default_rules().rules if r.name != "R3"))
    with caplog.at_level("WARNING"):
        reopened = Repository(fresh_seeded_repo.data_dir, ruleset)
    assert len(_refreshed(caplog)) == len(ENTRIES)
    fresh = Repository(tmp_path / "fresh", ruleset)
    seed_repository(fresh)
    _assert_same_records(reopened, fresh)
    assert _answers(reopened) == _answers(fresh)
    before, after = fresh_seeded_repo, reopened
    assert any(  # the new rules change what is stored
        _record(after, i).side.facts != _record(before, i).side.facts
        or not _index_holds(after, i, _code_fingerprint(before, i))
        for i in stored_entries(after)
    )
    caplog.clear()
    with caplog.at_level("WARNING"):
        Repository(fresh_seeded_repo.data_dir, ruleset)
    assert not caplog.records


def test_version_1_store_is_rewritten_once(fresh_seeded_repo, caplog):
    entries = fresh_seeded_repo.data_dir / "entries"
    current = {}
    for path in sorted(entries.glob("*.json")):
        current[path.name] = path.read_text(encoding="utf-8")
        v1 = _v1_document(json.loads(current[path.name]))
        path.write_text(json.dumps(v1, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    with caplog.at_level("WARNING"):
        migrated = Repository(fresh_seeded_repo.data_dir)
    assert len(_refreshed(caplog)) == len(ENTRIES)
    assert {p.name: p.read_text(encoding="utf-8") for p in entries.glob("*.json")} == current
    _assert_same_records(migrated, fresh_seeded_repo)
    caplog.clear()
    with caplog.at_level("WARNING"):
        Repository(fresh_seeded_repo.data_dir)
    assert not caplog.records


def test_warm_load_skips_parsing_and_closure(fresh_seeded_repo, monkeypatch):
    import geokb.repository as repository_module

    calls = {"closure": 0, "parse_construction": 0}
    for name in calls:
        original = getattr(repository_module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(repository_module, name, counted)
    Repository(fresh_seeded_repo.data_dir)
    assert calls == {"closure": 0, "parse_construction": 0}
    for path in (fresh_seeded_repo.data_dir / "entries").glob("*.json"):
        v1 = _v1_document(json.loads(path.read_text(encoding="utf-8")))
        path.write_text(json.dumps(v1), encoding="utf-8")
    Repository(fresh_seeded_repo.data_dir)
    assert calls == {"closure": len(ENTRIES), "parse_construction": len(ENTRIES)}


# -- concurrency smoke --------------------------------------------------------------


def test_concurrent_readers_during_writes(fresh_seeded_repo):
    errors: list[Exception] = []

    def reader():
        try:
            for _ in range(30):
                fresh_seeded_repo.text_query("triangle", mode="extended")
                fresh_seeded_repo.geometric_query(bare_triangle(), confirm=False)
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def writer():
        try:
            for i in range(10):
                fresh_seeded_repo.insert(
                    ProblemEntry(name=f"scratch {i}", code="point A\n", kind="construction"),
                    force=True,
                )
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)] + [
        threading.Thread(target=writer)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(fresh_seeded_repo) == len(ENTRIES) + 10


def test_readers_beside_a_writer_see_a_prefix_of_the_inserts(tmp_path, rules):
    """One writer inserts 40 entries while three readers call every read
    method in a loop.  No call raises, and each answer equals, by a plain
    scan, the answer on the entries of some prefix of the inserts; a
    reader never sees the store shrink."""
    from test_acceptance import synthetic_corpus_entry

    rng = random.Random(0xC0DE)
    count = 40
    entries = [
        replace(synthetic_corpus_entry(i, rng), identifier=f"GEO{i + 1:04d}") for i in range(count)
    ]
    repo = Repository(tmp_path / "data")
    level2 = parse_filters("level=2")
    triangle = bare_triangle()
    calls = {
        "simple": lambda: repo.text_query("figure 0[12]"),
        "extended": lambda: repo.text_query("figure 007 stress", mode="extended"),
        "filtered": lambda: repo.text_query("synthetic", mode="extended", filters=level2),
        "candidates": lambda: [i for i, _ in repo.geometric_query(triangle, confirm=False)],
        "confirmed": lambda: repo.geometric_query(triangle),
        "identifiers": lambda: list(stored_entries(repo)),
    }
    answers: list[list[tuple[str, object]]] = [[] for _ in range(3)]
    errors: list[Exception] = []
    done = threading.Event()

    def reader(seen: list) -> None:
        try:
            while True:
                last = done.is_set()  # one more round once the writer is done
                round_ = {name: call() for name, call in calls.items()}
                seen.extend(round_.items())
                listed, text = round_["identifiers"], round_["simple"]
                if listed:
                    identifier = listed[len(seen) % len(listed)]
                    seen.append(("get", (identifier, repo.get(identifier))))
                seen.append(("hits", (text, repo.hits(text))))
                if last:
                    break
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    def writer() -> None:
        try:
            for entry in entries:
                assert repo.insert(replace(entry, identifier=""), force=True) == entry.identifier
        except Exception as exc:  # pragma: no cover
            errors.append(exc)
        finally:
            done.set()

    threads = [threading.Thread(target=reader, args=(seen,)) for seen in answers]
    threads.append(threading.Thread(target=writer))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []

    # the plain scans, for each prefix of the inserts
    by_identifier = {e.identifier: e for e in entries}
    gtds = [construction_gtd(parse_construction(e.code), rules) for e in entries]
    query_gtd = construction_gtd(triangle, rules)
    dominating = {e.identifier for e, g in zip(entries, gtds) if gtd_subsumes(g, query_gtd)}
    embedding = dict(repo.geometric_query(triangle))  # the witnesses, once the writer is done
    assert set(embedding) == {
        i for i in dominating
        if brute_force_embeds(triangle, parse_construction(by_identifier[i].code), rules)
    }
    simple = re.compile("figure 0[12]", re.IGNORECASE)
    expected = {name: [] for name in calls}
    for k in range(count + 1):
        prefix = entries[:k]
        ids = sorted(e.identifier for e in prefix)
        expected["simple"].append(sorted(e.identifier for e in prefix if simple.search(e.name)))
        expected["extended"].append([i for i, _ in ranked_text_hits("figure 007 stress", prefix)])
        expected["filtered"].append(
            [i for i, _ in ranked_text_hits("synthetic", prefix) if by_identifier[i].level == 2]
        )
        expected["candidates"].append([i for i in ids if i in dominating])
        expected["confirmed"].append([(i, embedding[i]) for i in ids if i in embedding])
        expected["identifiers"].append(ids)
    sizes = set()
    for seen in answers:
        listed_sizes = [len(answer) for name, answer in seen if name == "identifiers"]
        assert listed_sizes == sorted(listed_sizes)
        sizes.update(listed_sizes)
        for name, answer in seen:
            if name == "get":
                identifier, entry = answer
                assert entry == by_identifier[identifier]
            elif name == "hits":
                identifiers, members = answer
                stored = [by_identifier[i] for i in identifiers]
                assert members == [
                    json.dumps({e.identifier: {"Name": e.name, "Description": e.description, "Code": e.code}})
                    [1:-1].encode()
                    for e in stored
                ]
            else:
                assert answer in expected[name], name
    assert len(sizes) > 2  # the readers ran beside the writer


def _identifiers_in(repo: Repository, slots: list[int]) -> list[str]:
    return sorted(repo._records[slot].entry.identifier for slot in slots)


def test_writes_publish_a_new_index_and_leave_the_old_one_and_its_records_alone(fresh_seeded_repo, rules):
    repo = fresh_seeded_repo
    triangle = construction_gtd(bare_triangle(), rules)
    old = repo._index
    records = repo._records
    before = list(records)
    assert len(before) == old.size
    old_hits = _identifiers_in(repo, old.dominating(triangle))
    assert "GEO0281" in old_hits
    identifier = repo.insert(replace(TRIANGLE_DRAFT, name="Snapshot triangle"), force=True)
    circle = repo.insert(ProblemEntry(name="Snapshot circle", code="circle k\n"), force=True)
    # an insert appends to the one records list, copying none of it
    assert repo._records is records and len(records) == old.size + 2
    assert repo._slots[identifier] == old.size and repo._slots[circle] == old.size + 1
    assert repo.text_query("Snapshot") == sorted([identifier, circle])
    # the index held before the writes still answers its old hits
    assert old.size == len(before)
    assert _identifiers_in(repo, old.dominating(triangle)) == old_hits
    new = repo._index
    assert new is not old and new.size == old.size + 2
    new_hits = _identifiers_in(repo, new.dominating(triangle))
    assert new_hits == sorted({*old_hits, identifier})
    assert [hit for hit, _ in repo.geometric_query(bare_triangle(), confirm=False)] == new_hits
    # a write only adds: every record below the old index's size is the same object
    assert all(records[slot] is record for slot, record in enumerate(before))


def _assert_index_agrees_with_a_scan(repo: Repository, queries) -> None:
    """Both directions of the published fingerprint index equal a
    brute-force scan of the fingerprints of the published entries' code,
    and so does an unconfirmed geometric query's list, with and without a
    filter; each slot's counts are its entry's fingerprint."""
    index = repo._index
    assert index.size == len(repo._records) == len(repo._slots)
    assert all(repo._records[slot].entry.identifier == i for i, slot in repo._slots.items())
    records = {r.entry.identifier: r for r in repo._records}
    stored = {i: _code_fingerprint(repo, i) for i in records}
    held = index.fingerprints()
    assert len(held) == index.size and all(held[slot] == stored[i] for i, slot in repo._slots.items())
    level3 = parse_filters("level=3")
    for fingerprint in queries:
        dominating = sorted(i for i, f in stored.items() if gtd_subsumes(f, fingerprint))
        dominated = sorted(i for i, f in stored.items() if gtd_subsumes(fingerprint, f))
        assert _identifiers_in(repo, index.dominating(fingerprint)) == dominating
        assert _identifiers_in(repo, index.dominated(fingerprint)) == dominated
    for code in ("point P\n", "point P\nline l\nincident(P, l)\n", BARE_TRIANGLE_TEXT):
        query = parse_construction(code)
        fingerprint = construction_gtd(query, repo.ruleset)
        dominating = sorted(i for i, f in stored.items() if gtd_subsumes(f, fingerprint))
        assert [i for i, _ in repo.geometric_query(query, confirm=False)] == dominating
        assert [i for i, _ in repo.geometric_query(query, level3, confirm=False)] == [
            i for i in dominating if records[i].entry.level == 3
        ]


def test_fingerprint_index_agrees_with_a_scan_as_the_store_grows(tmp_path, rules):
    """Inserts under identifiers that sort before stored ones (``AAA...``,
    ``GEO10000`` before ``GEO2...``) and store-assigned ones, of fresh
    constructions and exact repeats of stored ones, which bring new keys
    and counts below, between and above a key's stored counts: after each
    insert the index equals a scan, and a store loaded again from the
    files answers as the written one."""
    rng = random.Random(0xB17)
    repo = Repository(tmp_path / "data")
    probes = [{}, {"kind:nowhere": 1}, construction_gtd(bare_triangle(), rules)]
    _assert_index_agrees_with_a_scan(repo, probes)
    names = iter([f"GEO2{n:03d}" for n in range(8)] + [f"AAA{n:03d}" for n in range(8)]
                 + [f"GEO1000{n}" for n in range(8)])
    seen: set[str] = set()
    stored: list[dict[str, int]] = []  # by slot, from each entry's code
    for step in range(45):
        code = serialize_construction(random_construction(rng))
        if stored and step % 3 == 2:
            code = rng.choice(list(stored_entries(repo).values())).code
        draft = ProblemEntry(identifier=next(names, ""), name=f"Entry {step}", code=code,
                             level=rng.randint(1, 5))
        identifier = repo.insert(draft, force=True)
        fingerprint = _code_fingerprint(repo, identifier)
        seen |= write_kinds(stored, fingerprint)
        stored.append(fingerprint)
        keys = sorted({key for f in stored for key in f})
        key = rng.choice(keys) if keys else "kind:point"
        above = {key: max(f.get(key, 0) for f in stored) + 1}
        picked = rng.choice(stored)
        halved = {k: (n + 1) // 2 for k, n in picked.items()}
        _assert_index_agrees_with_a_scan(repo, [*probes, above, picked, halved])
    assert seen == WRITE_KINDS
    assert any(i.startswith("AAA") for i in stored_entries(repo)) and "GEO0001" in stored_entries(repo)
    reloaded = Repository(repo.data_dir)
    queries = [*probes, *stored]
    _assert_index_agrees_with_a_scan(reloaded, queries)

    def index_answers(repo) -> list:
        return [(_identifiers_in(repo, repo._index.dominating(fingerprint)),
                 _identifiers_in(repo, repo._index.dominated(fingerprint))) for fingerprint in queries]

    assert index_answers(reloaded) == index_answers(repo)
    assert _answers(reloaded) == _answers(repo)


#: seconds a worker thread of a test may take
THREAD_TIMEOUT = 5.0


def _hold_first_embedding(monkeypatch) -> tuple[threading.Event, threading.Event]:
    """Make the repository's next embedding search, of a confirmed query or
    of the duplicate gate, wait for the returned release event; the entered
    event is set once it waits.  Later calls run at once."""
    import geokb.repository as repository_module

    entered, release = threading.Event(), threading.Event()

    original = repository_module.embed_closed

    def held(*args, **kwargs):
        if not entered.is_set():
            entered.set()
            release.wait(30)
        return original(*args, **kwargs)

    monkeypatch.setattr(repository_module, "embed_closed", held)
    return entered, release


def _in_thread(call) -> threading.Thread:
    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    return worker


def _returns_in_time(call):
    out = []
    worker = _in_thread(lambda: out.append(call()))
    worker.join(THREAD_TIMEOUT)
    assert not worker.is_alive(), "a reader waited for the held call"
    return out[0]


READERS = {
    "text_query": lambda repo: repo.text_query("triangle", mode="extended"),
    "get": lambda repo: repo.get("GEO0281"),
    "identifiers": lambda repo: list(stored_entries(repo)),
    "find_duplicates": lambda repo: repo.find_duplicates(bare_triangle()),
    "geometric_query": lambda repo: repo.geometric_query(triangle_with_circle()),
}
HELD_CALLS = {
    "confirmed-geometric-query": lambda repo: repo.geometric_query(bare_triangle()),
    "unforced-insert": lambda repo: repo.insert(TRIANGLE_DRAFT),
}


@pytest.mark.parametrize("held_call", sorted(HELD_CALLS))
def test_readers_do_not_wait_for_a_held_call(fresh_seeded_repo, monkeypatch, held_call):
    repo = fresh_seeded_repo
    expected = {name: read(repo) for name, read in READERS.items()}
    entered, release = _hold_first_embedding(monkeypatch)
    held = _in_thread(lambda: HELD_CALLS[held_call](repo))
    try:
        assert entered.wait(THREAD_TIMEOUT)
        for name, read in READERS.items():
            assert _returns_in_time(lambda: read(repo)) == expected[name], name
    finally:
        release.set()
        held.join(THREAD_TIMEOUT)
    assert not held.is_alive()


def test_identical_unforced_inserts_at_once_store_one_entry(tmp_path, monkeypatch):
    import geokb.repository as repository_module

    repo = Repository(tmp_path / "data")
    repo.insert(ProblemEntry(name="Circle", code="circle k\n", level=1), force=True)
    original = repository_module.embed_closed

    def slow(*args, **kwargs):
        time.sleep(0.02)  # widens the gap between a gate's check and its write
        return original(*args, **kwargs)

    monkeypatch.setattr(repository_module, "embed_closed", slow)
    draft = replace(TRIANGLE_DRAFT, code=TRIANGLE_WITH_CIRCLE_TEXT)
    start = threading.Barrier(3)
    outcomes = []

    def insert():
        start.wait(THREAD_TIMEOUT)
        outcomes.append(repo.insert(draft))

    workers = [_in_thread(insert) for _ in range(3)]
    for worker in workers:
        worker.join(THREAD_TIMEOUT)
    assert not any(worker.is_alive() for worker in workers)
    assert len(outcomes) == 3
    assert [o for o in outcomes if not isinstance(o, DuplicateReport)] == ["GEO0002"]
    assert list(stored_entries(repo)) == ["GEO0001", "GEO0002"]
