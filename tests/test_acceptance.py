"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
on success).  All bounds are pinned here, not tuned elsewhere."""

from __future__ import annotations

import json
import random
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from geokb.client import client_query
from geokb.corpus import ENTRIES, seed_repository
from geokb.fingerprint import GtdIndex, gtd, gtd_subsumes
from geokb.matching import is_subconstruction
from geokb.model import (
    Construction,
    ObjectDecl,
    fact,
    parse_construction,
    serialize_construction,
)
from geokb.protocol import (
    ErrorResponse,
    QueryRequest,
    QueryResult,
    decode_response,
    encode_request,
)
from geokb.repository import DuplicateReport, ProblemEntry, Repository
from geokb.rules import RuleSet, closure
from geokb.server import GeoServer

from generators import (
    BARE_TRIANGLE_TEXT,
    TRIANGLE_WITH_CIRCLE_TEXT,
    bare_triangle,
    induced_subconstruction,
    random_construction,
    triangle_with_circle,
)
from oracles import brute_force_embeds, naive_closure, stored_entries

GOLDEN = Path(__file__).parent / "golden"

MIN_CORPUS_SIZE = 20
TEXT_SEARCH_TIME_LIMIT = 1.0  # seconds, criterion 1
FILTER_SOUNDNESS_PAIRS = 1000  # criterion 4
MATCHER_ORACLE_PAIRS = 500  # criterion 5
MATCHER_ORACLE_TIME_LIMIT = 60.0  # seconds, criterion 5
MATCHER_ORACLE_MAX_OBJECTS = 8
CLOSURE_LAW_SAMPLES = 1000  # criterion 6
SYNTHETIC_CORPUS_SIZE = 200  # criterion 9
CONFIRMED_QUERY_TIME_LIMIT = 1.0  # seconds, criterion 9


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def triangle_based_identifiers(repo: Repository) -> set[str]:
    """Brute-force oracle: entries the bare triangle actually embeds into."""
    query = bare_triangle()
    return {
        identifier
        for identifier, entry in stored_entries(repo).items()
        if brute_force_embeds(query, parse_construction(entry.code), repo.ruleset)
    }


def circle_bearing_triangle_identifiers(repo: Repository) -> set[str]:
    query = triangle_with_circle()
    return {
        identifier
        for identifier, entry in stored_entries(repo).items()
        if brute_force_embeds(query, parse_construction(entry.code), repo.ruleset)
    }


def test_criterion_1_seeded_corpus_and_text_search(seeded_repo):
    with criterion(1, "seeded corpus, simple text search"):
        assert len(seeded_repo) >= MIN_CORPUS_SIZE
        identifiers = set(stored_entries(seeded_repo))
        assert {"GEO_CEVA", "GEO0281", "GEO0328"} <= identifiers
        assert seeded_repo.get("GEO0281").name == "Incircle of a Triangle"
        assert seeded_repo.get("GEO0328").name == "Circumcircle of a Triangle"
        started = time.perf_counter()
        hits = seeded_repo.text_query("ceva", mode="simple")
        elapsed = time.perf_counter() - started
        assert hits == ["GEO_CEVA"]
        assert elapsed < TEXT_SEARCH_TIME_LIMIT


def test_criterion_2_bare_triangle_over_match(seeded_repo):
    with criterion(2, "bare-triangle query returns all triangle entries"):
        candidates = {
            identifier
            for identifier, _ in seeded_repo.geometric_query(bare_triangle(), confirm=False)
        }
        expected = triangle_based_identifiers(seeded_repo)
        assert candidates == expected
        assert expected  # the corpus is triangle-heavy by design
        assert expected < set(stored_entries(seeded_repo))  # but not everything


def test_criterion_3_triangle_plus_circle_selectivity(seeded_repo):
    with criterion(3, "triangle+circle query keeps the circle-bearing subset"):
        candidates = {
            identifier
            for identifier, _ in seeded_repo.geometric_query(
                triangle_with_circle(), confirm=False
            )
        }
        expected = circle_bearing_triangle_identifiers(seeded_repo)
        assert candidates == expected
        triangle_set = {
            identifier
            for identifier, _ in seeded_repo.geometric_query(bare_triangle(), confirm=False)
        }
        assert candidates < triangle_set  # strict subset


def test_criterion_4_filter_soundness_property(rules):
    """Each target's fingerprint dominates its induced query's, and the
    index the repository filters with finds the target for the query in a
    small store: the target among the last few targets."""
    with criterion(4, f"fingerprint soundness on {FILTER_SOUNDNESS_PAIRS} pairs"):
        rng = random.Random(0xF11)
        failures = 0
        recent: list[dict[str, int]] = []
        for n in range(FILTER_SOUNDNESS_PAIRS):
            target = random_construction(rng, max_points=5, max_lines=4, max_circles=2, max_facts=10)
            query = induced_subconstruction(rng, target)
            target_gtd = gtd(target, closure(target, rules))
            query_gtd = gtd(query, closure(query, rules))
            slot = n % (len(recent) + 1)
            store = GtdIndex.build([*recent[:slot], target_gtd, *recent[slot:]])
            if not gtd_subsumes(target_gtd, query_gtd) or slot not in store.dominating(query_gtd):
                failures += 1
            recent = [*recent[-4:], target_gtd]
        assert failures == 0


def test_criterion_5_matcher_agrees_with_exhaustive_oracle(rules):
    with criterion(5, f"matcher vs brute force on {MATCHER_ORACLE_PAIRS} pairs"):
        rng = random.Random(0x5EED)
        started = time.perf_counter()
        disagreements = 0
        for _ in range(MATCHER_ORACLE_PAIRS):
            query = random_construction(rng, max_points=3, max_lines=2, max_circles=1, max_facts=6)
            target = random_construction(rng, max_points=4, max_lines=3, max_circles=1, max_facts=9)
            assert len(query.objects) <= MATCHER_ORACLE_MAX_OBJECTS
            assert len(target.objects) <= MATCHER_ORACLE_MAX_OBJECTS
            fast = is_subconstruction(query, target, rules) is not None
            slow = brute_force_embeds(query, target, rules)
            if fast != slow:
                disagreements += 1
        elapsed = time.perf_counter() - started
        assert disagreements == 0
        assert elapsed < MATCHER_ORACLE_TIME_LIMIT


def test_criterion_6_closure_laws(rules):
    with criterion(6, f"closure laws on {CLOSURE_LAW_SAMPLES} constructions"):
        rng = random.Random(0xC105)
        shuffled = list(rules.rules)
        naive_checked = 0
        for i in range(CLOSURE_LAW_SAMPLES):
            c = random_construction(rng, max_points=4, max_lines=3, max_circles=1, max_facts=8)
            closed = closure(c, rules)
            assert c.facts <= closed  # extensive
            assert closure(Construction(c.objects, closed), rules) == closed  # idempotent
            subset = frozenset(f for f in c.facts if rng.random() < 0.5)
            assert closure(Construction(c.objects, subset), rules) <= closed  # monotone
            if i % 10 == 0:  # order independence, sampled
                rng.shuffle(shuffled)
                assert closure(c, RuleSet(tuple(shuffled))) == closed
            if len(c.objects) <= 6:
                assert closed == naive_closure(c, rules)
                naive_checked += 1
        assert naive_checked >= 200


def test_criterion_7_protocol_conformance(fresh_seeded_repo):
    with criterion(7, "wire protocol golden bytes and end-to-end loop"):
        # byte shapes straight against the golden files
        assert encode_request(QueryRequest(query="ceva")) == (
            GOLDEN / "request_query.json"
        ).read_bytes()
        assert encode_request(
            QueryRequest(query="ceva", filters="kind=conjecture AND level=4")
        ) == (GOLDEN / "request_query_filters.json").read_bytes()
        members = json.loads(
            encode_request(QueryRequest(query="ceva")).decode("utf-8")
        )
        assert list(members) == ["Query"]

        server = GeoServer(fresh_seeded_repo, host="127.0.0.1", port=0)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        thread.start()
        try:
            host, port = server.host, server.port
            # criterion 1 over the wire
            ceva = client_query(host, port, QueryRequest(query="ceva"))
            assert isinstance(ceva, QueryResult)
            assert [i for i, _ in ceva.entries] == ["GEO_CEVA"]
            info = ceva.entries[0][1]
            assert info.name and info.description and parse_construction(info.code)
            # criteria 2 and 3 over the wire
            triangle = client_query(
                host, port, QueryRequest(geometric=BARE_TRIANGLE_TEXT, confirm=False)
            )
            assert {i for i, _ in triangle.entries} == triangle_based_identifiers(
                fresh_seeded_repo
            )
            with_circle = client_query(
                host, port, QueryRequest(geometric=TRIANGLE_WITH_CIRCLE_TEXT, confirm=False)
            )
            assert {
                i for i, _ in with_circle.entries
            } == circle_bearing_triangle_identifiers(fresh_seeded_repo)
            # malformed request, then a valid one on a fresh connection
            import socket as socketlib

            with socketlib.create_connection((host, port), timeout=5) as sock:
                sock.sendall(b"{broken\n")
                data = sock.makefile("rb").readline()
            assert isinstance(decode_response(data), ErrorResponse)
            again = client_query(host, port, QueryRequest(query="ceva"))
            assert isinstance(again, QueryResult)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)


def test_criterion_8_duplicate_gate(fresh_seeded_repo):
    with criterion(8, "duplicate gate blocks, force overrides, cache stays coherent"):
        stored = fresh_seeded_repo.get("GEO0328")
        twin = ProblemEntry(
            name="Circle about a triangle",
            description="Another write-up of the same figure.",
            keywords=("triangle", "circle"),
            code=stored.code,
            kind=stored.kind,
            level=stored.level,
        )
        outcome = fresh_seeded_repo.insert(twin, force=False)
        assert isinstance(outcome, DuplicateReport)
        assert "GEO0328" in outcome.exact_duplicates
        assert len(fresh_seeded_repo) == len(ENTRIES)
        identifier = fresh_seeded_repo.insert(twin, force=True)
        assert isinstance(identifier, str)
        assert identifier in stored_entries(fresh_seeded_repo)
        assert fresh_seeded_repo.check_cache_coherence() == []


def synthetic_corpus_entry(index: int, rng: random.Random) -> ProblemEntry:
    base = random_construction(rng, max_points=4, max_lines=3, max_circles=2, max_facts=8)
    objects = set(base.objects)
    facts = set(base.facts)
    if index % 2 == 0:
        # plant a triangle under names that cannot clash with the generator's
        objects |= {
            ObjectDecl("TA", "point"),
            ObjectDecl("TB", "point"),
            ObjectDecl("TC", "point"),
            ObjectDecl("ta", "line"),
            ObjectDecl("tb", "line"),
            ObjectDecl("tc", "line"),
        }
        facts |= {
            fact("line_through", "ta", "TB", "TC"),
            fact("line_through", "tb", "TA", "TC"),
            fact("line_through", "tc", "TA", "TB"),
        }
    return ProblemEntry(
        name=f"Synthetic figure {index:03d}",
        description="Generated stress-test entry.",
        keywords=("synthetic",),
        code=serialize_construction(Construction(frozenset(objects), frozenset(facts))),
        kind="construction",
        level=(index % 5) + 1,
    )


def test_criterion_9_confirmed_query_performance(tmp_path):
    with criterion(9, f"confirmed query over {SYNTHETIC_CORPUS_SIZE} entries under 1 s"):
        rng = random.Random(0xBEEF)
        repo = Repository(tmp_path / "bench")
        for i in range(SYNTHETIC_CORPUS_SIZE):
            repo.insert(synthetic_corpus_entry(i, rng), force=True)
        assert len(repo) == SYNTHETIC_CORPUS_SIZE
        query = bare_triangle()
        started = time.perf_counter()
        confirmed = repo.geometric_query(query, confirm=True)
        elapsed = time.perf_counter() - started
        assert elapsed < CONFIRMED_QUERY_TIME_LIMIT
        # every planted triangle must be found
        planted = {i for i, _ in confirmed}
        assert len(planted) >= SYNTHETIC_CORPUS_SIZE // 2
        for identifier, embedding in confirmed:
            assert embedding is not None
