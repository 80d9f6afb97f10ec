from __future__ import annotations

import json
import threading
from dataclasses import replace

import pytest

from geokb.errors import (
    ConstructionError,
    EntryError,
    FilterError,
    IdentifierCollisionError,
    NotFoundError,
    StorageError,
)
from geokb.fingerprint import construction_gtd, serialize_gtd
from geokb.matching import find_embeddings
from geokb.model import parse_construction, serialize_construction
from geokb.corpus import ENTRIES, seed_repository
from geokb.repository import (
    DuplicateReport,
    EMPTY_FILTERS,
    FilterSet,
    ProblemEntry,
    Repository,
    parse_filters,
)

from generators import (
    BARE_TRIANGLE_TEXT,
    TRIANGLE_WITH_CIRCLE_TEXT,
    bare_triangle,
    concurrent_lines,
    triangle_with_circle,
)
from oracles import brute_force_embeds

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
    assert everything == seeded_repo.list_all()


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
    assert {"GEO_CEVA", "GEO0281", "GEO0328"} <= set(seeded_repo.list_all())


def test_get_returns_equal_entry(fresh_seeded_repo):
    entry = fresh_seeded_repo.get("GEO0281")
    assert entry.name == "Incircle of a Triangle"
    assert entry.gtd_cache.startswith("depth=2 ")
    with pytest.raises(NotFoundError):
        fresh_seeded_repo.get("GEO9999")


def test_cache_coherence_on_seeded_corpus(seeded_repo):
    assert seeded_repo.check_cache_coherence() == []
    for identifier in seeded_repo.list_all():
        entry = seeded_repo.get(identifier)
        recomputed = construction_gtd(
            parse_construction(entry.code), seeded_repo.ruleset, seeded_repo.gtd_depth
        )
        assert serialize_gtd(recomputed) == entry.gtd_cache


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


def test_identifier_space_ends_at_geo9999(tmp_path):
    repo = Repository(tmp_path / "data")
    repo._next_number = 9998  # as if GEO0001..GEO9997 were taken; filling them takes seconds
    circle = ProblemEntry(name="Circle", code="circle k\n", kind="construction", level=1)
    assert repo.insert(circle, force=True) == "GEO9998"
    assert repo.insert(circle, force=True) == "GEO9999"
    with pytest.raises(StorageError, match="GEO0001..GEO9999 is exhausted"):
        repo.insert(circle, force=True)
    assert len(repo) == 2


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
    assert len(repo) == 0


def test_update_revalidates_and_reindexes(fresh_seeded_repo):
    entry = fresh_seeded_repo.get("GEO0012")
    fresh_seeded_repo.update("GEO0012", ProblemEntry(
        name="Renamed Circle Figure",
        description=entry.description,
        short_description=entry.short_description,
        keywords=entry.keywords,
        code=entry.code,
        kind=entry.kind,
        level=entry.level,
    ))
    assert fresh_seeded_repo.text_query("renamed circle") == ["GEO0012"]
    assert fresh_seeded_repo.text_query("^Circle and Diameter$") == []
    assert fresh_seeded_repo.check_cache_coherence() == []
    with pytest.raises(NotFoundError):
        fresh_seeded_repo.update("GEO9999", entry)
    with pytest.raises(IdentifierCollisionError):
        fresh_seeded_repo.update("GEO0012", ProblemEntry(identifier="GEO0013", code=""))


def test_update_replaces_what_queries_and_the_gate_see(fresh_seeded_repo):
    repo = fresh_seeded_repo
    hits = {i for i, _ in repo.geometric_query(bare_triangle())}
    gained = next(i for i in repo.list_all() if i not in hits)
    assert "GEO0281" in hits
    for identifier, code in (("GEO0281", "circle k\n"), (gained, BARE_TRIANGLE_TEXT)):
        entry = repo.get(identifier)
        repo.update(identifier, replace(entry, identifier="", code=code))
    after = dict(repo.geometric_query(bare_triangle()))
    assert "GEO0281" not in after
    assert after[gained].as_dict() == {n: n for n in bare_triangle().kinds}
    report = repo.find_duplicates(bare_triangle())
    assert gained in report.exact_duplicates
    assert "GEO0281" not in report.exact_duplicates + report.containing_entries
    assert "GEO0281" in repo.find_duplicates(parse_construction("circle k\n")).exact_duplicates


def test_reloaded_witnesses_equal_direct_matching(fresh_seeded_repo):
    reloaded = Repository(fresh_seeded_repo.data_dir)
    for query in (bare_triangle(), triangle_with_circle(), concurrent_lines()):
        confirmed = dict(reloaded.geometric_query(query, confirm=True))
        for identifier, _ in reloaded.geometric_query(query, confirm=False):
            direct = find_embeddings(
                query, reloaded.construction_of(identifier), reloaded.ruleset, 1
            )
            assert confirmed.get(identifier) == (direct[0] if direct else None)


def test_construction_of_round_trips(seeded_repo):
    for e in ENTRIES:
        construction = seeded_repo.construction_of(e.identifier)
        assert construction == parse_construction(e.code)
        assert parse_construction(serialize_construction(construction)) == construction
    with pytest.raises(NotFoundError):
        seeded_repo.construction_of("GEO9999")


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


def test_find_duplicates_mirror_report(fresh_seeded_repo):
    report = fresh_seeded_repo.find_duplicates(bare_triangle())
    oracle_contained = {
        identifier
        for identifier in fresh_seeded_repo.list_all()
        if brute_force_embeds(
            bare_triangle(),
            fresh_seeded_repo.construction_of(identifier),
            fresh_seeded_repo.ruleset,
        )
    }
    assert set(report.containing_entries) | set(report.exact_duplicates) == oracle_contained


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
    assert [identifier for identifier, _ in hits] == seeded_repo.list_all()
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
    for identifier in seeded_repo.list_all():
        target = seeded_repo.construction_of(identifier)
        if is_subconstruction(query, target, seeded_repo.ruleset) is not None:
            assert identifier in confirmed


def test_budget_exhaustion_drops_confirmed_matches_with_warning(tmp_path, caplog):
    repo = Repository(tmp_path / "data", match_budget=0)
    seed_repository(repo)
    with caplog.at_level("WARNING"):
        hits = repo.geometric_query(bare_triangle(), confirm=True)
    assert hits == []
    assert "match budget exhausted" in caplog.text
    # candidate listing does not need the matcher
    assert repo.geometric_query(bare_triangle(), confirm=False)


# -- persistence -------------------------------------------------------------------


def test_reload_recovers_identical_state(fresh_seeded_repo, tmp_path):
    reloaded = Repository(fresh_seeded_repo.data_dir)
    assert reloaded.list_all() == fresh_seeded_repo.list_all()
    for identifier in reloaded.list_all():
        assert reloaded.get(identifier) == fresh_seeded_repo.get(identifier)


def test_interrupted_insert_leaves_no_trace(fresh_seeded_repo):
    # simulate a crash between temp-write and rename
    stray = fresh_seeded_repo.data_dir / "entries" / ".GEO9998.json.tmp"
    stray.write_text("{not even json", encoding="utf-8")
    reloaded = Repository(fresh_seeded_repo.data_dir)
    assert "GEO9998" not in reloaded.list_all()
    assert reloaded.text_query(".*") == reloaded.list_all()


def test_stale_cache_is_repaired_on_startup(fresh_seeded_repo, caplog):
    path = fresh_seeded_repo.data_dir / "entries" / "GEO0281.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["GTD"] = "depth=2 kind:point=99"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with caplog.at_level("WARNING"):
        reloaded = Repository(fresh_seeded_repo.data_dir)
    assert "refreshing stale fingerprint cache" in caplog.text
    assert reloaded.check_cache_coherence() == []
    assert reloaded.get("GEO0281").gtd_cache == fresh_seeded_repo.get("GEO0281").gtd_cache


def test_corrupt_entry_file_fails_loudly(fresh_seeded_repo):
    path = fresh_seeded_repo.data_dir / "entries" / "GEO0281.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(StorageError):
        Repository(fresh_seeded_repo.data_dir)


def test_mismatched_filename_fails_loudly(fresh_seeded_repo):
    entries = fresh_seeded_repo.data_dir / "entries"
    (entries / "GEO0999.json").write_text(
        (entries / "GEO0281.json").read_text(encoding="utf-8"), encoding="utf-8"
    )
    with pytest.raises(StorageError, match="holds identifier"):
        Repository(fresh_seeded_repo.data_dir)


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
        "Version",
    ]
    assert doc["Version"] == 1
    assert parse_construction(doc["Code"])  # code member parses


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
