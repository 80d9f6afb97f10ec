from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

from geokb.errors import PatternError
from geokb.repository import ProblemEntry, Repository
from geokb.textindex import extended_search, simple_search, terms, tokenize

from oracles import ranked_text_hits


def entry(identifier, name, description="", short="", keywords=()):
    return ProblemEntry(identifier, name, description, short, tuple(keywords))


def records_of(*entries):
    """Records as the repository keeps them: a list of each entry and its
    terms."""
    return [SimpleNamespace(entry=e, terms=terms(e)) for e in entries]


@pytest.fixture()
def records():
    return records_of(
        entry(
            "GEO_CEVA",
            "Ceva's Theorem",
            description="Cevians of a triangle are concurrent.",
            short="Concurrent cevians.",
            keywords=("triangle", "cevian"),
        ),
        entry(
            "GEO0003",
            "Thales' Theorem",
            description="A theorem about the right angle in a semicircle.",
            short="Right angle in a semicircle.",
            keywords=("circle", "angle"),
        ),
        entry(
            "GEO0328",
            "Circumcircle of a Triangle",
            description="Circle through the vertices.",
            short="Circumscribed circle.",
            keywords=("triangle", "circumcircle"),
        ),
    )


def test_tokenize_lowercases_and_splits():
    assert tokenize("Ceva's Theorem!") == ["ceva", "s", "theorem"]
    assert tokenize("nine-point_circle") == ["nine", "point", "circle"]
    assert tokenize("") == []


def test_tokenize_keeps_accented_words_whole():
    assert tokenize("Reflexão no eixo") == ["reflexão", "no", "eixo"]


# -- simple search -----------------------------------------------------------


def test_simple_search_is_case_insensitive_substring(records):
    assert simple_search("ceva", records) == ["GEO_CEVA"]
    assert simple_search("THEOREM", records) == ["GEO0003", "GEO_CEVA"]


def test_simple_search_universal_pattern(records):
    assert simple_search(".*", records) == ["GEO0003", "GEO0328", "GEO_CEVA"]


def test_simple_search_anchors(records):
    assert simple_search("^Thales", records) == ["GEO0003"]
    assert simple_search("^heorem$", records) == []
    assert simple_search("Triangle$", records) == ["GEO0328"]


def test_simple_search_character_classes_and_alternation(records):
    assert simple_search("Ceva|Thales", records) == ["GEO0003", "GEO_CEVA"]
    assert simple_search("C[ei]", records) == ["GEO0328", "GEO_CEVA"]


def test_simple_search_no_match(records):
    assert simple_search("^xyzzy$", records) == []


def test_simple_search_rejects_invalid_pattern(records):
    with pytest.raises(PatternError):
        simple_search("(unclosed", records)


# -- extended search ------------------------------------------------------------


def test_extended_search_empty_query(records):
    assert extended_search("", records) == []
    assert extended_search("--- !!!", records) == []


def test_extended_search_scores_by_field_weight(records):
    # "ceva": name(1)*4 + description(1)*1 + short? "cevians" is a different
    # token, keywords "cevian" is a different token; so 4 + 0 + 0 + 0... the
    # description token is "cevians", not "ceva". Only the name matches.
    assert extended_search("ceva", records) == [("GEO_CEVA", 4)]


def test_extended_search_or_semantics_and_ranking(records):
    assert extended_search("ceva theorem", records) == [
        ("GEO_CEVA", 4 + 4),  # ceva + theorem in the name
        ("GEO0003", 4 + 1),  # theorem in name and in description
    ]


def test_extended_search_weights_all_fields():
    ix = records_of(entry("E1", "alpha", description="beta", short="gamma", keywords=("delta",)))
    assert extended_search("alpha", ix) == [("E1", 4)]
    assert extended_search("delta", ix) == [("E1", 3)]
    assert extended_search("gamma", ix) == [("E1", 2)]
    assert extended_search("beta", ix) == [("E1", 1)]
    assert extended_search("alpha beta gamma delta", ix) == [("E1", 10)]


def test_extended_search_term_frequency_counts():
    ix = records_of(
        entry("E1", "echo", description="echo echo echo"), entry("E2", "echo echo", description="")
    )
    assert extended_search("echo", ix) == [("E2", 8), ("E1", 7)]


def test_extended_search_score_is_token_order_invariant(records):
    a = extended_search("triangle circle", records)
    b = extended_search("circle triangle", records)
    assert a == b


def test_extended_search_ties_break_by_identifier():
    ix = records_of(entry("B", "same name"), entry("A", "same name"))
    assert extended_search("same", ix) == [("A", 4), ("B", 4)]


def test_extended_search_omits_zero_scores(records):
    assert all(score > 0 for _, score in extended_search("triangle", records))
    assert "GEO0003" not in {identifier for identifier, _ in extended_search("triangle", records)}


#: words for random entries: accented ones, digits, case variants and one
#: ("Ünïcode") whose lowercase form is another word of the list
ORACLE_WORDS = ("circle", "Circle", "CIRCLE", "reflexão", "eixo", "ünïcode", "Ünïcode", "042",
                "7", "tri", "angle", "triangle", "çevá", "ß", "Straße", "x1")


def random_text(rng: random.Random, words: int) -> str:
    separators = (" ", "  ", "-", "_", ", ", "'", "!? ", "/", "")  # "" glues two words
    return "".join(rng.choice(ORACLE_WORDS) + rng.choice(separators) for _ in range(words))


def test_extended_search_matches_an_independent_oracle():
    rng = random.Random(1313)
    seen = {"repeated token": 0, "token in several fields": 0, "tied score": 0}
    for _ in range(40):
        entries = [
            entry(
                f"E{n:02d}",
                random_text(rng, rng.randint(0, 3)),
                description=random_text(rng, rng.randint(0, 6)),
                short=random_text(rng, rng.randint(0, 3)),
                keywords=[random_text(rng, rng.randint(1, 2)) for _ in range(rng.randint(0, 3))],
            )
            for n in rng.sample(range(100), 12)
        ]
        records = records_of(*entries)
        queries = ["", "--- !!! __", random_text(rng, 1), random_text(rng, 3)]
        word = rng.choice(ORACLE_WORDS)
        queries.append(f"{word} {word.upper()}-{word}")
        for query in queries:
            expected = ranked_text_hits(query, entries)
            assert extended_search(query, records) == expected, query
            tokens = tokenize(query)
            seen["repeated token"] += len(tokens) > len(set(tokens))
            scores = [score for _, score in expected]
            seen["tied score"] += len(scores) > len(set(scores))
        for e in entries:
            fields = (e.name, " ".join(e.keywords), e.short_description, e.description)
            field_sets = [set(tokenize(text)) for text in fields]
            seen["token in several fields"] += any(
                sum(token in field for field in field_sets) > 1 for token in set().union(*field_sets)
            )
    assert all(count > 10 for count in seen.values()), seen


# -- the records as the repository keeps them ---------------------------------------


def test_index_state_equals_rebuild_from_scratch(tmp_path):
    """Search after a seeded sequence of inserts, some under explicit
    identifiers that sort before stored ones, equals search over a
    repository loaded again from the same directory."""
    rng = random.Random(55)
    repo = Repository(tmp_path / "data")

    def draft(identifier):
        return ProblemEntry(
            identifier=identifier,
            name=f"name {rng.randint(0, 5)}",
            description=f"words {rng.randint(0, 5)} again",
            keywords=(f"kw{rng.randint(0, 3)}",),
            code="point A\n",
        )

    for step in range(60):
        identifier = f"AAA{step:03d}" if rng.random() < 0.3 else ""
        repo.insert(draft(identifier), force=True)
    reloaded = Repository(repo.data_dir)
    for query in ("name", "words 3", "kw1 name", "again", "^name [0-2]$"):
        for mode in ("simple", "extended"):
            assert repo.text_query(query, mode=mode) == reloaded.text_query(query, mode=mode)
        assert extended_search(query, repo._records[: len(repo)]) == extended_search(
            query, reloaded._records[: len(reloaded)]
        )
