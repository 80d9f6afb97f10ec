"""A pytest-free smoke check of the duplicate gate, the store's shared
objects, a confirmed query's searches (at most one per distinct view it has
of the stored sides, none where the last hit's names fit the view) and the
response encoder, for interpreters that have no pytest installed.  Run it
from the repository root, for instance under each supported CPython with
warnings as errors:

    PYTHONPATH=src python -X dev -W error tests/smoke.py

It prints one line per check and exits non-zero at the first that fails.
"""

from __future__ import annotations

import json
import logging
import sys
import tempfile

from geokb import repository
from geokb.corpus import ENTRIES, seed_repository
from geokb.matching import embed_closed
from geokb.model import parse_construction
from geokb.protocol import (
    EntryInfo,
    ErrorResponse,
    InsertResult,
    QueryRequest,
    QueryResult,
    decode_response,
    encode_request,
    encode_response,
    response_to_document,
)
from geokb.repository import DuplicateReport, ProblemEntry, Repository
from geokb.server import handle_request
from oracles import fact_pairs

TRIANGLE = (
    "point A\npoint B\npoint C\nline a\nline b\nline c\n"
    "line_through(a, B, C)\nline_through(b, A, C)\nline_through(c, A, B)\n"
)
#: four segments in a chain: its fingerprint dominates the triangle's, but
#: the triangle does not embed into it
CHAIN = "".join(f"point P{i}\n" for i in range(5)) + "".join(
    f"line l{i}\nline_through(l{i}, P{i}, P{i + 1})\n" for i in range(4)
)
#: seven figures that each embed into the triangle
PARTS = (
    "point A\n", "line a\n", "point A\npoint B\n", "point A\nline a\n",
    "point A\npoint B\nline a\nline_through(a, A, B)\n", "point A\npoint B\nline a\n",
    "point A\npoint B\npoint C\n",
)


class Warnings(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def check(label: str, condition: bool) -> None:
    print(("ok  " if condition else "FAIL") + f" {label}")
    if not condition:
        sys.exit(1)


def main() -> None:
    print(f"Python {sys.version.split()[0]}")
    own = parse_construction(next(e.code for e in ENTRIES if e.identifier == "GEO0281"))
    with tempfile.TemporaryDirectory() as data:
        repo = Repository(data)
        seed_repository(repo)
        report = repo.find_duplicates(own)
        check("an entry's own figure is its exact duplicate", report.exact_duplicates == ("GEO0281",))
        report = repo.find_duplicates(parse_construction(TRIANGLE))
        check("the bare triangle is contained in GEO0281", "GEO0281" in report.containing_entries)
        smaller = repo.insert(ProblemEntry(name="Triangle", code=TRIANGLE), force=True)
        report = repo.find_duplicates(own)
        check(f"GEO0281's figure contains {smaller}", smaller in report.contained_entries)

        warnings = Warnings()
        logging.getLogger("geokb.repository").addHandler(warnings)
        budget, repository.DEFAULT_BUDGET = repository.DEFAULT_BUDGET, 0
        try:
            check("with no budget the gate reports nothing", repo.find_duplicates(own) == DuplicateReport())
        finally:
            repository.DEFAULT_BUDGET = budget
            logging.getLogger("geokb.repository").removeHandler(warnings)
        expected = [f"match budget exhausted while checking {checked}; treating as no match"
                    for checked in ("draft against GEO0281", f"{smaller} against draft")]
        check("budget warnings name the forward and the backward check",
              all(message in warnings.messages for message in expected)
              and not any("GEO0281 against draft" in message for message in warnings.messages))

    with tempfile.TemporaryDirectory() as data:
        seed_repository(Repository(data))
        repo = Repository(data)
        first, second = (repo._records[repo._slots[identifier]].side for identifier in ("GEO0001", "GEO0004"))
        names = [{name for names, _ in side.by_kind for name in names} for side in (first, second)]
        args = [{args for _, args in fact_pairs(side)} for side in (first, second)]
        held = {value: value for value in (*names[0], *args[0], *first.facts)}
        common = [*(names[0] & names[1]), *(args[0] & args[1]), *set(first.facts).intersection(second.facts)]
        check("equal names and facts of two loaded entries are one object",
              {"Ma", "Mb", "Mc"} <= names[0] & names[1] and len(common) > 20
              and all(held[value] is value for value in common))
        # names the store does not hold, so a query that wrote the table would grow it
        query = parse_construction(TRIANGLE.replace("A", "Qa").replace("B", "Qb"))
        size = len(repo._shared)
        hits = repo.geometric_query(query)
        check("a confirmed query leaves the store's hash-cons table as it was",
              "Qa" not in repo._shared and len(hits) > 1 and all(found is not None for _, found in hits)
              and len(repo._shared) == size)

    with tempfile.TemporaryDirectory() as data:
        repo = Repository(data)
        renamed = TRIANGLE.replace("A", "Ra").replace("B", "Rb").replace("C", "Rc")
        # a distinct side, which the triangle, with no circle and no
        # on_circle fact, sees as it sees its own copies
        circled = TRIANGLE + "circle k\non_circle(A, k)\n"
        copies = (TRIANGLE, CHAIN, TRIANGLE, CHAIN, renamed, TRIANGLE, circled)
        for i, code in enumerate(copies):
            repo.insert(ProblemEntry(name=f"Copy {i}", code=code), force=True)
        repo = Repository(data)
        sides = {}
        for record in repo._records:
            sides.setdefault(record.entry.code, set()).add(id(record.side))
        check("a loaded store holds one side per distinct figure",
              len(sides) == 4 and all(len(held) == 1 for held in sides.values()))
        searched = []

        def counting(query, target, *args, **kwargs):
            searched.append(id(target))
            return embed_closed(query, target, *args, **kwargs)

        repository.embed_closed = counting
        try:
            hits = repo.geometric_query(parse_construction(TRIANGLE))
        finally:
            repository.embed_closed = embed_closed
        # the triangle's copies, the renamed one and the circled one hold
        # it, the chains do not.  A view is searched at most once, where it
        # is first met, and only if the last hit's names do not fit it: the
        # triangle, the chain and the renamed one; the circled one shares the
        # triangle's view and is not searched
        check("a confirmed query searches a view once, unless the last hit's names fit it",
              searched == [held for code in (TRIANGLE, CHAIN, renamed) for held in sides[code]]
              and [identifier for identifier, _ in hits] == ["GEO0001", "GEO0003", "GEO0005", "GEO0006", "GEO0007"])

    with tempfile.TemporaryDirectory() as data:
        # the triangle, then with a point or a line more: distinct views of
        # it, which the first hit's names fit, so they need no search
        repo = Repository(data)
        for code in (TRIANGLE, TRIANGLE + "point D\n", TRIANGLE + "line d\n", TRIANGLE + "point D\nline d\n"):
            repo.insert(ProblemEntry(name="Triangle", code=code), force=True)
        searched.clear()
        repository.embed_closed = counting
        try:
            hits = repo.geometric_query(parse_construction(TRIANGLE))
        finally:
            repository.embed_closed = embed_closed
        check("a confirmed triangle runs one forward search over copies that keep its names",
              len(searched) == 1 and len(hits) == 4)

    with tempfile.TemporaryDirectory() as data:
        repo = Repository(data)
        for i, code in enumerate((CHAIN, *PARTS)):
            repo.insert(ProblemEntry(name=f"Figure {i}", code=code), force=True)
        searched = []

        def counting(query, target, *args, **kwargs):
            searched.append((query, target))
            return embed_closed(query, target, *args, **kwargs)

        stored = [record.side for record in repo._records]
        warnings = Warnings()
        logging.getLogger("geokb.repository").addHandler(warnings)
        repository.embed_closed = counting
        try:
            inserted = repo.insert(ProblemEntry(name="Triangle", code=TRIANGLE))
        finally:
            repository.embed_closed = embed_closed
            logging.getLogger("geokb.repository").removeHandler(warnings)
        # the chain forward, then the parts backward up to the fifth embedding
        check("an insert that goes through stops its backward searches at the fifth embedding",
              inserted == "GEO0009" and [t if t in stored else q for q, t in searched] == stored[:6]
              and [s for s in stored if "plan" in vars(s)] == stored[1:6]
              and warnings.messages == ["insert GEO0009 extends stored entries GEO0002, GEO0003, GEO0004,"
                                        " GEO0005, GEO0006; backward candidates left unsearched: 2"])
        answer = decode_response(handle_request(repo, encode_request(QueryRequest(insert=ProblemEntry(
            name="Triangle again", code=TRIANGLE)))))
        report = repo.find_duplicates(parse_construction(TRIANGLE))
        check("a blocked insert answers with all seven contained entries, as find_duplicates reports",
              answer == InsertResult("duplicate", None, report)
              and report.exact_duplicates == ("GEO0009",) and len(report.contained_entries) == 7)

    responses = [
        ErrorResponse("bad \ud800 filter"),
        InsertResult("inserted", "GEO0042", DuplicateReport()),
        InsertResult("duplicate", None, DuplicateReport(("GEO0001",), ("GEO0002",), ("GEO0003",))),
        QueryResult(()),
        QueryResult((("GEO0015", EntryInfo("Simetria", "Reflexão\n\"x\" \ud800", "point A\n")),)),
    ]
    for response in responses:
        text = json.dumps(response_to_document(response), ensure_ascii=False)
        encoded = encode_response(response)
        check(f"{type(response).__name__} encodes as json.dumps and round-trips",
              encoded == (text + "\n").encode("utf-8", "backslashreplace")
              and decode_response(encoded) == response)


if __name__ == "__main__":
    main()
