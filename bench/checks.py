"""Answer checks that do not trust the code under test.

Each check knows what the generator planted or wrote, or asks the
brute-force oracle of ``tests/oracles.py``.  A response that fails a check
counts as a failed request.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict
from math import perm

from workloads import KINDS, Workload

#: oracle samples per distinct geometric query
ORACLE_SAMPLES = 3
#: largest number of object maps the brute-force oracle may enumerate
ORACLE_MAX_MAPS = 30_000
_TOKEN = re.compile(r"[^\W_]+")
_AUTO_ID = re.compile(r"GEO\d{4}\Z")


def kind_counts(construction) -> dict[str, int]:
    counts = dict.fromkeys(KINDS, 0)
    for obj in construction.objects:
        counts[obj.kind] += 1
    return counts


class Checker:
    """Checks the records of one run against a built store.

    ``identifiers[i]`` is the identifier the store gave ``entries[i]``.
    A record is ``(kind, key, request, summary)`` where summary is
    ``("hits", ids)``, ``("insert", status, identifier, exact)`` or
    ``("error", message)``.
    """

    def __init__(self, workload: Workload, identifiers: list[str], seed: int):
        from geokb.model import parse_construction
        from geokb.rules import default_rules
        from oracles import brute_force_embeds

        self.workload = workload
        self.identifiers = identifiers
        self.base = set(identifiers)
        self.seed = seed
        self._parse = parse_construction
        self._embeds = brute_force_embeds
        self._rules = default_rules()
        self._constructions: dict[int, object] = {}

    def _construction(self, index: int):
        if index not in self._constructions:
            self._constructions[index] = self._parse(self.workload.entries[index].code)
        return self._constructions[index]

    # -- oracles -----------------------------------------------------------

    def _text_oracle(self, request) -> list[str]:
        entries = self.workload.entries
        if request.mode == "simple":
            rx = re.compile(request.query, re.IGNORECASE)
            return sorted(self.identifiers[i] for i, e in enumerate(entries) if rx.search(e.name))
        wanted = set(_TOKEN.findall(request.query.lower()))
        return sorted(
            self.identifiers[i] for i, e in enumerate(entries)
            if wanted & set(_TOKEN.findall(" ".join((e.name, e.description, e.short_description, *e.keywords)).lower()))
        )

    def _oracle_sample(self, key: str, query) -> list[tuple[int, bool]]:
        """(entry index, embeds) for a seeded sample of stored entries the
        oracle can afford; entries with too few objects of a kind cannot
        take the query at all."""
        need = kind_counts(query)
        rng = random.Random(f"{self.seed}:{key}")
        order = list(range(len(self.workload.entries)))
        rng.shuffle(order)
        out = []
        for i in order:
            have = kind_counts(self._construction(i))
            if any(have[k] < need[k] for k in KINDS):
                out.append((i, False))
            else:
                maps = 1
                for k in KINDS:
                    maps *= perm(have[k], need[k])
                if maps > ORACLE_MAX_MAPS:
                    continue
                out.append((i, self._embeds(query, self._construction(i), self._rules)))
            if len(out) == ORACLE_SAMPLES:
                break
        return out

    # -- checks --------------------------------------------------------------

    def failed(self, records: list[tuple]) -> list[bool]:
        """One flag per record: transport error, unexpected error response or
        wrong answer."""
        bad = [summary[0] != ("insert" if kind == "insert" else "hits") for kind, *_, summary in records]
        by_key: dict[str, list[int]] = defaultdict(list)
        for n, (_kind, key, _request, summary) in enumerate(records):
            if not bad[n]:
                by_key[key].append(n)
        inserted = self._inserted(records, bad)
        geo_hits: dict[str, set] = {}
        for key, numbers in by_key.items():
            request = records[numbers[0]][2]
            if request.kind == "insert":
                continue
            results = {self._stable_part(records[n][3][1], inserted, request) for n in numbers}
            if len(results) != 1 or None in results:
                for n in numbers:
                    bad[n] = True
                continue
            if request.kind in ("geo", "cand"):
                geo_hits[key] = set(results.pop())
        for key, numbers in by_key.items():
            request = records[numbers[0]][2]
            if bad[numbers[0]]:
                continue
            if request.kind == "text":
                hits = list(self._stable_part(records[numbers[0]][3][1], inserted, request))
                ok = (sorted(hits) if request.mode == "extended" else hits) == self._text_oracle(request)
            elif request.kind in ("geo", "cand"):
                ok = self._check_geometric(key, request, geo_hits)
            else:
                continue
            if not ok:
                for n in numbers:
                    bad[n] = True
        return bad

    def _inserted(self, records, bad) -> dict[str, str]:
        """Checks every insert record in order; returns request key ->
        identifier of the fresh drafts that went in."""
        inserted: dict[str, str] = {}
        for n, (kind, key, request, summary) in enumerate(records):
            if kind != "insert" or bad[n]:
                continue
            _, status, identifier, exact = summary
            if request.source is not None:
                ok = status == "duplicate" and self.identifiers[request.source] in exact
            elif key in inserted:  # a replayed fresh draft is now a duplicate of itself
                ok = status == "duplicate" and inserted[key] in exact
            else:
                ok = (status == "inserted" and identifier is not None and _AUTO_ID.match(identifier) is not None
                      and identifier not in self.base and identifier not in inserted.values())
                if ok:
                    inserted[key] = identifier
            bad[n] = not ok
        return inserted

    def _stable_part(self, ids: tuple, inserted: dict[str, str], request):
        """The hits among the generated store.  Hits outside it may only be
        drafts this run inserted; None when another identifier shows up."""
        extra = set(ids) - self.base
        if extra - set(inserted.values()):
            return None
        if extra and (self.workload.read_only or request.kind == "text"):
            return None
        return tuple(i for i in ids if i in self.base)

    def _check_geometric(self, key: str, request, geo_hits: dict[str, set]) -> bool:
        hits = geo_hits[key]
        shape = key.split(":", 1)[1]
        if request.kind == "geo" and f"cand:{shape}" in geo_hits and not hits <= geo_hits[f"cand:{shape}"]:
            return False
        if request.source is not None and self.identifiers[request.source] not in hits:
            return False
        if shape == "triangle":
            planted = {self.identifiers[i] for i, e in enumerate(self.workload.entries) if e.planted}
            if not planted <= hits:
                return False
        query = self._parse(request.code)
        for i, embeds in self._oracle_sample(shape, query):
            member = self.identifiers[i] in hits
            if request.kind == "geo" and member != embeds:
                return False
            if request.kind == "cand" and embeds and not member:
                return False
        return True
