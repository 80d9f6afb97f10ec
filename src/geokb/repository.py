"""File-backed store of geometric problem entries with search and dedup.

Each entry is one JSON document at ``<data>/entries/<identifier>.json``
(written to a temp file and renamed, so an interrupted write leaves no
partial entry).  Every entry caches the fingerprint of its closed
construction; the cache is verified against a recomputation at startup and
refreshed if stale, for example after changing the configured depth.

In memory each entry has one record, built the same way by loading,
inserting and updating: the entry, its closed construction prepared for
matching (:func:`~geokb.matching.prepare`) and its fingerprint.

Queries come in two families.  Text queries delegate to the in-memory
text index and then apply filters.  Geometric queries close and
fingerprint the query construction, keep the entries whose cached
fingerprint dominates it, and optionally confirm each candidate by exact
embedding search, attaching the witness mapping; the query is prepared
for matching only once a candidate passes the filter.

Inserts pass through a duplicate gate: unless forced, a draft that is
structurally equal to a stored entry, or embeds into one, is rejected with
a report naming the offenders.  A draft that merely extends stored entries
(they embed into it) is inserted with a warning, since a richer
construction legitimately refines a poorer one.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import (
    EntryError,
    FilterError,
    IdentifierCollisionError,
    NotFoundError,
    SearchBudgetExceeded,
    StorageError,
)
from .fingerprint import DEFAULT_DEPTH, Gtd, VALID_DEPTHS, gtd, gtd_subsumes, serialize_gtd
from .matching import DEFAULT_BUDGET, Embedding, MatchSide, embed_closed, prepare
from .model import Construction, parse_construction
from .rules import RuleSet, closure, default_rules
from .textindex import IndexedEntry, TextIndex

log = logging.getLogger(__name__)

#: all stored construction code uses the textual predicate format
CODE_FORMAT = "predicate"
FORMAT_VERSION = 1
FILTER_KEYS = ("format", "kind", "language", "level", "keyword")
ENTRY_KINDS = ("construction", "conjecture")

_IDENTIFIER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


@dataclass(frozen=True)
class ProblemEntry:
    """One repository record.  ``identifier`` may be left empty in drafts
    passed to :meth:`Repository.insert`, which then assigns the lowest
    unused ``GEO####``; ``gtd_cache`` is always computed by the store."""

    identifier: str = ""
    name: str = ""
    description: str = ""
    short_description: str = ""
    keywords: tuple[str, ...] = ()
    code: str = ""
    language: str = "en"
    level: int = 3
    kind: str = "construction"
    gtd_cache: str = ""


@dataclass(frozen=True)
class _Record:
    """What the store keeps of one entry in memory."""

    entry: ProblemEntry
    side: MatchSide
    fingerprint: Gtd


@dataclass(frozen=True)
class DuplicateReport:
    """Outcome of the duplicate gate.  The three lists are disjoint:
    mutual embeddings are exact duplicates, one-way embeddings fall in the
    matching one-way list."""

    exact_duplicates: tuple[str, ...] = ()
    containing_entries: tuple[str, ...] = ()
    contained_entries: tuple[str, ...] = ()

    def blocks_insert(self) -> bool:
        return bool(self.exact_duplicates or self.containing_entries)


@dataclass(frozen=True)
class FilterSet:
    """Conjunction of ``key=value`` predicates over entry metadata."""

    clauses: tuple[tuple[str, object], ...] = ()

    def __len__(self) -> int:
        return len(self.clauses)

    def matches(self, entry: ProblemEntry) -> bool:
        for key, value in self.clauses:
            if key == "format":
                if value != CODE_FORMAT:
                    return False
            elif key == "kind":
                if entry.kind != value:
                    return False
            elif key == "language":
                if entry.language.lower() != str(value).lower():
                    return False
            elif key == "level":
                if entry.level != value:
                    return False
            elif key == "keyword":
                if str(value).lower() not in (k.lower() for k in entry.keywords):
                    return False
            else:  # pragma: no cover - parse_filters rejects unknown keys
                raise FilterError(f"unknown filter key: {key}")
        return True


EMPTY_FILTERS = FilterSet()


def parse_filters(text: str) -> FilterSet:
    """Parse ``key=value AND key=value ...``; empty text matches everything."""
    if not text or not text.strip():
        return EMPTY_FILTERS
    clauses: list[tuple[str, object]] = []
    for part in text.split(" AND "):
        part = part.strip()
        key, sep, value = part.partition("=")
        if not sep or not key or not value:
            raise FilterError(f"malformed filter {part!r} (expected key=value)")
        if key not in FILTER_KEYS:
            raise FilterError(f"unknown filter key: {key}")
        if key == "level":
            try:
                level = int(value)
            except ValueError:
                raise FilterError(f"level must be an integer, got {value!r}") from None
            if not 1 <= level <= 5:
                raise FilterError(f"level must be between 1 and 5, got {level}")
            clauses.append((key, level))
        elif key == "kind":
            if value not in ENTRY_KINDS:
                raise FilterError(f"kind must be one of {ENTRY_KINDS}, got {value!r}")
            clauses.append((key, value))
        else:
            clauses.append((key, value))
    return FilterSet(tuple(clauses))


def entry_to_document(entry: ProblemEntry) -> dict:
    return {
        "Identifier": entry.identifier,
        "Name": entry.name,
        "Description": entry.description,
        "ShortDescription": entry.short_description,
        "Keywords": list(entry.keywords),
        "Code": entry.code,
        "Language": entry.language,
        "Level": entry.level,
        "Kind": entry.kind,
        "GTD": entry.gtd_cache,
        "Version": FORMAT_VERSION,
    }


def document_to_entry(doc: dict) -> ProblemEntry:
    if not isinstance(doc, dict):
        raise StorageError("entry document must be a JSON object")
    version = doc.get("Version")
    if version != FORMAT_VERSION:
        raise StorageError(f"unsupported entry format version {version!r}")
    try:
        keywords = doc.get("Keywords", [])
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise StorageError("Keywords must be an array of strings")
        return ProblemEntry(
            identifier=doc["Identifier"],
            name=doc["Name"],
            description=doc.get("Description", ""),
            short_description=doc.get("ShortDescription", ""),
            keywords=tuple(keywords),
            code=doc["Code"],
            language=doc.get("Language", "en"),
            level=doc.get("Level", 3),
            kind=doc.get("Kind", "construction"),
            gtd_cache=doc.get("GTD", ""),
        )
    except KeyError as exc:
        raise StorageError(f"entry document missing member {exc.args[0]!r}") from None


def _check_draft(entry: ProblemEntry) -> None:
    if not isinstance(entry.level, int) or not 1 <= entry.level <= 5:
        raise EntryError(f"level must be an integer between 1 and 5, got {entry.level!r}")
    if entry.kind not in ENTRY_KINDS:
        raise EntryError(f"kind must be one of {ENTRY_KINDS}, got {entry.kind!r}")
    if not entry.language:
        raise EntryError("language must not be empty")
    if entry.identifier and not _IDENTIFIER_RE.match(entry.identifier):
        raise EntryError(f"invalid identifier {entry.identifier!r}")


class Repository:
    """Persistent entry store bound to a data directory, holding one
    record per entry: the entry, its matching side and its fingerprint.

    Reads and writes are serialized by one lock, which satisfies the
    many-readers-or-one-writer contract regardless of how callers thread
    their connections.
    """

    def __init__(
        self,
        data_dir: str | os.PathLike[str],
        ruleset: RuleSet | None = None,
        gtd_depth: int = DEFAULT_DEPTH,
        match_budget: int = DEFAULT_BUDGET,
    ):
        if gtd_depth not in VALID_DEPTHS:
            raise ValueError(f"gtd_depth must be one of {VALID_DEPTHS}, got {gtd_depth!r}")
        self._dir = Path(data_dir)
        self._entries_dir = self._dir / "entries"
        self._entries_dir.mkdir(parents=True, exist_ok=True)
        self._rules = default_rules() if ruleset is None else ruleset
        self._depth = gtd_depth
        self._budget = match_budget
        self._lock = threading.RLock()
        self._records: dict[str, _Record] = {}
        #: every GEO#### below it is taken; entries are never deleted
        self._next_number = 1
        self._index = TextIndex()
        self._load()

    # -- properties ------------------------------------------------------

    @property
    def data_dir(self) -> Path:
        return self._dir

    @property
    def gtd_depth(self) -> int:
        return self._depth

    @property
    def ruleset(self) -> RuleSet:
        return self._rules

    def __len__(self) -> int:
        return len(self._records)

    # -- loading and persistence -----------------------------------------

    def _load(self) -> None:
        for path in sorted(self._entries_dir.glob("*.json")):
            if path.name.startswith("."):
                continue  # leftover temp files from interrupted writes
            try:
                doc = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise StorageError(f"unreadable entry file {path.name}: {exc}") from exc
            entry = document_to_entry(doc)
            if entry.identifier != path.stem:
                raise StorageError(
                    f"entry file {path.name} holds identifier {entry.identifier!r}"
                )
            side, fingerprint = self._analyze(parse_construction(entry.code))
            serialized = serialize_gtd(fingerprint)
            if entry.gtd_cache != serialized:
                log.warning("refreshing stale fingerprint cache of %s", entry.identifier)
                entry = replace(entry, gtd_cache=serialized)
                self._write(entry)
            self._register(entry, side, fingerprint)

    def _analyze(self, construction: Construction) -> tuple[MatchSide, Gtd]:
        closed = closure(construction, self._rules)
        return prepare(construction.kinds, closed), gtd(construction, closed, self._depth)

    def _register(self, entry: ProblemEntry, side: MatchSide, fingerprint: Gtd) -> None:
        identifier = entry.identifier
        self._records[identifier] = _Record(entry, side, fingerprint)
        self._index.index_entry(
            IndexedEntry(
                identifier=identifier,
                name=entry.name,
                description=entry.description,
                short_description=entry.short_description,
                keywords=entry.keywords,
            )
        )

    def _write(self, entry: ProblemEntry) -> None:
        final = self._entries_dir / f"{entry.identifier}.json"
        temp = self._entries_dir / f".{entry.identifier}.json.tmp"
        try:
            temp.write_text(
                json.dumps(entry_to_document(entry), ensure_ascii=False, indent=2) + "\n",
                encoding="utf-8",
            )
            os.replace(temp, final)
        except OSError as exc:
            raise StorageError(f"cannot persist {entry.identifier}: {exc}") from exc

    def _next_identifier(self) -> str:
        while self._next_number < 10_000:
            candidate = f"GEO{self._next_number:04d}"
            if candidate not in self._records:
                return candidate
            self._next_number += 1
        raise StorageError("identifier space GEO0001..GEO9999 is exhausted")

    # -- duplicate gate ----------------------------------------------------

    def _embeds(self, query: MatchSide, target: MatchSide, context: str) -> bool:
        try:
            return bool(embed_closed(query, target, 1, budget=self._budget))
        except SearchBudgetExceeded:
            log.warning("match budget exhausted while checking %s; treating as no match", context)
            return False

    def find_duplicates(self, construction: Construction) -> DuplicateReport:
        """Compare a draft construction against every stored entry."""
        with self._lock:
            return self._find_duplicates(*self._analyze(construction))

    def _find_duplicates(self, side: MatchSide, fingerprint: Gtd) -> DuplicateReport:
        exact: list[str] = []
        containing: list[str] = []
        contained: list[str] = []
        for identifier, record in sorted(self._records.items()):
            forward = backward = False
            if gtd_subsumes(record.fingerprint, fingerprint):
                forward = self._embeds(side, record.side, f"draft against {identifier}")
            if gtd_subsumes(fingerprint, record.fingerprint):
                backward = self._embeds(record.side, side, f"{identifier} against draft")
            if forward and backward:
                exact.append(identifier)
            elif forward:
                containing.append(identifier)
            elif backward:
                contained.append(identifier)
        return DuplicateReport(tuple(exact), tuple(containing), tuple(contained))

    # -- mutations ---------------------------------------------------------

    def insert(self, draft: ProblemEntry, force: bool = False) -> str | DuplicateReport:
        """Store a draft unless the duplicate gate blocks it.

        Returns the assigned identifier on success, or a
        :class:`DuplicateReport` (and stores nothing) when an unforced
        insert collides with an equal or containing entry.
        """
        with self._lock:
            _check_draft(draft)
            side, fingerprint = self._analyze(parse_construction(draft.code))
            if draft.identifier:
                if draft.identifier in self._records:
                    raise IdentifierCollisionError(
                        f"identifier {draft.identifier} is already taken"
                    )
                identifier = draft.identifier
            else:
                identifier = self._next_identifier()
            if not force:
                report = self._find_duplicates(side, fingerprint)
                if report.blocks_insert():
                    return report
                if report.contained_entries:
                    log.warning(
                        "insert %s extends stored entries: %s",
                        identifier,
                        ", ".join(report.contained_entries),
                    )
            entry = replace(
                draft,
                identifier=identifier,
                keywords=tuple(draft.keywords),
                gtd_cache=serialize_gtd(fingerprint),
            )
            self._write(entry)
            self._register(entry, side, fingerprint)
            return identifier

    def update(self, identifier: str, draft: ProblemEntry) -> None:
        """Replace an entry's fields; the identifier itself cannot change."""
        with self._lock:
            if identifier not in self._records:
                raise NotFoundError(f"no entry {identifier!r}")
            if draft.identifier and draft.identifier != identifier:
                raise IdentifierCollisionError("an entry's identifier cannot change")
            _check_draft(draft)
            side, fingerprint = self._analyze(parse_construction(draft.code))
            entry = replace(
                draft,
                identifier=identifier,
                keywords=tuple(draft.keywords),
                gtd_cache=serialize_gtd(fingerprint),
            )
            self._write(entry)
            self._register(entry, side, fingerprint)

    # -- queries -----------------------------------------------------------

    def get(self, identifier: str) -> ProblemEntry:
        with self._lock:
            try:
                return self._records[identifier].entry
            except KeyError:
                raise NotFoundError(f"no entry {identifier!r}") from None

    def list_all(self) -> list[str]:
        with self._lock:
            return sorted(self._records)

    def construction_of(self, identifier: str) -> Construction:
        """The entry's construction, parsed again from its code."""
        return parse_construction(self.get(identifier).code)

    def text_query(
        self, text: str, mode: str = "simple", filters: FilterSet = EMPTY_FILTERS
    ) -> list[str]:
        """Identifiers matching a text query, filtered; simple mode is
        ordered by identifier, extended mode by score."""
        with self._lock:
            if mode == "simple":
                identifiers = self._index.simple_search(text)
            elif mode == "extended":
                identifiers = [h.identifier for h in self._index.extended_search(text)]
            else:
                raise ValueError(f"mode must be 'simple' or 'extended', got {mode!r}")
            return [i for i in identifiers if filters.matches(self._records[i].entry)]

    def geometric_query(
        self,
        query: Construction,
        filters: FilterSet = EMPTY_FILTERS,
        confirm: bool = True,
    ) -> list[tuple[str, Embedding | None]]:
        """Entries whose cached fingerprint dominates the query's, in
        ascending identifier order.

        With ``confirm`` the candidates are checked by exact embedding and
        non-matches dropped; candidates whose check exhausts the match
        budget are dropped with a logged warning.
        """
        with self._lock:
            closed = closure(query, self._rules)
            fingerprint = gtd(query, closed, self._depth)
            side = None
            results: list[tuple[str, Embedding | None]] = []
            for identifier, record in sorted(self._records.items()):
                if not filters.matches(record.entry):
                    continue
                if not gtd_subsumes(record.fingerprint, fingerprint):
                    continue
                if not confirm:
                    results.append((identifier, None))
                    continue
                if side is None:
                    side = prepare(query.kinds, closed)
                try:
                    found = embed_closed(side, record.side, 1, budget=self._budget)
                except SearchBudgetExceeded:
                    log.warning(
                        "match budget exhausted for %s; dropped from confirmed results",
                        identifier,
                    )
                    continue
                if found:
                    results.append((identifier, found[0]))
            return results

    def check_cache_coherence(self) -> list[str]:
        """Identifiers whose stored fingerprint disagrees with a fresh
        recomputation from code; always empty unless files were edited
        behind the repository's back."""
        with self._lock:
            stale = []
            for identifier, record in sorted(self._records.items()):
                _, fingerprint = self._analyze(parse_construction(record.entry.code))
                if serialize_gtd(fingerprint) != record.entry.gtd_cache:
                    stale.append(identifier)
            return stale
