"""File-backed store of geometric problem entries with search and dedup.

Each entry is one JSON document at ``<data>/entries/<identifier>.json``
(written to a temp file and renamed, so an interrupted write leaves no
partial entry).  The entry's own members are written and read by
:func:`entry_to_document` and :func:`document_to_entry`, which the wire
protocol's ``Insert`` member shares; a :class:`ProblemEntry` checks its
fields when it is built, so no illegal entry exists.  Beside them, a
version-2 document caches the entry's whole analysis: ``Objects`` (name
-> kind), ``Closure`` (the closed facts in text form, ``predicate(a, b)``,
sorted) and ``GTD`` (the fingerprint), under a ``Digest`` that also covers
``Code``, the format version, the rule set and the fixed ``depth=2`` header
of ``GTD``.

At startup a document whose digest matches is trusted: its record and its
index slot are built from those members, with no parsing, closure or
fingerprinting.  Any other document (an older version, a changed rule
set, an edited or malformed cache member) is analysed again from its code,
logged as a stale cache and rewritten; if the rewrite fails, the entry is
served from that analysis and the file is left as it is, with an error
log.  A file that is not an entry document, or holds an unknown member or
an entry :class:`ProblemEntry` refuses, is skipped with an error log and
left on disk, and its identifier stays taken.
:meth:`Repository.check_cache_coherence` is the full check: it compares
every record and index slot with an analysis of its entry's code.

In memory each entry has one immutable record, built the same way by
loading and inserting: the entry, its closed construction prepared for
matching (:func:`~geokb.matching.prepare`: its closed facts grouped by
predicate, its objects by kind), its weighted text terms
(:func:`~geokb.textindex.terms`) and its member of a query answer, already
encoded (:func:`hit_member`).  Its fingerprint is kept only in its slot of
a :class:`~geokb.fingerprint.GtdIndex`, the next slot when it is inserted.
The store is append-only: it never changes or removes an entry it holds
(to correct one, edit its file while the store is closed).  So the records
are one list by slot that only grows, and an insert appends its record and
publishes a new index with one more slot, copying nothing else of the
store.  The published index is the only snapshot: a reader takes it with
one attribute read and no lock, and reads no record at or beyond its
``size``.

The same names, closed facts and degree vectors recur from entry to entry,
and so do whole figures, so every stored side is passed through one
hash-cons table of the store (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): value -> the one object the store keeps for it (see
:func:`~geokb.matching.share`).  Entries whose figures have equal closed
facts and equal objects of each kind hold one side, with one plan.  Only
loading writes the table, and an insert, under the writer lock, once its
draft has passed the identifier check and the gate.  No other analysis (a
query, :meth:`Repository.find_duplicates`, the coherence check, an
insert's draft before the lock) shares its side.  So reads take no lock,
and a blocked, refused or colliding draft leaves nothing in the table: the
gate searches with the draft's own side, and only the stored record gets
the shared one.

Queries come in two families.  Text queries search the records' names or
terms (:mod:`~geokb.textindex`) and then apply filters; geometric queries
are :meth:`Repository.geometric_query`.  Inserts pass through a duplicate
gate, :meth:`Repository._gate`, which :meth:`Repository.find_duplicates`
shares: unless forced, a draft that is equal to a stored entry, or embeds
into one, is refused with a report, and a draft that stored entries embed
into is inserted with a warning.  Every embedding search of the store runs
in :meth:`Repository._embeddings`.  Those three docstrings state which
entries are searched, in which direction, how one search's outcome serves
several entries, and what a search that runs out of match budget gives.
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from itertools import islice
from json.encoder import encode_basestring
from operator import length_hint
from pathlib import Path

from .errors import (
    ConstructionError,
    EntryError,
    FilterError,
    IdentifierCollisionError,
    NotFoundError,
    SearchBudgetExceeded,
    StorageError,
)
from .fingerprint import Gtd, GtdIndex, gtd, parse_gtd, serialize_gtd
from .matching import DEFAULT_BUDGET, Embedding, MatchSide, embed_closed, holds, prepare, share, view
from .model import KINDS, PREDICATES, Construction, FactPair, fact_text, parse_construction
from .rules import RuleSet, closure, default_rules, sha256
from . import textindex

log = logging.getLogger(__name__)

#: all stored construction code uses the textual predicate format
CODE_FORMAT = "predicate"
FORMAT_VERSION = 2
#: versions that load; older ones are analysed again and rewritten
READABLE_VERSIONS = (1, FORMAT_VERSION)
ENTRY_KINDS = ("construction", "conjecture")

#: a legal entry identifier, also the stem of its file name
IDENTIFIER_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*\Z")


# slots: text search reads a field of every record and its entry per
# query, and an instance with a __dict__ keeps its fields in a separate block
@dataclass(frozen=True, slots=True)
class ProblemEntry:
    """One problem as a client sees it.  ``identifier`` may be left empty
    in drafts passed to :meth:`Repository.insert`, which then assigns the
    lowest unused ``GEO####``.  The store derives everything else it keeps
    of an entry (closure, fingerprint, text terms) from these fields.
    Building one raises :class:`EntryError` for a field of the wrong type
    or an illegal level, kind, language or identifier; a list of keywords
    is kept as a tuple."""

    identifier: str = ""
    name: str = ""
    description: str = ""
    short_description: str = ""
    keywords: tuple[str, ...] = ()
    code: str = ""
    language: str = "en"
    level: int = 3
    kind: str = "construction"

    def __post_init__(self) -> None:
        keywords = self.keywords
        if not isinstance(keywords, (list, tuple)) or not all(isinstance(k, str) for k in keywords):
            raise EntryError("Keywords must be an array of strings")
        object.__setattr__(self, "keywords", tuple(keywords))
        for member, field in ENTRY_MEMBERS.items():
            if member not in ("Keywords", "Level") and not isinstance(getattr(self, field), str):
                raise EntryError(f"{member} must be a string")
        level = self.level
        if isinstance(level, bool) or not isinstance(level, int) or not 1 <= level <= 5:
            raise EntryError(f"level must be an integer between 1 and 5, got {level!r}")
        if self.kind not in ENTRY_KINDS:
            raise EntryError(f"kind must be one of {ENTRY_KINDS}, got {self.kind!r}")
        if not self.language:
            raise EntryError("language must not be empty")
        if self.identifier and not IDENTIFIER_RE.match(self.identifier):
            raise EntryError(f"invalid identifier {self.identifier!r}")


@dataclass(frozen=True, slots=True)
class _Record:
    """What the store keeps of one entry in memory, bar its fingerprint
    (see :class:`Repository`); never changed once built."""

    entry: ProblemEntry
    side: MatchSide
    #: token -> field-weighted count over the text fields, for :mod:`~geokb.textindex`
    terms: dict[str, int]
    #: the entry's member of a query answer, from :func:`hit_member`
    hit: bytes


def hit_member(identifier: str, name: str, description: str, code: str) -> bytes:
    """One hit as a query answer carries it: ``"<identifier>": {"Name": ...,
    "Description": ..., "Code": ...}``, the text ``json.dumps`` writes with
    ``ensure_ascii=False``, in UTF-8 with each lone surrogate as its JSON
    escape (``\\ud800``)."""
    return (
        f'{encode_basestring(identifier)}: {{"Name": {encode_basestring(name)}, '
        f'"Description": {encode_basestring(description)}, "Code": {encode_basestring(code)}}}'
    ).encode("utf-8", "backslashreplace")


@dataclass(frozen=True)
class DuplicateReport:
    """Outcome of the duplicate gate.  The three lists are disjoint: an
    entry of the draft's fingerprint that the draft embeds into is an exact
    duplicate (the embedding is an isomorphism), and any other embedding
    falls in the list of its direction.  Either of the first two blocks an
    unforced insert."""

    exact_duplicates: tuple[str, ...] = ()
    containing_entries: tuple[str, ...] = ()
    contained_entries: tuple[str, ...] = ()


#: filter key -> whether an entry passes a clause with that key and its parsed value
FILTER_TESTS = {
    "format": lambda entry, value: value == CODE_FORMAT,
    "kind": lambda entry, value: entry.kind == value,
    "language": lambda entry, value: entry.language.lower() == str(value).lower(),
    "level": lambda entry, value: entry.level == value,
    "keyword": lambda entry, value: str(value).lower() in (k.lower() for k in entry.keywords),
}


@dataclass(frozen=True)
class FilterSet:
    """Conjunction of ``key=value`` predicates over entry metadata."""

    clauses: tuple[tuple[str, object], ...] = ()

    def __len__(self) -> int:
        return len(self.clauses)

    def matches(self, entry: ProblemEntry) -> bool:
        for key, value in self.clauses:
            if not FILTER_TESTS[key](entry, value):
                return False
        return True


EMPTY_FILTERS = FilterSet()


def parse_filters(text: str | None) -> FilterSet:
    """Parse ``key=value AND key=value ...``; no or empty text matches everything."""
    if not text or not text.strip():
        return EMPTY_FILTERS
    clauses: list[tuple[str, object]] = []
    for part in text.split(" AND "):
        part = part.strip()
        key, sep, value = part.partition("=")
        if not sep or not key or not value:
            raise FilterError(f"malformed filter {part!r} (expected key=value)")
        if key not in FILTER_TESTS:
            raise FilterError(f"unknown filter key: {key}")
        if key == "level":
            try:
                value = int(value)
            except ValueError:
                raise FilterError(f"level must be an integer, got {value!r}") from None
            if not 1 <= value <= 5:
                raise FilterError(f"level must be between 1 and 5, got {value}")
        elif key == "kind" and value not in ENTRY_KINDS:
            raise FilterError(f"kind must be one of {ENTRY_KINDS}, got {value!r}")
        clauses.append((key, value))
    return FilterSet(tuple(clauses))


#: an entry's own members, in the order the wire and the entry file carry
#: them, each with the :class:`ProblemEntry` field it holds
ENTRY_MEMBERS = {
    "Identifier": "identifier", "Name": "name", "Description": "description",
    "ShortDescription": "short_description", "Keywords": "keywords", "Code": "code",
    "Language": "language", "Level": "level", "Kind": "kind",
}


def entry_to_document(entry: ProblemEntry) -> dict:
    """An entry's own members; a draft with no identifier has no
    ``Identifier`` member."""
    doc = {member: getattr(entry, field) for member, field in ENTRY_MEMBERS.items()}
    doc["Keywords"] = list(entry.keywords)
    if not entry.identifier:
        del doc["Identifier"]
    return doc


def document_to_entry(doc: dict, extra: tuple[str, ...] = ()) -> ProblemEntry:
    """The entry a document's own members describe, with the defaults of
    :class:`ProblemEntry` for the optional ones.  :class:`EntryError` names
    a member that is in neither :data:`ENTRY_MEMBERS` nor ``extra``, or is
    raised by :class:`ProblemEntry` for an illegal one.  A missing ``Name``
    or ``Code`` raises KeyError, which each caller words for its boundary."""
    for member in doc:
        if member not in ENTRY_MEMBERS and member not in extra:
            raise EntryError(f"unknown entry member {member!r}")
    return ProblemEntry(**{
        field: doc[member]  # a missing Name or Code raises KeyError here
        for member, field in ENTRY_MEMBERS.items()
        if member in doc or member in ("Name", "Code")
    })


def cache_digest(doc: dict, ruleset: RuleSet) -> str:
    """SHA-256 over the members a trusted load takes from an entry document
    and what they were computed under: format version, rules and the fixed
    ``depth=2`` header of ``GTD``, hashed as the integer 2."""
    members = [FORMAT_VERSION, ruleset.digest, 2, *(doc.get(m) for m in ("Code", "Objects", "Closure", "GTD"))]
    return sha256(json.dumps(members, separators=(",", ":")).encode("ascii")).hexdigest()


def record_to_document(entry: ProblemEntry, side: MatchSide, fingerprint: Gtd, ruleset: RuleSet) -> dict:
    """The entry document of an entry and its analysis: the entry, the
    cached analysis and the digest over them."""
    doc = {
        **entry_to_document(entry),
        "GTD": serialize_gtd(fingerprint),
        # each kind lists its names sorted; the member sorts them across kinds
        "Objects": dict(sorted((n, kind) for kind, (names, _) in zip(KINDS, side.by_kind) for n in names)),
        "Closure": sorted(
            fact_text(predicate, args) for predicate, group in zip(PREDICATES, side.facts) for args in group
        ),
        "Digest": "",  # set below; the placeholder keeps the member order
        "Version": FORMAT_VERSION,
    }
    doc["Digest"] = cache_digest(doc, ruleset)
    return doc


def _read_closure(
    texts: object, objects: dict[str, str], parsed: dict[str, FactPair]
) -> list[FactPair] | None:
    """A ``Closure`` member as ``(predicate, args)`` pairs; None unless it is
    a list of facts in text form with known predicates and arguments
    declared in ``objects`` (name -> kind).  ``parsed`` maps each fact text
    already read to its pair, and is added to, so a text recurring across
    entries is parsed once; the arguments are checked for each entry."""
    if not isinstance(texts, list):
        return None
    facts = []
    try:
        for text in texts:
            fact = parsed.get(text)
            if fact is None:
                predicate, _, rest = text.partition("(")
                args = tuple(rest[:-1].split(", "))
                if rest[-1:] != ")" or len(args) != len(PREDICATES.get(predicate, ())):
                    return None
                fact = parsed[text] = (predicate, args)
            facts.append(fact)
    except (AttributeError, TypeError):  # not a string
        return None
    if not all(name in objects for _, args in facts for name in args):
        return None
    return facts


#: what ``_embeddings`` keeps for a search that ran out of match budget
_EXHAUSTED = object()


class Repository:
    """Persistent entry store bound to a data directory, holding one
    immutable record per entry (the entry, its matching side, its text
    terms and its encoded hit member) and an index of their fingerprints.

    Readers take no lock: each query reads ``_index`` once and reads only
    the records in the slots below its ``size``, which no one changes.
    Writers (:meth:`insert`) hold one lock from the identifier and
    duplicate checks to publishing an index with their slot, so two writers
    never pass the gate on the same state, and a reader sees all of a write
    or none of it.  :meth:`get` and :meth:`hits` find a record by its
    identifier through ``_slots``.  A request's analysis (parsing, closure
    and fingerprint) reads no stored state, so it runs before the lock is
    taken.
    """

    def __init__(self, data_dir: str | os.PathLike[str], ruleset: RuleSet | None = None):
        self._dir = Path(data_dir)
        self._entries_dir = self._dir / "entries"
        self._entries_dir.mkdir(parents=True, exist_ok=True)
        self._rules = default_rules() if ruleset is None else ruleset
        #: held by writers only
        self._lock = threading.Lock()
        #: slot -> record; only appended to, shared by all readers
        self._records: list[_Record] = []
        #: slot -> its entry's identifier, appended beside ``_records``: a
        #: sort key for slots that reads no record
        self._identifiers: list[str] = []
        #: identifier -> slot; only added to and never iterated, since a
        #: dict that grows while it is iterated raises RuntimeError
        self._slots: dict[str, int] = {}
        #: the published snapshot: replaced by each insert, never mutated
        self._index = GtdIndex()
        #: stems of entry files that failed to load; never reused
        self._quarantined: set[str] = set()
        #: every GEO#### below it is taken; entries are never deleted
        self._next_number = 1
        #: the hash-cons table of every stored side; written by loading and
        #: by writers under the lock only
        self._shared: dict = {}
        self._load()

    # -- properties ------------------------------------------------------

    @property
    def data_dir(self) -> Path:
        return self._dir

    @property
    def ruleset(self) -> RuleSet:
        return self._rules

    def __len__(self) -> int:
        return self._index.size

    # -- loading and persistence -----------------------------------------

    def _load(self) -> None:
        fingerprints: list[Gtd] = []  # by slot; the index built from them keeps the only copy
        parsed: dict[str, FactPair] = {}  # fact text -> its pair, for every Closure member read
        for path in sorted(self._entries_dir.glob("*.json"), key=lambda path: path.name):
            if path.name.startswith("."):
                continue  # hidden names, such as an editor's lock link .#GEO0001.json
            try:
                entry, doc = self._read(path)
                cached = self._cached_analysis(doc, parsed)
                side, fingerprint = cached or self._analyze(parse_construction(entry.code))
            except (StorageError, EntryError, ConstructionError) as exc:
                log.error("skipping entry file %s, left as it is: %s", path.name, exc)
                self._quarantined.add(path.stem)
                continue
            if cached is None:
                log.warning("refreshing stale fingerprint cache of %s", entry.identifier)
                try:
                    self._store(entry, side, fingerprint)
                except StorageError as exc:
                    log.error("entry file %s left stale, served from its code: %s", path.name, exc)
            self._append(entry, side)
            fingerprints.append(fingerprint)
        self._index = GtdIndex.build(fingerprints)

    def _read(self, path: Path) -> tuple[ProblemEntry, dict]:
        """An entry file's entry and document; raises StorageError or
        EntryError when the file cannot be loaded as that entry."""
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise StorageError(f"unreadable: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # also undecodable UTF-8, or nested too deep
            raise StorageError(f"not JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise StorageError("entry document must be a JSON object")
        version = doc.get("Version")
        if version not in READABLE_VERSIONS:
            raise StorageError(f"unsupported entry format version {version!r}")
        try:
            entry = document_to_entry(doc, extra=("GTD", "Objects", "Closure", "Digest", "Version"))
        except KeyError as exc:
            raise StorageError(f"entry document missing member {exc.args[0]!r}") from None
        if entry.identifier != path.stem:
            raise StorageError(f"holds identifier {entry.identifier!r}")
        return entry, doc

    def _cached_analysis(self, doc: dict, parsed: dict[str, FactPair]) -> tuple[MatchSide, Gtd] | None:
        """The side and fingerprint a current-version document's cache holds,
        or None unless its digest matches and its members are well formed;
        see :func:`_read_closure` for ``parsed``."""
        if doc.get("Version") != FORMAT_VERSION or doc.get("Digest") != cache_digest(doc, self._rules):
            return None
        objects = doc.get("Objects")
        if not isinstance(objects, dict) or not all(kind in KINDS for kind in objects.values()):
            return None
        closed = _read_closure(doc.get("Closure"), objects, parsed)
        if closed is None or not isinstance(doc.get("GTD"), str):
            return None
        try:
            fingerprint = parse_gtd(doc["GTD"])
        except ValueError:
            return None
        return prepare(objects, closed), fingerprint

    def _analyze(self, construction: Construction) -> tuple[MatchSide, Gtd]:
        closed = closure(construction, self._rules)
        side = prepare(construction.kinds, closed)
        return side, gtd(construction, closed)

    def _store(self, entry: ProblemEntry, side: MatchSide, fingerprint: Gtd) -> None:
        """Write an analysed entry to its entry file; on any failure the temp
        file is removed."""
        temp = self._entries_dir / f".{entry.identifier}.json.tmp"
        document = record_to_document(entry, side, fingerprint, self._rules)
        text = json.dumps(document, ensure_ascii=False, indent=2)
        try:
            try:
                temp.write_bytes((text + "\n").encode("utf-8", "backslashreplace"))
                os.replace(temp, self._entries_dir / f"{entry.identifier}.json")
            finally:
                temp.unlink(missing_ok=True)  # already gone once replaced
        except OSError as exc:
            raise StorageError(f"cannot persist {entry.identifier}: {exc}") from exc

    def _append(self, entry: ProblemEntry, side: MatchSide) -> None:
        """Keep an analysed entry in the next slot: its record, holding the
        store's shared copy of its side, then its identifier, then its slot.
        A reader that finds the identifier finds its record; an insert
        publishes the slot in the index after this."""
        hit = hit_member(entry.identifier, entry.name, entry.description, entry.code)
        self._records.append(_Record(entry, share(side, self._shared), textindex.terms(entry), hit))
        self._identifiers.append(entry.identifier)
        self._slots[entry.identifier] = len(self._records) - 1

    def _next_identifier(self) -> str:
        while True:
            candidate = f"GEO{self._next_number:04d}"
            if candidate not in self._slots and candidate not in self._quarantined:
                return candidate
            self._next_number += 1

    # -- embedding searches and the duplicate gate ---------------------------

    def _embeddings(
        self, side: MatchSide, slots: Iterable[int], checked: str, backward: bool = False
    ) -> Iterator[tuple[int, str, tuple[str, ...]]]:
        """Each slot, its identifier and an embedding, for the ``slots``
        whose entries the search finds one for: of ``side`` into the stored
        side, or ``backward``, of the stored side into ``side``.  A slot is
        settled only when the one before it is yielded or found not to
        embed.  A search that runs out of match budget counts as no match,
        with a warning naming ``checked % identifier``.

        Forward, each distinct :func:`~geokb.matching.view` that ``side``
        has of the stored sides met is settled once, since a search reads
        nothing else of its target; the view of a shared side holds shared
        objects, so equal views compare member by member at the cost of an
        identity test.  A view met for the first time is first checked
        against the target names of the last hit yielded
        (:func:`~geokb.matching.holds`), which then are its embedding, and
        is searched only if they do not fit it.  So a hit's embedding is
        the names carried to its view or the first its view's search found,
        and a view those names fit is a hit even where a search would run
        out of budget; with no hit yet, nothing is carried.  Backward, each
        stored side met is searched once, with no names carried, since each
        is a different query: it is one object per distinct side, kept for
        the life of the store, so its id keys what its search found.
        Either way a search that ran out of budget is warned about again
        for each slot its outcome is reused for.  Backward, the searches
        share one dict of the names of ``side`` that fit each need, since
        it is the target of each."""
        records, identifiers = self._records, self._identifiers
        fitting: dict[tuple, list[str]] | None = {} if backward else None
        searched: dict[object, object] = {}
        witness: tuple[str, ...] | None = None  # forward, the target names of the last hit yielded
        for slot in slots:
            stored = records[slot].side
            key = id(stored) if backward else view(side, stored)
            found = searched.get(key)
            if found is None:
                if witness is not None and holds(side, stored, witness):
                    found = [witness]
                else:
                    query, target = (stored, side) if backward else (side, stored)
                    try:
                        found = embed_closed(query, target, 1, fitting, budget=DEFAULT_BUDGET)
                    except SearchBudgetExceeded:
                        found = _EXHAUSTED
                searched[key] = found
            if found is _EXHAUSTED:
                log.warning(
                    "match budget exhausted while checking %s; treating as no match",
                    checked % identifiers[slot],
                )
            elif found:
                if not backward:
                    witness = found[0]
                yield slot, identifiers[slot], found[0]

    def _gate(
        self, side: MatchSide, fingerprint: Gtd
    ) -> tuple[tuple[str, ...], tuple[str, ...], Iterator[str], Iterator[int]]:
        """The duplicate gate of a draft's side and fingerprint.  The index
        gives its candidates in both directions: the entries whose
        fingerprint dominates the draft's, and those whose fingerprint the
        draft's dominates.  Each is searched at most once, by
        :meth:`_embeddings`, for one embedding, and no witness is read.
        Those that dominate are searched first, forward (the draft into
        each), so at most once per view, and alone decide whether an
        unforced insert is blocked; one is an exact duplicate if its
        fingerprint also equals the draft's.  The others are searched
        backward, into the draft, sharing the draft's names that fit each
        need, and only as their identifiers are read.

        Returns the exact duplicates and the containing entries; the
        identifiers of the entries that embed into the draft, each searched
        only when read; and the iterator of the slots those searches have
        not reached.  All in identifier order."""
        index, identifiers = self._index, self._identifiers
        dominating = sorted(index.dominating(fingerprint), key=identifiers.__getitem__)
        dominated = set(index.dominated(fingerprint))
        exact: list[str] = []
        containing: list[str] = []
        for slot, identifier, _ in self._embeddings(side, dominating, "draft against %s"):
            # equal fingerprints mean equal object and fact counts, so an
            # injective embedding either way is a bijection whose inverse embeds back
            (exact if slot in dominated else containing).append(identifier)
        unsearched = iter(sorted(dominated.difference(dominating), key=identifiers.__getitem__))
        searches = self._embeddings(side, unsearched, "%s against draft", backward=True)
        return tuple(exact), tuple(containing), (identifier for _, identifier, _ in searches), unsearched

    def find_duplicates(self, construction: Construction) -> DuplicateReport:
        """Compare a draft construction against the stored entries; only
        those the fingerprint index pairs with it in either direction are
        matched, and every one of them is."""
        exact, containing, contained, _ = self._gate(*self._analyze(construction))
        return DuplicateReport(exact, containing, tuple(contained))

    # -- inserts -----------------------------------------------------------

    def insert(self, draft: ProblemEntry, force: bool = False) -> str | DuplicateReport:
        """Store a draft unless the duplicate gate blocks it.

        Returns the assigned identifier on success, or a
        :class:`DuplicateReport` (and stores nothing) when an unforced
        insert collides with an equal or containing entry; that report is
        the whole one :meth:`find_duplicates` gives.  An unforced insert that
        goes through logs the first five stored entries it extends, and its
        backward searches stop at the fifth embedding.
        """
        side, fingerprint = self._analyze(parse_construction(draft.code))
        with self._lock:
            if draft.identifier:
                if draft.identifier in self._slots or draft.identifier in self._quarantined:
                    raise IdentifierCollisionError(
                        f"identifier {draft.identifier} is already taken"
                    )
                identifier = draft.identifier
            else:
                identifier = self._next_identifier()
            if not force:
                exact, containing, contained, unsearched = self._gate(side, fingerprint)
                if exact or containing:
                    return DuplicateReport(exact, containing, tuple(contained))
                # an inserted answer names no stored entry, so only this line
                # reads the backward searches, and it names five
                extended = list(islice(contained, 5))
                if extended:
                    log.warning(
                        "insert %s extends stored entries %s; backward candidates left unsearched: %d",
                        identifier,
                        ", ".join(extended),
                        length_hint(unsearched),  # exact for a list's iterator
                    )
            entry = replace(draft, identifier=identifier)
            self._store(entry, side, fingerprint)
            index = self._index.with_slot(fingerprint)
            # the gate searched with the draft's own side; only the record
            # shares.  The index goes last: a reader that finds a slot of it
            # always finds its record
            self._append(entry, side)
            self._index = index
            return identifier

    # -- queries -----------------------------------------------------------

    def get(self, identifier: str) -> ProblemEntry:
        try:
            return self._records[self._slots[identifier]].entry
        except KeyError:
            raise NotFoundError(f"no entry {identifier!r}") from None

    def hits(self, identifiers: list[str]) -> list[bytes]:
        """Each entry's member of a query answer (:func:`hit_member`), in the
        order given.  Identifiers from any earlier answer are valid, since
        a record is never replaced or removed."""
        records, slots = self._records, self._slots
        return [records[slots[identifier]].hit for identifier in identifiers]

    def text_query(
        self, text: str, mode: str = "simple", filters: FilterSet = EMPTY_FILTERS
    ) -> list[str]:
        """Identifiers matching a text query, filtered; simple mode is
        ordered by identifier, extended mode by score."""
        records = self._records[: self._index.size]
        if mode == "simple":
            identifiers = textindex.simple_search(text, records)
        elif mode == "extended":
            identifiers = [identifier for identifier, _ in textindex.extended_search(text, records)]
        else:
            raise ValueError(f"mode must be one of {textindex.MODES}, got {mode!r}")
        if not filters:
            return identifiers
        return [i for i in identifiers if filters.matches(self.get(i))]

    def geometric_query(
        self,
        query: Construction,
        filters: FilterSet = EMPTY_FILTERS,
        confirm: bool = True,
    ) -> list[tuple[str, Embedding | None]]:
        """Entries whose cached fingerprint dominates the query's, in
        ascending string order of identifiers (``GEO10000`` sorts between
        ``GEO1000`` and ``GEO1001``), read from the index and filtered; the
        query is prepared for matching only if a candidate is left.

        With ``confirm`` the candidates are checked by exact embedding and
        non-matches dropped; candidates whose check exhausts the match
        budget are dropped with a logged warning.  Each hit comes with an
        embedding into its entry: an earlier hit's, where it fits, else the
        first a search of the entry's view finds (see :meth:`_embeddings`).
        Consecutive hits with one witness share one :class:`Embedding`, which
        is frozen, so a 1,000-hit answer whose hits all share the last hit's
        names builds one.
        """
        closed = closure(query, self._rules)
        records, identifiers = self._records, self._identifiers
        candidates = sorted(self._index.dominating(gtd(query, closed)), key=identifiers.__getitem__)
        if filters:
            candidates = [slot for slot in candidates if filters.matches(records[slot].entry)]
        if not confirm or not candidates:
            return [(identifiers[slot], None) for slot in candidates]
        side = prepare(query.kinds, closed)
        hits = []
        last = embedding = None
        for _, identifier, found in self._embeddings(side, candidates, "query against %s"):
            if found is not last:
                last, embedding = found, Embedding(side, found)
            hits.append((identifier, embedding))
        return hits

    def check_cache_coherence(self) -> list[str]:
        """Identifiers whose record (objects, degrees and closed facts) or
        slot of the published index (fingerprint) disagrees with a fresh
        analysis of the entry's code, or whose code no longer parses; always
        empty unless entry files were edited behind the repository's back."""
        index = self._index
        held = index.fingerprints()
        stale = []
        for slot, record in enumerate(self._records[: index.size]):
            identifier = record.entry.identifier
            try:
                side, fingerprint = self._analyze(parse_construction(record.entry.code))
            except ConstructionError:
                stale.append(identifier)
                continue
            if held[slot] != fingerprint or side != record.side:
                stale.append(identifier)
        return sorted(stale)
