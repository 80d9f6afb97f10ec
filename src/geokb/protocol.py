"""Request/response codec for the JSON-over-TCP repository protocol.

Every message is one newline-terminated single-line JSON object.  A
request carries exactly one primary member:

    {"Query": "<text>", "Filters": "<f1 AND f2 AND ...>"}
    {"GeometricQuery": "<construction text>", "Confirm": false}
    {"Insert": {"Name": ..., "Code": ..., ...}, "Force": true}

``Filters`` is optional on both query forms.  ``Mode`` ("simple", the
default, or "extended") applies to text queries only, ``Confirm`` (default
true) to geometric queries only and ``Force`` (default false) to inserts
only.  Unknown members are rejected.  A filter string is parsed only by the
server when it answers the request, so one that does not parse gets an
``Error`` response, not a decoding error.  ``Insert`` carries the entry's own
members as an entry file does (:func:`~geokb.repository.document_to_entry`
reads both), with ``Identifier`` left out of a draft that has none.

Responses are one of three shapes: a mapping from entry identifiers to
``{"Name", "Description", "Code"}`` objects for queries (``{}`` when
nothing matched), an object with ``Status``/``Identifier``/``Duplicates``
for inserts (``Identifier`` is null only for a duplicate), and
``{"Error": "..."}`` for failures.

A query answer is its hits' members joined (:func:`encode_hits`).  Each
member is the text :func:`~geokb.repository.hit_member` writes, and the
server sends the one it keeps, pre-encoded, with each stored entry.  Every
message is the text ``json.dumps`` writes with ``ensure_ascii=False``, in
UTF-8, except that a lone surrogate goes out as its JSON escape (such as
``\\ud800``).  UTF-8 cannot carry one, but such an escape in a request or
an entry file makes one, and so every answer can be sent and decodes to the
text it was made from.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import EntryError, ProtocolError
from .repository import (
    DuplicateReport,
    ProblemEntry,
    document_to_entry,
    entry_to_document,
)
from .textindex import MODES

#: primary member -> the members a request with it may carry, in wire order
_REQUEST_MEMBERS = {
    "Query": ("Query", "Filters", "Mode"),
    "GeometricQuery": ("GeometricQuery", "Filters", "Confirm"),
    "Insert": ("Insert", "Force"),
}


@dataclass(frozen=True)
class QueryRequest:
    """One request; exactly one of query/geometric/insert is set."""

    query: str | None = None
    geometric: str | None = None
    insert: ProblemEntry | None = None
    filters: str | None = None
    mode: str = "simple"
    confirm: bool = True
    force: bool = False


@dataclass(frozen=True)
class EntryInfo:
    name: str
    description: str
    code: str


@dataclass(frozen=True)
class QueryResult:
    """Hits in server order: (identifier, info) pairs."""

    entries: tuple[tuple[str, EntryInfo], ...] = ()


@dataclass(frozen=True)
class InsertResult:
    status: str  # "inserted" | "duplicate"
    identifier: str | None
    duplicates: DuplicateReport


@dataclass(frozen=True)
class ErrorResponse:
    error: str


QueryResponse = QueryResult | InsertResult | ErrorResponse


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def document_to_draft(doc: object) -> ProblemEntry:
    """The draft an ``Insert`` member describes."""
    _require(isinstance(doc, dict), "Insert must be a JSON object")
    try:
        return document_to_entry(doc)
    except KeyError as exc:
        raise ProtocolError(f"Insert requires member {exc.args[0]!r}") from None
    except EntryError as exc:
        raise ProtocolError(str(exc)) from exc


def _primary(members: dict) -> str:
    """The request's primary member, once its members are checked against
    :data:`_REQUEST_MEMBERS`."""
    present = [member for member in _REQUEST_MEMBERS if member in members]
    _require(len(present) == 1, "exactly one of Query, GeometricQuery, Insert is required")
    for member in members:
        _require(member in _REQUEST_MEMBERS[present[0]], f"unknown request member {member!r}")
    return present[0]


def encode_request(request: QueryRequest) -> bytes:
    """One newline-terminated JSON line; inverse of :func:`decode_request`.
    Members left at their defaults are not sent."""
    _require(request.mode in MODES, f"unknown mode {request.mode!r}")
    members = {
        "Query": request.query,
        "GeometricQuery": request.geometric,
        "Insert": None if request.insert is None else entry_to_document(request.insert),
        "Filters": request.filters,
        "Mode": None if request.mode == "simple" else request.mode,
        "Confirm": None if request.confirm else False,
        "Force": True if request.force else None,
    }
    members = {member: value for member, value in members.items() if value is not None}
    _primary(members)
    return (json.dumps(members, ensure_ascii=False) + "\n").encode("utf-8", "backslashreplace")


def _decode_line(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"message is not valid UTF-8: {exc}") from exc
    else:
        text = data
    text = text.rstrip("\r\n")
    _require("\n" not in text, "message must be a single line")
    return text


def _parse_object(data: bytes | str, what: str) -> dict:
    try:
        obj = json.loads(_decode_line(data))
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"malformed JSON in {what}: {exc}") from exc
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    return obj


def decode_request(data: bytes | str) -> QueryRequest:
    """Parse and validate one request line."""
    obj = _parse_object(data, "request")
    primary = _primary(obj)
    filters = obj.get("Filters")
    _require(filters is None or isinstance(filters, str), "Filters must be a string")
    if primary == "Query":
        _require(isinstance(obj["Query"], str), "Query must be a string")
        mode = obj.get("Mode", "simple")
        _require(mode in MODES, f"unknown mode {mode!r}")
        return QueryRequest(query=obj["Query"], filters=filters, mode=mode)
    if primary == "GeometricQuery":
        _require(isinstance(obj["GeometricQuery"], str), "GeometricQuery must be a string")
        confirm = obj.get("Confirm", True)
        _require(isinstance(confirm, bool), "Confirm must be a boolean")
        return QueryRequest(geometric=obj["GeometricQuery"], filters=filters, confirm=confirm)
    force = obj.get("Force", False)
    _require(isinstance(force, bool), "Force must be a boolean")
    return QueryRequest(insert=document_to_draft(obj["Insert"]), force=force)


def response_to_document(response: QueryResponse) -> dict:
    """Plain JSON-ready form of a response (also handy for printing)."""
    if isinstance(response, ErrorResponse):
        return {"Error": response.error}
    if isinstance(response, InsertResult):
        return {
            "Status": response.status,
            "Identifier": response.identifier,
            "Duplicates": {
                "Exact": list(response.duplicates.exact_duplicates),
                "Containing": list(response.duplicates.containing_entries),
                "Contained": list(response.duplicates.contained_entries),
            },
        }
    return {
        identifier: {
            "Name": info.name,
            "Description": info.description,
            "Code": info.code,
        }
        for identifier, info in response.entries
    }


def encode_hits(members: list[bytes]) -> bytes:
    """The response line of a query answer whose hits have these members
    (:func:`~geokb.repository.hit_member`), in order."""
    return b"{" + b", ".join(members) + b"}\n"


def encode_response(response: QueryResponse) -> bytes:
    """One newline-terminated response line; inverse of :func:`decode_response`."""
    text = json.dumps(response_to_document(response), ensure_ascii=False)
    return (text + "\n").encode("utf-8", "backslashreplace")


def _decode_insert_result(obj: dict) -> InsertResult:
    for member in obj:
        _require(
            member in ("Status", "Identifier", "Duplicates"),
            f"unknown response member {member!r}",
        )
    status, identifier = obj["Status"], obj.get("Identifier")
    _require(status in ("inserted", "duplicate"), f"unknown insert status {status!r}")
    _require(
        isinstance(identifier, str) if status == "inserted" else identifier is None,
        "Identifier must be a string for an inserted entry and null for a duplicate",
    )
    duplicates = obj.get("Duplicates", {})
    _require(isinstance(duplicates, dict), "Duplicates must be an object")
    members = ("Exact", "Containing", "Contained")
    for member in duplicates:
        _require(member in members, f"unknown Duplicates member {member!r}")
    lists = []
    for member in members:
        value = duplicates.get(member, [])
        _require(
            isinstance(value, list) and all(isinstance(i, str) for i in value),
            f"Duplicates.{member} must be an array of identifiers",
        )
        lists.append(tuple(value))
    return InsertResult(status, identifier, DuplicateReport(*lists))


def _hit_error(identifier: str, info: object) -> ProtocolError:
    """Why a hit is not an object of exactly three strings."""
    if not isinstance(info, dict):
        return ProtocolError(f"entry {identifier!r} must be an object")
    if set(info) != {"Name", "Description", "Code"}:
        return ProtocolError(f"entry {identifier!r} must have exactly Name, Description, Code")
    member = next(m for m in ("Name", "Description", "Code") if not isinstance(info[m], str))
    return ProtocolError(f"{member} must be a string")


def decode_response(data: bytes | str) -> QueryResponse:
    """Classify and parse one response line."""
    obj = _parse_object(data, "response")
    # a hit's value is always an object, which tells hits named Error or Status apart
    if len(obj) == 1 and "Error" in obj and not isinstance(obj["Error"], dict):
        _require(isinstance(obj["Error"], str), "Error must be a string")
        return ErrorResponse(obj["Error"])
    if not isinstance(obj.get("Status", {}), dict):
        return _decode_insert_result(obj)
    entries = []
    for identifier, info in obj.items():
        # three string members are exactly Name, Description and Code
        if isinstance(info, dict) and len(info) == 3:
            name, description, code = info.get("Name"), info.get("Description"), info.get("Code")
            if isinstance(name, str) and isinstance(description, str) and isinstance(code, str):
                entries.append((identifier, EntryInfo(name, description, code)))
                continue
        raise _hit_error(identifier, info)
    return QueryResult(tuple(entries))
