"""Request/response codec for the JSON-over-TCP repository protocol.

Every message is one newline-terminated single-line JSON object.  A
request carries exactly one primary member:

    {"Query": "<text>", "Filters": "<f1 AND f2 AND ...>"}
    {"GeometricQuery": "<construction text>", "Confirm": false}
    {"Insert": {"Name": ..., "Code": ..., ...}, "Force": true}

``Filters`` is optional on both query forms.  ``Mode`` ("simple", the
default, or "extended") applies to text queries only, ``Confirm`` (default
true) to geometric queries only and ``Force`` (default false) to inserts
only.  Unknown members are rejected, as are filter strings that do not
parse.

Responses are one of three shapes: a mapping from entry identifiers to
``{"Name", "Description", "Code"}`` objects for queries (``{}`` when
nothing matched), an object with ``Status``/``Identifier``/``Duplicates``
for inserts, and ``{"Error": "..."}`` for failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import FilterError, ProtocolError
from .repository import DuplicateReport, ProblemEntry, parse_filters

_REQUEST_PRIMARIES = ("Query", "GeometricQuery", "Insert")
_DRAFT_MEMBERS = (
    "Identifier",
    "Name",
    "Description",
    "ShortDescription",
    "Keywords",
    "Code",
    "Language",
    "Level",
    "Kind",
)


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


def draft_to_document(draft: ProblemEntry) -> dict:
    """Wire form of an insert draft (no fingerprint, no format version)."""
    doc: dict = {}
    if draft.identifier:
        doc["Identifier"] = draft.identifier
    doc.update(
        {
            "Name": draft.name,
            "Description": draft.description,
            "ShortDescription": draft.short_description,
            "Keywords": list(draft.keywords),
            "Code": draft.code,
            "Language": draft.language,
            "Level": draft.level,
            "Kind": draft.kind,
        }
    )
    return doc


def document_to_draft(doc: object) -> ProblemEntry:
    _require(isinstance(doc, dict), "Insert must be a JSON object")
    assert isinstance(doc, dict)
    for member in doc:
        _require(member in _DRAFT_MEMBERS, f"unknown Insert member {member!r}")
    for member in ("Name", "Code"):
        _require(member in doc, f"Insert requires member {member!r}")
    keywords = doc.get("Keywords", [])
    _require(
        isinstance(keywords, list) and all(isinstance(k, str) for k in keywords),
        "Keywords must be an array of strings",
    )
    for member in ("Identifier", "Name", "Description", "ShortDescription", "Code", "Language", "Kind"):
        if member in doc:
            _require(isinstance(doc[member], str), f"{member} must be a string")
    if "Level" in doc:
        _require(
            isinstance(doc["Level"], int) and not isinstance(doc["Level"], bool),
            "Level must be an integer",
        )
    return ProblemEntry(
        identifier=doc.get("Identifier", ""),
        name=doc["Name"],
        description=doc.get("Description", ""),
        short_description=doc.get("ShortDescription", ""),
        keywords=tuple(keywords),
        code=doc["Code"],
        language=doc.get("Language", "en"),
        level=doc.get("Level", 3),
        kind=doc.get("Kind", "construction"),
    )


def _validate_filters(text: str) -> None:
    try:
        parse_filters(text)
    except FilterError as exc:
        raise ProtocolError(str(exc)) from exc


def encode_request(request: QueryRequest) -> bytes:
    """One newline-terminated JSON line; inverse of :func:`decode_request`."""
    primaries = [
        value is not None for value in (request.query, request.geometric, request.insert)
    ]
    _require(sum(primaries) == 1, "exactly one of Query, GeometricQuery, Insert is required")
    _require(request.mode in ("simple", "extended"), f"unknown mode {request.mode!r}")
    members: dict = {}
    if request.query is not None:
        members["Query"] = request.query
        if request.filters is not None:
            members["Filters"] = request.filters
        if request.mode != "simple":
            members["Mode"] = request.mode
        _require(request.confirm, "Confirm applies to geometric queries only")
        _require(not request.force, "Force applies to inserts only")
    elif request.geometric is not None:
        members["GeometricQuery"] = request.geometric
        if request.filters is not None:
            members["Filters"] = request.filters
        if not request.confirm:
            members["Confirm"] = False
        _require(request.mode == "simple", "Mode applies to text queries only")
        _require(not request.force, "Force applies to inserts only")
    else:
        members["Insert"] = draft_to_document(request.insert)
        if request.force:
            members["Force"] = True
        _require(request.filters is None, "Filters do not apply to inserts")
        _require(request.mode == "simple", "Mode applies to text queries only")
        _require(request.confirm, "Confirm applies to geometric queries only")
    # Filter strings are validated on decode, so a client with a bad filter
    # still reaches the server and gets the Error response.
    return (json.dumps(members, ensure_ascii=False) + "\n").encode("utf-8")


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
    present = [m for m in _REQUEST_PRIMARIES if m in obj]
    _require(
        len(present) == 1,
        "exactly one of Query, GeometricQuery, Insert is required",
    )
    primary = present[0]
    allowed = {
        "Query": ("Query", "Filters", "Mode"),
        "GeometricQuery": ("GeometricQuery", "Filters", "Confirm"),
        "Insert": ("Insert", "Force"),
    }[primary]
    for member in obj:
        _require(member in allowed, f"unknown request member {member!r}")

    filters = obj.get("Filters")
    if filters is not None:
        _require(isinstance(filters, str), "Filters must be a string")
        _validate_filters(filters)

    if primary == "Query":
        _require(isinstance(obj["Query"], str), "Query must be a string")
        mode = obj.get("Mode", "simple")
        _require(mode in ("simple", "extended"), f"unknown mode {mode!r}")
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


def encode_response(response: QueryResponse) -> bytes:
    return (json.dumps(response_to_document(response), ensure_ascii=False) + "\n").encode("utf-8")


def _decode_insert_result(obj: dict) -> InsertResult:
    for member in obj:
        _require(
            member in ("Status", "Identifier", "Duplicates"),
            f"unknown response member {member!r}",
        )
    status = obj["Status"]
    _require(status in ("inserted", "duplicate"), f"unknown insert status {status!r}")
    identifier = obj.get("Identifier")
    _require(
        identifier is None or isinstance(identifier, str), "Identifier must be a string or null"
    )
    duplicates = obj.get("Duplicates", {})
    _require(isinstance(duplicates, dict), "Duplicates must be an object")
    lists = {}
    for member in ("Exact", "Containing", "Contained"):
        value = duplicates.get(member, [])
        _require(
            isinstance(value, list) and all(isinstance(i, str) for i in value),
            f"Duplicates.{member} must be an array of identifiers",
        )
        lists[member] = tuple(value)
    report = DuplicateReport(lists["Exact"], lists["Containing"], lists["Contained"])
    return InsertResult(status, identifier, report)


def decode_response(data: bytes | str) -> QueryResponse:
    """Classify and parse one response line."""
    obj = _parse_object(data, "response")
    # a hit's value is always an object, which tells hits named Error or Status apart
    if set(obj) == {"Error"} and not isinstance(obj["Error"], dict):
        _require(isinstance(obj["Error"], str), "Error must be a string")
        return ErrorResponse(obj["Error"])
    if not isinstance(obj.get("Status", {}), dict):
        return _decode_insert_result(obj)
    entries = []
    for identifier, info in obj.items():
        _require(isinstance(info, dict), f"entry {identifier!r} must be an object")
        _require(
            set(info) == {"Name", "Description", "Code"},
            f"entry {identifier!r} must have exactly Name, Description, Code",
        )
        for member in ("Name", "Description", "Code"):
            _require(isinstance(info[member], str), f"{member} must be a string")
        entries.append((identifier, EntryInfo(info["Name"], info["Description"], info["Code"])))
    return QueryResult(tuple(entries))
