from __future__ import annotations

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from geokb.errors import ProtocolError
from geokb.protocol import (
    EntryInfo,
    ErrorResponse,
    InsertResult,
    QueryRequest,
    QueryResult,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from geokb.repository import DuplicateReport, ProblemEntry

from generators import awkward_text
from oracles import standard_encoding

GOLDEN = Path(__file__).parent / "golden"

DRAFT = ProblemEntry(
    name="Plain Triangle",
    description="desc",
    short_description="short",
    keywords=("triangle", "demo"),
    code="point A\n",
    level=2,
    kind="construction",
)


# -- golden byte shapes --------------------------------------------------------


def test_plain_text_query_bytes_match_golden_file():
    encoded = encode_request(QueryRequest(query="ceva"))
    assert encoded == (GOLDEN / "request_query.json").read_bytes()
    members = list(json.loads(encoded.decode("utf-8")))
    assert members == ["Query"]


def test_filtered_text_query_bytes_match_golden_file():
    encoded = encode_request(
        QueryRequest(query="ceva", filters="kind=conjecture AND level=4")
    )
    assert encoded == (GOLDEN / "request_query_filters.json").read_bytes()
    members = list(json.loads(encoded.decode("utf-8")))
    assert members == ["Query", "Filters"]


def test_requests_are_single_newline_terminated_lines():
    for request in (
        QueryRequest(query="x"),
        QueryRequest(geometric="point A\n", confirm=False),
        QueryRequest(insert=DRAFT, force=True),
    ):
        encoded = encode_request(request)
        assert encoded.endswith(b"\n")
        assert encoded.count(b"\n") == 1


# -- round trips ----------------------------------------------------------------


@pytest.mark.parametrize(
    "request_",
    [
        QueryRequest(query="ceva"),
        QueryRequest(query="", filters="level=3"),
        QueryRequest(query="ceva", mode="extended"),
        QueryRequest(query="tri", filters="kind=conjecture", mode="extended"),
        QueryRequest(query="a", filters="colour=blue"),  # the server parses filters
        QueryRequest(geometric="point A\nline l\nincident(A, l)\n"),
        QueryRequest(geometric="point A\n", confirm=False),
        QueryRequest(geometric="point A\n", filters="keyword=triangle", confirm=False),
        QueryRequest(insert=DRAFT),
        QueryRequest(insert=DRAFT, force=True),
        QueryRequest(insert=ProblemEntry(identifier="GEO1234", name="n", code="")),
    ],
)
def test_request_round_trip(request_):
    assert decode_request(encode_request(request_)) == request_


@given(st.text(max_size=80).filter(lambda s: "\n" not in s))
def test_request_round_trip_arbitrary_query_text(text):
    request = QueryRequest(query=text)
    assert decode_request(encode_request(request)) == request


def test_response_round_trips():
    responses = [
        ErrorResponse("unknown filter key: colour"),
        InsertResult("inserted", "GEO0042", DuplicateReport()),
        InsertResult(
            "duplicate", None, DuplicateReport(("GEO0001",), ("GEO0002",), ("GEO0003",))
        ),
        QueryResult(()),
        QueryResult(
            (
                ("GEO_CEVA", EntryInfo("Ceva's Theorem", "Cevians.", "point A\n")),
                ("GEO0003", EntryInfo("Thales' Theorem", "Reflexão, ângulo.", "circle k\n")),
            )
        ),
    ]
    for response in responses:
        assert decode_response(encode_response(response)) == response


def test_zero_hit_response_is_empty_object():
    assert encode_response(QueryResult(())) == b"{}\n"
    assert decode_response(b"{}\n") == QueryResult(())


def test_response_preserves_server_ordering():
    ordered = QueryResult(
        (
            ("Z", EntryInfo("z", "", "")),
            ("A", EntryInfo("a", "", "")),
        )
    )
    decoded = decode_response(encode_response(ordered))
    assert [identifier for identifier, _ in decoded.entries] == ["Z", "A"]


@pytest.mark.parametrize("identifier", ["Error", "Status"])
def test_hit_named_like_a_response_member_decodes_as_query_result(identifier):
    response = QueryResult(((identifier, EntryInfo("n", "d", "point A\n")),))
    assert decode_response(encode_response(response)) == response


def test_unicode_survives_the_wire():
    response = QueryResult((("GEO0015", EntryInfo("Simetria Axial", "Reflexão no eixo é", "")),))
    encoded = encode_response(response)
    assert "Reflexão".encode("utf-8") in encoded
    assert decode_response(encoded) == response


# -- decode errors -----------------------------------------------------------------


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"not json\n", "malformed JSON"),
        (b"[1, 2]\n", "must be a JSON object"),
        (b'{"Query": "a", "GeometricQuery": "b"}\n', "exactly one of"),
        (b"{}\n", "exactly one of"),
        (b'{"Query": "a", "Unknown": 1}\n', "unknown request member"),
        (b'{"Query": 5}\n', "Query must be a string"),
        (b'{"Query": "a", "Filters": 3}\n', "Filters must be a string"),
        (b'{"Query": "a", "Mode": "fuzzy"}\n', "unknown mode"),
        (b'{"Query": "a", "Confirm": false}\n', "unknown request member"),
        (b'{"GeometricQuery": "x", "Mode": "extended"}\n', "unknown request member"),
        (b'{"GeometricQuery": "x", "Confirm": "yes"}\n', "Confirm must be a boolean"),
        (b'{"Insert": {"Name": "x"}}\n', "Insert requires member 'Code'"),
        (b'{"Insert": {"Code": "x"}}\n', "Insert requires member 'Name'"),
        (b'{"Insert": "text"}\n', "Insert must be a JSON object"),
        (b'{"Insert": {"Name": "x", "Code": "", "Surprise": 1}}\n', "unknown entry member 'Surprise'"),
        (b'{"Insert": {"Name": "x", "Code": "", "Level": "high"}}\n', "level must be an integer between 1 and 5, got 'high'"),
        (b'{"Insert": {"Name": "x", "Code": "", "Level": true}}\n', "level must be an integer between 1 and 5, got True"),
        (b'{"Insert": {"Name": "x", "Code": "", "Level": 9}}\n', "level must be an integer between 1 and 5, got 9"),
        (b'{"Insert": {"Name": "x", "Code": "", "Kind": "sonnet"}}\n', "kind must be one of"),
        (b'{"Insert": {"Name": "x", "Code": "", "Language": ""}}\n', "language must not be empty"),
        (b'{"Insert": {"Name": "x", "Code": "", "Identifier": "../evil"}}\n', "invalid identifier"),
        (b'{"Insert": {"Name": "x", "Code": "", "Keywords": "a"}}\n', "Keywords must be an array"),
        (b'{"Insert": {"Name": "x", "Code": ""}, "Force": 1}\n', "Force must be a boolean"),
        (b'{"Query": "a"}\n{"Query": "b"}\n', "single line"),
        (b"\xff\xfe\n", "not valid UTF-8"),
    ],
)
def test_decode_request_rejections(payload, message):
    with pytest.raises(ProtocolError, match=message):
        decode_request(payload)


def test_encode_rejects_inconsistent_requests():
    with pytest.raises(ProtocolError):
        encode_request(QueryRequest())
    with pytest.raises(ProtocolError):
        encode_request(QueryRequest(query="a", geometric="b"))
    with pytest.raises(ProtocolError):
        encode_request(QueryRequest(query="a", confirm=False))
    with pytest.raises(ProtocolError):
        encode_request(QueryRequest(query="a", force=True))
    with pytest.raises(ProtocolError):
        encode_request(QueryRequest(geometric="x", mode="extended"))
    with pytest.raises(ProtocolError):
        encode_request(QueryRequest(insert=DRAFT, filters="level=3"))


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"nope\n", "malformed JSON"),
        (b'{"GEO1": "flat string"}\n', "must be an object"),
        (b'{"GEO1": {"Name": "x"}}\n', "exactly Name, Description, Code"),
        (b'{"GEO1": {"Name": 1, "Description": "", "Code": ""}}\n', "must be a string"),
        (b'{"Status": "maybe"}\n', "unknown insert status"),
        (b'{"Status": "inserted", "Oops": 1}\n', "unknown response member"),
        (b'{"Error": 17}\n', "Error must be a string"),
        (b'{"Status": "inserted", "Identifier": null, "Duplicates": {}}\n', "string for an inserted entry"),
        (b'{"Status": "duplicate", "Identifier": "GEO0001", "Duplicates": {}}\n', "null for a duplicate"),
        (
            b'{"Status": "duplicate", "Identifier": null, "Duplicates": {"Exact": ["GEO0001"], "Bogus": 5}}\n',
            "unknown Duplicates member",
        ),
    ],
)
def test_decode_response_rejections(payload, message):
    with pytest.raises(ProtocolError, match=message):
        decode_response(payload)


@pytest.mark.parametrize(
    "hit, message",
    [
        ('"flat string"', "entry 'GEO1' must be an object"),
        ('["n", "d", "c"]', "entry 'GEO1' must be an object"),
        ('{"Name": "n", "Description": "d"}', "entry 'GEO1' must have exactly Name, Description, Code"),
        ('{"Name": "n", "Description": "d", "Kode": "c"}', "entry 'GEO1' must have exactly Name, Description, Code"),
        ('{"Name": "n", "Description": "d", "Code": "c", "Level": 3}', "entry 'GEO1' must have exactly Name, Description, Code"),
        ('{"Name": 1, "Description": "d", "Code": "c"}', "Name must be a string"),
        ('{"Name": "n", "Description": null, "Code": "c"}', "Description must be a string"),
        ('{"Name": "n", "Description": "d", "Code": ["c"]}', "Code must be a string"),
        ('{"Name": "n", "Description": 2, "Code": 3}', "Description must be a string"),
    ],
    ids=["string", "array", "missing", "misnamed", "extra", "name", "description", "code", "first-bad"],
)
def test_malformed_hit_gets_its_exact_error(hit, message):
    # a good hit first: the check runs on every hit, not only the first
    payload = f'{{"GEO0": {{"Name": "a", "Description": "", "Code": ""}}, "GEO1": {hit}}}\n'
    with pytest.raises(ProtocolError) as raised:
        decode_response(payload)
    assert str(raised.value) == message


def test_awkward_responses_are_the_standard_encoding_and_round_trip():
    rng = random.Random(0x5EED)
    identifiers = ["GEO0001", "GEO_CEVA", "Error", "Status", "x.y-z"]
    for _ in range(300):
        hits = tuple(
            (identifier, EntryInfo(awkward_text(rng), awkward_text(rng), awkward_text(rng)))
            for identifier in rng.sample(identifiers, rng.randint(0, 3))
        )
        for response in (QueryResult(hits), ErrorResponse(awkward_text(rng))):
            encoded = encode_response(response)
            assert encoded == standard_encoding(response)
            encoded.decode("utf-8")  # strict: a lone surrogate went out escaped
            assert decode_response(encoded) == response


def test_request_with_a_lone_surrogate_is_escaped_and_round_trips():
    request = QueryRequest(query="x", filters="\ud800=1")
    encoded = encode_request(request)
    assert encoded == b'{"Query": "x", "Filters": "\\ud800=1"}\n'
    assert decode_request(encoded) == request


def test_decode_accepts_line_without_trailing_newline():
    assert decode_request(b'{"Query": "ceva"}') == QueryRequest(query="ceva")
    assert decode_request('{"Query": "ceva"}\r\n') == QueryRequest(query="ceva")
