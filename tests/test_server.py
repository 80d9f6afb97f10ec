from __future__ import annotations

import contextlib
import gc
import json
import logging
import random
import socket
import struct
import sys
import threading
import time
from pathlib import Path

import pytest

from geokb.client import client_query, save_codes
from geokb.cli import client_main, server_main
from geokb import corpus
from geokb.corpus import ENTRIES, seed_repository
from geokb.errors import ProtocolError, TransportError
from geokb.matching import Embedding
from geokb.model import parse_construction
from geokb.protocol import (
    EntryInfo,
    ErrorResponse,
    InsertResult,
    QueryRequest,
    QueryResult,
    decode_request,
    decode_response,
    encode_request,
)
from geokb.repository import DuplicateReport, ProblemEntry, Repository
from geokb.server import IDLE_THREADS, LISTEN_BACKLOG, MAX_REQUEST_BYTES, GeoServer, handle_request

from generators import BARE_TRIANGLE_TEXT, TRIANGLE_WITH_CIRCLE_TEXT, awkward_text
from oracles import standard_encoding, stored_entries

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def serving(repository: Repository):
    srv = GeoServer(repository, host="127.0.0.1", port=0)
    # a short poll interval lets shutdown() return at once, not after up to 0.5 s
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=5)


@pytest.fixture()
def server(fresh_seeded_repo):
    with serving(fresh_seeded_repo) as srv:
        yield srv


@pytest.fixture()
def handler_threads(monkeypatch):
    """The threads that ran ``handle_request`` from now on; the references
    keep them distinct objects."""
    threads: set[threading.Thread] = set()

    def recording(repository, data):
        threads.add(threading.current_thread())
        return handle_request(repository, data)

    monkeypatch.setattr("geokb.server.handle_request", recording)
    return threads


def read_to_eof(sock: socket.socket) -> bytes:
    data = bytearray()
    while chunk := sock.recv(65536):
        data.extend(chunk)
    return bytes(data)


def raw_exchange(server: GeoServer, payload: bytes) -> bytes:
    """The answer to ``payload``, read until the server closes the connection."""
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.sendall(payload)
        return read_to_eof(sock)


# -- dispatch unit tests -------------------------------------------------------


def test_handle_request_text_query(fresh_seeded_repo):
    response = decode_response(handle_request(fresh_seeded_repo, b'{"Query": "ceva"}\n'))
    assert isinstance(response, QueryResult)
    assert [identifier for identifier, _ in response.entries] == ["GEO_CEVA"]
    info = response.entries[0][1]
    assert info.name == "Ceva's Theorem"
    assert parse_construction(info.code)


class _FailingRepository:
    def text_query(self, query, mode, filters):
        raise RuntimeError("boom")


def test_handle_request_answers_an_unexpected_failure_and_logs_it(caplog):
    with caplog.at_level(logging.ERROR, logger="geokb.server"):
        answer = handle_request(_FailingRepository(), b'{"Query": "ceva"}\n')
    assert json.loads(answer) == {"Error": "internal error: boom"}
    [record] = caplog.records
    assert record.getMessage() == "unexpected failure while handling a request"
    assert record.exc_info is not None and str(record.exc_info[1]) == "boom"
    assert "RuntimeError: boom" in caplog.text


def test_handle_request_unknown_filter_key(fresh_seeded_repo):
    # the server, not the client, reports unknown filter keys
    for payload in (
        b'{"Query": "x", "Filters": "colour=blue"}\n',
        b'{"GeometricQuery": "point A\\n", "Filters": "colour=blue"}\n',
    ):
        answer = handle_request(fresh_seeded_repo, payload)
        assert isinstance(decode_response(answer), ErrorResponse)
        assert answer == b'{"Error": "unknown filter key: colour"}\n'


@pytest.mark.parametrize(
    "payload",
    [
        b'{"Query": "a", "Filters": "colour=blue"}\n',
        encode_request(QueryRequest(query="a", filters="colour=blue")),
    ],
    ids=["raw-line", "encoded-request"],
)
def test_bad_filter_decodes_and_fails_at_the_server(fresh_seeded_repo, payload):
    # decode_request checks only that Filters is a string; parse_filters in
    # handle_request is the one parse of its keys
    assert decode_request(payload) == QueryRequest(query="a", filters="colour=blue")
    assert handle_request(fresh_seeded_repo, payload) == b'{"Error": "unknown filter key: colour"}\n'


@pytest.mark.parametrize(
    "member, error",
    [
        (b'"Level": 9', b'{"Error": "level must be an integer between 1 and 5, got 9"}\n'),
        (b'"Kind": "sonnet"', b'{"Error": "kind must be one of (\'construction\', \'conjecture\'), got \'sonnet\'"}\n'),
        (b'"Language": ""', b'{"Error": "language must not be empty"}\n'),
        (b'"Identifier": "../evil"', b'{"Error": "invalid identifier \'../evil\'"}\n'),
    ],
)
def test_illegal_insert_value_gets_the_entry_error(fresh_seeded_repo, member, error):
    # ProblemEntry refuses the draft as decode_request builds it; the Error carries its words
    payload = b'{"Insert": {"Name": "x", "Code": "", ' + member + b"}}\n"
    with pytest.raises(ProtocolError):
        decode_request(payload)
    assert handle_request(fresh_seeded_repo, payload) == error
    assert len(fresh_seeded_repo) == 25


def test_handle_request_bad_geometric_code(fresh_seeded_repo):
    response = decode_response(handle_request(
        fresh_seeded_repo, b'{"GeometricQuery": "parallel(a, a)\\nline a"}\n'
    ))
    assert isinstance(response, ErrorResponse)
    assert "repeated argument" in response.error


def test_handle_request_invalid_pattern(fresh_seeded_repo):
    response = decode_response(handle_request(fresh_seeded_repo, b'{"Query": "(unclosed"}\n'))
    assert isinstance(response, ErrorResponse)
    assert "invalid pattern" in response.error


def test_handle_request_insert_duplicate_then_forced(fresh_seeded_repo):
    draft = json.dumps(
        {"Name": "Triangle again", "Code": BARE_TRIANGLE_TEXT, "Kind": "construction"}
    )
    blocked = decode_response(handle_request(fresh_seeded_repo, f'{{"Insert": {draft}}}\n'.encode()))
    assert isinstance(blocked, InsertResult)
    assert blocked.status == "duplicate"
    assert blocked.identifier is None
    assert "GEO0281" in blocked.duplicates.containing_entries
    forced = decode_response(handle_request(
        fresh_seeded_repo, f'{{"Insert": {draft}, "Force": true}}\n'.encode()
    ))
    assert isinstance(forced, InsertResult)
    assert forced.status == "inserted"
    assert forced.identifier == "GEO0023"


def test_answers_read_no_embedding_mapping_or_witness(tmp_path, monkeypatch):
    """Answers name entries only: a confirmed query, and unforced inserts
    whose duplicate gate finds embeddings (one blocked, one extending a
    stored entry), answer the same bytes when reading an embedding's
    mapping or witness raises."""
    extended = next(e.code for e in ENTRIES if e.identifier == "GEO0281")
    requests = [
        QueryRequest(geometric=BARE_TRIANGLE_TEXT),
        QueryRequest(insert=ProblemEntry(name="Triangle again", code=BARE_TRIANGLE_TEXT)),
        QueryRequest(insert=ProblemEntry(
            name="Six circles more", code=extended + "".join(f"circle z{i}\n" for i in range(6))
        )),
    ]

    def answers(name: str) -> list[bytes]:
        repo = Repository(tmp_path / name)
        seed_repository(repo)
        return [handle_request(repo, encode_request(request)) for request in requests]

    expected = answers("plain")
    assert len(decode_response(expected[0]).entries) > 1
    assert [decode_response(answer).status for answer in expected[1:]] == ["duplicate", "inserted"]

    def unread(embedding):
        raise AssertionError("an answer read an embedding's mapping or witness")

    monkeypatch.setattr(Embedding, "mapping", property(unread))
    monkeypatch.setattr(Embedding, "facts", property(unread))
    assert answers("patched") == expected


# -- wire round trips -----------------------------------------------------------


def test_wire_text_query(server):
    response = client_query(server.host, server.port, QueryRequest(query="ceva"))
    assert isinstance(response, QueryResult)
    assert [identifier for identifier, _ in response.entries] == ["GEO_CEVA"]


def test_wire_geometric_query_candidates(server, fresh_seeded_repo):
    request = QueryRequest(geometric=BARE_TRIANGLE_TEXT, confirm=False)
    response = client_query(server.host, server.port, request)
    expected = [
        identifier
        for identifier, _ in fresh_seeded_repo.geometric_query(
            parse_construction(BARE_TRIANGLE_TEXT), confirm=False
        )
    ]
    assert [identifier for identifier, _ in response.entries] == expected


def test_wire_filtered_geometric_query(server):
    request = QueryRequest(
        geometric=TRIANGLE_WITH_CIRCLE_TEXT, filters="kind=conjecture", confirm=True
    )
    response = client_query(server.host, server.port, request)
    identifiers = [identifier for identifier, _ in response.entries]
    assert identifiers == ["GEO0003", "GEO0017", "GEO0019", "GEO0281", "GEO0328"]


def test_wire_insert_flow(server):
    draft = ProblemEntry(name="Fresh point", code="point A\n", kind="construction", level=1)
    response = client_query(
        server.host, server.port, QueryRequest(insert=draft, force=True)
    )
    assert isinstance(response, InsertResult)
    assert response.status == "inserted"
    follow_up = client_query(server.host, server.port, QueryRequest(query="fresh point"))
    assert isinstance(follow_up, QueryResult)
    assert [identifier for identifier, _ in follow_up.entries] == [response.identifier]


@pytest.mark.parametrize("identifier", ["Error", "Status"])
def test_hit_named_like_a_response_member_round_trips(server, fresh_seeded_repo, identifier):
    draft = ProblemEntry(
        identifier=identifier,
        name=f"Lonely {identifier} figure",
        code="point A\npoint B\npoint C\npoint D\ncircle k\ncircle_centered(k, A, B)\n",
    )
    assert fresh_seeded_repo.insert(draft, force=True) == identifier
    response = client_query(server.host, server.port, QueryRequest(query=f"lonely {identifier}"))
    assert isinstance(response, QueryResult)
    assert [hit for hit, _ in response.entries] == [identifier]
    assert response.entries[0][1].name == f"Lonely {identifier} figure"


def test_text_query_answer_matches_golden_bytes(server):
    # Portuguese text in the request and in the answer, compared byte for byte
    payload = encode_request(QueryRequest(query="reflexão", mode="extended"))
    answer = raw_exchange(server, payload)
    assert answer == (GOLDEN / "response_query_extended_pt.json").read_bytes()
    assert [identifier for identifier, _ in decode_response(answer).entries] == ["GEO0015"]


def test_answers_on_awkward_entries_are_the_standard_encoding(tmp_path):
    # names, descriptions and code comments with non-ASCII, quotes,
    # backslashes, controls and lone surrogates; two hits named like response members
    rng = random.Random(0xB17E)
    repo = Repository(tmp_path / "data")
    for n, identifier in enumerate(["Error", "Status", *(f"GEO{k:04d}" for k in range(1, 25))]):
        comments = "".join(f"# {line}\n" for line in awkward_text(rng).splitlines())
        figure = BARE_TRIANGLE_TEXT if n % 2 else "point A\n"
        draft = ProblemEntry(identifier=identifier, name=awkward_text(rng),
                             description=awkward_text(rng), code=comments + figure)
        assert repo.insert(draft, force=True) == identifier
    triangle = parse_construction(BARE_TRIANGLE_TEXT)
    requests = [
        (QueryRequest(query=".*"), repo.text_query(".*")),
        (QueryRequest(geometric=BARE_TRIANGLE_TEXT), [i for i, _ in repo.geometric_query(triangle)]),
        (QueryRequest(geometric="point A\n", confirm=False),
         [i for i, _ in repo.geometric_query(parse_construction("point A\n"), confirm=False)]),
    ]
    assert [len(hits) for _, hits in requests] == [26, 13, 26]
    answers = []
    for request, hits in requests:
        expected = QueryResult(tuple(
            (i, EntryInfo(repo.get(i).name, repo.get(i).description, repo.get(i).code)) for i in hits
        ))
        answer = handle_request(repo, encode_request(request))
        assert answer == standard_encoding(expected)
        assert decode_response(answer) == expected
        answers.append(answer)
    # the entry files hold the same text: a reloaded store answers alike over TCP
    with serving(Repository(tmp_path / "data")) as srv:
        assert [raw_exchange(srv, encode_request(request)) for request, _ in requests] == answers


@pytest.mark.parametrize("version", [1, 2], ids=["stale-cache", "trusted-cache"])
def test_entry_file_with_a_lone_surrogate_is_served(tmp_path, version):
    # a hand-edited entry file may hold a JSON escape of a lone surrogate;
    # version 1 is analysed again and rewritten at start-up, version 2 is trusted
    data = tmp_path / "data"
    Repository(data).insert(ProblemEntry(identifier="GEO0001", name="placeholder", code=BARE_TRIANGLE_TEXT))
    path = data / "entries" / "GEO0001.json"
    text = path.read_text(encoding="utf-8").replace('"placeholder"', '"Odd \\ud800 name"')
    path.write_text(text.replace('"Version": 2', f'"Version": {version}'), encoding="utf-8")
    expected = QueryResult((("GEO0001", EntryInfo("Odd \ud800 name", "", BARE_TRIANGLE_TEXT)),))
    with serving(Repository(data)) as srv:
        answer = raw_exchange(srv, b'{"Query": "odd"}\n')
        assert b'"Name": "Odd \\ud800 name"' in answer
        assert decode_response(answer) == expected
        geometric = client_query(srv.host, srv.port, QueryRequest(geometric=BARE_TRIANGLE_TEXT))
        assert geometric == expected
    assert sorted(p.name for p in path.parent.iterdir()) == ["GEO0001.json"]
    assert b'"Name": "Odd \\ud800 name"' in path.read_bytes()
    assert json.loads(path.read_bytes())["Version"] == 2


def test_filter_key_with_a_lone_surrogate_gets_its_error(server):
    answer = raw_exchange(server, b'{"Query": "x", "Filters": "\\ud800=1"}\n')
    assert answer == b'{"Error": "unknown filter key: \\ud800"}\n'
    expected = ErrorResponse("unknown filter key: \ud800")
    assert decode_response(answer) == expected
    assert client_query(server.host, server.port, QueryRequest(query="x", filters="\ud800=1")) == expected


def test_insert_with_a_lone_surrogate_is_stored_and_served(server, fresh_seeded_repo):
    payload = b'{"Insert": {"Name": "Odd \\ud800 draft", "Code": "point A\\n"}, "Force": true}\n'
    answer = raw_exchange(server, payload)
    assert decode_response(answer) == InsertResult("inserted", "GEO0023", DuplicateReport())
    entries = fresh_seeded_repo.data_dir / "entries"
    assert [p.name for p in entries.iterdir() if p.name.startswith(".")] == []
    assert b'"Name": "Odd \\ud800 draft"' in (entries / "GEO0023.json").read_bytes()
    hit = client_query(server.host, server.port, QueryRequest(query="odd"))
    assert hit == QueryResult((("GEO0023", EntryInfo("Odd \ud800 draft", "", "point A\n")),))
    assert Repository(fresh_seeded_repo.data_dir).get("GEO0023").name == "Odd \ud800 draft"


def test_malformed_request_gets_error_response_and_liveness(server):
    answer = raw_exchange(server, b"this is not json\n")
    response = decode_response(answer)
    assert isinstance(response, ErrorResponse)
    assert "malformed JSON" in response.error
    # the next, valid request on a new connection still works
    ok = client_query(server.host, server.port, QueryRequest(query="ceva"))
    assert isinstance(ok, QueryResult)


def test_connection_closed_without_a_byte_gets_no_answer_and_the_server_goes_on(server):
    with socket.create_connection((server.host, server.port), timeout=5) as sock:
        sock.shutdown(socket.SHUT_WR)
        assert read_to_eof(sock) == b""
    ok = client_query(server.host, server.port, QueryRequest(query="ceva"))
    assert [identifier for identifier, _ in ok.entries] == ["GEO_CEVA"]


def close_with_reset(sock: socket.socket) -> None:
    """Close the test's own socket with a reset instead of a FIN: SO_LINGER
    on with a zero timeout drops what is unsent and unread."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def test_a_client_that_resets_while_its_answer_is_written_is_logged_once_and_the_server_goes_on(
    server, monkeypatch, caplog
):
    # far more than the two ends' socket buffers hold, so the write is still
    # under way when the reset arrives
    huge = b'{"Error": "' + b"x" * (16 * 1024 * 1024) + b'"}\n'
    monkeypatch.setattr("geokb.server.handle_request", lambda repository, data: huge)
    with caplog.at_level(logging.WARNING, logger="geokb.server"):
        sock = socket.create_connection((server.host, server.port), timeout=5)
        try:
            sock.sendall(b'{"Query": "ceva"}\n')
            assert sock.recv(1) == b"{"
        finally:
            close_with_reset(sock)
        deadline = time.monotonic() + 10
        while not caplog.records and time.monotonic() < deadline:
            time.sleep(0.01)
        monkeypatch.undo()
        ok = client_query(server.host, server.port, QueryRequest(query="ceva"))
        assert [identifier for identifier, _ in ok.entries] == ["GEO_CEVA"]
    assert [record.getMessage() for record in caplog.records] == [
        "client went away before the response was written"
    ]


def test_a_client_that_resets_before_sending_leaves_the_server_answering(server):
    close_with_reset(socket.create_connection((server.host, server.port), timeout=5))
    ok = client_query(server.host, server.port, QueryRequest(query="ceva"))
    assert [identifier for identifier, _ in ok.entries] == ["GEO_CEVA"]


@pytest.mark.parametrize("size", [MAX_REQUEST_BYTES + 10, 2 * MAX_REQUEST_BYTES])
def test_oversized_request_gets_its_error_and_the_server_goes_on(server, size):
    # the server stops reading at the limit; it must still deliver its answer
    # to a client that is sending the rest of the request
    request = QueryRequest(query="a" * size)
    assert len(encode_request(request)) > size
    response = client_query(server.host, server.port, request, timeout=30)
    assert response == ErrorResponse("request too large")
    ok = client_query(server.host, server.port, QueryRequest(query="ceva"))
    assert [identifier for identifier, _ in ok.entries] == ["GEO_CEVA"]


@pytest.mark.parametrize(
    ("length", "error"),
    [(MAX_REQUEST_BYTES - 1, "malformed JSON in request"), (MAX_REQUEST_BYTES, "request too large")],
)
def test_a_request_line_is_refused_once_it_and_its_newline_pass_the_limit(server, length, error):
    # MAX_REQUEST_BYTES counts the newline: a line of that many bytes in all is
    # decoded, and one byte more is refused
    response = decode_response(raw_exchange(server, b"x" * length + b"\n"))
    assert isinstance(response, ErrorResponse) and response.error.startswith(error)


def test_sequential_requests_each_get_a_response(server):
    for _ in range(12):
        response = client_query(server.host, server.port, QueryRequest(query="ceva"))
        assert isinstance(response, QueryResult)


def test_concurrent_clients(server):
    results: list[object] = []
    errors: list[Exception] = []

    def worker():
        try:
            results.append(client_query(server.host, server.port, QueryRequest(query="ceva")))
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert len(results) == 8


def test_text_query_does_not_wait_for_a_long_geometric_query(server):
    # 75 points on one line close to 67,600 facts (every triple collinear), a
    # 2 KB request whose closure and fingerprint take over a second; they run
    # before the repository lock is taken, so a text query meanwhile is
    # answered at once
    points = "line m\n" + "".join(f"point P{i}\nincident(P{i}, m)\n" for i in range(75))
    slow: list[object] = []
    thread = threading.Thread(target=lambda: slow.append(client_query(
        server.host, server.port, QueryRequest(geometric=points, confirm=False), timeout=120)))
    thread.start()
    time.sleep(0.3)
    start = time.perf_counter()
    response = client_query(server.host, server.port, QueryRequest(query="ceva"))
    elapsed = time.perf_counter() - start
    assert thread.is_alive(), "the geometric query had already ended when the text query was answered"
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert [identifier for identifier, _ in response.entries] == ["GEO_CEVA"]
    assert isinstance(slow[0], QueryResult) and slow[0].entries == ()
    assert elapsed < 0.1, f"text query took {elapsed * 1000:.0f} ms"


def test_listen_backlog_holds_a_burst_of_clients(server):
    assert LISTEN_BACKLOG == 128
    assert server.request_queue_size == LISTEN_BACKLOG


def test_with_block_that_never_serves_closes_the_socket(fresh_seeded_repo):
    servers = []

    def open_and_leave():
        with GeoServer(fresh_seeded_repo, "127.0.0.1", 0) as srv:
            servers.append(srv)

    thread = threading.Thread(target=open_and_leave, daemon=True)
    thread.start()
    thread.join(timeout=5)
    assert not thread.is_alive(), "leaving the with block waited for a serve_forever never started"
    assert servers[0].socket.fileno() == -1


def test_sixteen_concurrent_clients_each_get_the_right_answer(server, fresh_seeded_repo, handler_threads):
    triangle_hits = [i for i, _ in fresh_seeded_repo.geometric_query(parse_construction(BARE_TRIANGLE_TEXT))]
    requests = [
        (QueryRequest(query="ceva"), ["GEO_CEVA"]),
        (QueryRequest(geometric=BARE_TRIANGLE_TEXT), triangle_hits),
    ]
    answers: dict[int, object] = {}

    def worker(n: int):
        try:
            answers[n] = client_query(server.host, server.port, requests[n % 2][0], timeout=30)
        except Exception as exc:  # pragma: no cover
            answers[n] = exc

    threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert sorted(answers) == list(range(16))
    for n, response in answers.items():
        assert isinstance(response, QueryResult), response
        assert [identifier for identifier, _ in response.entries] == requests[n % 2][1]
    # a thread that finishes while IDLE_THREADS others wait exits
    deadline = time.monotonic() + 5
    while sum(t.is_alive() for t in handler_threads) > IDLE_THREADS and time.monotonic() < deadline:
        time.sleep(0.01)
    assert sum(t.is_alive() for t in handler_threads) <= IDLE_THREADS


def test_sequential_requests_are_served_by_one_handler_thread(server, handler_threads):
    # the server closes a connection only once its thread is idle again, so a
    # client that reads to the end finds that thread waiting
    answer = raw_exchange(server, b'{"Query": "ceva"}\n')
    assert [identifier for identifier, _ in decode_response(answer).entries] == ["GEO_CEVA"]
    for _ in range(49):
        assert raw_exchange(server, b'{"Query": "ceva"}\n') == answer
    assert len(handler_threads) == 1


def test_text_query_is_answered_while_more_connections_than_idle_threads_wait(server, handler_threads):
    # every idle thread and two new ones hold a connection whose line is unfinished
    slow = [socket.create_connection((server.host, server.port), timeout=5) for _ in range(IDLE_THREADS + 2)]
    try:
        for sock in slow:
            sock.sendall(b'{"Query": ')
        start = time.perf_counter()
        response = client_query(server.host, server.port, QueryRequest(query="ceva"))
        elapsed = time.perf_counter() - start
        assert [identifier for identifier, _ in response.entries] == ["GEO_CEVA"]
        assert elapsed < 0.1, f"text query took {elapsed * 1000:.0f} ms"
        for sock in slow:
            sock.sendall(b'"ceva"}\n')
        for sock in slow:
            assert [identifier for identifier, _ in decode_response(read_to_eof(sock)).entries] == ["GEO_CEVA"]
    finally:
        for sock in slow:
            sock.close()
    assert len(handler_threads) == IDLE_THREADS + 3


def test_no_handler_thread_outlives_the_server(fresh_seeded_repo, handler_threads):
    # bursts under fast thread switching: an idle-stack push lost or made
    # twice would leave a connection unanswered or a thread behind
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with serving(fresh_seeded_repo) as srv:
            for _ in range(5):
                answers: list[object] = []
                clients = [threading.Thread(target=lambda: answers.append(
                    client_query(srv.host, srv.port, QueryRequest(query="ceva"), timeout=10))) for _ in range(12)]
                for client in clients:
                    client.start()
                for client in clients:
                    client.join(timeout=20)
                    assert not client.is_alive()
                assert [[i for i, _ in answer.entries] for answer in answers] == [["GEO_CEVA"]] * 12
    finally:
        sys.setswitchinterval(interval)
    assert handler_threads
    assert not any(t.is_alive() for t in handler_threads)


def test_connection_refused_raises_transport_error():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    with pytest.raises(TransportError):
        client_query("127.0.0.1", free_port, QueryRequest(query="x"), timeout=2)


@pytest.mark.parametrize(
    "pieces",
    [
        [b'{"Error": "answer in ', b"pieces", b'"}\n'],
        [b'{"Error": "answer in pieces"}', b"\n", b"ignored after the line"],
        [b'{"Error": "answer in pieces"}'],
        [b'{"Error": "answer', b' in pieces"}\n{"Error": "trailing"}\n'],
        # longer than one read of the client, with the newline a read later
        [b'{"Error": "answer in pieces"' + b" " * 70000, b"}", b"\n"],
    ],
    ids=["newline-in-last-piece", "newline-alone", "closed-without-newline",
         "newline-and-trailing-bytes-in-one-piece", "line-longer-than-a-read"],
)
def test_client_reads_an_answer_sent_in_pieces(pieces):
    # the client looks for the end of the line in each new piece only
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                for piece in pieces:
                    conn.sendall(piece)
                    time.sleep(0.05)

        sender = threading.Thread(target=answer, daemon=True)
        sender.start()
        response = client_query("127.0.0.1", listener.getsockname()[1], QueryRequest(query="x"), timeout=5)
        sender.join(timeout=5)
        assert not sender.is_alive()
    assert response == ErrorResponse("answer in pieces")


def test_server_closing_without_response_raises_transport_error():
    class Quiet(threading.Thread):
        def __init__(self):
            super().__init__(daemon=True)
            self.sock = socket.socket()
            self.sock.bind(("127.0.0.1", 0))
            self.sock.listen(1)
            self.port = self.sock.getsockname()[1]

        def run(self):
            conn, _ = self.sock.accept()
            conn.close()
            self.sock.close()

    quiet = Quiet()
    quiet.start()
    with pytest.raises(TransportError, match="without a response"):
        client_query("127.0.0.1", quiet.port, QueryRequest(query="x"), timeout=2)


# -- command line ------------------------------------------------------------------


def test_geoclient_text_query_exit_0(server, capsys):
    code = client_main([server.host, str(server.port), "ceva"])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert list(printed) == ["GEO_CEVA"]
    assert printed["GEO_CEVA"]["Name"] == "Ceva's Theorem"


def test_geoclient_filtered_and_extended(server, capsys):
    code = client_main(
        [server.host, str(server.port), "circle", "--mode", "extended", "--filters", "level=3"]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert "GEO0328" in printed


def test_geoclient_geometric_file(server, tmp_path, capsys):
    query_file = tmp_path / "triangle.cons"
    query_file.write_text(BARE_TRIANGLE_TEXT, encoding="utf-8")
    out_dir = tmp_path / "saved"
    code = client_main(
        [
            server.host,
            str(server.port),
            "--geometric",
            str(query_file),
            "--no-confirm",
            "--out",
            str(out_dir),
        ]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert "GEO_CEVA" in printed
    saved = sorted(p.name for p in out_dir.iterdir())
    assert "GEO_CEVA.cons" in saved
    assert parse_construction((out_dir / "GEO_CEVA.cons").read_text(encoding="utf-8"))


def test_geoclient_insert_file(server, tmp_path, capsys):
    draft_file = tmp_path / "draft.json"
    draft_file.write_text(
        json.dumps({"Name": "Bare triangle", "Code": BARE_TRIANGLE_TEXT}),
        encoding="utf-8",
    )
    code = client_main([server.host, str(server.port), "--insert", str(draft_file)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["Status"] == "duplicate"
    code = client_main(
        [server.host, str(server.port), "--insert", str(draft_file), "--force"]
    )
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["Status"] == "inserted"


def test_geoclient_prints_a_lone_surrogate_as_its_escape(server, capsys):
    payload = b'{"Insert": {"Name": "Odd \\ud800", "Code": "point A\\n"}, "Force": true}\n'
    assert isinstance(decode_response(raw_exchange(server, payload)), InsertResult)
    code = client_main([server.host, str(server.port), "odd"])
    assert code == 0
    out = capsys.readouterr().out
    assert '"Name": "Odd \\ud800"' in out
    assert [info["Name"] for info in json.loads(out).values()] == ["Odd \ud800"]


@pytest.mark.parametrize(
    "option, content, message",
    [
        ("--geometric", b"point A\xff\n", "geoclient: input file is not UTF-8 text: "),
        ("--insert", b'{"Name": "\xff"}', "geoclient: input file is not UTF-8 text: "),
        ("--insert", b"[" * 100_000 + b"]" * 100_000, "geoclient: bad insert file: maximum recursion depth"),
    ],
    ids=["geometric-not-utf8", "insert-not-utf8", "insert-too-deep"],
)
def test_geoclient_unreadable_input_file_exit_1(tmp_path, capsys, option, content, message):
    path = tmp_path / "input"
    path.write_bytes(content)
    # refused before connecting: port 1 has no listener
    code = client_main(["127.0.0.1", "1", option, str(path), "--timeout", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1


def test_geoclient_server_error_exit_2(server, capsys):
    code = client_main([server.host, str(server.port), "(unclosed"])
    assert code == 2
    assert "server error" in capsys.readouterr().err


def test_geoclient_transport_error_exit_1(capsys):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    code = client_main(["127.0.0.1", str(free_port), "ceva", "--timeout", "2"])
    assert code == 1
    assert "geoclient:" in capsys.readouterr().err


def test_geoclient_malformed_error_member_exit_1(capsys):
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.recv(65536)
                conn.sendall(b'{"Error": 5}\n')

        sender = threading.Thread(target=answer, daemon=True)
        sender.start()
        code = client_main(["127.0.0.1", str(listener.getsockname()[1]), "x", "--timeout", "5"])
        sender.join(timeout=5)
        assert not sender.is_alive()
    assert code == 1
    assert capsys.readouterr().err == "geoclient: malformed response: Error must be a string\n"


def test_geoclient_missing_geometric_file_exit_1_without_connecting(tmp_path, capsys, monkeypatch):
    def connect(*args, **kwargs):
        raise AssertionError("the client connected")

    monkeypatch.setattr("geokb.cli.client_query", connect)
    missing = tmp_path / "missing.cons"
    code = client_main(["127.0.0.1", "1", "--geometric", str(missing)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("geoclient: ") and str(missing) in err and err.count("\n") == 1


def test_geoclient_usage_errors(tmp_path):
    figure = tmp_path / "figure.cons"
    figure.write_text(BARE_TRIANGLE_TEXT, encoding="utf-8")
    draft = tmp_path / "draft.json"
    draft.write_text(json.dumps({"Name": "Bare triangle", "Code": BARE_TRIANGLE_TEXT}), encoding="utf-8")
    misuses = [
        [],  # no primary
        ["q", "--geometric", str(figure)],
        ["--insert", str(draft), "--filters", "level=3"],
        ["--geometric", str(figure), "--mode", "extended"],
        ["q", "--no-confirm"],
        ["q", "--force"],
    ]
    # no listener: a request that reached the network would exit 1
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        free_port = probe.getsockname()[1]
    for misuse in misuses:
        with pytest.raises(SystemExit) as exited:
            client_main(["127.0.0.1", str(free_port), *misuse, "--timeout", "2"])
        assert exited.value.code == 2, misuse


def test_geoserver_bind_failure_exit_1(tmp_path, capsys):
    blocker = socket.socket()
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    frozen = gc.get_freeze_count()
    try:
        code = server_main(
            ["--host", "127.0.0.1", "--port", str(port), "--data", str(tmp_path / "d")]
        )
    finally:
        blocker.close()
    assert code == 1
    assert "geoserver:" in capsys.readouterr().err
    # a server that never bound froze none of the caller's heap
    assert gc.get_freeze_count() == frozen


def test_geoserver_bad_rules_file_exit_1(tmp_path, capsys):
    rules = tmp_path / "bad.rules"
    rules.write_text("R1: incident(?p, ?l) :- line_through(?l, ?p, ?q)\n", encoding="utf-8")
    code = server_main(
        ["--port", "0", "--data", str(tmp_path / "d"), "--rules", str(rules)]
    )
    assert code == 1
    assert capsys.readouterr().err == "geoserver: line 1: rule must end with '.'\n"


def test_corpus_entry_point_seeds_a_store_that_loads_clean(tmp_path, capsys, caplog):
    data = tmp_path / "data"
    assert corpus.main([str(data)]) == 0
    assert capsys.readouterr().out == f"seeded {len(ENTRIES)} entries into {data}\n"
    with caplog.at_level(logging.WARNING):
        repository = Repository(data)
    assert len(repository) == len(ENTRIES) == 25
    assert caplog.records == []
    assert repository.check_cache_coherence() == []


def test_save_codes_writes_every_entry(tmp_path, fresh_seeded_repo, server):
    response = client_query(server.host, server.port, QueryRequest(query=".*"))
    assert isinstance(response, QueryResult)
    written = save_codes(response, tmp_path / "codes")
    assert len(written) == len(stored_entries(fresh_seeded_repo))
    for path in written:
        assert parse_construction(path.read_text(encoding="utf-8")) is not None


def test_save_codes_writes_a_lone_surrogate_as_its_escape(tmp_path):
    info = EntryInfo(name="X", description="", code="point A\n# \udc00\n")
    [path] = save_codes(QueryResult((("GEO0001", info),)), tmp_path)
    assert path.read_bytes() == b"point A\n# \\udc00\n"


@pytest.mark.parametrize("identifier", ["../escaped", "sub/GEO0001", ".hidden", ""])
def test_save_codes_refuses_an_illegal_identifier(tmp_path, identifier):
    info = EntryInfo(name="X", description="", code="point A\n")
    result = QueryResult((("GEO0001", info), (identifier, info)))
    out = tmp_path / "out" / "codes"
    with pytest.raises(ProtocolError, match="not a legal entry identifier"):
        save_codes(result, out)
    assert not out.exists()
    assert [p.name for p in tmp_path.rglob("*")] == []


def test_geoclient_illegal_hit_identifier_exit_1(tmp_path, capsys, monkeypatch):
    info = EntryInfo(name="X", description="", code="point A\n")
    monkeypatch.setattr(
        "geokb.cli.client_query", lambda *args, **kwargs: QueryResult((("../escaped", info),))
    )
    out = tmp_path / "out"
    code = client_main(["127.0.0.1", "1", "x", "--out", str(out)])
    assert code == 1
    assert "malformed response" in capsys.readouterr().err
    assert not (tmp_path / "escaped.cons").exists() and not out.exists()
