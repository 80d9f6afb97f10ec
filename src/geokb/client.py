"""Client side of the wire protocol: one request, one response, hang up."""

from __future__ import annotations

import socket
from pathlib import Path

from .errors import ProtocolError, TransportError
from .protocol import QueryRequest, QueryResponse, QueryResult, decode_response, encode_request
from .repository import IDENTIFIER_RE

DEFAULT_TIMEOUT = 10.0
_CHUNK = 65536


def client_query(
    host: str, port: int, request: QueryRequest, timeout: float = DEFAULT_TIMEOUT
) -> QueryResponse:
    """Send one request and return the decoded response.

    Raises :class:`TransportError` when the server is unreachable, times
    out or closes without answering, and :class:`ProtocolError` when the
    response bytes do not parse.
    """
    payload = encode_request(request)
    buffer = bytearray()
    try:
        with socket.create_connection((host, int(port)), timeout=timeout) as sock:
            sock.sendall(payload)
            while chunk := sock.recv(_CHUNK):
                buffer.extend(chunk)
                if b"\n" in chunk:  # the line ends in the newest chunk, if at all
                    break
    except OSError as exc:
        # a server that closes without reading the request resets the connection
        if buffer or not isinstance(exc, (ConnectionResetError, BrokenPipeError)):
            raise TransportError(f"cannot query {host}:{port}: {exc}") from exc
    if not buffer:
        raise TransportError("server closed the connection without a response")
    return decode_response(bytes(buffer).split(b"\n", 1)[0])


def save_codes(result: QueryResult, directory: str | Path) -> list[Path]:
    """Write each returned construction to ``<directory>/<identifier>.cons``.

    Raises :class:`ProtocolError`, and writes nothing, when a hit's
    identifier is not a legal entry identifier: a name such as
    ``../escaped`` would put a file outside ``directory``.
    """
    for identifier, _ in result.entries:
        if not IDENTIFIER_RE.match(identifier):
            raise ProtocolError(f"hit identifier {identifier!r} is not a legal entry identifier")
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for identifier, info in result.entries:
        path = target / f"{identifier}.cons"
        path.write_bytes(info.code.encode("utf-8", "backslashreplace"))
        written.append(path)
    return written
