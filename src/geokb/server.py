"""TCP server: one JSON request per connection, one JSON response back.

The server listens on a socket in an infinite cycle.  Each connection
carries a single newline-terminated request; the server dispatches it to
the repository, writes a single newline-terminated response and closes the
connection.  A query's answer joins the hits' members as the repository
keeps them, encoded, so a hit costs no encoding per request.  Per-request
failures of any sort produce an ``Error`` response rather than a dropped
connection, so one bad client request never poisons the next one.

A connection has a handler thread to itself while it is served.  A thread
that has served one waits for the next instead of exiting, and a new
connection goes to the thread that became idle last, so a closed-loop
client keeps one thread; a new thread starts only when none is idle, so no
connection waits behind another.  At most :data:`IDLE_THREADS` threads wait.
"""

from __future__ import annotations

import gc
import logging
import queue
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import NoReturn

from .errors import GeoKbError
from .model import parse_construction
from .protocol import ErrorResponse, InsertResult, decode_request, encode_hits, encode_response
from .repository import DuplicateReport, Repository, parse_filters
from .rules import load_rules

log = logging.getLogger(__name__)

DEFAULT_HOST = "0.0.0.0"
DEFAULT_PORT = 7890
#: the longest request line decoded, its newline counted
MAX_REQUEST_BYTES = 4 * 1024 * 1024
CONNECTION_TIMEOUT = 30.0
#: pending connections queued by the kernel; socketserver's 5 made bursts wait out SYN retries
LISTEN_BACKLOG = 128
#: handler threads kept waiting for a connection; one that finishes while
#: this many wait exits instead
IDLE_THREADS = 8


def handle_request(repository: Repository, data: bytes) -> bytes:
    """Decode, dispatch and answer one request with its response line;
    never raises.  A query's answer joins the hits' stored members."""
    try:
        request = decode_request(data)
        filters = parse_filters(request.filters)
        if request.query is not None:
            identifiers = repository.text_query(request.query, mode=request.mode, filters=filters)
            return encode_hits(repository.hits(identifiers))
        if request.geometric is not None:
            construction = parse_construction(request.geometric)
            matches = repository.geometric_query(
                construction, filters=filters, confirm=request.confirm
            )
            return encode_hits(repository.hits([identifier for identifier, _ in matches]))
        outcome = repository.insert(request.insert, force=request.force)
        if isinstance(outcome, DuplicateReport):
            return encode_response(InsertResult("duplicate", None, outcome))
        return encode_response(InsertResult("inserted", outcome, DuplicateReport()))
    except GeoKbError as exc:
        return encode_response(ErrorResponse(str(exc)))
    except Exception as exc:  # noqa: BLE001 - the server must keep serving
        log.exception("unexpected failure while handling a request")
        return encode_response(ErrorResponse(f"internal error: {exc}"))


class _Handler(socketserver.StreamRequestHandler):
    server: GeoServer

    def handle(self) -> None:
        self.connection.settimeout(CONNECTION_TIMEOUT)
        try:
            data = self.rfile.readline(MAX_REQUEST_BYTES + 1)
        except OSError:
            return
        if not data:
            return
        if len(data) > MAX_REQUEST_BYTES:
            response = encode_response(ErrorResponse("request too large"))
        else:
            response = handle_request(self.server.repository, data)
        try:
            self.wfile.write(response)
        except OSError:
            log.warning("client went away before the response was written")
            return
        if len(data) > MAX_REQUEST_BYTES:
            self._drain()

    def _drain(self) -> None:
        """Send EOF, then drop input up to the client's, for at most
        :data:`CONNECTION_TIMEOUT` in all: closing with an oversized request's
        rest unread resets the connection, and the client may lose the answer."""
        deadline = time.monotonic() + CONNECTION_TIMEOUT
        try:
            self.connection.shutdown(socket.SHUT_WR)
            while (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not self.connection.recv(65536):
                    return
        except OSError:  # the client reset the connection, or the time ran out
            pass


class GeoServer(socketserver.TCPServer):
    """A repository's TCP server, listening once built.  A connection goes
    to the handler thread that became idle last, or to a new thread when
    none is idle; see the module docstring.  Leaving a ``with`` block calls
    :meth:`server_close` only; a caller running :meth:`serve_forever` in
    another thread calls :meth:`shutdown` first, which waits for that loop
    to stop."""

    allow_reuse_address = True
    request_queue_size = LISTEN_BACKLOG

    def __init__(self, repository: Repository, host: str = DEFAULT_HOST, port: int = DEFAULT_PORT):
        self.repository = repository
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # idle threads' inboxes, the last idle on top
        self._threads: set[threading.Thread] = set()
        self._closed = False
        super().__init__((host, port), _Handler)

    @property
    def host(self) -> str:
        return self.server_address[0]

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request: socket.socket, client_address: tuple) -> None:
        job = (request, client_address)
        with self._lock:
            if self._idle:
                self._idle.pop().put(job)
                return
            thread = threading.Thread(target=self._work, args=(job,), daemon=True)
            self._threads.add(thread)
        thread.start()

    def _work(self, job: tuple[socket.socket, tuple] | None) -> None:
        """Serve connections until the server closes or, after one, the
        idle stack is full; ``None`` in the inbox ends an idle thread."""
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        try:
            while job is not None:
                request, client_address = job
                try:
                    self.finish_request(request, client_address)
                except Exception:  # noqa: BLE001 - the thread serves the next connection
                    self.handle_error(request, client_address)
                with self._lock:
                    stays = not self._closed and len(self._idle) < IDLE_THREADS
                    if stays:
                        self._idle.append(inbox)
                # idle before the close: a client that sees the end of its
                # answer's stream and connects again finds this thread
                self.shutdown_request(request)
                job = inbox.get() if stays else None
        finally:
            with self._lock:
                self._threads.discard(threading.current_thread())

    def server_close(self) -> None:
        """Close the socket, end the idle threads and wait for the busy ones."""
        super().server_close()
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            threads = list(self._threads)
        for inbox in idle:
            inbox.put(None)
        for thread in threads:
            thread.join()


def serve(
    host: str,
    port: int,
    data_dir: str,
    rules_path: str | None = None,
) -> NoReturn:
    """Build the repository and answer requests until the process is
    signalled.  Binding failures propagate as ``OSError``."""
    ruleset = load_rules(Path(rules_path).read_text(encoding="utf-8")) if rules_path else None
    repository = Repository(data_dir, ruleset=ruleset)
    log.info("serving %d entries from %s", len(repository), repository.data_dir)
    server = GeoServer(repository, host, port)
    # the loaded records live as long as the process: keep them out of the
    # collector's full passes, which would otherwise walk them inside a
    # request; only once bound, so that a failed bind freezes nothing
    gc.freeze()
    log.info("listening on %s:%d", server.host, server.port)
    server.serve_forever()
    raise AssertionError("serve_forever returned")  # pragma: no cover
