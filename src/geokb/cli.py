"""Command line entry points: ``geoserver`` and ``geoclient``.

geoserver --port P --data DIR [--rules FILE]
geoclient HOST PORT QUERY [--filters S] [--mode simple|extended]
geoclient HOST PORT --geometric FILE [--no-confirm] [--filters S]
geoclient HOST PORT --insert FILE.json [--force]

Client exit codes: 0 success, 1 unreadable or illegal insert file,
transport error or malformed response, 2 server-reported error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .client import DEFAULT_TIMEOUT, client_query, save_codes
from .errors import GeoKbError, ProtocolError, TransportError
from .protocol import (
    ErrorResponse,
    QueryRequest,
    QueryResult,
    document_to_draft,
    encode_request,
    response_to_document,
)
from .server import DEFAULT_HOST, DEFAULT_PORT, serve
from .textindex import MODES


def server_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geoserver", description="Serve a geometric knowledge repository over TCP."
    )
    parser.add_argument("--host", default=DEFAULT_HOST, help="bind address (default %(default)s)")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="bind port (default %(default)s)"
    )
    parser.add_argument("--data", required=True, help="repository data directory")
    parser.add_argument("--rules", help="rule file overriding the built-in rules")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s")
    try:
        serve(args.host, args.port, args.data, args.rules)
    except KeyboardInterrupt:
        return 0
    except (OSError, GeoKbError) as exc:  # bind failures, bad rules, an unusable store
        print(f"geoserver: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_request(args: argparse.Namespace, parser: argparse.ArgumentParser) -> QueryRequest:
    """The request the arguments ask for; one the protocol cannot carry is a usage error."""
    code = draft = None
    if args.geometric is not None:
        code = Path(args.geometric).read_text(encoding="utf-8")
    if args.insert is not None:
        draft = document_to_draft(json.loads(Path(args.insert).read_text(encoding="utf-8")))
    request = QueryRequest(
        query=args.query, geometric=code, insert=draft, filters=args.filters,
        mode=args.mode, confirm=not args.no_confirm, force=args.force,
    )
    try:
        encode_request(request)
    except ProtocolError as exc:
        parser.error(str(exc))
    return request


def client_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="geoclient", description="Query a geometric knowledge repository server."
    )
    parser.add_argument("host", help="server host name or address")
    parser.add_argument("port", type=int, help="server port")
    parser.add_argument("query", nargs="?", help="text query")
    parser.add_argument("--geometric", metavar="FILE", help="construction file to search for")
    parser.add_argument("--insert", metavar="FILE.json", help="entry draft to insert")
    parser.add_argument("--filters", help='filter string, e.g. "kind=conjecture AND level=3"')
    parser.add_argument("--mode", choices=MODES, default="simple", help="text search mode")
    parser.add_argument(
        "--no-confirm",
        action="store_true",
        help="geometric search: return fingerprint candidates without exact matching",
    )
    parser.add_argument("--force", action="store_true", help="insert even if flagged as duplicate")
    parser.add_argument("--out", metavar="DIR", help="save returned construction code here")
    parser.add_argument(
        "--timeout", type=float, default=DEFAULT_TIMEOUT, help="seconds to wait for the server"
    )
    args = parser.parse_args(argv)

    try:
        request = _build_request(args, parser)
    except OSError as exc:
        print(f"geoclient: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"geoclient: input file is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, RecursionError, ProtocolError) as exc:  # too deep for json.loads
        print(f"geoclient: bad insert file: {exc}", file=sys.stderr)
        return 1

    try:
        response = client_query(args.host, args.port, request, timeout=args.timeout)
    except TransportError as exc:
        print(f"geoclient: {exc}", file=sys.stderr)
        return 1
    except ProtocolError as exc:
        print(f"geoclient: malformed response: {exc}", file=sys.stderr)
        return 1

    if isinstance(response, ErrorResponse):
        print(f"geoclient: server error: {response.error}", file=sys.stderr)
        return 2
    if args.out and isinstance(response, QueryResult):
        try:
            written = save_codes(response, args.out)
        except ProtocolError as exc:
            print(f"geoclient: malformed response: {exc}", file=sys.stderr)
            return 1
        print(f"saved {len(written)} construction(s) to {args.out}", file=sys.stderr)
    text = json.dumps(response_to_document(response), indent=2, ensure_ascii=False)
    print(text.encode("utf-8", "backslashreplace").decode("utf-8"))  # a lone surrogate as its JSON escape
    return 0
