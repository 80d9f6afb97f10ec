"""Command line entry points: ``geoserver`` and ``geoclient``.

geoserver --port P --data DIR [--rules FILE] [--gtd-depth {0,1,2}]
geoclient HOST PORT QUERY [--filters S] [--mode simple|extended]
geoclient HOST PORT --geometric FILE [--no-confirm] [--filters S]
geoclient HOST PORT --insert FILE.json [--force]

Client exit codes: 0 success, 1 transport error or malformed response,
2 server-reported error.
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
    response_to_document,
)
from .server import DEFAULT_HOST, DEFAULT_PORT, serve


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
    parser.add_argument(
        "--gtd-depth",
        type=int,
        choices=(0, 1, 2),
        default=2,
        help="fingerprint depth used for candidate filtering (default %(default)s)",
    )
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(levelname)s %(message)s")
    try:
        serve(args.host, args.port, args.data, args.rules, args.gtd_depth)
    except KeyboardInterrupt:
        return 0
    except (OSError, GeoKbError) as exc:  # bind failures, bad rules, an unusable store
        print(f"geoserver: {exc}", file=sys.stderr)
        return 1
    return 0


def _build_request(args: argparse.Namespace, parser: argparse.ArgumentParser) -> QueryRequest:
    chosen = [args.query is not None, args.geometric is not None, args.insert is not None]
    if sum(chosen) != 1:
        parser.error("provide exactly one of QUERY, --geometric or --insert")
    if args.insert is not None and args.filters is not None:
        parser.error("--filters does not apply to --insert")
    if args.query is None and args.mode != "simple":
        parser.error("--mode applies to text queries only")
    if args.geometric is None and args.no_confirm:
        parser.error("--no-confirm applies to --geometric only")
    if args.insert is None and args.force:
        parser.error("--force applies to --insert only")
    if args.query is not None:
        return QueryRequest(query=args.query, filters=args.filters, mode=args.mode)
    if args.geometric is not None:
        code = Path(args.geometric).read_text(encoding="utf-8")
        return QueryRequest(geometric=code, filters=args.filters, confirm=not args.no_confirm)
    document = json.loads(Path(args.insert).read_text(encoding="utf-8"))
    return QueryRequest(insert=document_to_draft(document), force=args.force)


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
    parser.add_argument(
        "--mode", choices=("simple", "extended"), default="simple", help="text search mode"
    )
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
    except (json.JSONDecodeError, ProtocolError) as exc:
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
    print(json.dumps(response_to_document(response), indent=2, ensure_ascii=False))
    return 0
