"""Client and server over TCP
==============================

The server listens on a socket in an infinite cycle; a client opens a
connection, sends one newline-terminated JSON request, reads one JSON
response and the connection closes.  This demo starts a real server on an
ephemeral port and walks through each request shape.  The same traffic
works from the command line:

    python -m geokb.corpus ./data
    geoserver --port 7890 --data ./data
    geoclient localhost 7890 ceva
    geoclient localhost 7890 --geometric triangle.cons --no-confirm
    geoclient localhost 7890 --insert draft.json --force
"""

import json
import tempfile
import threading

from geokb import (
    GeoServer,
    ProblemEntry,
    QueryRequest,
    Repository,
    client_query,
    encode_request,
)
from geokb.corpus import seed_repository
from geokb.protocol import response_to_document

workdir = tempfile.TemporaryDirectory()
repo = Repository(workdir.name)
seed_repository(repo)

server = GeoServer(repo, host="127.0.0.1", port=0)
thread = threading.Thread(target=server.serve_forever, daemon=True)
thread.start()
print(f"server listening on {server.host}:{server.port}")

# The bytes on the wire for a plain text query:
request = QueryRequest(query="ceva", filters="kind=conjecture")
print("\nrequest bytes:", encode_request(request))

response = client_query(server.host, server.port, request)
print("response:")
print(json.dumps(response_to_document(response), indent=2)[:400])

# A geometric query travels as construction text.
request = QueryRequest(
    geometric=(
        "point A\npoint B\npoint C\nline a\nline b\nline c\ncircle k\n"
        "line_through(a, B, C)\nline_through(b, A, C)\nline_through(c, A, B)\n"
    ),
    confirm=True,
)
response = client_query(server.host, server.port, request)
print("\ntriangle+circle hits:", [identifier for identifier, _ in response.entries])

# Inserts go through the duplicate gate server-side.
draft = ProblemEntry(
    name="Right angle figure",
    code="point P\nline u\nline v\nperpendicular(u, v)\nincident(P, u)\nincident(P, v)\n",
    kind="construction",
    level=1,
)
response = client_query(server.host, server.port, QueryRequest(insert=draft))
print("\ninsert outcome:", json.dumps(response_to_document(response)))
response = client_query(server.host, server.port, QueryRequest(insert=draft, force=True))
print("forced insert:", json.dumps(response_to_document(response)))

# Errors come back as responses, never as dropped connections.
response = client_query(
    server.host, server.port, QueryRequest(geometric="line a\nparallel(a, a)\n")
)
print("\nbad query answered with:", json.dumps(response_to_document(response)))

server.shutdown()
server.server_close()
workdir.cleanup()
print("\ndone")
