"""Start the geokb server of this checkout, optionally with tracing.

    python3 bench/serve.py [--trace SPANS.json] SERVER_ARGS...

SERVER_ARGS are those of ``geoserver``.  With ``--trace`` the layers'
public functions are wrapped in spans (see ``tracing.py``) and the spans
are written to SPANS.json when the server stops on SIGINT.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def main(argv: list[str]) -> int:
    spans_path = None
    if argv[:1] == ["--trace"]:
        spans_path, argv = argv[1], argv[2:]
    recorder = None
    if spans_path is not None:
        from tracing import Recorder, install

        recorder = Recorder()
        install(recorder)
    from geokb.cli import server_main

    try:
        return server_main(argv)
    finally:
        if recorder is not None:
            recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
