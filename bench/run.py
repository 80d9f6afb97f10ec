"""End-to-end benchmark of the geokb server over TCP.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's store from the seed (untimed, through
``Repository.insert(force=True)`` of this checkout), starts the real server
as its own process on it, and drives it from this process with one
closed-loop client: it sends a request, waits for the decoded reply as
``geoclient`` does, then sends the next.  Every answer is checked (see
``checks.py``).  The client and the server share one CPU, and every time is
scaled to a reference speed of that CPU (see ``Speed``).  The last line of
standard output is one JSON object with the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run.  A wrong answer makes
the exit code 1.  See ``README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
HOST = "127.0.0.1"
#: servers started per run to time set-up; the last one takes the load
SETUPS = 3
READY_TIMEOUT = 120.0
REQUEST_TIMEOUT = 60.0
#: seconds a server gets to exit on SIGINT before it is killed
STOP_TIMEOUT = 5.0
#: iterations of the calibration loop, loopback round trips per sample,
#: repeats of each per sample, and seconds of load between samples
CAL_LOOPS = 20_000
CAL_TRIPS = 20
CAL_REPEATS = 3
CAL_EVERY = 0.25
#: times of the loop and of the round trips on the reference host that
#: scaled times are quoted for
CAL_REF_S = (0.0008, 0.0024)
WORKLOADS = ("search-2k", "figures-corpus", "write-mix", "wire-corpus")


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, sample count) of the highest percentile that has
    at least ten samples beyond it, or None below eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n, n


# -- CPU speed -------------------------------------------------------------------


def _calibration_loop() -> float:
    """CAL_LOOPS turns of a pure-Python loop: interpreter work."""
    started = time.perf_counter()
    total = 0
    for i in range(CAL_LOOPS):
        total += i
    return time.perf_counter() - started


def _round_trips() -> float:
    """CAL_TRIPS loopback TCP round trips, each answered by a new thread:
    the operating-system work every request does."""
    with socket.socket() as listener:
        listener.bind((HOST, 0))
        listener.listen(1)

        def answer():
            conn, _ = listener.accept()
            with conn:
                conn.sendall(conn.recv(64))

        started = time.perf_counter()
        for _ in range(CAL_TRIPS):
            thread = threading.Thread(target=answer)
            thread.start()
            with socket.create_connection(listener.getsockname()) as sock:
                sock.sendall(b"x" * 32)
                sock.recv(64)
            thread.join()
        return time.perf_counter() - started


class Speed:
    """Follows the speed of the CPU that the client and the server share.

    A shared host changes a CPU's speed by half or more for seconds to
    minutes at a time.  Between requests, while the server waits, the
    client times two fixed pieces of work, a pure-Python loop and loopback
    round trips (each the median of CAL_REPEATS runs).  A duration measured
    at time ``t`` is multiplied by the geometric mean of the two ratios
    reference time over time measured around ``t``: that turns it into the
    duration on a host that does the two in CAL_REF_S.  A change to the
    program does not move the calibration, so it moves the scaled times as
    much as the raw ones.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.samples: list[tuple[float, float]] = []  # (loop, round trips) seconds

    def sample(self) -> float:
        """Take one sample; returns the seconds it took."""
        started = time.perf_counter()
        loop = statistics.median(_calibration_loop() for _ in range(CAL_REPEATS))
        trips = statistics.median(_round_trips() for _ in range(CAL_REPEATS))
        self.samples.append((loop, trips))
        self.times.append(started)
        return time.perf_counter() - started

    @staticmethod
    def factor(samples: list[tuple[float, float]]) -> float:
        loop = statistics.median(s[0] for s in samples)
        trips = statistics.median(s[1] for s in samples)
        return (CAL_REF_S[0] / loop * CAL_REF_S[1] / trips) ** 0.5

    def scale(self, at: float) -> float:
        """Factor for a duration measured at ``at``, from the five samples
        nearest to it."""
        i = bisect.bisect_left(self.times, at)
        return self.factor(self.samples[max(0, i - 3):i + 2] or self.samples[-5:])


def pin_to_one_cpu() -> None:
    """Pin this process, and so every server it starts, to one CPU: the
    calibration then runs where the server runs, and the hand-over between
    client and server does not depend on where the scheduler puts them."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


# -- the server process ----------------------------------------------------------


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """The server as a child process; ``setup_s`` runs from spawning it to
    its first answered request, scaled by the speed samples taken right
    before and right after (``raw_setup_s`` is unscaled)."""

    def __init__(self, data: Path, log: Path, speed: Speed, spans: Path | None = None):
        from geokb.client import client_query
        from geokb.errors import TransportError
        from geokb.protocol import QueryRequest, QueryResult

        self.port = _free_port()
        command = [sys.executable, str(BENCH / "serve.py")]
        if spans is not None:
            command += ["--trace", str(spans)]
        command += ["--host", HOST, "--port", str(self.port), "--data", str(data)]
        speed.sample()
        with open(log, "ab") as err:
            started = time.perf_counter()
            self.proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        probe = QueryRequest(query="^$")
        while True:
            try:
                answer = client_query(HOST, self.port, probe, timeout=REQUEST_TIMEOUT)
                break
            except TransportError:
                if self.proc.poll() is not None or time.perf_counter() - started > READY_TIMEOUT:
                    self.stop()
                    raise RuntimeError(f"server did not start; see its log:\n{log.read_text()[-2000:]}")
                time.sleep(0.002)
        self.raw_setup_s = time.perf_counter() - started
        speed.sample()
        self.setup_s = self.raw_setup_s * speed.factor(speed.samples[-2:])
        if not isinstance(answer, QueryResult):
            self.stop()
            raise RuntimeError(f"server answered the start-up probe with {answer!r}")

    def stop(self) -> float:
        """Interrupt the server, wait for it, and return its peak resident
        memory in MB."""
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
        deadline = time.monotonic() + STOP_TIMEOUT
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return usage.ru_maxrss / 1024
            if time.monotonic() > deadline:
                self.proc.kill()
                deadline = float("inf")
            time.sleep(0.01)


# -- load -----------------------------------------------------------------------


def _summary(response) -> tuple:
    from geokb.protocol import ErrorResponse, InsertResult

    if isinstance(response, ErrorResponse):
        return ("error", response.error)
    if isinstance(response, InsertResult):
        return ("insert", response.status, response.identifier, response.duplicates.exact_duplicates)
    return ("hits", tuple(identifier for identifier, _ in response.entries))


def _wire(request):
    from geokb.protocol import QueryRequest

    if request.kind == "text":
        return QueryRequest(query=request.query, mode=request.mode)
    if request.kind in ("geo", "cand"):
        return QueryRequest(geometric=request.code, confirm=request.kind == "geo")
    return QueryRequest(insert=_problem_entry(request.draft))


def _problem_entry(entry):
    from geokb.repository import ProblemEntry

    return ProblemEntry(
        identifier=entry.identifier, name=entry.name, description=entry.description,
        short_description=entry.short_description, keywords=entry.keywords, code=entry.code,
        level=entry.level, kind=entry.kind,
    )


def drive(port: int, scripts, seconds: float, speed: Speed, count: int | None = None,
          first: int = 0) -> tuple[list[tuple], float]:
    """Send requests for ``seconds``, or until ``count`` are done, but at
    least one, from one closed-loop client that takes its requests from the scripts in turn,
    each replayed cyclically, starting at request number ``first`` of that
    sequence.  A speed sample is taken every CAL_EVERY seconds, between two
    requests.

    Returns records ``(kind, key, request, summary, start, end, paused)`` in
    order, where ``paused`` is the time the speed sample before the request
    took, and the time the load started.
    """
    from geokb.client import client_query
    from geokb.errors import ProtocolError, TransportError

    wired = {id(r): _wire(r) for script in scripts for r in script}
    records: list[tuple] = []
    start = time.perf_counter()
    deadline = start + seconds
    next_sample = start
    i = first
    while i == first or (time.perf_counter() < deadline and (count is None or i < first + count)):
        paused = 0.0
        if time.perf_counter() >= next_sample:
            paused = speed.sample()
            next_sample = time.perf_counter() + CAL_EVERY
        script = scripts[i % len(scripts)]
        request = script[(i // len(scripts)) % len(script)]
        i += 1
        sent = time.perf_counter()
        try:
            summary = _summary(client_query(HOST, port, wired[id(request)], timeout=REQUEST_TIMEOUT))
        except (TransportError, ProtocolError) as exc:
            summary = ("error", str(exc))
        records.append((request.kind, request.key, request, summary, sent, time.perf_counter(), paused))
    speed.sample()  # so that the last requests have samples on both sides
    return records, start


def throughput(passes: list[tuple[list[tuple], float]], scale=lambda at: 1.0) -> float:
    """Requests completed per second of load.  A request takes the time
    from the previous one's end (or the start of its pass) to its own end,
    less the speed sample taken before it, scaled by ``scale`` at its send."""
    count, busy = 0, 0.0
    for records, start in passes:
        ends = [start] + [r[5] for r in records]
        count += len(records)
        busy += sum((ends[n + 1] - ends[n] - r[6]) * scale(r[4]) for n, r in enumerate(records))
    return count / busy


def latencies(records: list[tuple], scale=lambda at: 1.0) -> dict[str, list[float]]:
    """Milliseconds per request kind, each scaled by ``scale`` at its send."""
    from workloads import REQUEST_KINDS

    out = {kind: [] for kind in REQUEST_KINDS}
    for kind, _key, _request, _summary, sent, done, _paused in records:
        out[kind].append((done - sent) * 1000 * scale(sent))
    return out


# -- the runs -----------------------------------------------------------------------


def make_workload(name: str, seed: int):
    import workloads

    if name == "search-2k":
        return workloads.search(seed)
    if name == "write-mix":
        return workloads.write_mix(seed)
    corpus = workloads.corpus_entries()
    if name == "figures-corpus":
        return workloads.figures_corpus(seed, corpus)
    return workloads.wire_corpus(seed, corpus)


def build_store(workload, data: Path) -> list[str]:
    from geokb.repository import Repository

    repository = Repository(data)
    return [repository.insert(_problem_entry(e), force=True) for e in workload.entries]


def end_to_end(workload, data: Path, work: Path, seconds: float, speed: Speed):
    """Set-up timed SETUPS times, then the load on the last server.

    A workload with ``round_requests`` writes, so its store grows at the
    speed of the host and later reads would cost more on a fast one.  It
    runs in rounds instead until the time is up: each starts a server on a
    fresh copy of the store, times its set-up, and sends the next
    ``round_requests`` requests of the scripts, so every round does the same
    kind of work on the same store however fast the host is.
    """
    log = work / "server.log"
    servers, passes, maxrss = [], [], []
    if workload.round_requests is None:
        for n in range(SETUPS):
            server = Server(data, log, speed)
            servers.append(server)
            if n < SETUPS - 1:
                server.stop()
        try:
            passes.append(drive(server.port, workload.scripts, seconds, speed))
        finally:
            maxrss.append(server.stop())
    else:
        deadline = time.perf_counter() + seconds
        # a round needs time for its set-up and then some load
        while not servers or deadline - time.perf_counter() > 2 * servers[-1].raw_setup_s:
            copy = work / f"round-{len(passes)}"
            shutil.copytree(data, copy)
            server = Server(copy, log, speed)
            servers.append(server)
            try:
                passes.append(drive(server.port, workload.scripts, deadline - time.perf_counter(), speed,
                                    count=workload.round_requests, first=len(passes) * workload.round_requests))
            finally:
                maxrss.append(server.stop())
            shutil.rmtree(copy)
    records = [record for pass_records, _start in passes for record in pass_records]
    lat, raw = latencies(records, speed.scale), latencies(records)
    setups = [server.setup_s for server in servers]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (throughput(passes, speed.scale), "req/s"),
    }
    notes = {
        "setup_s": f"median of {len(setups)}: " + ", ".join(f"{s:.3f}" for s in setups)
        + "; unscaled " + ", ".join(f"{server.raw_setup_s:.3f}" for server in servers),
        "throughput_rps": f"unscaled {throughput(passes):.4f}",
    }
    if len(passes) > 1:
        notes["setup_s"] += f"; {len(passes)} rounds"
    for kind in lat:
        samples = lat[kind]
        metrics[f"{kind}_p50_ms"] = (statistics.median(samples) if samples else 0.0, "ms")
        notes[f"{kind}_p50_ms"] = f"{len(samples)} samples; unscaled " + (
            f"{statistics.median(raw[kind]):.4f}" if samples else "-")
    metrics["server_maxrss_mb"] = (max(maxrss), "MB")
    for kind in lat:
        found = tail(lat[kind])
        notes[f"{kind}_tail_ms"] = (f"{found[0]:12.4f} ms  (p{found[1]:.1f} of {found[2]})" if found
                                    else f"{'-':>12} ms  ({len(lat[kind])} samples)")
    notes["cpu speed"] = (
        f"{len(speed.samples)} samples: loop {1000 * statistics.median(s[0] for s in speed.samples):.4f} ms, "
        f"round trips {1000 * statistics.median(s[1] for s in speed.samples):.4f} ms, "
        f"scaling times by {speed.factor(speed.samples):.4f}")
    return [records for records, _start in passes], metrics, notes


def traced(workload, data: Path, work: Path, seconds: float, speed: Speed):
    """An untraced and a traced pass of the same load, half the time each;
    per-layer metrics come from the traced one, tracing overhead from the
    pair."""
    import tracing

    seconds /= 2
    traced_data = work / "data-traced"  # the first pass may write to its store
    shutil.copytree(data, traced_data)
    server = Server(data, work / "server.log", speed)
    try:
        plain = drive(server.port, workload.scripts, seconds, speed)
    finally:
        server.stop()
    spans_path = work / "spans.json"
    recorder = tracing.Recorder(default_phase="client")
    tracing.install(recorder, tracing.CLIENT_TARGETS)
    server = Server(traced_data, work / "server.log", speed, spans=spans_path)
    try:
        records, start = drive(server.port, workload.scripts, seconds, speed)
    finally:
        server.stop()
    trace = json.loads(spans_path.read_text())
    metrics = tracing.layer_metrics(trace)
    lat = latencies(records)
    for kind in lat:
        client = statistics.median(lat[kind]) if lat[kind] else 0.0
        server_p50 = metrics[f"server.handle_request.{kind}.p50_ms"][0]
        metrics[f"client.wire_ms.{kind}"] = (client - server_p50 if lat[kind] else 0.0, "ms")
    decode_s = sum(total for (_parent, _phase, name), (_calls, total, _counts) in recorder.hot.items()
                   if name == "protocol.decode_response")
    metrics["client.protocol.decode_response.self_ms"] = (1000 * decode_s / len(records), "ms")
    overhead = throughput([plain], speed.scale) / throughput([(records, start)], speed.scale) - 1
    metrics["trace.overhead_pct"] = (100 * overhead, "%")
    notes = {"absent wrappers": ", ".join(trace["absent"] + recorder.absent) or "none"}
    return [plain[0], records], metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "geokb"
    if not (source / "__init__.py").is_file():
        print(f"bench: no geokb sources at {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]
    import geokb

    if Path(geokb.__file__).resolve().parent != source.resolve():
        print(f"bench: imported geokb from {geokb.__file__}, not from this checkout", file=sys.stderr)
        return 2
    from checks import Checker

    pin_to_one_cpu()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed)
        data = work / "data"
        identifiers = build_store(workload, data)
        run = traced if args.trace else end_to_end
        passes, metrics, notes = run(workload, data, work, args.seconds, Speed())
        checker = Checker(workload, identifiers, args.seed)
        failed = sum(sum(checker.failed([record[:4] for record in records])) for records in passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(records) for records in passes)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:12.4f} {unit}{note}")
    print(f"  {'failed_frac':44s} {failed / attempted:12.4f} ratio  ({failed} of {attempted})")
    for name, note in notes.items():
        if name not in metrics:  # printed only: tails and absent wrappers
            print(f"  {name:44s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
