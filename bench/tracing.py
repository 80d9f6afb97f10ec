"""Spans around the package's public functions, recorded from outside it.

The benchmark's server launcher calls :func:`install` before the server
starts.  Each wrapped function records a span (name, start, end, parent
span, request id) in memory; :meth:`Recorder.dump` writes them out when the
server stops.  Hot small calls (``gtd_subsumes`` runs once per stored entry
per query) are not kept one span per call: their count, time and outcomes
are summed under the calling span instead.

Two root spans split the work into phases: ``repository.load`` (the
``Repository`` constructor) is set-up, ``server.handle_request`` is one
request.  A span's self time is its duration minus the time its children
cover, counting summed hot calls as children.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from workloads import REQUEST_KINDS


def _len(_args, result) -> dict:
    return {"n": len(result)}


def _request_kind(args, _result) -> dict:
    try:
        request = json.loads(args[1])
    except (ValueError, IndexError, TypeError):
        return {"kind": "bad"}
    if "Query" in request:
        return {"kind": "text"}
    if "GeometricQuery" in request:
        return {"kind": "geo" if request.get("Confirm", True) else "cand"}
    return {"kind": "insert"}


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``module`` and attribute path inside it, the layer
    metric name, and how to record it."""

    module: str
    attr: str
    name: str
    mode: str = "span"  # "span", "hot" (summed under the caller) or "root"
    phase: str | None = None  # of roots, and of spans that run outside any root
    measure: Callable | None = None  # spans: (args, result) -> attributes
    outcome: Callable | None = None  # hot calls: result -> counter name or None


TARGETS = (
    Target("model", "parse_construction", "model.parse_construction"),
    Target("rules", "closure", "rules.closure", measure=_len),
    Target("fingerprint", "build_graph", "fingerprint.build_graph"),
    Target("fingerprint", "gtd", "fingerprint.gtd"),
    Target("fingerprint", "gtd_subsumes", "fingerprint.gtd_subsumes", "hot",
           outcome=lambda r: "pass" if r else None),
    Target("matching", "embed_closed", "matching.embed_closed", "hot",
           outcome=lambda r: "yield" if r else None),
    Target("textindex", "TextIndex.simple_search", "textindex.simple_search"),
    Target("textindex", "TextIndex.extended_search", "textindex.extended_search", measure=_len),
    Target("textindex", "TextIndex.index_entry", "textindex.index_entry", "hot"),
    Target("protocol", "decode_request", "protocol.decode_request"),
    # the server encodes the response after handle_request returns
    Target("protocol", "encode_response", "protocol.encode_response", phase="req", measure=_len),
    Target("repository", "Repository.__init__", "repository.load", "root", phase="setup"),
    Target("repository", "Repository.geometric_query", "repository.geometric_query"),
    Target("repository", "Repository.text_query", "repository.text_query"),
    Target("repository", "Repository.insert", "repository.insert"),
    Target("server", "handle_request", "server.handle_request", "root", phase="req",
           measure=_request_kind),
)
#: client side, in the load generator
CLIENT_TARGETS = (
    Target("client", "decode_response", "protocol.decode_response", "hot"),
)
LOCK_WAIT = "repository.lock_wait"


class Recorder:
    """In-memory spans and summed hot calls of one process."""

    def __init__(self, default_phase: str | None = None):
        self.spans: list[list] = []  # [id, name, start, end, parent, request, phase, attrs]
        self.hot: dict[tuple, list] = {}  # (parent, phase, name) -> [calls, seconds, Counter]
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._requests = itertools.count(1)
        self._lock = threading.Lock()
        self._context = contextvars.ContextVar("span", default=(None, 0, default_phase))

    def span(self, target: Target, fn: Callable) -> Callable:
        name, root, measure = target.name, target.mode == "root", target.measure

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, request, phase = self._context.get()
            if root:
                parent, phase = None, target.phase
                request = next(self._requests) if phase == "req" else 0
            elif phase is None:
                phase = target.phase
            span_id = next(self._ids)
            token = self._context.set((span_id, request, phase))
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._context.reset(token)
                attrs = measure(args, result) if measure is not None and result is not None else {}
                self.spans.append([span_id, name, start, end, parent, request, phase, attrs])

        return wrapper

    def add_hot(self, name: str, seconds: float, outcome: str | None) -> None:
        parent, _request, phase = self._context.get()
        with self._lock:
            entry = self.hot.get((parent, phase, name))
            if entry is None:
                entry = self.hot[(parent, phase, name)] = [0, 0.0, Counter()]
            entry[0] += 1
            entry[1] += seconds
            if outcome is not None:
                entry[2][outcome] += 1

    def hot_call(self, target: Target, fn: Callable) -> Callable:
        name, outcome = target.name, target.outcome

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.add_hot(name, perf_counter() - start, f"raised:{type(exc).__name__}")
                raise
            self.add_hot(name, perf_counter() - start, outcome(result) if outcome else None)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        hot = [[parent, phase, name, calls, seconds, dict(counts)]
               for (parent, phase, name), (calls, seconds, counts) in self.hot.items()]
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"spans": self.spans, "hot": hot, "absent": self.absent}, out)


class TimedLock:
    """Stands in for the repository's lock and sums the time spent waiting
    to acquire it under the waiting span."""

    def __init__(self, lock, recorder: Recorder):
        self._inner = lock
        self._recorder = recorder

    def acquire(self, *args, **kwargs):
        start = perf_counter()
        acquired = self._inner.acquire(*args, **kwargs)
        self._recorder.add_hot(LOCK_WAIT, perf_counter() - start, None)
        return acquired

    def release(self):
        self._inner.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc_info):
        self.release()


def _resolve(package: str, target: Target):
    """(owner, attribute, original) or None when the target no longer exists."""
    try:
        owner = importlib.import_module(f"{package}.{target.module}")
    except ImportError:
        return None
    *path, attr = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


def install(recorder: Recorder, targets=TARGETS, package: str = "geokb") -> None:
    """Wrap every target under every module-level name it is bound to in the
    package.  Targets that no longer exist are listed in ``recorder.absent``."""
    importlib.import_module(package)
    for target in targets:
        found = _resolve(package, target)
        if found is None:
            recorder.absent.append(target.name)
            continue
        owner, attr, original = found
        wrap = recorder.hot_call if target.mode == "hot" else recorder.span
        wrapper = wrap(target, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            for module_name, module in list(sys.modules.items()):
                if module_name == package or module_name.startswith(package + "."):
                    for name, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, name, wrapper)
        if target.name == "repository.load":
            _time_lock(recorder, owner, wrapper)


def _time_lock(recorder: Recorder, repository_class, init) -> None:
    """After each ``Repository`` is built, swap in a timed lock."""

    @functools.wraps(init)
    def with_timed_lock(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if hasattr(self, "_lock"):
            self._lock = TimedLock(self._lock, recorder)
        elif LOCK_WAIT not in recorder.absent:
            recorder.absent.append(LOCK_WAIT)

    repository_class.__init__ = with_timed_lock


# -- turning spans into layer metrics ----------------------------------------


def self_times(spans: list[list], hot: list[list]) -> dict[int, float]:
    """Span id -> duration minus the union of its child spans' intervals
    and the summed time of hot calls made under it."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, _name, start, end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    hot_time: dict[int, float] = defaultdict(float)
    for parent, _phase, _name, _calls, seconds, _counts in hot:
        if parent is not None:
            hot_time[parent] += seconds
    out = {}
    for span_id, _name, start, end, *_ in spans:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        out[span_id] = max(0.0, end - start - covered - hot_time.get(span_id, 0.0))
    return out


#: (layer metric, statistic, unit) reported for the request phase; those
#: in SETUP_STATS are reported for set-up too
LAYER_STATS = (
    ("rules.closure", "calls", "count"),
    ("rules.closure", "self_ms", "ms"),
    ("rules.closure", "facts_out", "count"),
    ("fingerprint.gtd", "self_ms", "ms"),
    ("fingerprint.build_graph", "self_ms", "ms"),
    ("fingerprint.gtd_subsumes", "calls", "count"),
    ("fingerprint.gtd_subsumes", "self_ms", "ms"),
    ("fingerprint.gtd_subsumes", "pass_ratio", "ratio"),
    ("matching.embed_closed", "calls", "count"),
    ("matching.embed_closed", "self_ms", "ms"),
    ("matching.embed_closed", "yield_ratio", "ratio"),
    ("matching", "budget_exhausted", "count"),
    ("textindex.simple_search", "self_ms", "ms"),
    ("textindex.extended_search", "self_ms", "ms"),
    ("textindex.extended_search", "hits", "count"),
    ("textindex.index_entry", "self_ms", "ms"),
    ("protocol.decode_request", "self_ms", "ms"),
    ("protocol.encode_response", "self_ms", "ms"),
    ("protocol.encode_response", "bytes", "bytes"),
    ("model.parse_construction", "calls", "count"),
    ("model.parse_construction", "self_ms", "ms"),
    ("repository.geometric_query", "self_ms", "ms"),
    ("repository.text_query", "self_ms", "ms"),
    ("repository.insert", "self_ms", "ms"),
    ("repository", "lock_wait_ms", "ms"),
)
SETUP_STATS = {"rules.closure", "fingerprint.gtd", "fingerprint.build_graph", "textindex.index_entry",
               "model.parse_construction"}


def layer_metrics(trace: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced server run.

    Set-up figures are totals over the one load; request figures are means
    per handled request.  Ratios are over the calls of the phase.
    """
    spans, hot = trace["spans"], trace["hot"]
    own = self_times(spans, hot)
    sums: dict[tuple[str, str], float] = defaultdict(float)  # (phase, key) -> value
    for span_id, name, start, end, _parent, _request, phase, attrs in spans:
        sums[phase, f"{name}.calls"] += 1
        sums[phase, f"{name}.self_ms"] += own[span_id] * 1000
        sums[phase, f"{name}.ms"] += (end - start) * 1000
        sums[phase, f"{name}.n"] += attrs.get("n", 0)
    for _parent, phase, name, calls, seconds, counts in hot:
        sums[phase, f"{name}.calls"] += calls
        sums[phase, f"{name}.self_ms"] += seconds * 1000
        for outcome, n in counts.items():
            sums[phase, f"{name}.{outcome}"] += n

    def ratio(phase, name, outcome):
        calls = sums[phase, f"{name}.calls"]
        return sums[phase, f"{name}.{outcome}"] / calls if calls else 0.0

    requests = sums["req", "server.handle_request.calls"]
    out: dict[str, tuple[float, str]] = {}
    for phase in ("setup", "req"):
        per = 1.0 if phase == "setup" else 1.0 / max(requests, 1)
        derived = {
            "rules.closure.facts_out": sums[phase, "rules.closure.n"] * per,
            "fingerprint.gtd_subsumes.pass_ratio": ratio(phase, "fingerprint.gtd_subsumes", "pass"),
            "matching.embed_closed.yield_ratio": ratio(phase, "matching.embed_closed", "yield"),
            "matching.budget_exhausted": sums[phase, "matching.embed_closed.raised:SearchBudgetExceeded"] * per,
            "textindex.extended_search.hits": sums[phase, "textindex.extended_search.n"] * per,
            "protocol.encode_response.bytes": sums[phase, "protocol.encode_response.n"] * per,
            "repository.lock_wait_ms": sums[phase, f"{LOCK_WAIT}.self_ms"] * per,
        }
        for layer, stat, unit in LAYER_STATS:
            if phase == "setup" and layer not in SETUP_STATS:
                continue
            key = f"{layer}.{stat}"
            value = derived[key] if key in derived else sums[phase, key] * per
            out[f"{phase}.{key}"] = (value, unit)
    out["setup.repository.load.self_ms"] = (sums["setup", "repository.load.self_ms"], "ms")
    out["setup.repository.load.ms"] = (sums["setup", "repository.load.ms"], "ms")
    for kind in REQUEST_KINDS:
        durations = [(end - start) * 1000 for _i, name, start, end, _p, _r, _ph, attrs in spans
                     if name == "server.handle_request" and attrs.get("kind") == kind]
        out[f"server.handle_request.{kind}.p50_ms"] = (statistics.median(durations) if durations else 0.0, "ms")
    return out
