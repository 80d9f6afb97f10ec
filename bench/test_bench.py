"""Tests of the benchmark's own helpers; they run no server."""

from __future__ import annotations

import sys

import pytest

import run
import tracing
import workloads
from checks import Checker
from geokb.protocol import encode_request


def _store_bytes(workload, directory):
    run.build_store(workload, directory)
    return {p.name: p.read_bytes() for p in sorted((directory / "entries").iterdir())}


def _request_bytes(workload):
    return [encode_request(run._wire(r)) for script in workload.scripts for r in script]


def test_same_seed_gives_identical_stores_and_requests(tmp_path):
    first, second = workloads.write_mix(7, size=200), workloads.write_mix(7, size=200)
    assert _store_bytes(first, tmp_path / "a") == _store_bytes(second, tmp_path / "b")
    assert _request_bytes(first) == _request_bytes(second)
    assert _request_bytes(workloads.write_mix(8, size=200)) != _request_bytes(first)
    searches = workloads.search(7, size=1000), workloads.search(7, size=1000)
    assert searches[0].entries == searches[1].entries
    assert _request_bytes(searches[0]) == _request_bytes(searches[1])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, count = run.tail([float(x) for x in range(100, 0, -1)])
    assert (value, percentile, count) == (90.0, 90.0, 100)
    samples = [float(x) for x in range(37)]
    value, percentile, count = run.tail(samples)
    assert sum(s > value for s in samples) == 10 and count == 37
    assert percentile == pytest.approx(100 * 27 / 37)
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(x) for x in range(11)])[0] == 0.0


def test_throughput_counts_load_time_only():
    ends = [1, 2, 5, 6, 7, 8, 12, 13, 14]
    records = [("text", "k", None, ("hits", ()), end - 0.5, end, 0.0) for end in ends]
    assert run.throughput([(records, 0.0)]) == pytest.approx(9 / 14)
    # speed samples are not load, and the time between passes is set-up
    paused = [r[:6] + (1.0 if n == 2 else 0.0,) for n, r in enumerate(records)]
    assert run.throughput([(paused[:4], 0.0), (paused[4:], 6.5)]) == pytest.approx(9 / (5 + 7.5))
    assert run.throughput([(records, 0.0)], lambda at: 2.0) == pytest.approx(9 / 28)


def test_speed_scales_by_the_nearest_samples():
    loop, trips = run.CAL_REF_S
    speed = run.Speed()
    speed.times = [float(t) for t in range(10)]
    speed.samples = [(loop * f, trips * f) for f in (1, 1, 1, 1, 1, 2, 2, 2, 2, 2)]
    assert speed.scale(0.5) == pytest.approx(1.0)
    assert speed.scale(9.5) == pytest.approx(0.5)
    assert speed.scale(100.0) == pytest.approx(0.5)
    assert run.Speed.factor([(loop * 4, trips)]) == pytest.approx(0.5)  # geometric mean of 1/4 and 1
    assert speed.sample() > 0 and len(speed.samples) == 11


def test_self_time_subtracts_child_spans_and_hot_calls():
    spans = [
        # id, name, start, end, parent, request, phase, attrs
        [1, "root", 0.0, 10.0, None, 1, "req", {}],
        [2, "a", 1.0, 4.0, 1, 1, "req", {}],
        [3, "a.inner", 2.0, 3.0, 2, 1, "req", {}],
        [4, "b", 5.0, 7.0, 1, 1, "req", {}],
    ]
    hot = [[1, "req", "hot", 50, 0.5, {}], [3, "req", "hot", 1, 0.25, {}]]
    assert tracing.self_times(spans, hot) == {1: 4.5, 2: 2.0, 3: 0.75, 4: 2.0}


def test_layer_metrics_are_per_request_and_split_by_phase():
    spans = [
        [1, "repository.load", 0.0, 2.0, None, 0, "setup", {}],
        [2, "rules.closure", 0.5, 1.0, 1, 0, "setup", {"n": 7}],
        [3, "server.handle_request", 3.0, 3.1, None, 1, "req", {"kind": "text"}],
        [4, "server.handle_request", 4.0, 4.3, None, 2, "req", {"kind": "geo"}],
        [5, "rules.closure", 4.1, 4.2, 4, 2, "req", {"n": 3}],
    ]
    hot = [[4, "req", "fingerprint.gtd_subsumes", 4, 0.05, {"pass": 1}]]
    metrics = tracing.layer_metrics({"spans": spans, "hot": hot, "absent": []})
    assert metrics["setup.rules.closure.calls"] == (1, "count")
    assert metrics["setup.rules.closure.facts_out"] == (7, "count")
    assert metrics["req.rules.closure.calls"] == (0.5, "count")
    assert metrics["req.rules.closure.facts_out"] == (1.5, "count")
    assert metrics["req.fingerprint.gtd_subsumes.pass_ratio"] == (0.25, "ratio")
    assert metrics["setup.repository.load.self_ms"][0] == pytest.approx(1500)
    assert metrics["server.handle_request.geo.p50_ms"][0] == pytest.approx(300)


@pytest.fixture()
def fake_package(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import present\n")
    (package / "mod.py").write_text("def present(x):\n    return [x]\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    yield
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_wrappers_of_missing_targets_are_reported_absent(fake_package):
    recorder = tracing.Recorder(default_phase="req")
    tracing.install(recorder, (
        tracing.Target("mod", "present", "mod.present"),
        tracing.Target("mod", "gone", "mod.gone"),
        tracing.Target("nomodule", "anything", "nomodule.anything"),
        tracing.Target("mod", "Missing.method", "mod.method"),
    ), package="fakepkg")
    import fakepkg

    assert recorder.absent == ["mod.gone", "nomodule.anything", "mod.method"]
    assert fakepkg.present(1) == [1] and fakepkg.mod.present(2) == [2]
    assert [span[1] for span in recorder.spans] == ["mod.present", "mod.present"]


def test_checker_flags_wrong_answers():
    corpus = workloads.corpus_entries()
    workload = workloads.wire_corpus(3, corpus)
    identifiers = [e.identifier for e in corpus]
    text = next(r for r in workload.scripts[0] if r.kind == "text" and r.query == "triangle")
    expected = tuple(sorted(e.identifier for e in corpus if "triangle" in e.name.lower()))
    copy = next(r for r in workload.scripts[0] if r.kind == "insert")
    source = identifiers[copy.source]
    records = [
        ("text", text.key, text, ("hits", expected)),
        ("text", text.key, text, ("hits", expected[1:])),
        ("insert", copy.key, copy, ("insert", "duplicate", None, (source,))),
        ("insert", copy.key, copy, ("insert", "inserted", "GEO0001", ())),
        ("geo", "geo:triangle", None, ("error", "boom")),
    ]
    assert Checker(workload, identifiers, 3).failed(records) == [True, True, False, True, True]


def test_checker_expects_fresh_drafts_in_and_replays_rejected():
    workload = workloads.write_mix(7, size=200)
    identifiers = [f"GEO{i + 1:04d}" for i in range(len(workload.entries))]
    fresh = workload.scripts[0][0]
    records = [
        ("insert", fresh.key, fresh, ("insert", "inserted", "GEO0201", ())),
        ("insert", fresh.key, fresh, ("insert", "duplicate", None, ("GEO0201",))),
        ("insert", fresh.key, fresh, ("insert", "inserted", "GEO0202", ())),
        ("insert", fresh.key, fresh, ("insert", "duplicate", None, ("GEO0001",))),
    ]
    assert Checker(workload, identifiers, 7).failed(records) == [False, False, True, True]
