"""Smoke test of the benchmark's own code on tiny geometry.

Run with ``python -m pytest perfbench``. Each workload runs a few requests
per client with an 8x8 grid, a 32x32 camera and BCH(15,5,3).
"""

import itertools
import re
import struct

import pytest

import run  # noqa: F401  (puts the checkout's src/ on sys.path first)
import photonpuf.service
import tracing
import workloads
from photonpuf.token import NoiseParams

TINY = workloads.Geometry(grid=(8, 8), out=(32, 32), bch_m=4, bch_t=3,
                          noise=NoiseParams(intensity_sigma=0.002, phase_drift_sigma=0.02))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = run.load_spec()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_reports_every_metric(name, trace, tmp_path):
    out = workloads.run(workloads.WORKLOADS[name], seed=3, seconds=2.0, trace=trace,
                        geom=TINY, work_dir=str(tmp_path), max_requests=8)
    assert out.correct, out.problems
    assert out.failed == 0 and out.attempted > 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: unit for k, (_, unit) in out.metrics.items()} == expected
    for metric, (value, unit) in out.metrics.items():
        assert NAME.match(metric) and UNIT.match(unit), metric
        assert value == value and value >= 0, metric  # not NaN
    assert list(tmp_path.iterdir()) == []  # record stores are removed
    if trace:
        check_spans_nest(out.spans)
        handled = out.metrics["service.handle_payload.calls"][0]
        assert handled > 0 and out.metrics["token.respond.calls"][0] >= handled
        assert out.metrics["token.new_token.calls"][0] == (
            workloads.SETUP_REPEATS * workloads.WORKLOADS[name].tokens)
        wavelength_calls = out.metrics["token.wavelength_field.calls"][0]
        assert wavelength_calls > 0 if workloads.WORKLOADS[name].mix == "random" else not wavelength_calls


def check_spans_nest(spans):
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s.start_ns <= s.end_ns
        if s.parent is None:
            assert s.name in (tracing.HANDLE, "token.new_token"), s.name
            continue
        p = by_id[s.parent]
        assert p.thread == s.thread and p.request == s.request
        assert p.start_ns <= s.start_ns and s.end_ns <= p.end_ns, (p.name, s.name)
    assert all(ns >= 0 for ns in tracing.self_times_ns(spans).values())


def test_spec_lists_each_name_once():
    names = [w["name"] for w in SPEC["workloads"]]
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert names == list(workloads.WORKLOADS)
    assert len(set(metrics)) == len(metrics)
    assert all(NAME.match(n) for n in names + metrics)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def _doc(values_by_metric, workload="pixel-auth"):
    runs = []
    for i in range(len(next(iter(values_by_metric.values())))):
        runs.append({"workload": workload, "trace": 0, "metrics": {
            m: {"value": v[i], "unit": "ms"} for m, v in values_by_metric.items()}})
    return {"env": {}, "runs": runs}


def test_compare_marks_wide_spread_unresolved_and_regressions_worse():
    base = _doc({"latency_p50_ms": [100, 101, 99, 100], "latency_p90_ms": [100, 150, 60, 120]})
    new = _doc({"latency_p50_ms": [130, 131, 129, 130], "latency_p90_ms": [101, 149, 61, 121]})
    rows = {r["metric"]: r for r in run.compare_rows(base, new, SPEC)}
    assert rows["latency_p50_ms"]["verdict"] == "worse"
    assert rows["latency_p50_ms"]["ratio"] == pytest.approx(1.3)
    assert rows["latency_p50_ms"]["base"] == 100
    assert rows["latency_p90_ms"]["verdict"] == "unresolved"
    same = run.compare_rows(base, base, SPEC)
    assert {r["verdict"] for r in same if r["metric"] == "latency_p50_ms"} == {"within bound"}


def _reject_first(calls: int):
    """An ``authenticate`` whose first ``calls`` calls fail to decode."""
    original = photonpuf.service.authenticate
    seen = itertools.count()

    def authenticate(image, record):
        return None if next(seen) < calls else original(image, record)

    return authenticate


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_rejects_beyond_the_allowance_make_a_run_incorrect(name, tmp_path, monkeypatch):
    w = workloads.WORKLOADS[name]
    monkeypatch.setattr(photonpuf.service, "authenticate", _reject_first(1))
    one = workloads.run(w, seed=3, seconds=2.0, trace=False, geom=TINY,
                        work_dir=str(tmp_path), max_requests=8)
    assert one.correct and one.failed == 0 and one.notes["rejected_auths"] == 1, one.problems
    monkeypatch.setattr(photonpuf.service, "authenticate", lambda image, record: None)
    every = workloads.run(w, seed=3, seconds=2.0, trace=False, geom=TINY,
                          work_dir=str(tmp_path), max_requests=8)
    assert not every.correct
    assert "no genuine auth accepted" in every.problems
    assert any("genuine auths rejected" in p for p in every.problems)


def test_reject_after_decoding_is_a_wrong_output():
    op = workloads.auth_op(bytes(16))
    head = bytes([photonpuf.service.OP_RESULT, photonpuf.service.OP_AUTH])
    for verdict, corrected, ok, rejected in ((1, 2, True, False), (0, 0, False, True),
                                             (0, 5, False, False), (1, 4, False, False)):
        res = workloads.Result("auth", 0, 1, True)
        workloads.check_reply(op, head + bytes([verdict]) + struct.pack("<H", corrected), 3, res)
        assert (res.ok, res.rejected) == (ok, rejected), (verdict, corrected)


def test_transport_waits_without_a_pairing_is_none():
    spans = [tracing.Span(1, tracing.HANDLE, None, 1, thread=7, start_ns=2, end_ns=8)]
    assert tracing.transport_waits_ms([[(0, 10)]], spans) == [pytest.approx(4e-6)]
    # a lost connection leaves a client request with no server span
    assert tracing.transport_waits_ms([[(0, 10), (20, 30)]], spans) is None
