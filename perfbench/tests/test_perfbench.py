"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import pathlib

import numpy as np
import pytest

import workloads
from measure import METRIC_NAME, LayerStats, end_to_end, host_estimate, tally
from tracing import LAYERS, Span, Tracer, chrome_trace, self_times

ROOT = pathlib.Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class SmallSteady(workloads.Steady):
    requests = 128


class SmallFleet(workloads.Fleet):
    requests = 256


@pytest.fixture(scope="module")
def steady():
    w = SmallSteady(3)
    w.outcome(w.warm_up())
    return w


# -- metric names --------------------------------------------------------

def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert METRIC_NAME.match(name), name


def test_emitted_metrics_match_the_spec(steady):
    p = steady.run_pass()
    o = steady.outcome(p)
    e2e = end_to_end(host_estimate([p.wall_s]), steady.work(o), o.sim, 1.0, 100.0,
                     tally([o.counts()], []))
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert set(LayerStats().metrics(1.0)) == {m["name"] for m in SPEC["per_layer"]}


# -- self time -------------------------------------------------------------

def test_self_time_on_a_nested_span_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: their
    # union covers 5) and c [8, 9]; a has a grandchild g [2, 3]
    spans = [
        Span("root", "x", 0.0, 10.0, -1),
        Span("a", "x", 1.0, 4.0, 0),
        Span("g", "x", 2.0, 3.0, 1),
        Span("b", "x", 3.0, 6.0, 0),
        Span("c", "x", 8.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 1, 3, 1])


def test_layer_self_time_excludes_nested_calls():
    stats = LayerStats()
    spans = [Span("StreamingEngine.tick", "serve.streaming", 0.0, 1.0, -1),
             Span("MaskManager.apply", "core.patterns", 0.1, 0.4, 0),
             Span("CompiledForward.__call__", "nn.inference", 0.5, 0.9, 0, tag=True)]
    stats.add_pass(spans, wall_s=2.0, units=4)
    m = stats.metrics(1.0)
    assert m["serve.streaming.self_us_per_unit"] == pytest.approx(1e6 * 0.3 / 4)
    assert m["core.patterns.share"] == pytest.approx(100 * 0.3 / 2.0)
    assert m["nn.inference.compile_us_per_unit"] == pytest.approx(1e6 * 0.4 / 4)
    assert m["nn.inference.recompiles"] == 1


def test_host_estimate_is_the_median_pass():
    assert host_estimate([0.3, 9.0, 0.2, 0.25, 0.31]) == 0.3
    with pytest.raises(ValueError):
        host_estimate([])


# -- tracing -----------------------------------------------------------------

def test_tracer_records_every_layer_and_restores_the_program(steady):
    from repro.serve import streaming
    original = streaming.StreamingEngine.tick
    with Tracer() as tracer:
        steady.run_pass()
    assert streaming.StreamingEngine.tick is original
    layers = {s.layer for s in tracer.spans}
    assert {"serve.streaming", "serve.batcher", "serve.sharding", "core.patterns",
            "nn.inference", "core.runtime_policy"} <= layers <= set(LAYERS)
    assert all(s is not None and s.end >= s.start for s in tracer.spans)
    submits = [s for s in tracer.spans if s.name == "StreamingEngine.submit"]
    assert sorted(s.req for s in submits) == list(range(steady.requests))
    trace = json.loads(json.dumps(chrome_trace(tracer.spans)))
    events = trace["traceEvents"]
    assert len(events) == len(tracer.spans)
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


# -- the correctness gate ------------------------------------------------------

def test_ok_frac_and_slo_hit_rate_differ_when_requests_are_shed():
    fleet = SmallFleet(2)
    o = fleet.outcome(fleet.warm_up())
    assert not o.failures
    shed = o.requests - o.completed
    assert shed > 0
    assert o.slo_hits < o.completed
    assert o.slo_hits / o.requests != o.completed / o.requests


def test_an_injected_output_mismatch_fails_the_run(steady):
    p = steady.run_pass()
    assert not steady.outcome(p).failures
    for r in p.results:
        r.output = r.output.copy()
        r.output[0, 0] = np.nextafter(r.output[0, 0], np.inf)
    o = steady.outcome(p)
    assert o.failures and all("!= solo forward" in f for f in o.failures)
    verdict = tally([o.counts()], o.failures)
    assert not verdict["correct"] and verdict["failed"] == len(o.failures)
    assert verdict["ok_frac"] == (len(p.results) - len(o.failures)) / o.requests


def test_a_lost_request_fails_conservation(steady):
    p = steady.run_pass()
    p.results.pop()
    assert any(f.startswith("conservation") for f in steady.outcome(p).failures)


def test_a_changed_simulated_outcome_fails_the_run(steady):
    p = steady.run_pass()
    for r in p.results:
        r.service_s += 1e-9
    assert any("differs between passes" in f for f in steady.outcome(p).failures)
