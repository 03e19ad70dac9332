"""Tests of the benchmark itself: self-time arithmetic, the correctness
gate, and a clean short run of every workload.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import gate
from perfbench.layers import LayerClock
from perfbench.measure import (
    END_TO_END,
    PER_LAYER,
    ReferenceLoop,
    token_gaps,
    end_to_end,
    simulate,
    traced,
)
from perfbench.workloads import WORKLOADS

#: Short sub-runs: (simulated seconds, warm-up seconds).
SHORT = {"paper-chameleon": (30.0, 10.0), "adapter-churn": (60.0, 20.0),
         "dispatch-storm": (2.0, 0.5)}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_each_child_once():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def leaf():
        fake.now += 1.0

    def child():
        fake.now += 2.0
        wrapped_leaf()
        fake.now += 3.0

    def parent():
        fake.now += 10.0
        wrapped_child()
        wrapped_child()
        fake.now += 20.0

    wrapped_leaf = clock.wrap("c.leaf", leaf)
    wrapped_child = clock.wrap("b.child", child)
    clock.wrap("a.parent", parent)()
    assert clock.self_s == {"a.parent": 30.0, "b.child": 10.0, "c.leaf": 2.0}
    assert clock.calls == {"a.parent": 1, "b.child": 2, "c.leaf": 2}
    assert sum(clock.self_s.values()) == fake.now


def test_recursion_is_not_double_counted():
    fake = FakeClock()
    clock = LayerClock(clock=fake)

    def countdown(n):
        fake.now += 1.0
        if n:
            wrapped(n - 1)
        fake.now += 1.0

    wrapped = clock.wrap("r.countdown", countdown)
    wrapped(4)
    assert clock.self_s["r.countdown"] == fake.now == 10.0
    assert clock.calls["r.countdown"] == 5


def test_patched_restores_the_class():
    class Target:
        def work(self):
            return 7

    original = Target.__dict__["work"]
    clock = LayerClock()
    seen = []
    with clock.patched([(Target, "work", "t.work", seen.append)]):
        assert Target().work() == 7
        assert Target.__dict__["work"] is not original
    assert Target.__dict__["work"] is original
    assert seen == [7] and clock.calls["t.work"] == 1


def testtoken_gaps_match_per_request_differences():
    rng = np.random.default_rng(0)
    requests = [SimpleNamespace(token_times=list(np.cumsum(rng.random(n))))
                for n in (1, 4, 1, 7, 2)]
    expected = np.concatenate([np.diff(r.token_times) for r in requests])
    assert np.array_equal(token_gaps(requests), expected)


def _short_run(name: str, seed: int = 3):
    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed, SHORT[name][0])
    system = workload.build(inputs)
    system.run_trace(inputs.requests)
    return system, inputs.requests


def test_gate_passes_a_clean_run():
    system, requests = _short_run("paper-chameleon")
    assert gate.check(system, requests) == []


def test_gate_rejects_a_dropped_request():
    system, requests = _short_run("paper-chameleon")
    engine = gate.replicas_of(system)[0].engine
    dropped = engine.all_requests.pop()
    found = gate.check(system, requests)
    assert [(v.layer, v.subject) for v in found] == [
        ("cluster", f"request {dropped.request_id}")]


def test_gate_rejects_a_leaked_refcount():
    system, requests = _short_run("adapter-churn")
    replica = gate.replicas_of(system)[1]
    entry = next(iter(replica.adapter_manager.entries.values()))
    entry.refcount = 1
    found = gate.check(system, requests)
    assert [(v.layer, v.subject) for v in found] == [
        ("adapter_cache", f"replica 1 adapter {entry.adapter_id}")]


def test_gate_rejects_held_kv_and_a_broken_timeline():
    system, requests = _short_run("paper-chameleon")
    gate.replicas_of(system)[2].gpu.reserve("kv", 64)
    late = next(r for r in requests if r.finished)
    late.token_times.pop()
    found = {(v.layer, v.subject) for v in gate.check(system, requests)}
    assert found == {("engine", "replica 2"),
                     ("engine", f"request {late.request_id}")}


def test_fingerprint_sees_one_changed_outcome():
    _, requests = _short_run("paper-chameleon")
    before = gate.fingerprint(requests)
    assert gate.fingerprint(list(reversed(requests))) == before
    requests[5].finish_time += 1e-9
    assert gate.fingerprint(requests) != before


def test_chunked_drive_matches_an_uninterrupted_run():
    duration, warmup = SHORT["adapter-churn"]
    chunked = simulate(WORKLOADS["adapter-churn"], 3, ReferenceLoop(),
                       duration=duration, warmup=warmup)
    _, requests = _short_run("adapter-churn", seed=3)
    assert chunked.slices > 0
    assert chunked.fingerprint == gate.fingerprint(requests)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_runs_clean_traced_and_untraced(name):
    duration, warmup = SHORT[name]
    outcome = traced(WORKLOADS[name], 5, duration=duration, warmup=warmup)
    assert outcome.violations == []
    assert set(outcome.metrics) == {n for n, _ in PER_LAYER}
    assert outcome.metrics["sim.events"]["value"] > outcome.attempted > 0


def test_end_to_end_reports_every_metric():
    duration, warmup = SHORT["adapter-churn"]
    outcome = end_to_end(WORKLOADS["adapter-churn"], 5, 0.0,
                         duration=duration, warmup=warmup)
    assert outcome.violations == []
    assert set(outcome.metrics) == {n for n, _ in END_TO_END}
    assert all(m["value"] > 0 for m in outcome.metrics.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)
