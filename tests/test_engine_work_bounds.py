"""Machine-independent work bounds for the engine's iteration loop.

The simulator is deterministic, so call counts per simulated request are
exact and hold on any machine.  These bounds fail if the iteration loop
goes back to visiting the whole batch every step:

* adapter-registry lookups (a request's rank is looked up once, when it
  enters the batch; a rescan looks it up every step);
* ``Request.remaining_prefill_tokens`` reads (the prefill plan visits the
  prefilling requests only; a rescan reads every running request);
* ``CostModel.decode_step_time`` evaluations on the iteration path: one
  per iteration that has a decode step.  Calls made inside the scheduler's
  estimates (``estimate_service_time`` per request, and the engine's
  ``estimate_earliest_release`` for the MLQ bypass) are counted apart.

The trace is paper-shaped: two ``chameleon`` replicas at the paper's
operating point of 11 RPS per replica, 100 adapters with power-law
popularity, Splitwise lengths.
"""

from __future__ import annotations

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.llm.costmodel import CostModel
from repro.llm.model import LLAMA_7B
from repro.serving.engine import ServingEngine
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.request import Request
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace


def _count(monkeypatch, counts: dict) -> None:
    get = AdapterRegistry.get
    remaining = Request.remaining_prefill_tokens.fget
    decode_step_time = CostModel.decode_step_time
    iteration_time = CostModel.iteration_time
    nested = [0]

    def counting_get(self, adapter_id):
        counts["registry_get"] += 1
        return get(self, adapter_id)

    def counting_remaining(self):
        counts["remaining_prefill_reads"] += 1
        return remaining(self)

    def counting_decode_step_time(self, *args, **kwargs):
        key = "estimate_decode_steps" if nested[0] else "iteration_decode_steps"
        counts[key] += 1
        return decode_step_time(self, *args, **kwargs)

    def counting_iteration_time(self, prefill_work, n_decode, *args):
        counts["decode_iterations"] += n_decode > 0
        return iteration_time(self, prefill_work, n_decode, *args)

    def estimate(method):
        def wrapper(self, *args, **kwargs):
            nested[0] += 1
            try:
                return method(self, *args, **kwargs)
            finally:
                nested[0] -= 1
        return wrapper

    monkeypatch.setattr(AdapterRegistry, "get", counting_get)
    monkeypatch.setattr(Request, "remaining_prefill_tokens",
                        property(counting_remaining))
    monkeypatch.setattr(CostModel, "decode_step_time", counting_decode_step_time)
    monkeypatch.setattr(CostModel, "iteration_time", counting_iteration_time)
    monkeypatch.setattr(CostModel, "estimate_service_time",
                        estimate(CostModel.estimate_service_time))
    monkeypatch.setattr(ServingEngine, "estimate_earliest_release",
                        estimate(ServingEngine.estimate_earliest_release))


@pytest.fixture(scope="module")
def paper_trace():
    registry = AdapterRegistry.build(LLAMA_7B, 100)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=22.0, duration=60.0,
                             rng=RngStreams(21).get("trace"), registry=registry)
    return registry, trace


@pytest.fixture
def counts(monkeypatch, paper_trace) -> dict:
    registry, trace = paper_trace
    system = MultiReplicaSystem.build("chameleon", n_replicas=2,
                                      registry=registry, seed=21)
    counts = dict.fromkeys(
        ("registry_get", "remaining_prefill_reads", "iteration_decode_steps",
         "estimate_decode_steps", "decode_iterations"), 0)
    _count(monkeypatch, counts)
    requests = trace.fresh()
    system.run_trace(requests)
    assert all(r.finished for r in requests)
    counts["requests"] = len(requests)
    return counts


def test_registry_lookups_per_request(counts):
    assert counts["registry_get"] <= 8 * counts["requests"]


def test_prefill_reads_per_request(counts):
    assert counts["remaining_prefill_reads"] <= 8 * counts["requests"]


def test_one_decode_step_evaluation_per_decode_iteration(counts):
    assert counts["decode_iterations"] > counts["requests"]  # non-trivial
    assert counts["iteration_decode_steps"] <= counts["decode_iterations"]
