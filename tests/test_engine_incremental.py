"""The engine's incremental batch bookkeeping against from-scratch truth.

The engine keeps its decode inputs (batch size, context tokens, rank sum,
LoRA count) as running totals, parks decoding requests in finish buckets
and fills ``token_times`` lazily from a per-engine step log.  These tests
step mixed seeded traces one event at a time and recompute all of that from
the requests themselves after every event, check the visibility contract
when a run stops mid-flight, and compare full runs against a golden
fixture of per-request timelines and finish-callback order.

Regenerate the fixture (only when the simulated behaviour is meant to
change) with::

    PYTHONPATH=src python tests/test_engine_incremental.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
from pathlib import Path

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import GB
from repro.llm.model import LLAMA_7B
from repro.serving.engine import ServingEngine
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.systems import build_system
from repro.workload.request import Request, RequestState
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

FIXTURE = Path(__file__).parent / "fixtures" / "engine_golden.json"


# --------------------------------------------------------------------- #
# Scenarios: each returns (sim, engines, requests, run), where ``run``
# schedules the trace and any lifecycle events and runs to ``horizon``.
# --------------------------------------------------------------------- #
def _chameleon_squash():
    """Rank-128 adapters on a 15 GiB device: admissions hit
    NO_ADAPTER_ROOM, so the MLQ bypasses and later squashes."""
    registry = AdapterRegistry.build(LLAMA_7B, 10, ranks=(128,))
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=5.0, duration=30.0,
                             rng=RngStreams(4).get("trace"), registry=registry)
    system = build_system("chameleon", registry=registry,
                          gpu_memory_bytes=15 * GB, seed=4)
    requests = trace.fresh()
    return system.sim, [system.engine], requests, \
        lambda horizon=None: system.run_trace(requests, horizon=horizon)


def _slora_chunked():
    registry = AdapterRegistry.build(LLAMA_7B, 20)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=6.0, duration=30.0,
                             rng=RngStreams(7).get("trace"), registry=registry)
    system = build_system("slora_chunked", registry=registry, seed=7)
    requests = trace.fresh()
    return system.sim, [system.engine], requests, \
        lambda horizon=None: system.run_trace(requests, horizon=horizon)


def _cluster(seed: int, *, backpressure: bool = True):
    registry = AdapterRegistry.build(LLAMA_7B, 30)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=8.0, duration=30.0,
                             rng=RngStreams(seed).get("trace"), registry=registry)
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=2, registry=registry, seed=seed,
        backpressure=backpressure)
    return system, trace.fresh()


def _crash(retry_started: bool):
    def scenario():
        system, requests = _cluster(11)
        system.sim.schedule_at(12.0, lambda: system.cluster.fail_replica(
            0, retry_started=retry_started))
        return system.sim, system.engines, requests, \
            lambda horizon=None: system.run_trace(requests, horizon=horizon)
    return scenario


def _drain_evacuate():
    """Without backpressure the replicas hold local queues, so draining
    replica 1 evacuates queued, loading and unstarted work."""
    system, requests = _cluster(12, backpressure=False)
    system.sim.schedule_at(10.0, lambda: system.cluster.drain_replica(
        1, migrate=True))
    return system.sim, system.engines, requests, \
        lambda horizon=None: system.run_trace(requests, horizon=horizon)


SCENARIOS = {
    "chameleon_squash": _chameleon_squash,
    "slora_chunked": _slora_chunked,
    "crash_retry_started": _crash(True),
    "crash_strand_started": _crash(False),
    "drain_evacuate": _drain_evacuate,
}


# --------------------------------------------------------------------- #
# Golden fingerprints
# --------------------------------------------------------------------- #
def _times_digest(times) -> str:
    packed = struct.pack(f"<{len(times)}d", *times)
    return hashlib.sha256(packed).hexdigest()[:16]


def golden_record(name: str) -> dict:
    """Per-request timelines and finish-callback order of one full run."""
    sim, engines, requests, run = SCENARIOS[name]()
    order: list = []
    for index, engine in enumerate(engines):
        engine.on_finish(
            lambda request, _i=index: order.append([_i, request.request_id]))
    run()
    rows = [[r.request_id, r.first_token_time, r.finish_time,
             len(r.token_times), _times_digest(r.token_times)]
            for r in requests]
    return {"requests": rows, "finish_order": order}


def _regenerate() -> None:
    payload = {name: golden_record(name) for name in SCENARIOS}
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_matches_golden_fixture(name, golden):
    # JSON round-trips floats exactly, so == is a bitwise comparison.
    assert golden_record(name) == golden[name]


# --------------------------------------------------------------------- #
# Running totals vs a from-scratch recomputation, after every event
# --------------------------------------------------------------------- #
def _check_engine(engine) -> None:
    engine.sync_progress()
    decoding = [slot.request for slot in engine._decoding.values()]
    prefilling = [slot.request for slot in engine._prefilling]
    in_batch = {id(r) for r in decoding + prefilling + engine._pending_load}
    assert len(in_batch) == len(decoding) + len(prefilling) \
        + len(engine._pending_load)
    expected_batch = {
        id(r) for r in engine.all_requests
        if r.state in (RequestState.PREFILL, RequestState.DECODE,
                       RequestState.LOADING) and not r.lost}
    assert in_batch == expected_batch

    ctx_tokens = total_rank = n_lora = 0
    step = engine._step_base + len(engine._steps)
    buckets = {key: dict(bucket) for key, bucket in engine._finishing.items()}
    for request in decoding:
        assert request.state is RequestState.DECODE
        assert request.remaining_prefill_tokens == 0
        assert 1 <= request.tokens_generated < request.output_tokens
        assert len(request.token_times) == request.tokens_generated
        ctx_tokens += request.context_tokens
        rank = engine.registry.get(request.adapter_id).rank \
            if request.adapter_id is not None else None
        if rank is not None:
            total_rank += rank
            n_lora += 1
        last = step + request.output_tokens - request.tokens_generated - 1
        assert buckets[last].pop(id(request)) is not None
    assert all(not bucket for bucket in buckets.values())
    for request in prefilling:
        assert request.state is RequestState.PREFILL
        assert request.remaining_prefill_tokens > 0
        assert request.tokens_generated == 0
    assert engine._ctx_tokens == ctx_tokens
    assert engine._total_rank == total_rank
    assert engine._n_lora == n_lora


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_running_totals_match_recomputation(name):
    sim, engines, requests, run = SCENARIOS[name]()
    run(horizon=0.0)  # schedule arrivals and lifecycle events only
    while sim.step():
        for engine in engines:
            _check_engine(engine)
    assert all(r.finished or r.lost for r in requests)


def test_scenarios_reach_their_paths():
    sim, engines, requests, run = SCENARIOS["chameleon_squash"]()
    run()
    assert engines[0].stats.squashes > 0

    sim, engines, requests, run = SCENARIOS["slora_chunked"]()
    run()
    chunk = engines[0].config.chunk_size
    assert any(r.input_tokens > chunk and r.finished for r in requests)

    sim, engines, requests, run = SCENARIOS["crash_strand_started"]()
    run()
    assert any(r.lost and r.tokens_generated > 0 for r in requests)

    sim, engines, requests, run = SCENARIOS["crash_retry_started"]()
    run()
    assert any(r.retry_count > 0 and r.finished for r in requests)


def test_drain_evacuates_unstarted_work(monkeypatch):
    evacuated: list = []
    original = ServingEngine.evacuate_unstarted

    def spy(self):
        moved = original(self)
        evacuated.extend(moved)
        return moved

    monkeypatch.setattr(ServingEngine, "evacuate_unstarted", spy)
    sim, engines, requests, run = SCENARIOS["drain_evacuate"]()
    run()
    assert evacuated
    assert all(r.finished for r in requests)


@pytest.mark.parametrize("phase", [RequestState.PREFILL, RequestState.DECODE])
def test_squash_while_iteration_in_flight(phase):
    """A request squashed between an iteration's start and end gets no
    progress from that iteration and later replays cleanly."""
    system = build_system("slora", predictor_accuracy=None)
    request = Request(request_id=0, arrival_time=0.0, input_tokens=2000,
                      output_tokens=20)
    system.engine.run_trace([request], horizon=0.0)
    while request.state is not phase:
        assert system.sim.step()
    system.engine.squash(request)
    system.sim.run()
    assert request.finished
    assert request.tokens_generated == len(request.token_times) == 20


# --------------------------------------------------------------------- #
# Visibility contract when a run stops mid-flight
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_decode_progress_current_when_run_returns(name):
    sim, engines, requests, run = SCENARIOS[name]()
    run(horizon=20.0)
    decoding = [r for r in requests if r.state is RequestState.DECODE]
    assert decoding
    for request in decoding:
        times = request.token_times
        assert request.tokens_generated == len(times) >= 1
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[0] == request.first_token_time
        assert times[-1] <= sim.now


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    _regenerate()
    print(f"wrote {FIXTURE}")
