"""The adapter managers' incremental idle set against from-scratch truth.

Each manager keeps its eviction candidates (resident, refcount-zero
adapters) as an idle set updated where residency or refcounts change, and
the Chameleon score policy scores each candidate in one pass.  These tests

* step seeded, eviction-heavy runs one event at a time and compare the idle
  set with a scan of every entry after each event;
* compare full runs against a golden fixture of eviction sequences
  ``(sim time, replica, victim id)`` and per-request timelines, recorded
  with the full-registry scan and the two-pass scoring;
* check every policy's ``order`` against the two-pass reference on random
  candidate sets, including tied scores and tied recency.

Regenerate the fixture (only when the simulated behaviour is meant to
change) with::

    PYTHONPATH=src python tests/test_adapter_cache_incremental.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adapters.registry import AdapterRegistry
from repro.core.eviction import (
    ChameleonScorePolicy,
    FairSharePolicy,
    GdsfPolicy,
    LruPolicy,
)
from repro.hardware.gpu import A40_48GB, GB, GpuDevice
from repro.hardware.pcie import PcieLink, PcieSpec
from repro.llm.model import LLAMA_7B
from repro.serving.adapter_manager import (
    AdapterEntry,
    AdapterState,
    SloraAdapterManager,
)
from repro.serving.engine import EngineConfig, ServingEngine
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.sim.simulator import Simulator
from repro.systems import build_system
from repro.workload.request import Request, RequestState
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

FIXTURE = Path(__file__).parent / "fixtures" / "adapter_cache_golden.json"


# --------------------------------------------------------------------- #
# Scenarios: each returns (sim, engines, requests, run), where ``run``
# schedules the trace and any lifecycle events and runs to ``horizon``.
# All of them squeeze adapters into a small device so eviction is heavy.
# --------------------------------------------------------------------- #
def _trace(n_adapters: int, rps: float, seed: int):
    registry = AdapterRegistry.build(LLAMA_7B, n_adapters)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=40.0,
                             rng=RngStreams(seed).get("trace"),
                             registry=registry, adapter_popularity="uniform")
    return registry, trace.fresh()


def _single(preset: str, n_adapters: int, rps: float, seed: int):
    def scenario():
        registry, requests = _trace(n_adapters, rps, seed)
        system = build_system(preset, registry=registry,
                              gpu_memory_bytes=18 * GB, seed=seed)
        return system.sim, [system.engine], requests, \
            lambda horizon=None: system.run_trace(requests, horizon=horizon)
    return scenario


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


def _cluster(seed: int, lifecycle, *, backpressure: bool = True):
    def scenario():
        registry, requests = _trace(300, 10.0, seed)
        system = MultiReplicaSystem.build(
            "chameleon", n_replicas=2, registry=registry, seed=seed,
            backpressure=backpressure, gpu_memory_bytes=18 * GB)
        system.sim.schedule_at(15.0, lifecycle, system.cluster)
        return system.sim, system.engines, requests, \
            lambda horizon=None: system.run_trace(requests, horizon=horizon)
    return scenario


SCENARIOS = {
    # 1,000 adapters on a small device: nearly every admission evicts.
    "chameleon_1000": _single("chameleon", 1000, 6.0, 3),
    "fairshare": _single("chameleon_fairshare", 200, 6.0, 4),
    "lru": _single("chameleon_lru", 200, 6.0, 5),
    "gdsf": _single("chameleon_gdsf", 200, 6.0, 6),
    "chameleon_squash": _chameleon_squash,
    # FIFO queues form, so S-LoRA retains adapters queued requests need.
    "slora_retention": _single("slora", 200, 8.0, 7),
    "crash": _cluster(8, lambda cluster: cluster.fail_replica(0)),
    # Without backpressure the replicas hold local queues, so the drain
    # evacuates queued, loading and unstarted work.
    "drain_evacuate": _cluster(
        9, lambda cluster: cluster.drain_replica(1, migrate=True),
        backpressure=False),
}


# --------------------------------------------------------------------- #
# Golden eviction sequences and request timelines
# --------------------------------------------------------------------- #
def _fingerprint(request) -> str:
    """Digest of a request's first-token and finish times and its token
    timeline, bit for bit."""
    times = [request.first_token_time, request.finish_time]
    stamps = [t if t is not None else math.nan for t in times]
    stamps += request.token_times
    packed = struct.pack(f"<{len(stamps)}d", *stamps)
    return hashlib.sha256(packed).hexdigest()[:16]


def golden_record(name: str) -> dict:
    """Evictions and per-request timelines of one full run."""
    sim, engines, requests, run = SCENARIOS[name]()
    evictions: list = []
    for index, engine in enumerate(engines):
        manager = engine.adapter_manager
        evict = manager._evict

        def recording(entry, _i=index, _evict=evict):
            evictions.append([sim.now, _i, entry.adapter_id])
            _evict(entry)

        manager._evict = recording
    run()
    return {"evictions": evictions,
            "requests": [[r.request_id, _fingerprint(r)] for r in requests]}


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


def test_scenarios_evict(golden):
    for name in SCENARIOS:
        assert len(golden[name]["evictions"]) > 100, name


# --------------------------------------------------------------------- #
# The idle set vs a scan of every entry, after every event
# --------------------------------------------------------------------- #
def _check_manager(manager) -> None:
    scan = [aid for aid, entry in manager.entries.items()
            if entry.state is AdapterState.RESIDENT and entry.refcount == 0]
    assert sorted(manager._idle) == scan
    assert all(manager._idle[aid] is manager.entries[aid] for aid in scan)
    assert manager.idle_resident_ids() == scan
    assert sum(manager.entries[aid].size_bytes for aid in scan) \
        == manager.gpu.used("adapter_cache")


def _check_queued_needed(engine) -> None:
    """While no membership change is pending, the manager's queued-adapter
    set is what a recomputation would give."""
    if not engine._queue_changed:
        assert engine.adapter_manager._queued_needed \
            == engine.scheduler.queued_adapter_ids()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_idle_set_matches_scan_after_every_event(name):
    sim, engines, requests, run = SCENARIOS[name]()
    run(horizon=0.0)  # schedule arrivals and lifecycle events only
    while sim.step():
        for engine in engines:
            _check_manager(engine.adapter_manager)
            _check_queued_needed(engine)
    assert all(r.finished or r.lost for r in requests)


@pytest.mark.parametrize("change", ["squash", "evacuate", "fail"])
def test_queued_needed_follows_membership_changes(change):
    """Squash and drains change the queue outside an admission round; the
    manager's queued-adapter set must not go stale across them."""
    system = build_system("slora", predictor_accuracy=None,
                          engine_config=EngineConfig(max_batch_size=1))
    engine = system.engine
    running, waiting = (
        Request(request_id=i, arrival_time=0.0, input_tokens=2000,
                output_tokens=20, adapter_id=i + 1)
        for i in range(2))
    engine.run_trace([running, waiting], horizon=0.0)
    while running.state is not RequestState.DECODE:
        assert system.sim.step()
    assert engine.adapter_manager._queued_needed == {2}
    if change == "squash":
        engine.squash(running)
    elif change == "evacuate":
        engine.evacuate_unstarted()
    else:
        engine.fail()
    _check_queued_needed(engine)
    while system.sim.step():
        _check_queued_needed(engine)


def test_scenarios_reach_their_paths(monkeypatch):
    sim, engines, requests, run = SCENARIOS["slora_retention"]()
    manager = engines[0].adapter_manager
    assert isinstance(manager, SloraAdapterManager)
    retained = []
    handle_idle = manager._handle_idle

    def spy(entry):
        handle_idle(entry)
        retained.append(entry.state is AdapterState.RESIDENT)

    manager._handle_idle = spy
    run()
    assert any(retained) and not all(retained)

    sim, engines, requests, run = SCENARIOS["chameleon_squash"]()
    run()
    assert engines[0].stats.squashes > 0

    sim, engines, requests, run = SCENARIOS["crash"]()
    run()
    assert engines[0].failed
    assert any(r.retry_count > 0 and r.finished for r in requests)

    evacuated: list = []
    original = ServingEngine.evacuate_unstarted

    def evacuate(self):
        moved = original(self)
        evacuated.extend(moved)
        return moved

    monkeypatch.setattr(ServingEngine, "evacuate_unstarted", evacuate)
    sim, engines, requests, run = SCENARIOS["drain_evacuate"]()
    run()
    assert evacuated
    assert all(r.finished for r in requests)


# --------------------------------------------------------------------- #
# One-pass order() vs the two-pass reference on random candidate sets
# --------------------------------------------------------------------- #
def _reference_chameleon(policy, candidates, now):
    """The two-pass scoring: decayed frequency once for the max and once
    more inside every score."""
    def score(entry, now, max_freq, max_size):
        freq = entry.decayed_frequency(now) / max_freq if max_freq > 0 else 0.0
        age = max(0.0, now - entry.last_used)
        recency = math.exp(-age / policy.recency_tau)
        size = entry.size_bytes / max_size if max_size > 0 else 0.0
        return policy.f_weight * freq + policy.r_weight * recency \
            + policy.s_weight * size

    if not candidates:
        return []
    max_freq = max(e.decayed_frequency(now) for e in candidates)
    max_size = max(e.size_bytes for e in candidates)
    return sorted(
        candidates,
        key=lambda e: (score(e, now, max_freq, max_size), e.adapter_id),
    )


def _reference_lru(policy, candidates, now):
    return sorted(candidates, key=lambda e: (e.last_used, e.adapter_id))


def _reference_gdsf(policy, candidates, now):
    for entry in candidates:
        if entry.gdsf_h == 0.0:
            policy.on_access(entry, now)
    return sorted(candidates, key=lambda e: (e.gdsf_h, e.adapter_id))


def _slora_manager() -> SloraAdapterManager:
    sim = Simulator()
    return SloraAdapterManager(sim, GpuDevice(A40_48GB), PcieLink(sim, PcieSpec()),
                               AdapterRegistry.build(LLAMA_7B, 1))


def _reference_slora(candidates):
    # Sorted by recency alone; candidates arrived in ascending id order.
    return sorted(candidates, key=lambda e: e.last_used)


_MB = 1024 * 1024

_entry_fields = st.tuples(
    st.sampled_from([16 * _MB, 64 * _MB, 256 * _MB]),        # size
    st.sampled_from([float("-inf"), 0.0, 5.0, 50.0, 99.0]),  # last_used
    st.sampled_from([0.0, 1.0, 2.5, 7.0]),                   # frequency
    st.sampled_from([0.0, 10.0, 60.0]),                      # freq stamp
    st.sampled_from([0.0, 0.0, 0.3, 1.7]),                   # gdsf_h
)


@st.composite
def _candidate_sets(draw):
    ids = draw(st.lists(st.integers(0, 500), unique=True, max_size=40))
    entries = []
    for aid in sorted(ids):
        size, last_used, frequency, stamp, gdsf_h = draw(_entry_fields)
        entry = AdapterEntry(aid, 8, size)
        entry.last_used = last_used
        entry.frequency = frequency
        entry._freq_updated = stamp
        entry.gdsf_h = gdsf_h
        entries.append(entry)
    shuffle_seed = draw(st.integers(0, 2**16))
    return entries, shuffle_seed


def _copy(entries):
    copies = []
    for e in entries:
        c = AdapterEntry(e.adapter_id, e.rank, e.size_bytes)
        c.last_used, c.frequency = e.last_used, e.frequency
        c._freq_updated, c.gdsf_h = e._freq_updated, e.gdsf_h
        copies.append(c)
    return copies


POLICIES = {
    "chameleon": (ChameleonScorePolicy, _reference_chameleon),
    "fairshare": (FairSharePolicy, _reference_chameleon),
    "lru": (LruPolicy, _reference_lru),
    "gdsf": (lambda: GdsfPolicy(link_bandwidth=25e9), _reference_gdsf),
}


@pytest.mark.parametrize("name", sorted(POLICIES))
@settings(max_examples=200, deadline=None)
@given(case=_candidate_sets(), now=st.sampled_from([60.0, 100.0, 400.0]))
def test_order_matches_two_pass_reference(name, case, now):
    make, reference = POLICIES[name]
    entries, shuffle_seed = case
    # The reference sees the candidates in ascending id order, as the
    # full-registry scan produced them; order() gets them shuffled.
    expected_entries = _copy(entries)
    expected_policy = make()
    expected = reference(expected_policy, expected_entries, now)
    shuffled = list(entries)
    random.Random(shuffle_seed).shuffle(shuffled)
    policy = make()
    got = policy.order(shuffled, now)
    assert [e.adapter_id for e in got] == [e.adapter_id for e in expected]
    # GDSF's lazy refresh ran for exactly the same entries.
    assert [e.gdsf_h for e in entries] == [e.gdsf_h for e in expected_entries]


@settings(max_examples=200, deadline=None)
@given(case=_candidate_sets())
def test_slora_order_matches_reference(case):
    entries, shuffle_seed = case
    expected = _reference_slora(entries)
    shuffled = list(entries)
    random.Random(shuffle_seed).shuffle(shuffled)
    got = _slora_manager()._eviction_order(shuffled, 0.0)
    assert [e.adapter_id for e in got] == [e.adapter_id for e in expected]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    _regenerate()
    print(f"wrote {FIXTURE}")
