"""Machine-independent work bounds for an adapter-cache eviction round.

The simulator is deterministic, so these counts are exact on any machine.
They fail if eviction goes back to scanning the whole adapter registry, or
to decaying a candidate's frequency more than once per scoring pass:

* ``make_room`` and ``cached_ids`` read no registry entry outside the idle
  set (the resident, refcount-zero adapters).  A full-registry scan reads
  all 10,000 on every call;
* one ``order`` call computes each candidate's decayed frequency at most
  once.  Two-pass scoring (once for the max, once in the score) does it
  twice.

The run is eviction-heavy: one ``chameleon`` replica on a 32 GiB device,
10,000 adapters with uniform popularity, Splitwise lengths at 12 RPS.
"""

from __future__ import annotations

from collections.abc import Mapping

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.core.cache import ChameleonCacheManager
from repro.core.eviction import ChameleonScorePolicy, GdsfPolicy, LruPolicy
from repro.hardware.gpu import GB
from repro.llm.model import LLAMA_7B
from repro.serving.adapter_manager import (
    AdapterEntry,
    AdapterManagerBase,
    AdapterState,
)
from repro.sim.rng import RngStreams
from repro.systems import build_system
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

N_ADAPTERS = 10_000


class CountingEntries(Mapping):
    """A read-through view of ``entries`` that records every key read,
    whether by lookup or by iteration."""

    def __init__(self, entries: dict) -> None:
        self.entries = entries
        self.visited: set = set()

    def __getitem__(self, key):
        self.visited.add(key)
        return self.entries[key]

    def __iter__(self):
        for key in self.entries:
            self.visited.add(key)
            yield key

    def __len__(self) -> int:
        return len(self.entries)


def _idle_scan(entries: dict) -> set:
    return {aid for aid, e in entries.items()
            if e.state is AdapterState.RESIDENT and e.refcount == 0}


@pytest.fixture(scope="module")
def churn_system():
    registry = AdapterRegistry.build(LLAMA_7B, N_ADAPTERS)
    trace = synthesize_trace(SPLITWISE_PROFILE, rps=12.0, duration=40.0,
                             rng=RngStreams(2).get("trace"), registry=registry,
                             adapter_popularity="uniform")
    return registry, trace


def _build(preset: str, churn_system):
    registry, trace = churn_system
    system = build_system(preset, registry=registry,
                          gpu_memory_bytes=32 * GB, seed=2)
    return system, trace.fresh()


@pytest.mark.parametrize("preset", ["chameleon", "chameleon_lru", "slora"])
def test_make_room_reads_only_idle_entries(preset, churn_system, monkeypatch):
    system, requests = _build(preset, churn_system)
    manager = system.adapter_manager
    raw = manager.entries
    counting = CountingEntries(raw)
    manager.entries = counting  # type: ignore[assignment]
    make_room = AdapterManagerBase.make_room
    rounds = [0]

    def bounded_make_room(self, *args, **kwargs):
        idle = _idle_scan(raw)
        counting.visited.clear()
        result = make_room(self, *args, **kwargs)
        rounds[0] += 1
        assert counting.visited <= idle
        return result

    monkeypatch.setattr(AdapterManagerBase, "make_room", bounded_make_room)
    system.run_trace(requests)
    assert all(r.finished for r in requests)
    assert rounds[0] > 100


def test_cached_ids_reads_only_idle_entries(churn_system):
    system, requests = _build("chameleon", churn_system)
    manager = system.adapter_manager
    assert isinstance(manager, ChameleonCacheManager)
    system.run_trace(requests, horizon=0.0)
    raw = manager.entries
    while len(_idle_scan(raw)) < 10:
        assert system.sim.step()
    idle = _idle_scan(raw)
    counting = CountingEntries(raw)
    manager.entries = counting  # type: ignore[assignment]
    assert manager.cached_ids() == sorted(idle)
    assert counting.visited <= idle


@pytest.mark.parametrize("policy_cls", [ChameleonScorePolicy, LruPolicy, GdsfPolicy])
def test_order_decays_each_candidate_at_most_once(policy_cls, churn_system,
                                                  monkeypatch):
    preset = {ChameleonScorePolicy: "chameleon", LruPolicy: "chameleon_lru",
              GdsfPolicy: "chameleon_gdsf"}[policy_cls]
    system, requests = _build(preset, churn_system)
    decayed = AdapterEntry.decayed_frequency
    order = policy_cls.order
    calls = [0]
    rounds: list = []

    def counting_decayed(self, now):
        calls[0] += 1
        return decayed(self, now)

    def bounded_order(self, candidates, now):
        calls[0] = 0
        result = order(self, candidates, now)
        rounds.append(len(candidates))
        assert calls[0] <= len(candidates)
        return result

    monkeypatch.setattr(AdapterEntry, "decayed_frequency", counting_decayed)
    monkeypatch.setattr(policy_cls, "order", bounded_order)
    system.run_trace(requests)
    assert all(r.finished for r in requests)
    assert sum(rounds) > 1000
