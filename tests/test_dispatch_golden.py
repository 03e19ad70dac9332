"""Golden dispatch fingerprints: every routing policy, pinned run for run.

The dispatcher has one routing path (a scan over cluster-side load
counters).  These tests run every policy through the regimes that exercise
each branch of it — unsaturated flow, batch-cap saturation (the
backpressure filter), SLO shedding, lifecycle churn (drain + stall +
crash), backpressure off, a heterogeneous fleet (capability-normalized
loads) and a 2-shard region with tenant lanes and SLO shedding (spill and
steal) — and compare complete run fingerprints against a golden fixture:
per-engine request sequences, dispatch stats, queue delays, TTFTs and the
simulator's event count.

Regenerate the fixture (only when the simulated behaviour is meant to
change) with::

    PYTHONPATH=src python tests/test_dispatch_golden.py --regenerate
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.llm.model import LLAMA_7B
from repro.serving.admission import SloPolicy, TenantFairnessPolicy
from repro.serving.engine import EngineConfig
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.tenants import DEFAULT_SLO_CLASSES, TenantPopulation
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

FIXTURE = Path(__file__).parent / "fixtures" / "dispatch_golden.json"

POLICIES = (
    "least_loaded",
    "round_robin",
    "p2c",
    "token_weighted",
    "adapter_affinity",
    "bounded_affinity",
)

_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = AdapterRegistry.build(LLAMA_7B, 100)
    return _REGISTRY


def _trace(rps, duration=18.0):
    rng = RngStreams(9).get("trace")
    return synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=duration,
                            rng=rng, registry=_registry())


def _fingerprint(system):
    """Everything observable about a run, for exact comparison."""
    stats = system.cluster.stats
    return {
        "per_engine": [
            [r.request_id for r in engine.all_requests]
            for engine in system.engines
        ],
        "dispatched": stats.dispatched,
        "queued": stats.queued,
        "spills": stats.spills,
        "shed": stats.shed,
        "deprioritized": stats.deprioritized,
        "queue_delays": list(stats.queue_delays),
        "ttfts": sorted(
            (r.request_id, r.ttft)
            for r in system.all_requests()
            if r.first_token_time is not None
        ),
        "events": system.sim.processed_events,
    }


def _run(policy, trace, *, engine_config=None, churn=False, **kwargs):
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=4, dispatch_policy=policy, seed=5,
        registry=_registry(),
        **({"engine_config": engine_config} if engine_config else {}),
        **kwargs)
    if churn:
        system.sim.schedule_at(4.0, system.cluster.stall_replica, 2, 2.5)
        system.sim.schedule_at(6.0, system.cluster.drain_replica, 1)
        system.sim.schedule_at(9.0, system.cluster.fail_replica, 3)
    system.run_trace(trace.fresh())
    return _fingerprint(system)


def _unsaturated(policy):
    return _run(policy, _trace(14.0))


def _saturated(policy):
    # Tiny batch caps force the backpressure saturation filter and the
    # global queue on.
    return _run(policy, _trace(40.0),
                engine_config=EngineConfig(max_batch_size=4))


def _slo_shed(policy):
    return _run(policy, _trace(40.0),
                engine_config=EngineConfig(max_batch_size=4),
                slo_policy=SloPolicy(ttft_deadline=2.0, mode="shed"))


def _lifecycle_churn(policy):
    # Stall + drain + crash mid-run: eligibility changes and the bulk-move
    # counter resync.
    return _run(policy, _trace(30.0),
                engine_config=EngineConfig(max_batch_size=6), churn=True)


def _no_backpressure(policy):
    return _run(policy, _trace(40.0),
                engine_config=EngineConfig(max_batch_size=4),
                backpressure=False)


def _heterogeneous(policy):
    # Mixed specs make capability weights non-uniform.
    return _run(policy, _trace(20.0),
                replica_specs=["a100-80gb", "a40-48gb", "a40-48gb",
                               "a100-24gb"])


def _region_tenancy_slo(policy):
    """2 shards keyed by tenant, Zipf-skewed tenants, DRR lanes with
    quotas and SLO shedding: the hot shard spills arrivals to its sibling
    and the sibling steals from its lanes."""
    population = TenantPopulation.build(6, skew=1.2)
    trace = population.synthesize(
        rps=14.0, duration=14.0, rng=RngStreams(9).get("trace"),
        registry=_registry())
    tenancy = TenantFairnessPolicy.from_shares(
        population.shares(), capacity_rps=14.0,
        classes=DEFAULT_SLO_CLASSES, quota_burst=4.0)
    region = ServingRegion.build(
        "chameleon", n_replicas=2, dispatch_policy=policy,
        registry=_registry(), seed=5,
        engine_config=EngineConfig(max_batch_size=4),
        tenancy=tenancy,
        slo_policy=SloPolicy(ttft_deadline=4.0, mode="shed"),
        region=RegionConfig(n_shards=2, shard_key="tenant"))
    region.run_trace(trace.fresh())
    return {
        "shards": [_fingerprint(system) for system in region.systems],
        "books": [
            [[key, dataclasses.asdict(book)]
             for key, book in system.cluster.stats.tenants.items()]
            for system in region.systems
        ],
        "routed": list(region.stats.routed),
        "cross_shard_spills": region.stats.cross_shard_spills,
        "steals": region.stats.steals,
    }


SCENARIOS = {
    **{f"{regime.__name__[1:]}/{policy}": (regime, policy)
       for regime in (_unsaturated, _saturated, _slo_shed,
                      _lifecycle_churn, _no_backpressure)
       for policy in POLICIES},
    **{f"heterogeneous/{policy}": (_heterogeneous, policy)
       for policy in ("least_loaded", "p2c", "token_weighted")},
    "region_tenancy_slo/least_loaded": (_region_tenancy_slo, "least_loaded"),
}


#: Fingerprint fields stored as (length, digest) to keep the fixture small.
_DIGESTED = ("per_engine", "queue_delays", "ttfts")


def _compact(fingerprint: dict) -> dict:
    """Replace the long per-request lists of a run fingerprint by their
    length and a sha256 of their JSON text (``repr`` floats, so the digest
    changes with any bit of any value)."""
    out = dict(fingerprint)
    for key in _DIGESTED:
        text = json.dumps(out[key], separators=(",", ":"))
        out[key] = [len(out[key]),
                    hashlib.sha256(text.encode()).hexdigest()[:16]]
    out["per_engine_counts"] = [len(ids) for ids in fingerprint["per_engine"]]
    return out


def golden_record(name: str) -> dict:
    """One scenario's compacted fingerprint in its JSON form."""
    regime, policy = SCENARIOS[name]
    record = regime(policy)
    if "shards" in record:
        record["shards"] = [_compact(shard) for shard in record["shards"]]
    else:
        record = _compact(record)
    return json.loads(json.dumps(record))


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
    assert golden_record(name) == golden[name]


def test_fixture_covers_every_scenario(golden):
    assert sorted(golden) == sorted(SCENARIOS)


def test_scenarios_reach_their_paths(golden):
    """The regimes do what they are named for, so a match is meaningful."""
    for policy in POLICIES:
        assert golden[f"unsaturated/{policy}"]["queued"] == 0
        assert golden[f"saturated/{policy}"]["queued"] > 0
        assert golden[f"slo_shed/{policy}"]["shed"] > 0
        assert golden[f"no_backpressure/{policy}"]["queued"] == 0
        churn = golden[f"lifecycle_churn/{policy}"]
        assert all(churn["per_engine_counts"]), policy
    assert golden["unsaturated/bounded_affinity"]["spills"] > 0
    region = golden["region_tenancy_slo/least_loaded"]
    assert region["cross_shard_spills"] > 0
    assert region["steals"] > 0
    assert sum(shard["shed"] for shard in region["shards"]) > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        raise SystemExit(__doc__)
    _regenerate()
    print(f"wrote {FIXTURE}")
