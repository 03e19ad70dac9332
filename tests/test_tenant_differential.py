"""Differential checks: the fairness machinery is invisible when off.

The tenant-fairness stack must be pay-for-what-you-use:

* A system built without a ``tenancy`` policy executes **byte-identically**
  to the pre-fairness dispatcher — same per-engine request sequences, same
  stats, same event counts — whether or not the trace carries tenant or
  class labels (fig31 labels tenants without a fairness policy).
* A 1-tenant :class:`TenantPopulation` synthesizes **exactly** the
  anonymous generator's trace at equal seeds (same arrivals, lengths,
  adapter picks, ids), with only the labels added.
* Without a fairness policy, ``summary().extra`` carries no tenant block.
* With a fairness policy, an anonymous trace — one uncapped lane — runs
  **byte-identically** to the policy-free dispatcher: deficit round-robin
  over a single lane is a FIFO, under every routing policy and SLO mode.

The driver-level guarantee (fig26–fig31 ``--quick`` JSONs byte-identical
across the PR) is the same property end-to-end; these tests pin it at the
component level so a regression fails fast and points at the layer.
"""

from __future__ import annotations

import pytest

from repro.adapters.registry import AdapterRegistry
from repro.hardware.cluster import DataParallelCluster
from repro.llm.model import LLAMA_7B
from repro.serving.admission import SloPolicy, TenantFairnessPolicy
from repro.serving.engine import EngineConfig
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.tenants import DEFAULT_SLO_CLASSES, TenantPopulation
from repro.workload.trace import SPLITWISE_PROFILE, synthesize_trace

_REGISTRY = None


def _registry():
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = AdapterRegistry.build(LLAMA_7B, 60)
    return _REGISTRY


def _anonymous_trace(rps=25.0, duration=12.0, seed=9):
    rng = RngStreams(seed).get("trace")
    return synthesize_trace(SPLITWISE_PROFILE, rps=rps, duration=duration,
                            rng=rng, registry=_registry())


def _run(trace, *, slo=None, seed=5, policy="least_loaded", tenancy=None):
    system = MultiReplicaSystem.build(
        "chameleon", n_replicas=2, dispatch_policy=policy,
        registry=_registry(), seed=seed, backpressure=True,
        engine_config=EngineConfig(max_batch_size=4), slo_policy=slo,
        tenancy=tenancy)
    system.run_trace(trace.fresh(), horizon=trace.duration)
    return system


def _fingerprint(system):
    stats = system.cluster.stats
    return {
        "per_engine": [[r.request_id for r in engine.all_requests]
                       for engine in system.engines],
        "dispatched": stats.dispatched,
        "queued": stats.queued,
        "shed": stats.shed,
        "queue_delays": list(stats.queue_delays),
        "events": system.sim.processed_events,
        "ttfts": sorted(
            (r.request_id, r.ttft) for r in system.all_requests()
            if r.first_token_time is not None),
    }


# --------------------------------------------------------------------- #
# Labels without a policy change nothing
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("policy", ("least_loaded", "p2c", "round_robin"))
def test_tenant_labels_without_policy_are_inert(policy):
    anon = _anonymous_trace()
    labelled = _anonymous_trace()
    labelled.label_tenants(8, RngStreams(9).get("tenants"))
    base = _run(anon, policy=policy)
    tagged = _run(labelled, policy=policy)
    assert _fingerprint(base) == _fingerprint(tagged)
    assert not tagged.cluster.stats.tenants  # books never materialize


def test_class_labels_without_classes_are_inert():
    """slo_class labels replay unchanged against a class-blind SloPolicy."""
    population = TenantPopulation.build(4)
    trace = population.synthesize(
        rps=30.0, duration=12.0, rng=RngStreams(9).get("trace"),
        registry=_registry())
    slo = SloPolicy(ttft_deadline=1.0, mode="shed")  # classes=None
    labelled_print = _fingerprint(_run(trace, slo=slo))
    for request in trace.requests:
        request.tenant_id = None
        request.slo_class = None
    assert labelled_print == _fingerprint(_run(trace, slo=slo))


def test_no_tenant_block_without_policy():
    trace = _anonymous_trace()
    trace.label_tenants(4, RngStreams(9).get("tenants"))
    system = _run(trace)
    extra = system.summary(duration=trace.duration).extra
    assert not any(key.startswith("tenant_") for key in extra)


# --------------------------------------------------------------------- #
# One uncapped lane == the FIFO
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("rps", (25.0, 60.0))
@pytest.mark.parametrize("mode", (None, "shed", "deprioritize"))
@pytest.mark.parametrize("policy", DataParallelCluster.POLICIES)
def test_one_lane_fairness_equals_fifo(policy, mode, rps):
    """An anonymous trace under a fairness policy queues in one lane with
    no quota; deficit round-robin over it must serve exactly the FIFO's
    order at exactly the FIFO's instants, and shed or deprioritize exactly
    the same arrivals."""
    trace = _anonymous_trace(rps=rps)
    slo = None if mode is None else SloPolicy(ttft_deadline=1.0, mode=mode)
    fifo = _run(trace, slo=slo, policy=policy)
    fair = _run(trace, slo=slo, policy=policy,
                tenancy=TenantFairnessPolicy())
    assert fifo.cluster.stats.queued > 0, "the run must exercise the queue"
    assert _fingerprint(fair) == _fingerprint(fifo)


# --------------------------------------------------------------------- #
# 1-tenant population == anonymous generator
# --------------------------------------------------------------------- #
def test_one_tenant_population_matches_anonymous_generator():
    population = TenantPopulation.build(1)
    rng_a = RngStreams(9).get("trace")
    rng_b = RngStreams(9).get("trace")
    labelled = population.synthesize(rps=25.0, duration=12.0, rng=rng_a,
                                     registry=_registry())
    anon = synthesize_trace(SPLITWISE_PROFILE, rps=25.0, duration=12.0,
                            rng=rng_b, registry=_registry())
    assert len(labelled.requests) == len(anon.requests)
    for mine, theirs in zip(labelled.requests, anon.requests):
        assert mine.request_id == theirs.request_id
        assert mine.arrival_time == theirs.arrival_time
        assert mine.input_tokens == theirs.input_tokens
        assert mine.output_tokens == theirs.output_tokens
        assert mine.adapter_id == theirs.adapter_id
        assert mine.tenant_id == 0 and theirs.tenant_id is None
        assert mine.slo_class == "gold" and theirs.slo_class is None


def test_one_tenant_run_matches_anonymous_run():
    """End to end: the labelled 1-tenant trace executes identically to the
    anonymous one when no fairness policy is attached."""
    population = TenantPopulation.build(1)
    labelled = population.synthesize(
        rps=25.0, duration=12.0, rng=RngStreams(9).get("trace"),
        registry=_registry())
    assert _fingerprint(_run(labelled)) \
        == _fingerprint(_run(_anonymous_trace()))


# --------------------------------------------------------------------- #
# Class-aware deadlines degrade to the global deadline
# --------------------------------------------------------------------- #
def test_classless_policy_equals_class_policy_on_unlabelled_trace():
    trace = _anonymous_trace()
    plain = SloPolicy(ttft_deadline=1.0, mode="shed")
    classed = SloPolicy(ttft_deadline=1.0, mode="shed",
                        classes=DEFAULT_SLO_CLASSES)
    assert _fingerprint(_run(trace, slo=plain)) \
        == _fingerprint(_run(trace, slo=classed))
