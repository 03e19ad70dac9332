"""The benchmark's workloads: seeded inputs and the systems they run on.

Each workload turns a seed into a request list (the only thing the seed
touches) and builds a fresh serving system with a fixed system seed, so
the seed changes the traffic and never the program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.experiments.common import standard_registry, standard_trace, trace_slo
from repro.serving.admission import SloPolicy, TenantFairnessPolicy
from repro.serving.region import RegionConfig, ServingRegion
from repro.serving.replica import MultiReplicaSystem
from repro.sim.rng import RngStreams
from repro.workload.tenants import (
    DEFAULT_SLO_CLASSES,
    TenantPopulation,
    inject_hot_tenant_storm,
)
from repro.workload.trace import TraceProfile

#: Sim metrics skip arrivals before this many simulated seconds (cold caches).
WARMUP_S = 20.0

#: The bursty profiles burst for 12 s every 120 s from t = 0, so a 500 s
#: sub-run holds the four post-warm-up bursts a 600 s one does, for 5/6 of
#: the host time; the TTFT tail is set by those bursts.
CHAMELEON_SUBRUN_S = 500.0

#: The system under test is always built with this seed; the workload seed
#: only shapes the generated traffic.
SYSTEM_SEED = 0

#: 32-token prompts, 4-token outputs: the control plane, not the cost model,
#: dominates each request.
LIGHT_PROFILE = TraceProfile(
    name="light", mean_input_tokens=32.0, mean_output_tokens=4.0,
    input_sigma=0.0, output_sigma=0.0,
    max_input_tokens=32, max_output_tokens=4, bursty=True,
)


@dataclass
class Inputs:
    """What one run receives: the requests and the SLO they are judged by."""

    requests: list
    #: request -> its TTFT deadline in seconds
    deadline: Callable
    #: build arguments that come with the traffic (adapter pool, MLQ SLO,
    #: SLO classes and tenant quotas)
    build_args: dict


@dataclass(frozen=True)
class Workload:
    """One traffic mix; why each exists is in perfbench/README.md."""

    name: str
    #: simulated seconds per sub-run
    duration: float
    #: sub-runs per run, each on its own trace; sim metrics pool them
    subruns: int
    make_inputs: Callable[[int, float], Inputs]
    build: Callable[[Inputs], object]


# ---------------------------------------------------------------------- #
# paper-chameleon / adapter-churn: the paper's cache + MLQ stack
# ---------------------------------------------------------------------- #
def _chameleon_inputs(n_adapters: int, popularity: str, rps: float):
    def make(seed: int, duration: float) -> Inputs:
        registry = standard_registry(n_adapters=n_adapters)
        trace = standard_trace(rps, duration, registry, seed=seed,
                               adapter_popularity=popularity)
        slo = trace_slo(trace, registry)
        return Inputs(requests=trace.requests,
                      deadline=lambda request, slo=slo: slo,
                      build_args={"registry": registry, "slo": slo})
    return make


def _chameleon_build(n_replicas: int):
    def build(inputs: Inputs):
        return MultiReplicaSystem.build(
            "chameleon", n_replicas=n_replicas,
            dispatch_policy="least_loaded", backpressure=True,
            seed=SYSTEM_SEED, **inputs.build_args)
    return build


# ---------------------------------------------------------------------- #
# dispatch-storm: sharded control plane under a hot-tenant storm
# ---------------------------------------------------------------------- #
STORM_RPS = 4500.0
STORM_TENANTS = 8
STORM_DEADLINE_S = 0.5


def _storm_inputs(seed: int, duration: float) -> Inputs:
    streams = RngStreams(seed)
    population = TenantPopulation.build(STORM_TENANTS, skew=1.2)
    base = population.synthesize(
        rps=STORM_RPS, duration=duration, rng=streams.get("trace"),
        profile=LIGHT_PROFILE)
    trace = inject_hot_tenant_storm(
        base, population, 0, storm_rps=1.5 * STORM_RPS,
        start=duration / 2, storm_duration=duration / 4,
        rng=streams.get("storm"))
    slo = SloPolicy(ttft_deadline=STORM_DEADLINE_S, mode="shed",
                    classes=DEFAULT_SLO_CLASSES)
    tenancy = TenantFairnessPolicy.from_shares(
        population.shares(), capacity_rps=STORM_RPS,
        classes=DEFAULT_SLO_CLASSES)
    return Inputs(requests=trace.requests, deadline=slo.deadline_for,
                  build_args={"slo_policy": slo, "tenancy": tenancy})


def _storm_build(inputs: Inputs):
    return ServingRegion.build(
        "slora", n_replicas=8, dispatch_policy="least_loaded",
        region=RegionConfig(n_shards=4), predictor_accuracy=None,
        seed=SYSTEM_SEED, **inputs.build_args)


WORKLOADS = {
    w.name: w for w in (
        # The paper's operating point: engine loop and MLQ dominate, the
        # cache mostly hits.
        Workload("paper-chameleon", duration=CHAMELEON_SUBRUN_S, subruns=3,
                 make_inputs=_chameleon_inputs(100, "powerlaw", 88.0),
                 build=_chameleon_build(8)),
        # The same cache, used on its eviction/load path.
        Workload("adapter-churn", duration=CHAMELEON_SUBRUN_S, subruns=5,
                 make_inputs=_chameleon_inputs(1000, "uniform", 24.0),
                 build=_chameleon_build(4)),
        # The control plane: fair lanes, SLO shedding, spill and steal.
        Workload("dispatch-storm", duration=40.0, subruns=1,
                 make_inputs=_storm_inputs, build=_storm_build),
    )
}
