"""Measuring one workload run: sub-runs, end-to-end and per-layer metrics.

A run simulates ``Workload.subruns`` sub-runs, each on its own trace drawn
from the run's seed.  Host metrics are medians over sub-runs; sim metrics
pool the post-warm-up samples of every sub-run.  The traced run wraps the
layers' entry points (see ``layers``) around the first sub-run and repeats
it untraced beside, for the overhead ratio and the fingerprint check.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from perfbench import gate
from perfbench.layers import LayerClock, entry_points, layer_self_times
from perfbench.workloads import WARMUP_S, Workload

#: (name, unit) of the end-to-end metrics, in print order.
END_TO_END = (
    ("host_us_per_req", "us"),
    ("total_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ttft_p50_s", "s"),
    ("sim_ttft_p99_s", "s"),
    ("sim_tbt_p99_s", "s"),
    ("sim_slo_attainment", "ratio"),
    ("sim_completed_share", "ratio"),
)


# ---------------------------------------------------------------------- #
# One sub-run
# ---------------------------------------------------------------------- #
PHASES = ("synth", "build", "run", "summary")


@dataclass
class SubRun:
    """Host timings, simulated outcomes and gate verdict of one sub-run."""

    arrivals: int
    #: process CPU seconds and wall seconds per phase (``PHASES``)
    cpu_s: dict
    wall_s: dict
    fingerprint: str
    violations: list
    #: post-warm-up samples of finished requests
    ttft: np.ndarray
    gaps: np.ndarray
    post_arrivals: int
    attained: int
    #: finished arrivals over the whole run (warm-up included)
    finished: int
    #: arrivals neither finished nor shed (lost or left unfinished)
    unserved: int
    #: reference slices run between chunks of the run, and their CPU time
    slices: int
    reference_cpu_s: float
    layers: dict = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """Factor taking this machine's host times to reference speed."""
        return ReferenceLoop.NOMINAL_S * self.slices / self.reference_cpu_s

    @property
    def setup_s(self) -> float:
        """CPU seconds of trace synthesis, SLO computation and build."""
        return self.cpu_s["synth"] + self.cpu_s["build"]

    @property
    def total_wall_s(self) -> float:
        return sum(self.wall_s.values())


class ReferenceLoop:
    """A fixed slice of interpreter work that shows how fast the machine
    runs right now.

    On a shared machine the CPU time of one and the same simulation moves
    by up to 1.5x from minute to minute.  A slice after every chunk of
    simulated events meets the same contention as the simulator, and host
    metrics are scaled to the speed at which one slice takes ``NOMINAL_S``
    (its median on a 2-vCPU 2.1 GHz x86-64 VM under Python 3.11).  The
    slice mixes heap operations and random reads of a table larger than
    the CPU caches, like the event loop does.  It allocates no containers,
    so no garbage collection, whose cost grows with the simulator's live
    heap, lands in it.
    """

    ITERATIONS = 8000
    NOMINAL_S = 0.012

    def __init__(self) -> None:
        self._table = [(i, (i * 7919) % 100_003) for i in range(200_000)]

    def slice(self) -> int:
        table, size = self._table, len(self._table)
        heap: list = []
        total, state = 0, 1
        for i in range(self.ITERATIONS):
            state = (state * 1_103_515_245 + 12_345) & 0x7FFFFFFF
            key, value = table[state % size]
            total += key
            heapq.heappush(heap, value * 1_000_000 + i)
            if len(heap) > 256:
                heapq.heappop(heap)
        return total


#: Simulated events between two reference slices.
CHUNK_EVENTS = 8000

#: Set-ups measured per run at the least (extra set-ups build and discard
#: a system when a run has fewer sub-runs).  Set-up is one call that cannot
#: be sliced, so set-ups take the median speed of the run's sub-runs.
MIN_SETUPS = 3


def _drive(system, requests, reference: ReferenceLoop) -> tuple:
    """Run the trace until the event heap drains, in chunks of
    ``CHUNK_EVENTS`` with a reference slice after each.  Returns the
    slices' (CPU seconds, wall seconds, count)."""
    system.run_trace(requests, horizon=0.0)  # schedules every arrival
    sim = system.sim
    cpu = wall = 0.0
    slices = 0
    while sim.pending_events:
        sim.run(max_events=CHUNK_EVENTS)
        start = _now()
        reference.slice()
        end = _now()
        wall += end[0] - start[0]
        cpu += end[1] - start[1]
        slices += 1
    return cpu, wall, slices


def sub_seeds(seed: int, count: int) -> list[int]:
    """Independent trace seeds for the sub-runs of one run."""
    return [int(child.generate_state(1)[0])
            for child in np.random.SeedSequence(seed).spawn(count)]


class SimulationCrash(RuntimeError):
    """The program under test raised; every arrival of the sub-run fails."""

    def __init__(self, arrivals: int) -> None:
        super().__init__(f"simulation crashed with {arrivals} arrivals")
        self.arrivals = arrivals


def simulate(workload: Workload, seed: int, reference: ReferenceLoop, *,
             duration: Optional[float] = None, warmup: float = WARMUP_S,
             patch=None, inspect: Optional[Callable] = None) -> SubRun:
    """Set up, run and summarize one sub-run, then gate it.

    ``patch`` (a context manager) is held from system build to summary,
    after the trace is synthesized.  ``inspect(system, requests)`` runs
    after the gate; its result lands in ``SubRun.layers``.
    """
    gc.collect()
    marks = [_now()]
    inputs = workload.make_inputs(seed, duration or workload.duration)
    marks.append(_now())
    try:
        with patch if patch is not None else nullcontext():
            system = workload.build(inputs)
            marks.append(_now())
            ref_cpu, ref_wall, slices = _drive(
                system, inputs.requests, reference)
            marks.append(_now())
            system.summary(warmup=warmup)
            marks.append(_now())
    except Exception as exc:
        raise SimulationCrash(len(inputs.requests)) from exc

    requests = inputs.requests
    violations = gate.check(system, requests)
    post = [r for r in requests if r.arrival_time >= warmup]
    done = [r for r in post if r.finished]
    ttft = np.fromiter((r.ttft for r in done), dtype=float, count=len(done))
    gaps = token_gaps(done)
    deadline = inputs.deadline
    cpu_s = {p: marks[i + 1][1] - marks[i][1] for i, p in enumerate(PHASES)}
    wall_s = {p: marks[i + 1][0] - marks[i][0] for i, p in enumerate(PHASES)}
    cpu_s["run"] -= ref_cpu
    wall_s["run"] -= ref_wall
    result = SubRun(
        arrivals=len(requests), cpu_s=cpu_s, wall_s=wall_s,
        slices=slices, reference_cpu_s=ref_cpu,
        fingerprint=gate.fingerprint(requests),
        violations=violations,
        ttft=ttft, gaps=gaps, post_arrivals=len(post),
        attained=sum(1 for r in done if r.ttft <= deadline(r)),
        finished=sum(1 for r in requests if r.finished),
        unserved=sum(1 for r in requests if not (r.finished or r.shed)),
    )
    if inspect is not None:
        result.layers = inspect(system, requests)
    return result


def token_gaps(requests) -> np.ndarray:
    """Every gap between consecutive output tokens of each request."""
    lengths = np.fromiter((len(r.token_times) for r in requests),
                          dtype=np.intp, count=len(requests))
    times = np.fromiter(
        itertools.chain.from_iterable(r.token_times for r in requests),
        dtype=float, count=int(lengths.sum()))
    keep = np.ones(max(times.size - 1, 0), dtype=bool)
    ends = np.cumsum(lengths)[:-1] - 1  # last token of every request but one
    keep[ends[ends < keep.size]] = False
    return np.diff(times)[keep]


def _now() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


# ---------------------------------------------------------------------- #
# End-to-end run (--trace 0)
# ---------------------------------------------------------------------- #
@dataclass
class Outcome:
    """What one run reports: metrics plus the correctness verdict."""

    #: name -> {"value": ..., "unit": ...}
    metrics: dict
    attempted: int
    #: arrivals neither finished nor shed
    unserved: int
    violations: list
    fingerprint: str
    notes: list


def end_to_end(workload: Workload, seed: int, seconds: float, *,
               duration: Optional[float] = None,
               warmup: float = WARMUP_S) -> Outcome:
    """Simulate every sub-run, then repeat them for host samples until
    ``seconds`` have passed.  Host CPU per request pools every sub-run;
    wall and set-up times are medians; sim metrics pool the first pass."""
    start = time.perf_counter()
    reference = ReferenceLoop()
    seeds = sub_seeds(seed, workload.subruns)
    first = [simulate(workload, s, reference, duration=duration,
                      warmup=warmup)
             for s in seeds]
    host = list(first)
    violations = [v for r in first for v in r.violations]
    typical = float(np.median([r.total_wall_s for r in first]))
    while time.perf_counter() - start + typical <= seconds:
        index = len(host) % len(seeds)
        again = simulate(workload, seeds[index], reference,
                         duration=duration, warmup=warmup)
        if again.fingerprint != first[index].fingerprint:
            violations.append(gate.Violation(
                "sim", f"sub-run {index}",
                "repeat of the same inputs gave another fingerprint"))
        host.append(again)

    ttft = np.concatenate([r.ttft for r in first])
    gaps = np.concatenate([r.gaps for r in first])
    arrivals = sum(r.arrivals for r in first)
    post = sum(r.post_arrivals for r in first)
    setups = [r.setup_s for r in host]
    while len(setups) < MIN_SETUPS:
        setups.append(_setup_only(
            workload, seeds[len(setups) % len(seeds)], duration))
    scale = _median([r.scale for r in host])
    host_arrivals = sum(r.arrivals for r in host)
    metrics = {
        "host_us_per_req": sum(r.cpu_s["run"] * r.scale for r in host)
        / host_arrivals * 1e6,
        "total_wall_s": _median([r.total_wall_s * r.scale for r in host]),
        "setup_s": _median(setups) * scale,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_ttft_p50_s": _percentile(ttft, 50),
        "sim_ttft_p99_s": _percentile(ttft, 99),
        "sim_tbt_p99_s": _percentile(gaps, 99),
        "sim_slo_attainment": _ratio(sum(r.attained for r in first), post),
        "sim_completed_share": sum(r.finished for r in first) / arrivals,
    }
    return Outcome(
        metrics={name: {"value": metrics[name], "unit": unit}
                 for name, unit in END_TO_END},
        attempted=arrivals,
        unserved=sum(r.unserved for r in first),
        violations=violations,
        fingerprint=gate.combine(r.fingerprint for r in first),
        notes=[f"sub-runs={len(first)} host samples={len(host)} "
               f"ttft samples={ttft.size} tbt samples={gaps.size}",
               "unscaled: "
               f"{sum(r.cpu_s['run'] for r in host) / host_arrivals * 1e6:.6g}"
               " us/req, "
               f"setup {_median(setups):.6g} s, "
               f"machine speed x{scale:.4f} of reference"]
        + [f"sub-run {i} fingerprint {r.fingerprint}"
           for i, r in enumerate(first)],
    )


def _median(values) -> float:
    return float(np.median(values))


def _setup_only(workload: Workload, seed: int,
                duration: Optional[float]) -> float:
    """CPU seconds of one more set-up of a sub-run."""
    gc.collect()
    start = time.process_time()
    workload.build(workload.make_inputs(seed, duration or workload.duration))
    return time.process_time() - start


def _percentile(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


# ---------------------------------------------------------------------- #
# Traced run (--trace 1)
# ---------------------------------------------------------------------- #
#: (name, unit) of the per-layer metrics, in print order.
PER_LAYER = (
    ("sim.events", "count"), ("sim.events_per_req", "events/req"),
    ("sim.self_host_s", "s"),
    ("engine.submit_calls", "count"), ("engine.submit_host_s", "s"),
    ("engine.admit_calls", "count"), ("engine.admit_host_s", "s"),
    ("engine.admit_ok_ratio", "ratio"), ("engine.iterations", "count"),
    ("engine.decode_tokens_per_iter", "tokens/iter"),
    ("engine.queue_wait_p99_sim_s", "s"), ("engine.stall_sim_s", "s"),
    ("scheduler.select_calls", "count"), ("scheduler.select_host_s", "s"),
    ("scheduler.selects_per_admission", "ratio"),
    ("scheduler.enqueue_host_s", "s"), ("scheduler.on_schedule_host_s", "s"),
    ("scheduler.queued_ids_host_s", "s"), ("scheduler.mlq_refreshes", "count"),
    ("adapter_cache.hit_rate", "ratio"), ("adapter_cache.evictions", "count"),
    ("adapter_cache.evicted_mb", "MB"),
    ("adapter_cache.acquire_calls", "count"),
    ("adapter_cache.acquire_host_s", "s"),
    ("adapter_cache.make_room_calls", "count"),
    ("adapter_cache.make_room_host_s", "s"),
    ("adapter_cache.evict_order_calls", "count"),
    ("adapter_cache.evict_order_host_s", "s"),
    ("adapter_cache.set_queued_needed_host_s", "s"),
    ("adapter_cache.load_wait_p99_sim_s", "s"),
    ("pcie.transfers", "count"), ("pcie.mb_moved", "MB"),
    ("pcie.utilization", "ratio"), ("pcie.queue_delay_p99_sim_s", "s"),
    ("pcie.submit_host_s", "s"),
    ("costmodel.calls", "count"), ("costmodel.host_s", "s"),
    ("predictor.annotate_calls", "count"), ("predictor.host_s", "s"),
    ("cluster.dispatch_calls", "count"), ("cluster.dispatch_host_s", "s"),
    ("cluster.finish_hook_host_s", "s"), ("cluster.queued_share", "ratio"),
    ("cluster.queue_wait_p99_sim_s", "s"), ("cluster.shed", "count"),
    ("cluster.donated", "count"), ("cluster.stolen", "count"),
    ("region.dispatch_calls", "count"), ("region.dispatch_host_s", "s"),
    ("region.steal_host_s", "s"), ("region.spills", "count"),
    ("region.steals", "count"),
    ("admission.quota_throttles", "count"),
    ("admission.quota_borrows", "count"),
    ("admission.deprioritized", "count"),
    ("workload.synth_host_s", "s"), ("systems.build_host_s", "s"),
    ("metrics.summary_host_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _p99(values) -> float:
    return _percentile(np.fromiter(values, dtype=float), 99)


def layer_counts(clock: LayerClock, transfers: list) -> Callable:
    """An ``inspect`` hook reading every layer's counters after the run."""
    from repro.hardware.gpu import MB

    def inspect(system, requests) -> dict:
        replicas = gate.replicas_of(system)
        engines = [r.engine for r in replicas]
        clusters = [shard.cluster for shard in gate.shards_of(system)]
        managers = [r.adapter_manager for r in replicas]
        links = [r.link for r in replicas]
        calls, self_s = clock.calls, clock.self_s
        n = len(requests)
        events = system.sim.processed_events
        admissions = sum(e.stats.admissions for e in engines)
        iterations = sum(e.stats.iterations for e in engines)
        lookups = sum(m.stats.hits + m.stats.overlapped + m.stats.misses
                      for m in managers)
        span = system.sim.now
        arrivals = sum(c.stats.arrivals for c in clusters)
        books = [b for c in clusters for b in c.stats.tenants.values()]
        region = getattr(system, "stats", None)
        return {
            "sim.events": events,
            "sim.events_per_req": events / n,
            "sim.self_host_s": self_s["sim.run"],
            "engine.submit_calls": calls["engine.submit"],
            "engine.submit_host_s": self_s["engine.submit"],
            "engine.admit_calls": calls["engine.admit"],
            "engine.admit_host_s": self_s["engine.admit"],
            "engine.admit_ok_ratio": _ratio(admissions,
                                            calls["engine.admit"]),
            "engine.iterations": iterations,
            "engine.decode_tokens_per_iter": _ratio(
                sum(e.stats.decode_tokens for e in engines), iterations),
            "engine.queue_wait_p99_sim_s": _p99(
                r.queueing_delay for r in requests
                if r.admit_time is not None),
            "engine.stall_sim_s": sum(e.stats.stall_time for e in engines),
            "scheduler.select_calls": calls["scheduler.select"],
            "scheduler.select_host_s": self_s["scheduler.select"],
            "scheduler.selects_per_admission": _ratio(
                calls["scheduler.select"], admissions),
            "scheduler.enqueue_host_s": self_s["scheduler.enqueue"],
            "scheduler.on_schedule_host_s": self_s["scheduler.on_schedule"],
            "scheduler.queued_ids_host_s": self_s["scheduler.queued_ids"],
            "scheduler.mlq_refreshes": sum(
                getattr(e.scheduler, "refresh_count", 0) for e in engines),
            "adapter_cache.hit_rate": _ratio(
                sum(m.stats.hits for m in managers), lookups),
            "adapter_cache.evictions": sum(
                m.stats.evictions for m in managers),
            "adapter_cache.evicted_mb": sum(
                m.stats.evicted_bytes for m in managers) / MB,
            "adapter_cache.acquire_calls": calls["adapter_cache.acquire"],
            "adapter_cache.acquire_host_s": self_s["adapter_cache.acquire"],
            "adapter_cache.make_room_calls": calls["adapter_cache.make_room"],
            "adapter_cache.make_room_host_s":
                self_s["adapter_cache.make_room"],
            "adapter_cache.evict_order_calls":
                calls["adapter_cache.evict_order"],
            "adapter_cache.evict_order_host_s":
                self_s["adapter_cache.evict_order"],
            "adapter_cache.set_queued_needed_host_s":
                self_s["adapter_cache.set_queued_needed"],
            "adapter_cache.load_wait_p99_sim_s": _p99(
                r.adapter_load_critical_path for r in requests
                if r.adapter_load_critical_path > 0),
            "pcie.transfers": sum(link.total_transfers for link in links),
            "pcie.mb_moved": sum(
                link.total_bytes_moved for link in links) / MB,
            "pcie.utilization": float(np.mean(
                [link.busy_time / span for link in links])) if span else 0.0,
            "pcie.queue_delay_p99_sim_s": _p99(
                t.queueing_delay for t in transfers
                if t.started_at is not None),
            "pcie.submit_host_s": self_s["pcie.submit"],
            "costmodel.calls": sum(
                v for k, v in calls.items() if k.startswith("costmodel.")),
            "costmodel.host_s": layer_self_times(clock).get("costmodel", 0.0),
            "predictor.annotate_calls": calls["predictor.annotate"],
            "predictor.host_s": self_s["predictor.annotate"],
            "cluster.dispatch_calls": calls["cluster.dispatch"],
            "cluster.dispatch_host_s": self_s["cluster.dispatch"],
            "cluster.finish_hook_host_s": self_s["cluster.finish_hook"],
            "cluster.queued_share": _ratio(
                sum(c.stats.queued for c in clusters), arrivals),
            "cluster.queue_wait_p99_sim_s": _p99(
                r.dispatch_queue_delay for r in requests if r.finished),
            "cluster.shed": sum(c.stats.shed for c in clusters),
            "cluster.donated": sum(c.stats.donated for c in clusters),
            "cluster.stolen": sum(c.stats.stolen for c in clusters),
            "region.dispatch_calls": calls["region.dispatch"],
            "region.dispatch_host_s": self_s["region.dispatch"],
            "region.steal_host_s": self_s["region.steal"],
            "region.spills": getattr(region, "cross_shard_spills", 0),
            "region.steals": getattr(region, "steals", 0),
            "admission.quota_throttles": sum(b.throttled for b in books),
            "admission.quota_borrows": sum(b.borrowed for b in books),
            "admission.deprioritized": sum(
                c.stats.deprioritized for c in clusters),
        }

    return inspect


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(workload: Workload, seed: int, *,
           duration: Optional[float] = None,
           warmup: float = WARMUP_S) -> Outcome:
    """Per-layer metrics of the first sub-run, traced, beside an untraced
    run of the same inputs (for the overhead ratio and the fingerprint)."""
    first_seed = sub_seeds(seed, workload.subruns)[0]
    reference = ReferenceLoop()
    plain = simulate(workload, first_seed, reference, duration=duration,
                     warmup=warmup)
    transfers: list = []
    clock = LayerClock()
    run = simulate(workload, first_seed, reference,
                   duration=duration, warmup=warmup,
                   patch=clock.patched(entry_points(transfers)),
                   inspect=layer_counts(clock, transfers))
    violations = plain.violations + run.violations
    if run.fingerprint != plain.fingerprint:
        violations.append(gate.Violation(
            "trace", "traced sub-run",
            "fingerprint differs from the untraced run of the same inputs"))
    values = dict(run.layers)
    values.update({
        "workload.synth_host_s": run.cpu_s["synth"],
        "systems.build_host_s": run.cpu_s["build"],
        "metrics.summary_host_s": run.cpu_s["summary"],
        "trace.overhead_ratio": (run.cpu_s["run"] * run.scale)
        / (plain.cpu_s["run"] * plain.scale),
    })
    shares = layer_self_times(clock)
    total = sum(shares.values())
    notes = ["layer self time in the traced run: " + ", ".join(
        f"{layer} {seconds:.3f}s ({seconds / total:.0%})"
        for layer, seconds in sorted(shares.items(), key=lambda kv: -kv[1]))]
    return Outcome(
        metrics={name: {"value": values[name], "unit": unit}
                 for name, unit in PER_LAYER},
        attempted=run.arrivals,
        unserved=run.unserved,
        violations=violations,
        fingerprint=run.fingerprint,
        notes=notes,
    )
