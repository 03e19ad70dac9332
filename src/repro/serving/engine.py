"""The continuous-batching serving engine.

One engine owns one model replica: a GPU (or TP group), a host link, an
adapter manager and a scheduling policy.  It implements iteration-level
scheduling exactly as §2 describes: on every iteration the batch is updated —
finished requests leave, the policy admits new ones — and the iteration's
latency is computed by the calibrated cost model from the batch composition
(prefill work + decode step).

Key behaviours reproduced from the paper:

* Admission reserves KV-cache memory; the Cache Manager is asked to evict
  idle adapters when the reservation does not fit (§4.2.1 "dynamic cache
  sizing" — the cache shrinks exactly when serving state needs bytes).
* An admitted request whose adapter is still in flight waits in a
  ``pending_load`` set; the transfer time it waits is the *adapter loading
  latency on the critical path* (Figure 14).
* Optional chunked prefill (Sarathi-style): a per-iteration prefill-token
  budget, with decode always included (the Figure 8 "Chunk-Prefill" baseline).
* Opportunistic-bypass squashing (§4.3.3): the scheduler may remove a
  running request, rolling back all progress, to re-admit a bypassed one.

The iteration loop costs O(1) plus O(requests prefilled, admitted or
finished) per step, never O(batch):

* **Batch split by phase.**  The running batch is a list of prefilling
  requests and an insertion-ordered dict of decoding ones (keyed by
  identity).  Both keep batch-admission order, and every decoding request
  precedes every prefilling one in that order: each iteration's prefill
  plan is a prefix of the prefilling list, so prefill completes in order.
  A request's adapter rank is looked up once, when it enters the batch.
* **Running totals.**  The cost model's decode inputs (batch size, context
  tokens, rank sum, LoRA count) are kept as totals that change when a
  request joins or leaves decode; context tokens also grow by the batch
  size once per step.
* **Finish buckets.**  A decoding request sits in the bucket of the step
  that emits its last token, so a step pops one bucket instead of visiting
  the batch.  Single-token requests finish straight out of prefill; within
  a step they finish first, in plan order, then the bucket in batch order.
* **Step log.**  Each step's completion time is appended once to the
  engine's step log.  A decoding request's tokens are the log entries from
  its first-token step on, so nothing is written per request per step.

Visibility contract: a DECODE request's ``tokens_generated`` and
``token_times`` may lag the simulation.  They are brought current by every
engine method that reads them (:meth:`~ServingEngine.in_flight_token_load`,
:meth:`~ServingEngine.estimate_earliest_release`,
:meth:`~ServingEngine.squash`, :meth:`~ServingEngine.fail`), by
:meth:`~ServingEngine.sync_progress`, when ``run_trace`` returns, and
always when the request leaves decode (finished, rolled back or lost).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.adapters.registry import AdapterRegistry
from repro.hardware.gpu import GB, GpuDevice
from repro.hardware.pcie import PcieLink
from repro.llm.costmodel import CostModel
from repro.llm.model import ModelSpec
from repro.metrics.summary import RunSummary, summarize_run
from repro.predictor.output_length import OutputLengthPredictor
from repro.serving.admission import AdmissionContext, AdmitResult
from repro.serving.adapter_manager import AdapterManagerBase, AdapterState
from repro.serving.schedulers import Scheduler
from repro.sim.simulator import Simulator
from repro.workload.request import Request, RequestState


@dataclass
class EngineConfig:
    """Engine-level knobs (shared by every system variant)."""

    #: Cap on concurrently-admitted requests (running + waiting on adapters).
    #: High enough that GPU memory — translated into scheduling tokens — is
    #: the binding resource, as in the paper's testbed.
    max_batch_size: int = 256
    #: Per-iteration prefill token budget with request *splitting* (Sarathi
    #: chunked prefill); ``None`` disables splitting.  When set, it replaces
    #: ``prefill_token_budget`` as the iteration budget.
    chunk_size: Optional[int] = None
    #: Per-iteration cap on *whole-request* prefill tokens (vLLM/S-LoRA's
    #: ``max_num_batched_tokens``).  Requests past the budget stay admitted
    #: but start prefill in a later iteration, in batch order — this is what
    #: makes admission order matter and produces FIFO's head-of-line
    #: blocking.  An oversized request runs alone.
    prefill_token_budget: int = 4096
    #: Memory set aside for activations/workspace, never usable by KV or cache.
    activation_reserve_bytes: int = 1 * GB
    #: Interval of GPU-memory telemetry samples; ``None`` disables sampling.
    memory_telemetry_interval: Optional[float] = None
    #: Record ``(time, batch_size)`` at each iteration start into
    #: ``engine.batch_occupancy`` (for time-series diagnostics).
    record_batch_occupancy: bool = False
    #: Effective rate at which adapter copies steal engine time.  Host-to-GPU
    #: adapter loads in S-LoRA synchronize with the execution stream, so a
    #: transfer that completes while the engine is busy delays the pipeline by
    #: roughly ``bytes / load_stall_bandwidth`` (stream syncs + paged copies
    #: make this slower than the raw link).  This is the §3.2 mechanism that
    #: makes frequent adapter loading degrade *throughput*, not just TTFT.
    #: ``None`` disables stall accounting (ideal fully-async copies).
    #: Calibrated so the S-LoRA baseline's SLO-crossing load sits ~1.5x below
    #: Chameleon's, the paper's Figure 11 headline (see abl_load_stall for
    #: the sensitivity of the result to this constant).
    load_stall_bandwidth: Optional[float] = 2.0 * GB


#: Step-log length that triggers dropping entries no decoding request
#: still needs (the threshold then doubles with the retained length).
_STEP_LOG_TRIM = 4096


class _Slot:
    """A request's place in the running batch; dropped when it leaves.

    ``first_step`` is the step-log index of the request's first token, set
    when its prefill completes.
    """

    __slots__ = ("request", "rank", "first_step")

    def __init__(self, request: Request, rank: Optional[int]) -> None:
        self.request = request
        self.rank = rank
        self.first_step = 0


@dataclass
class EngineStats:
    """Run counters the experiments report."""

    iterations: int = 0
    busy_time: float = 0.0
    stall_time: float = 0.0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    squashes: int = 0
    admissions: int = 0


def _index_by_identity(items: Iterable, request: Request) -> Optional[int]:
    """Position of ``request`` in ``items``, or ``None``.  Compares
    identities: the dataclass ``__eq__`` would compare every field."""
    for index, item in enumerate(items):
        if item is request:
            return index
    return None


class ServingEngine:
    """One LLM replica with continuous batching (see module docstring)."""

    def __init__(
        self,
        sim: Simulator,
        gpu: GpuDevice,
        link: PcieLink,
        model: ModelSpec,
        cost_model: CostModel,
        registry: AdapterRegistry,
        scheduler: Scheduler,
        adapter_manager: AdapterManagerBase,
        predictor: Optional[OutputLengthPredictor] = None,
        config: Optional[EngineConfig] = None,
    ) -> None:
        self.sim = sim
        self.gpu = gpu
        self.link = link
        self.model = model
        self.cost_model = cost_model
        self.registry = registry
        self.scheduler = scheduler
        self.adapter_manager = adapter_manager
        self.predictor = predictor
        # A fresh config per engine: a shared default instance would alias
        # mutable knobs across every engine in a cluster.
        self.config = config if config is not None else EngineConfig()
        self.stats = EngineStats()

        # The running batch and its decode totals (see the module docstring).
        self._prefilling: list[_Slot] = []
        self._decoding: dict[int, _Slot] = {}
        self._finishing: dict[int, dict[int, _Slot]] = {}  # last step -> slots
        self._ctx_tokens = 0
        self._total_rank = 0
        self._n_lora = 0
        #: Completion times of steps ``_step_base`` onwards.
        self._steps: list[float] = []
        self._step_base = 0
        self._trim_at = _STEP_LOG_TRIM
        self._pending_load: list[Request] = []
        #: Set wherever this engine changes its scheduler's membership
        #: (submit, admission, squash, drain); the queued-adapter set is
        #: recomputed only when it is set.
        self._queue_changed = True
        self._finish_callbacks: list = []
        self._iteration_event = None
        #: Decode aggregates of the last iteration that decoded; release
        #: estimates price a step from them (0.02 s before any decode).
        self._last_decode: Optional[tuple[int, int, int, int]] = None
        self._pending_stall = 0.0           # engine time owed to adapter copies
        self.all_requests: list[Request] = []
        self.batch_occupancy: list[tuple[float, int]] = []
        self.failed = False                 # crashed by fault injection
        #: Observability hook (see repro.obs): ``None`` means tracing is
        #: off and every hook site is a single attribute check.  The
        #: cluster's ``attach_tracer`` sets both after construction.
        self._tracer = None
        self._trace_tid = 0
        #: Degrade-fault service-rate multiplier (1.0 = healthy; 0.5 = every
        #: iteration takes twice as long).  Exactly 1.0 leaves the iteration
        #: cost path untouched, bit for bit.
        self._rate_multiplier = 1.0

        # Static reservations: base weights + activation workspace.
        self.gpu.reserve("weights", model.weight_bytes)
        self.gpu.reserve("activations", self.config.activation_reserve_bytes)
        if self.config.memory_telemetry_interval is not None:
            self.gpu.enable_telemetry(self.config.memory_telemetry_interval)

        self.adapter_manager.on_ready(self._on_adapter_ready)

    # ------------------------------------------------------------------ #
    # Capacity views
    # ------------------------------------------------------------------ #
    @property
    def total_token_capacity(self) -> int:
        """Scheduling tokens available system-wide (§4.3.5's Tok_total)."""
        usable = self.gpu.capacity - self.model.weight_bytes - self.config.activation_reserve_bytes
        return max(0, usable // self.model.kv_bytes_per_token)

    def adapter_token_cost(self, adapter_id: Optional[int]) -> int:
        """An adapter's memory footprint expressed in scheduling tokens."""
        if adapter_id is None:
            return 0
        size = self.registry.get(adapter_id).size_bytes
        return -(-size // self.model.kv_bytes_per_token)  # ceil division

    def _batch_len(self) -> int:
        """Admitted requests: running plus waiting on adapter loads."""
        return len(self._prefilling) + len(self._decoding) + len(self._pending_load)

    def in_flight_count(self) -> int:
        return self._batch_len() + self.scheduler.queue_len()

    def capability(self) -> float:
        """Relative serving throughput of this replica (arbitrary units).

        The geometric mean of peak compute (bounds prefill) and HBM
        bandwidth (bounds decode), scaled by the TP compute speedup — a
        single scalar a heterogeneity-aware dispatcher can use to normalize
        load probes across mixed GPU specs.  Only ratios between replicas
        matter; the cluster renormalizes to mean 1.0.
        """
        spec = self.gpu.spec
        speedup = getattr(self.gpu, "compute_speedup", 1.0)
        return float(
            (spec.peak_tflops * spec.mem_bandwidth_bytes) ** 0.5) * speedup

    def is_saturated(self) -> bool:
        """True when in-flight work (batch + local queue) is at
        ``max_batch_size`` — a request submitted now could not be admitted
        before a finish event, so a global dispatcher with backpressure
        should hold it in the cluster queue instead (§4.4)."""
        return self.in_flight_count() >= self.config.max_batch_size

    def in_flight_token_load(self) -> float:
        """In-flight work in *tokens*: remaining prefill plus predicted
        remaining decode across running, loading and locally-queued requests.

        Token-weighted dispatch uses this instead of :meth:`in_flight_count`
        so a replica holding a few huge requests is not mistaken for idle.
        Falls back to the true output length when no prediction exists.
        """
        total = 0.0
        n_steps = self._step_base + len(self._steps)
        for slot in self._decoding.values():  # no prefill left
            request = slot.request
            tokens = n_steps - slot.first_step
            if len(request.token_times) < tokens:  # both fields lag together
                self._catch_up(slot)
            predicted = request.predicted_output_tokens or request.output_tokens
            total += max(0, predicted - tokens)
        waiting = [slot.request for slot in self._prefilling]
        for request in waiting + self._pending_load:
            predicted = request.predicted_output_tokens or request.output_tokens
            total += request.remaining_prefill_tokens
            total += max(0, predicted - request.tokens_generated)
        for request in self.scheduler.queued_requests():
            predicted = request.predicted_output_tokens or request.output_tokens
            total += request.input_tokens + predicted
        return total

    def on_finish(self, callback) -> None:
        """Register a hook fired after each request completes.

        The data-parallel cluster uses this for pull-based dispatch: a finish
        event frees batch capacity, so the global queue can drain into it.
        """
        self._finish_callbacks.append(callback)

    def request_rank(self, request: Request) -> Optional[int]:
        if request.adapter_id is None:
            return None
        return self.registry.get(request.adapter_id).rank

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: Request) -> None:
        """Accept a request at the current simulated time."""
        if self.failed:
            raise RuntimeError("cannot submit to a FAILED engine")
        now = self.sim.now
        request.enqueue_time = now
        request.state = RequestState.QUEUED
        if self.predictor is not None and request.predicted_output_tokens is None:
            self.predictor.annotate(request)
        self.all_requests.append(request)
        self.scheduler.enqueue(request, now)
        self._queue_changed = True
        self.adapter_manager.on_request_arrival(request)
        self._kick()

    def run_trace(self, requests: Iterable[Request], horizon: Optional[float] = None) -> None:
        """Schedule every request's arrival and run the simulation.

        Without a ``horizon`` the simulation runs until the event heap drains
        (all requests finished and all transfers complete).
        """
        for request in requests:
            if request.state is not RequestState.CREATED:
                raise ValueError(
                    f"request {request.request_id} was already run through an "
                    "engine; use Trace.fresh() to replay a trace"
                )
            self.sim.schedule_at(request.arrival_time, self.submit, request)
        if self.config.memory_telemetry_interval is not None and horizon is not None:
            self._schedule_memory_sampling(horizon)
        self.sim.run(until=horizon)
        self.sync_progress()

    def sync_progress(self) -> None:
        """Bring every decoding request's ``tokens_generated`` and
        ``token_times`` up to the last completed step (see the module
        docstring's visibility contract)."""
        for slot in self._decoding.values():
            self._catch_up(slot)

    def _catch_up(self, slot: _Slot) -> None:
        request = slot.request
        first = slot.first_step
        tokens = self._step_base + len(self._steps) - first
        request.tokens_generated = tokens
        times = request.token_times
        have = len(times)
        if have < tokens:
            start = first - self._step_base
            times.extend(self._steps[start + have:start + tokens])

    def summary(self, **kwargs) -> RunSummary:
        return summarize_run(self.all_requests, **kwargs)

    # ------------------------------------------------------------------ #
    # Admission (called through AdmissionContext.try_admit)
    # ------------------------------------------------------------------ #
    def admit(self, request: Request) -> AdmitResult:
        if request.state not in (RequestState.QUEUED, RequestState.CREATED):
            raise RuntimeError(f"request {request.request_id} is not admissible ({request.state})")
        if self._batch_len() >= self.config.max_batch_size:
            return AdmitResult.BATCH_FULL

        kv_bytes = (request.input_tokens + request.output_tokens) * self.model.kv_bytes_per_token
        adapter_id = request.adapter_id
        adapter_bytes_needed = 0
        if adapter_id is not None:
            entry_state = self.adapter_manager.entry(adapter_id).state
            if entry_state is AdapterState.MISSING:
                adapter_bytes_needed = self.registry.get(adapter_id).size_bytes

        needed = kv_bytes + adapter_bytes_needed
        if self.gpu.free_bytes < needed:
            exclude = {adapter_id} if adapter_id is not None else None
            self.adapter_manager.make_room(needed, exclude=exclude)
            if self.gpu.free_bytes < needed:
                if self.gpu.free_bytes < kv_bytes:
                    return AdmitResult.NO_MEMORY
                return AdmitResult.NO_ADAPTER_ROOM

        self.gpu.reserve("kv", kv_bytes)
        request.kv_reserved_bytes = kv_bytes
        if request.admit_time is None:
            request.admit_time = self.sim.now
        self.stats.admissions += 1
        self._queue_changed = True  # the scheduler dequeues it on ADMITTED

        if adapter_id is not None:
            status = self.adapter_manager.acquire(adapter_id)
            if status is AdapterState.LOADING:
                request.state = RequestState.LOADING
                self._pending_load.append(request)
                return AdmitResult.ADMITTED
        self._begin_prefill(request)
        return AdmitResult.ADMITTED

    def _begin_prefill(self, request: Request) -> None:
        now = self.sim.now
        request.state = RequestState.PREFILL
        # prefill_start_time is stamped when the first prefill chunk is
        # actually planned (the per-iteration budget can defer it).
        if request.adapter_ready_time is None:
            request.adapter_ready_time = now
        self._prefilling.append(_Slot(request, self.request_rank(request)))

    def _enter_decode(self, slot: _Slot, step: int) -> None:
        """Move a request whose first token was emitted at ``step`` (its
        slot already off the prefill list) into decode."""
        request = slot.request
        slot.first_step = step
        key = id(request)
        self._decoding[key] = slot
        last = step + request.output_tokens - 1
        bucket = self._finishing.get(last)
        if bucket is None:
            self._finishing[last] = {key: slot}
        else:
            bucket[key] = slot
        self._ctx_tokens += request.input_tokens + 1
        if slot.rank is not None:
            self._total_rank += slot.rank
            self._n_lora += 1

    def _leave_decode(self, slot: _Slot) -> None:
        """Take a request out of decode (its finish bucket is the caller's
        business), bringing its tokens current."""
        request = slot.request
        del self._decoding[id(request)]
        self._catch_up(slot)
        self._ctx_tokens -= request.input_tokens + request.tokens_generated
        if slot.rank is not None:
            self._total_rank -= slot.rank
            self._n_lora -= 1

    # ------------------------------------------------------------------ #
    # Squashing (§4.3.3)
    # ------------------------------------------------------------------ #
    def squash(self, request: Request) -> None:
        """Abort a running/loading request and roll back all its progress."""
        key = id(request)
        slot = self._decoding.get(key)
        if slot is not None:
            self._leave_decode(slot)
            last = slot.first_step + request.output_tokens - 1
            bucket = self._finishing[last]
            del bucket[key]
            if not bucket:
                del self._finishing[last]
        else:
            index = _index_by_identity((s.request for s in self._prefilling), request)
            if index is not None:
                del self._prefilling[index]
            else:
                index = _index_by_identity(self._pending_load, request)
                if index is None:
                    raise RuntimeError(
                        f"cannot squash request {request.request_id}: not in flight")
                del self._pending_load[index]
        self._rollback(request)
        request.squash_count += 1
        request.state = RequestState.QUEUED
        self.stats.squashes += 1
        self.scheduler.requeue_front(request, self.sim.now)
        self._queue_changed = True

    def _rollback(self, request: Request) -> None:
        """Release a request's resources and wipe its serving progress."""
        self.gpu.release("kv", request.kv_reserved_bytes)
        request.kv_reserved_bytes = 0
        if request.adapter_id is not None:
            self.adapter_manager.release(request.adapter_id)
        request.tokens_generated = 0
        request.prefill_done_tokens = 0
        request.token_times.clear()
        request.first_token_time = None
        request.prefill_start_time = None
        request.adapter_ready_time = None

    # ------------------------------------------------------------------ #
    # Faults: crash evacuation and degrade multipliers
    # ------------------------------------------------------------------ #
    def set_rate_multiplier(self, multiplier: float) -> None:
        """Degrade (or recover) the replica's service rate.

        ``multiplier`` scales throughput: 0.5 makes every iteration take
        twice as long (thermal throttling, a noisy neighbour, a half-broken
        NVLink).  The :class:`ObservedCapabilityEstimator` sees the slower
        finish rate and shifts routing weight away — that convergence is the
        contract the ``degrade`` fault relies on.
        """
        if multiplier <= 0:
            raise ValueError(f"rate multiplier must be > 0, got {multiplier}")
        self._rate_multiplier = multiplier

    @property
    def rate_multiplier(self) -> float:
        return self._rate_multiplier

    def fail(self, *, migrate: bool = True, retry_started: bool = True
             ) -> tuple[list, list]:
        """Crash this replica; partition its work into (recoverable, lost).

        The engine stops dead: the in-flight iteration is aborted (its
        callback is cancelled by the cluster via ``Simulator.cancel_if``)
        and no future submission or adapter-ready event does anything.

        With ``migrate=True``, work that can be replayed elsewhere is rolled
        back to a fresh pre-submission state and *removed from this engine's
        accounting* (the cluster re-dispatches it, so it must not be counted
        twice): the local scheduler queue, admitted requests still waiting
        on adapter loads, and admitted requests whose prefill never started.
        Requests already being served (prefill begun or tokens emitted) are
        recoverable only under ``retry_started=True`` — the client-retry
        model, where partial progress is discarded and the request replays
        from scratch.  With ``retry_started=False`` they are stranded:
        marked ``lost``, kept in ``all_requests`` with their timeline frozen
        at the crash.  ``migrate=False`` strands everything (the
        no-recovery baseline).
        """
        if self.failed:
            return [], []
        self.failed = True
        if self._iteration_event is not None:
            self.sim.cancel(self._iteration_event)
            self._iteration_event = None
        self._pending_stall = 0.0
        queued = self.scheduler.drain()
        self._queue_changed = True
        loading = list(self._pending_load)
        self._pending_load.clear()
        # Batch order: every decoding request precedes every prefilling one.
        self.sync_progress()  # stranded requests keep their timeline
        started = [slot.request for slot in self._decoding.values()]
        unstarted = []
        for slot in self._prefilling:
            # No token yet: started means a prefill chunk was planned.
            if slot.request.prefill_start_time is None:
                unstarted.append(slot.request)
            else:
                started.append(slot.request)
        self._prefilling = []
        self._decoding = {}
        self._finishing = {}
        self._ctx_tokens = self._total_rank = self._n_lora = 0
        admitted = loading + unstarted + (started if retry_started else [])
        if migrate:
            recoverable = admitted + queued
            lost = [] if retry_started else started
        else:
            recoverable = []
            lost = loading + unstarted + started + queued
        admitted_ids = {id(r) for r in admitted}
        for request in recoverable:
            if id(request) in admitted_ids:  # holds KV/adapter; queued do not
                self._rollback(request)
            request.state = RequestState.CREATED
            request.enqueue_time = None
            request.admit_time = None
        self._forget(recoverable)
        for request in lost:
            request.lost = True
        return recoverable, lost

    def _forget(self, requests: list) -> None:
        """Drop evacuated requests from this engine's accounting in one
        pass (they are re-counted wherever they land next; a per-request
        ``list.remove`` would scan the whole service history each time)."""
        if not requests:
            return
        evacuated = {id(r) for r in requests}
        self.all_requests = [
            r for r in self.all_requests if id(r) not in evacuated]

    def evacuate_unstarted(self) -> list:
        """Hand back work that has not started serving (drain migration).

        The local scheduler queue plus admitted requests still waiting on
        adapter loads or on their first prefill token are rolled back to a
        fresh pre-submission state and removed from this engine's
        accounting; started requests stay and finish normally.  Unlike
        :meth:`fail`, the engine remains alive — this is the voluntary
        half of work migration, used when a draining replica should not
        make its queued work wait out the drain.
        """
        queued = self.scheduler.drain()
        self._queue_changed = True
        loading = list(self._pending_load)
        self._pending_load.clear()
        unstarted = []
        kept = []
        for slot in self._prefilling:  # decoding requests have all started
            if slot.request.prefill_start_time is None:
                unstarted.append(slot.request)
            else:
                kept.append(slot)
        self._prefilling = kept
        for request in loading + unstarted:
            self._rollback(request)
        evacuated = loading + unstarted + queued
        for request in evacuated:
            request.state = RequestState.CREATED
            request.enqueue_time = None
            request.admit_time = None
        self._forget(evacuated)
        return evacuated

    # ------------------------------------------------------------------ #
    # Scheduler-visible estimates
    # ------------------------------------------------------------------ #
    def estimate_service_time(self, request: Request) -> float:
        predicted = request.predicted_output_tokens
        if predicted is None:
            predicted = request.output_tokens
        return self.cost_model.estimate_service_time(
            request.input_tokens, predicted, self.request_rank(request)
        )

    def estimate_earliest_release(self) -> float:
        """Predicted seconds until some running request frees its memory."""
        best = float("inf")
        if not self._decoding and not self._prefilling:
            return best
        last = self._last_decode
        step_time = 0.02 if last is None else self.cost_model.decode_step_time(*last)
        self.sync_progress()
        for slot in self._decoding.values():
            request = slot.request
            predicted = request.predicted_output_tokens or request.output_tokens
            best = min(best, max(1, predicted - request.tokens_generated) * step_time)
        for slot in self._prefilling:
            request = slot.request
            predicted = request.predicted_output_tokens or request.output_tokens
            est = max(1, predicted - request.tokens_generated) * step_time
            est += self.cost_model.prefill_time(request.remaining_prefill_tokens, slot.rank)
            best = min(best, est)
        return best

    # ------------------------------------------------------------------ #
    # The iteration loop
    # ------------------------------------------------------------------ #
    def _kick(self) -> None:
        if self._iteration_event is None and not self.failed:
            self._start_iteration()

    def _on_adapter_ready(self, adapter_id: int) -> None:
        if self.failed:
            return  # a transfer landing on a dead replica wakes nothing
        # A copy that lands while the engine is executing steals pipeline
        # time (stream synchronization); copies finishing into an idle engine
        # are free.  The debt is charged to the next iteration.
        stall_bw = self.config.load_stall_bandwidth
        if stall_bw is not None and self._iteration_event is not None:
            size = self.registry.get(adapter_id).size_bytes
            self._pending_stall += size / stall_bw
        self._promote_ready()
        self._kick()

    def _promote_ready(self) -> None:
        still_waiting = []
        for request in self._pending_load:
            assert request.adapter_id is not None
            if self.adapter_manager.is_resident(request.adapter_id):
                now = self.sim.now
                admitted_at = request.admit_time if request.admit_time is not None else now
                request.adapter_load_critical_path = now - admitted_at
                self._begin_prefill(request)
            else:
                still_waiting.append(request)
        self._pending_load = still_waiting

    def _start_iteration(self) -> None:
        if self._iteration_event is not None:
            return
        now = self.sim.now
        self.scheduler.on_schedule(now)
        if self._queue_changed:
            self._queue_changed = False
            self.adapter_manager.set_queued_needed(self.scheduler.queued_adapter_ids())
        ctx = AdmissionContext(self)
        self.scheduler.select(ctx)
        self._promote_ready()

        prefill_plan = self._build_prefill_plan()
        for slot, _tokens in prefill_plan:
            if slot.request.prefill_start_time is None:
                slot.request.prefill_start_time = now
        n_decode = len(self._decoding)

        if not prefill_plan and not n_decode:
            return  # idle; an arrival or adapter-ready event will wake us

        ctx_tokens = self._ctx_tokens
        total_rank = self._total_rank
        n_lora = self._n_lora
        prefill_work = [(tokens, slot.rank) for slot, tokens in prefill_plan]
        dt = self.cost_model.iteration_time(
            prefill_work, n_decode, ctx_tokens, total_rank, n_lora
        )
        if self._pending_stall > 0.0:
            dt += self._pending_stall
            self.stats.stall_time += self._pending_stall
            self._pending_stall = 0.0
        if self._rate_multiplier != 1.0:  # degrade fault: serve slower
            dt /= self._rate_multiplier
        if n_decode:
            self._last_decode = (n_decode, ctx_tokens, total_rank, n_lora)
        if self.config.record_batch_occupancy:
            self.batch_occupancy.append((now, len(self._prefilling) + n_decode))
        self.stats.iterations += 1
        self.stats.busy_time += dt
        self.stats.prefill_tokens += sum(t for _, t in prefill_plan)
        self.stats.decode_tokens += n_decode
        self._iteration_event = self.sim.schedule(
            dt, self._end_iteration, prefill_plan
        )

    def _build_prefill_plan(self) -> list[tuple[_Slot, int]]:
        """Choose this iteration's prefill work, in batch-admission order.

        With ``chunk_size`` set, requests are split into chunks under that
        budget (chunked prefill).  Otherwise whole requests are planned under
        ``prefill_token_budget``; the first request that does not fit stops
        the scan (strict order — admission order is the priority order), and
        an oversized request is granted a solo iteration.  Either way the
        plan is a prefix of ``_prefilling`` and only its last entry can be
        left unfinished.
        """
        chunked = self.config.chunk_size is not None
        budget = self.config.chunk_size if chunked else self.config.prefill_token_budget
        plan: list[tuple[_Slot, int]] = []
        for slot in self._prefilling:
            remaining = slot.request.remaining_prefill_tokens
            if chunked:
                if budget <= 0:
                    break
                take = min(budget, remaining)
                plan.append((slot, take))
                budget -= take
            else:
                if remaining <= budget:
                    plan.append((slot, remaining))
                    budget -= remaining
                elif not plan:
                    plan.append((slot, remaining))  # oversized: run alone
                    budget = 0
                    break
                else:
                    break
        return plan

    def _end_iteration(self, prefill_plan: list) -> None:
        self._iteration_event = None
        now = self.sim.now
        step = self._step_base + len(self._steps)
        self._steps.append(now)
        self._ctx_tokens += len(self._decoding)  # one token per decoder
        finished: list[Request] = []
        prefilled = 0
        for slot, tokens in prefill_plan:
            request = slot.request
            if request.state is not RequestState.PREFILL:
                continue  # squashed while the iteration was in flight
            request.prefill_done_tokens += tokens
            if request.prefill_done_tokens < request.input_tokens:
                continue
            prefilled += 1
            request.tokens_generated = 1
            request.first_token_time = now
            request.state = RequestState.DECODE
            if request.output_tokens == 1:
                request.token_times.append(now)
                finished.append(request)
            else:
                self._enter_decode(slot, step)
        if prefilled:  # the completed requests head the prefill list
            del self._prefilling[:prefilled]
        due = self._finishing.pop(step, None)
        if due is not None:
            for slot in due.values():
                self._leave_decode(slot)
                finished.append(slot.request)
        for request in finished:
            self._finish(request, now)
        if len(self._steps) >= self._trim_at:
            self._trim_steps()
        # Fire finish hooks only after every finish of this iteration is
        # finalized: a hook may submit new work (cluster queue drain), which
        # kicks a fresh iteration that must see the batch without them.
        for request in finished:
            for callback in self._finish_callbacks:
                callback(request)
        self.gpu.maybe_sample(now)
        self._start_iteration()

    def _trim_steps(self) -> None:
        """Drop the step-log entries no decoding request can still need:
        those before the oldest decoder's first token (the oldest decoder
        is the first in ``_decoding``, which is in first-token order)."""
        oldest = self._step_base + len(self._steps)
        for slot in self._decoding.values():
            oldest = slot.first_step
            break
        del self._steps[:oldest - self._step_base]
        self._step_base = oldest
        self._trim_at = max(_STEP_LOG_TRIM, 2 * len(self._steps))

    def _finish(self, request: Request, now: float) -> None:
        """Finalize one completed request (already out of the batch)."""
        request.state = RequestState.FINISHED
        request.finish_time = now
        self.gpu.release("kv", request.kv_reserved_bytes)
        request.kv_reserved_bytes = 0
        if request.adapter_id is not None:
            self.adapter_manager.release(request.adapter_id)
        self.scheduler.on_finish(request, now)
        if self._tracer is not None:
            # The request's whole span waterfall (queue, adapter load,
            # prefill/decode, execute) is built here, from its timeline
            # stamps, so even a migrated request lands its spans on the
            # replica that actually finished it.
            self._tracer.record_request(request, self._trace_tid)

    # ------------------------------------------------------------------ #
    def _schedule_memory_sampling(self, horizon: float) -> None:
        interval = self.config.memory_telemetry_interval
        assert interval is not None

        def _sample() -> None:
            self.gpu.maybe_sample(self.sim.now)
            if self.sim.now + interval <= horizon:
                self.sim.schedule(interval, _sample)

        self.sim.schedule(0.0, _sample)
