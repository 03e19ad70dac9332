"""Per-layer self time from outside the program.

The traced run patches the public entry points of each ``repro`` layer
(class attributes, before any system is built) with a wrapper that keeps a
timing stack.  A call's *self* time is its duration minus the durations of
the wrapped calls made beneath it, so every second of a wrapped call is
counted in exactly one layer, recursion included.  Time spent in code that
is not wrapped (the event loop and the engine's private iteration code)
stays with the nearest wrapped caller: ``Simulator.run``.

Hot per-token accessors (``AdapterRegistry.get``, ``Request`` properties,
``GpuDevice.reserve``) are deliberately not wrapped: the wrapper would cost
more than they do.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, Optional


class LayerClock:
    """Self time and call counts per wrapped entry point.

    ``clock`` is injectable so the arithmetic can be tested on a synthetic
    call tree with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: one accumulator per open wrapped call: wrapped-child time so far
        self._stack: list[float] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)

    def wrap(self, key: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` with its self time and calls booked under ``key``;
        ``on_result`` (if given) sees every return value."""
        stack, clock = self._stack, self._clock
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return timed

    @contextmanager
    def patched(self, targets) -> Iterator["LayerClock"]:
        """Wrap ``(cls, method, key[, on_result])`` targets; restore on exit.

        Each target names the class that defines the method, so an
        inherited method is wrapped once, on its owner.
        """
        saved = []
        try:
            for target in targets:
                cls, name, key = target[:3]
                on_result = target[3] if len(target) > 3 else None
                original = cls.__dict__[name]
                saved.append((cls, name, original))
                setattr(cls, name, self.wrap(key, original, on_result))
            yield self
        finally:
            for cls, name, original in reversed(saved):
                setattr(cls, name, original)


def entry_points(transfers: list) -> list:
    """The wrapped entry points: ``(class, method, key[, on_result])``.

    ``transfers`` collects every ``Transfer`` that ``PcieLink.submit``
    returns, for the link's queueing-delay percentile.
    """
    from repro.core.eviction import ChameleonScorePolicy, GdsfPolicy, LruPolicy
    from repro.core.mlq import MlqScheduler
    from repro.hardware.cluster import DataParallelCluster
    from repro.hardware.pcie import PcieLink
    from repro.llm.costmodel import CostModel
    from repro.predictor.output_length import OutputLengthPredictor
    from repro.serving.adapter_manager import AdapterManagerBase
    from repro.serving.engine import ServingEngine
    from repro.serving.region import ServingRegion
    from repro.serving.schedulers import FifoScheduler, Scheduler
    from repro.sim.simulator import Simulator

    targets = [
        (Simulator, "run", "sim.run"),
        (ServingEngine, "submit", "engine.submit"),
        (ServingEngine, "admit", "engine.admit"),
        (CostModel, "iteration_time", "costmodel.iteration_time"),
        (CostModel, "decode_step_time", "costmodel.decode_step_time"),
        (CostModel, "prefill_time", "costmodel.prefill_time"),
        (OutputLengthPredictor, "annotate", "predictor.annotate"),
        (AdapterManagerBase, "acquire", "adapter_cache.acquire"),
        (AdapterManagerBase, "make_room", "adapter_cache.make_room"),
        (AdapterManagerBase, "set_queued_needed",
         "adapter_cache.set_queued_needed"),
        (PcieLink, "submit", "pcie.submit", transfers.append),
        (DataParallelCluster, "dispatch", "cluster.dispatch"),
        # The engine's finish hook is the cluster's other way in: queue
        # drains and releases run beneath it.
        (DataParallelCluster, "_on_engine_finish", "cluster.finish_hook"),
        (ServingRegion, "dispatch", "region.dispatch"),
        # Work stealing, fired by the shards' capacity hooks.
        (ServingRegion, "_steal_into", "region.steal"),
    ]
    for cls in (MlqScheduler, FifoScheduler):
        targets.append((cls, "select", "scheduler.select"))
        targets.append((cls, "enqueue", "scheduler.enqueue"))
    targets.append((MlqScheduler, "on_schedule", "scheduler.on_schedule"))
    targets.append((Scheduler, "queued_adapter_ids", "scheduler.queued_ids"))
    for cls in (ChameleonScorePolicy, LruPolicy, GdsfPolicy):
        targets.append((cls, "order", "adapter_cache.evict_order"))
    return targets


def layer_self_times(clock: LayerClock) -> dict[str, float]:
    """Self time per layer (sum over its entry points), seconds."""
    totals: dict[str, float] = defaultdict(float)
    for key, seconds in clock.self_s.items():
        totals[key.split(".", 1)[0]] += seconds
    return dict(totals)
