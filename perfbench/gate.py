"""Correctness gate and simulation fingerprint for one finished run.

The gate checks conservation at drain, naming the request (or adapter)
and the layer that broke it:

* every arrival is finished, shed or lost, exactly once, and nothing is
  left queued at a cluster or an engine;
* every finished request emitted ``output_tokens`` tokens and has a
  monotone timeline ``arrival <= admit <= first token <= finish``;
* every replica's adapter refcounts are zero and no GPU holds KV bytes.

The fingerprint is a digest of each request's outcome; a change that only
speeds up the host must leave it unchanged.
"""

from __future__ import annotations

import hashlib
import struct
from collections import Counter
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Violation:
    layer: str
    subject: str
    problem: str

    def __str__(self) -> str:
        return f"[{self.layer}] {self.subject}: {self.problem}"


def shards_of(system) -> list:
    """The ``MultiReplicaSystem``\\ s of a bare system or of a region."""
    return list(getattr(system, "systems", [system]))


def replicas_of(system) -> list:
    """Every replica (``repro.systems.System``) of a system or region."""
    return [replica for shard in shards_of(system) for replica in shard.replicas]


def check(system, requests) -> list[Violation]:
    """All violations of the drain-time invariants (empty when clean)."""
    found: list[Violation] = []
    seen = Counter(r.request_id for r in system.all_requests())
    for request in requests:
        rid = f"request {request.request_id}"
        copies = seen.get(request.request_id, 0)
        if copies != 1:
            found.append(Violation(
                "cluster", rid, f"accounted {copies} times, expected once"))
        outcomes = int(request.finished) + int(request.shed) \
            + int(request.lost)
        if outcomes != 1:
            found.append(Violation(
                "cluster" if request.admit_time is None else "engine", rid,
                f"{outcomes} outcomes (finished={request.finished}, "
                f"shed={request.shed}, lost={request.lost}, "
                f"state={request.state.value})"))
        if request.finished:
            found.extend(_timeline(request, rid))
    for index, shard in enumerate(shards_of(system)):
        for request in shard.cluster.pending_requests():
            found.append(Violation(
                "cluster", f"request {request.request_id}",
                f"still queued at shard {index} after drain"))
    for index, replica in enumerate(replicas_of(system)):
        found.extend(_replica_at_drain(index, replica))
    return found


def _timeline(request, rid: str) -> list[Violation]:
    found = []
    if len(request.token_times) != request.output_tokens:
        found.append(Violation(
            "engine", rid, f"{len(request.token_times)} token times for "
            f"{request.output_tokens} output tokens"))
    stamps = (request.arrival_time, request.admit_time,
              request.first_token_time, request.finish_time)
    if any(s is None for s in stamps) or not (
            stamps[0] <= stamps[1] <= stamps[2] <= stamps[3]):
        found.append(Violation(
            "engine", rid, "timeline not monotone (arrival, admit, "
            f"first token, finish) = {stamps}"))
    return found


def _replica_at_drain(index: int, replica) -> list[Violation]:
    found = []
    engine = replica.engine
    for request in engine.scheduler.queued_requests():
        found.append(Violation(
            "scheduler", f"request {request.request_id}",
            f"still queued at replica {index} after drain"))
    in_batch = engine.in_flight_count() - engine.scheduler.queue_len()
    if in_batch:
        found.append(Violation(
            "engine", f"replica {index}",
            f"{in_batch} requests still in the batch after drain"))
    for entry in replica.adapter_manager.entries.values():
        if entry.refcount != 0:
            found.append(Violation(
                "adapter_cache", f"replica {index} adapter {entry.adapter_id}",
                f"refcount {entry.refcount} at drain"))
    kv = replica.gpu.used("kv")
    if kv:
        found.append(Violation(
            "engine", f"replica {index}", f"{kv} KV bytes held at drain"))
    return found


_RECORD = struct.Struct("<qdd??")


def _stamp(value: Optional[float]) -> float:
    return -1.0 if value is None else value


def fingerprint(requests) -> str:
    """SHA-256 over ``(request_id, first_token_time, finish_time, shed,
    lost)`` of every request, in request-id order."""
    digest = hashlib.sha256()
    for r in sorted(requests, key=lambda r: r.request_id):
        digest.update(_RECORD.pack(
            r.request_id, _stamp(r.first_token_time), _stamp(r.finish_time),
            r.shed, r.lost))
    return digest.hexdigest()


def combine(digests) -> str:
    """One digest over several runs' fingerprints, in order."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()
