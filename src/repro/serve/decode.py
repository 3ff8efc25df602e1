"""Continuous-batching decode lane: options, jobs and per-shard state.

Token-by-token generation is the latency-critical half of the paper's
interactive-translation story, and it batches differently from one-shot
inference: a decode stream occupies its device for ``max_new_tokens``
*token boundaries*, and the right scheduling unit is the boundary, not
the request.  :class:`DecodeLane` is the per-device half of that model —
a rolling batch that streams join (when their arrival passes) and leave
(on eos or token budget) at boundaries, grouped by the same operating
point compatibility key the admission queue uses, with each group
advanced by a shared :class:`~repro.nn.generation.DecodeSession` so
equal-length contexts run as one stacked (bit-exact) decode step and
nothing is ever padded to the longest member.

:class:`DecodeOptions` groups the decode-lane sampling defaults and the
compiled-forward switch; it is the ``decode`` field of
:class:`~repro.serve.config.ServeConfig`.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from repro.nn.generation import DecodeSession, GenerationConfig
from repro.serve.batcher import InferenceRequest

__all__ = ["DecodeJob", "DecodeLane", "DecodeOptions"]


@dataclass
class DecodeOptions:
    """Decode-plane knobs as one value object.

    ``fast_forward`` gates both the compiled full-sequence plan and the
    KV-cached decode plane (``False`` = eager Tensor forwards, same
    bits).  The sampling fields are the defaults applied to decode
    requests submitted without their own
    :class:`~repro.nn.generation.GenerationConfig`.
    """

    max_new_tokens: int = 8
    top_k: Optional[int] = None
    temperature: float = 1.0
    seed: Optional[int] = None
    eos_id: Optional[int] = None
    fast_forward: bool = True

    def generation_config(self) -> GenerationConfig:
        return GenerationConfig(
            max_new_tokens=self.max_new_tokens, top_k=self.top_k,
            temperature=self.temperature, seed=self.seed,
            eos_id=self.eos_id).validate()


@dataclass
class DecodeJob:
    """One submitted decode request awaiting (or holding) a lane slot."""

    request: InferenceRequest
    config: GenerationConfig
    # stamped by the engine at submit time so the lane never recomputes
    # operating-point compatibility
    compat_key: Hashable = None
    est_service_s: float = 0.0


class _LaneStream:
    __slots__ = ("sid", "job", "join_s")

    def __init__(self, sid: int, job: DecodeJob, join_s: float) -> None:
        self.sid = sid
        self.job = job
        self.join_s = join_s


class _LaneGroup:
    """One compat-key's rolling batch: a session plus stream bookkeeping."""

    __slots__ = ("session", "streams")

    def __init__(self, session: DecodeSession) -> None:
        self.session = session
        self.streams: Dict[int, _LaneStream] = {}


class DecodeLane:
    """Per-device rolling decode batch, driven by the streaming loop.

    ``add_pending`` files a routed job; ``due_s`` advertises when the
    device next has decode work (immediately while any stream is active,
    else when the earliest pending arrival joins); ``admit`` moves due
    jobs into their compat group's session at a token boundary.  The
    engine owns the actual token step — the lane only keeps membership,
    join times and the pending heap.
    """

    def __init__(self) -> None:
        self.pending: List[Tuple[float, int, DecodeJob]] = []
        self.groups: Dict[Hashable, _LaneGroup] = {}
        self._tiebreak = itertools.count()

    def add_pending(self, job: DecodeJob) -> None:
        heapq.heappush(self.pending,
                       (job.request.arrival_s, next(self._tiebreak), job))

    def has_active(self) -> bool:
        return any(not g.session.finished() for g in self.groups.values())

    def due_s(self, clock_s: float) -> Optional[float]:
        """When the device can next run a decode boundary (None = never)."""
        if self.has_active():
            return clock_s
        if self.pending:
            return max(clock_s, self.pending[0][0])
        return None

    def admit(self, now_s: float, session_factory) -> int:
        """Join every pending job whose arrival has passed; count joined."""
        joined = 0
        while self.pending and self.pending[0][0] <= now_s:
            _, _, job = heapq.heappop(self.pending)
            group = self.groups.get(job.compat_key)
            if group is None:
                group = _LaneGroup(session_factory())
                self.groups[job.compat_key] = group
            sid = group.session.submit_prompt(job.request.tokens, job.config)
            group.streams[sid] = _LaneStream(sid, job, now_s)
            joined += 1
        return joined

    def remove_pending(self, req_id: int) -> Optional[DecodeJob]:
        """Retract one not-yet-admitted job (cancellation).

        Only pending jobs are retractable: a stream already admitted to
        a lane group holds live session state and runs to completion.
        Returns the job, or ``None`` when no pending entry matches.
        """
        for entry in self.pending:
            if entry[2].request.req_id == req_id:
                self.pending.remove(entry)
                heapq.heapify(self.pending)
                return entry[2]
        return None

    def group_keys(self) -> List[Hashable]:
        """Deterministic group order (None sparsity sorts first)."""
        return sorted(self.groups,
                      key=lambda k: (k[0], -1.0 if k[1] is None else k[1]))

    def evacuate(self) -> List[DecodeJob]:
        """Pull every job off the lane (pending *and* active) for failover.

        Called when the owning device goes down: sessions are closed and
        active streams restart from their prompt on whatever device they
        land on next.  Decode is deterministic in (prompt, config) — the
        per-stream sampling RNG is seeded at prompt submission — so the
        regenerated stream is bit-identical to an uninterrupted run.
        Jobs come back in deterministic order: pending by arrival, then
        active streams in group/sid order.
        """
        jobs = [job for _, _, job in sorted(self.pending)]
        self.pending = []
        for key in self.group_keys():
            group = self.groups[key]
            jobs.extend(group.streams[sid].job
                        for sid in sorted(group.streams))
            group.streams.clear()
            group.session.close()
        self.groups = {}
        return jobs

    def prune(self) -> None:
        """Drop groups whose every stream has finished and been read out."""
        for key in list(self.groups):
            group = self.groups[key]
            if not group.streams and group.session.finished():
                group.session.close()
                del self.groups[key]
