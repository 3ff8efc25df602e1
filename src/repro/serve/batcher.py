"""Dynamic micro-batching: queue, group, pad, and execute requests.

The serving hot path groups *compatible* requests — same operating point,
hence same pattern set and V/F level — into one padded batch and runs a
single vectorized forward pass through the masked model.  Padding is
exact, not approximate: right-padded positions are blocked from attention
with a key-padding mask, so every valid output position agrees with the
per-request forward to machine precision (asserted in the tests and the
serving bench).

Four pieces:

- :class:`InferenceRequest` / :class:`RequestResult` — the unit of work
  and its outcome record;
- :func:`pad_batch` / :func:`run_padded` — padding plus the vectorized
  masked forward with per-request output slicing;
- :class:`AdmissionQueue` — the *incremental* batcher: requests are
  admitted one at a time under a compatibility key, a group flushes the
  instant it reaches ``max_batch``, and every open group carries a
  window deadline (``opened_s + max_wait_s``) the event loop closes it
  at.  This is the admission-time half of the streaming serving core
  (:mod:`repro.serve.streaming`);
- :class:`MicroBatcher` — the trace-grouping wrapper: replays a fully
  known arrival stream through an :class:`AdmissionQueue` (arrivals and
  window closes merged in time order), so offline batching is *by
  construction* the same grouping the online loop would produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.tensor.tensor import no_grad


@dataclass
class InferenceRequest:
    """One simulated client request.

    Two distinct budgets, both measured from ``arrival_s``:

    - ``deadline_s`` — the paper's per-inference real-time constraint;
      it drives the adapter's pattern-set choice (which sparsity can
      compute one inference in time at the current V/F level);
    - ``slo_s`` — the end-to-end completion objective the *service*
      offers, which additionally absorbs queueing, batching and the
      occasional reconfiguration switch.  Defaults to ``deadline_s``.

    ``level_name`` records the V/F operating point in force when the
    request arrived (set by the scenario generator).

    ``tenant`` names the client the request belongs to; the engine's
    per-tenant isolation (weighted fair admission shares, per-tenant
    shed/degrade accounting) keys off it.  The default single-tenant
    value keeps every historical trace byte-identical: tenancy never
    enters the compatibility key, so grouping is unaffected.
    """

    req_id: int
    tokens: np.ndarray  # 1-D int token ids
    arrival_s: float = 0.0
    deadline_s: float = float("inf")
    level_name: str = "l6"
    slo_s: Optional[float] = None
    # original deadline_s before graceful degradation re-stamped the
    # request to a sparser rung's latency (None = never degraded); set
    # by the engine's "degrade" shed policy, recorded for reporting
    degraded_from_s: Optional[float] = None
    tenant: str = "default"

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens)
        if self.tokens.ndim != 1 or self.tokens.size == 0:
            raise ValueError("request tokens must be a non-empty 1-D sequence")
        if not self.tenant:
            raise ValueError("tenant must be a non-empty string")
        # NaN fails every comparison, so it must be ruled out explicitly
        # (a bare `<= 0` check silently admits it); inf is legal — "no
        # deadline" — but a budget can never be negative, zero, or NaN
        if np.isnan(self.deadline_s) or self.deadline_s <= 0:
            raise ValueError("deadline must be positive (and not NaN)")
        if self.slo_s is not None:
            if np.isnan(self.slo_s) or self.slo_s <= 0:
                raise ValueError("slo must be positive (and not NaN)")
            if self.slo_s < self.deadline_s:
                raise ValueError(
                    f"slo_s ({self.slo_s}) must be at least deadline_s "
                    f"({self.deadline_s}): the end-to-end objective absorbs "
                    "queueing and batching on top of the compute deadline")

    @property
    def length(self) -> int:
        return int(self.tokens.shape[0])

    @property
    def slo(self) -> float:
        return self.deadline_s if self.slo_s is None else self.slo_s


@dataclass
class RequestResult:
    """Outcome of one served request."""

    request: InferenceRequest
    output: np.ndarray  # (length, vocab) logits or (num_labels,) head output
    batch_id: int
    batch_size: int
    queue_wait_s: float = 0.0
    service_s: float = 0.0
    completion_s: float = 0.0
    sparsity: Optional[float] = None
    # which simulated device served the batch (0 on a single-device engine)
    shard_id: int = 0
    # retracted by a mid-execution device crash: the result never left
    # the engine (its members re-execute on a healthy shard) and is
    # skipped by release/report
    canceled: bool = False

    @property
    def degraded(self) -> bool:
        """Served at a degraded (sparser-than-requested) operating point."""
        return self.request.degraded_from_s is not None

    @property
    def latency_s(self) -> float:
        return self.queue_wait_s + self.service_s

    @property
    def met_slo(self) -> bool:
        """End-to-end completion within the request's service objective."""
        return self.latency_s <= self.request.slo

    # kept as an alias: "deadline" in serving reports means the SLO
    met_deadline = met_slo


# ---------------------------------------------------------------------------
# padding + vectorized execution
# ---------------------------------------------------------------------------

def pad_batch(token_seqs: Sequence[np.ndarray], pad_id: int = 0
              ) -> Tuple[np.ndarray, Optional[np.ndarray], List[int]]:
    """Right-pad ragged sequences into one ``(B, Lmax)`` token matrix.

    Returns ``(tokens, key_padding_mask, lengths)`` where the mask is a
    boolean ``(B, 1, 1, Lmax)`` array (``True`` = blocked pad key)
    broadcastable against attention scores, or ``None`` when every
    sequence already has the same length (so the unpadded fast path —
    and its bitwise-identical numerics — is preserved).
    """
    if not token_seqs:
        raise ValueError("cannot pad an empty batch")
    lengths = [int(np.asarray(t).shape[0]) for t in token_seqs]
    max_len = max(lengths)
    batch = len(token_seqs)
    tokens = np.full((batch, max_len), pad_id, dtype=np.int64)
    for i, seq in enumerate(token_seqs):
        tokens[i, : lengths[i]] = np.asarray(seq)
    if all(n == max_len for n in lengths):
        return tokens, None, lengths
    mask = np.zeros((batch, 1, 1, max_len), dtype=bool)
    for i, n in enumerate(lengths):
        mask[i, 0, 0, n:] = True
    return tokens, mask, lengths


def run_padded(model, requests: Sequence[InferenceRequest], pad_id: int = 0,
               forward=None) -> List[np.ndarray]:
    """One vectorized forward over ``requests``; outputs sliced per request.

    Sequence models (3-D logits) are sliced back to each request's true
    length; pooled heads (2-D outputs) return one row per request.

    ``forward`` is an optional zero-autograd fast path — a callable
    ``forward(tokens, attn_mask=...) -> np.ndarray`` such as a
    :class:`~repro.nn.inference.CompiledForward` plan.  When given it
    replaces the eager ``model(...)`` call entirely: no ``no_grad``
    guard is needed because the plan never touches the Tensor engine
    (its float64 outputs are bit-identical, asserted in the tests).
    """
    tokens, mask, lengths = pad_batch([r.tokens for r in requests], pad_id)
    if forward is not None:
        data = forward(tokens, attn_mask=mask)
    else:
        with no_grad():
            out = (model(tokens) if mask is None
                   else model(tokens, attn_mask=mask))
        data = out.data if hasattr(out, "data") else np.asarray(out)
    if data.ndim >= 3:
        return [data[i, : lengths[i]].copy() for i in range(len(requests))]
    return [data[i].copy() for i in range(len(requests))]


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

def check_batching(max_batch: int, window_s: float) -> None:
    """The micro-batching rules, shared by the queues and ServeConfig."""
    if max_batch < 1:
        raise ValueError(f"max_batch must be at least 1, got {max_batch}")
    if not math.isfinite(window_s) or window_s < 0:
        raise ValueError(
            f"window_s must be finite and non-negative, got {window_s}")


def _default_key(request: InferenceRequest) -> Hashable:
    return request.level_name


@dataclass
class FlushedGroup:
    """One closed micro-batch group, as emitted by the admission queue.

    ``full`` distinguishes the two close reasons, because they imply
    different dispatch times: a full group leaves when its last member
    arrives; a window-closed (or end-of-stream) partial group is ready
    only at ``opened_s + max_wait_s`` — the online batcher cannot know
    no more compatible requests are coming.
    """

    key: Hashable
    requests: List[InferenceRequest]
    opened_s: float  # arrival of the first member
    deadline_s: float  # opened_s + max_wait_s (the window close)
    full: bool  # closed because it reached max_batch

    @property
    def ready_s(self) -> float:
        """Earliest dispatch time under the batching-window rule."""
        if self.full:
            return max(r.arrival_s for r in self.requests)
        return self.deadline_s

    def __len__(self) -> int:
        return len(self.requests)


@dataclass
class _OpenGroup:
    key: Hashable
    opened_s: float
    deadline_s: float
    generation: int  # invalidates stale window-close events after a flush
    requests: List[InferenceRequest] = field(default_factory=list)


class AdmissionQueue:
    """Incremental micro-batch admission under a batching window.

    The online half of micro-batching: requests are admitted one at a
    time (:meth:`add`), grouped by ``key_fn``.  A group closes

    - the instant its ``max_batch``-th member is admitted (``add``
      returns the flushed group), or
    - when its *window deadline* (``opened_s + max_wait_s``) passes —
      the caller owns the clock, so it either drives :meth:`close_due`
      from an event loop or lets :meth:`flush_remaining` close
      everything at end of stream.

    Each ``add`` that opens a new group returns its window deadline so
    an event-driven caller can schedule the close; ``generation`` tags
    let it discard close events for groups that already flushed full.
    Admission order must be non-decreasing in time (ties allowed); the
    queue is deterministic and preserves FIFO order within a key.
    """

    def __init__(self, max_batch: int = 8, max_wait_s: float = 0.05,
                 key_fn: Optional[Callable[[InferenceRequest], Hashable]] = None) -> None:
        check_batching(max_batch, max_wait_s)
        self.max_batch = max_batch
        self.max_wait_s = max_wait_s
        self.key_fn = key_fn or _default_key
        # insertion-ordered: dict order == group creation order == ascending
        # opened_s (admission is time-ordered), which keeps every flush
        # discipline below deterministic
        self._open: Dict[Hashable, _OpenGroup] = {}
        self._generation = 0
        self._last_admitted_s = float("-inf")

    def __len__(self) -> int:
        """Number of requests currently waiting in open groups."""
        return sum(len(g.requests) for g in self._open.values())

    def waiting(self) -> List[InferenceRequest]:
        """Requests currently held in open groups, in admission order."""
        return [r for g in self._open.values() for r in g.requests]

    @property
    def open_groups(self) -> int:
        return len(self._open)

    def next_deadline_s(self) -> Optional[float]:
        """Earliest window close among open groups (None when empty)."""
        if not self._open:
            return None
        return min(g.deadline_s for g in self._open.values())

    def open_group(self, key: Hashable) -> Optional[_OpenGroup]:
        """The open group a ``key``-compatible request would join now.

        Introspection for the engine's admission estimate: the group's
        ``deadline_s`` is the *remaining* batching window such a request
        would actually wait out (instead of a pessimistic full
        ``max_wait_s``), and its size says whether the next admission
        would flush the group full (no wait at all).
        """
        return self._open.get(key)

    def remove(self, req_id: int) -> Optional[InferenceRequest]:
        """Retract one waiting request from its open group (cancellation).

        Returns the removed request, or ``None`` if no open group holds
        ``req_id``.  A group emptied by the removal is dropped outright —
        its scheduled window-close event goes stale and
        :meth:`close_generation` ignores it, exactly like a group that
        flushed full.  The group's window deadline is *not* re-stamped
        for the survivors: they keep batching on the window opened by
        the first admission, cancelled or not.
        """
        for key, group in self._open.items():
            for i, req in enumerate(group.requests):
                if req.req_id == req_id:
                    group.requests.pop(i)
                    if not group.requests:
                        del self._open[key]
                    return req
        return None

    def _close(self, key: Hashable, full: bool) -> FlushedGroup:
        group = self._open.pop(key)
        return FlushedGroup(group.key, group.requests, group.opened_s,
                            group.deadline_s, full)

    def add(self, request: InferenceRequest, now: float
            ) -> Tuple[Optional[FlushedGroup], Optional[Tuple[float, Hashable, int]]]:
        """Admit one request at time ``now``.

        Returns ``(flushed, window)``: ``flushed`` is the request's own
        group if this admission filled it to ``max_batch`` (closed
        immediately, ready at ``now``); ``window`` is
        ``(deadline_s, key, generation)`` when the admission *opened* a
        new group, for the caller to schedule the window close.
        """
        if now < self._last_admitted_s:
            raise ValueError("admissions must be time-ordered")
        self._last_admitted_s = now
        key = self.key_fn(request)
        window: Optional[Tuple[float, Hashable, int]] = None
        group = self._open.get(key)
        if group is None:
            self._generation += 1
            group = _OpenGroup(key, now, now + self.max_wait_s, self._generation)
            self._open[key] = group
            window = (group.deadline_s, key, group.generation)
        group.requests.append(request)
        if len(group.requests) >= self.max_batch:
            return self._close(key, full=True), window
        return None, window

    def close_due(self, now: float, *, strict: bool = False
                  ) -> List[FlushedGroup]:
        """Close every group whose window deadline has passed.

        ``strict=True`` closes only deadlines strictly before ``now`` —
        the discipline used when replaying a trace arrival-by-arrival,
        where groups whose deadline lands exactly on an arrival close
        *after* the admissions at that instant (matching the event
        loop's arrival-before-window-close ordering).
        """
        due = [key for key, g in self._open.items()
               if (g.deadline_s < now if strict else g.deadline_s <= now)]
        return [self._close(key, full=False) for key in due]

    def close_generation(self, key: Hashable, generation: int
                         ) -> Optional[FlushedGroup]:
        """Close ``key``'s group iff it is still the tagged generation.

        The event-loop entry point for window-close events: a group that
        flushed full (and possibly reopened) since the event was
        scheduled is left alone.
        """
        group = self._open.get(key)
        if group is None or group.generation != generation:
            return None
        return self._close(key, full=False)

    def flush_remaining(self) -> List[FlushedGroup]:
        """End of stream: close all open groups, oldest first."""
        return [self._close(key, full=False) for key in list(self._open)]


class MicroBatcher:
    """Group a fully known arrival-ordered request stream into batches.

    The trace-grouping wrapper over :class:`AdmissionQueue`: requests
    (sorted by arrival, ties by ``req_id``) are replayed through the
    incremental queue with window closes merged in at their deadlines,
    so the offline grouping is — by construction, not by parallel
    implementation — exactly what the streaming admission loop produces
    for the same trace.  A group is flushed when it reaches
    ``max_batch``, when its batching window ``window_s`` closes, or at
    end of stream; a lone request waits at most one batching window.
    """

    def __init__(self, max_batch: int = 8, window_s: float = 0.05,
                 key_fn: Optional[Callable[[InferenceRequest], Hashable]] = None) -> None:
        check_batching(max_batch, window_s)
        self.max_batch = max_batch
        self.window_s = window_s
        self.key_fn = key_fn or _default_key

    def queue_factory(self) -> AdmissionQueue:
        """A fresh admission queue with this batcher's grouping rules."""
        return AdmissionQueue(self.max_batch, self.window_s, self.key_fn)

    def batches(self, requests: Sequence[InferenceRequest]
                ) -> List[List[InferenceRequest]]:
        """Deterministically batch ``requests`` (sorted by arrival)."""
        return [g.requests for g in self.flushed_groups(requests)]

    def flushed_groups(self, requests: Sequence[InferenceRequest]
                       ) -> List[FlushedGroup]:
        """Replay the trace through an admission queue; groups in flush order."""
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.req_id))
        queue = self.queue_factory()
        flushed: List[FlushedGroup] = []
        for req in ordered:
            # windows that closed strictly before this arrival flush first
            flushed.extend(queue.close_due(req.arrival_s, strict=True))
            full, _ = queue.add(req, req.arrival_s)
            if full is not None:
                flushed.append(full)
        flushed.extend(queue.flush_remaining())
        return flushed
