"""Event-driven streaming serving core: submit / tick / drain.

The paper's whole argument is *run-time* reconfigurability — the device
reacts to battery, bandwidth and deadline pressure as requests arrive —
so the serving core is an online admission loop, not a trace compiler.
:class:`StreamingEngine` maintains one global event heap over simulated
time with three event kinds:

- **arrival** — a submitted request reaches the admission queue
  (:class:`~repro.serve.batcher.AdmissionQueue`); compatible requests
  (same V/F level + feasible pattern sparsity) accumulate in an open
  micro-batch group;
- **batch-window close** — an open group's batching window
  (``max_wait_s`` past its first member) expires and the partial batch
  is admitted; a group that reaches ``max_batch`` is admitted
  immediately at the filling arrival instead;
- **shard ready** — a simulated device is idle and has a dispatchable
  batch; it picks its next batch per its drain policy
  (:meth:`~repro.serve.sharding.DeviceShard.pop_next`), the engine
  resolves the operating point against *that device's* installed
  pattern state, executes one padded vectorized forward, and advances
  the device clock by switch cost plus the time-sliced batch service.

Admitted batches are routed at admission time by the
:class:`~repro.serve.sharding.Dispatcher` — this is where continuous
batching wins throughput and tail latency: placement happens the moment
a batch forms, with the load/pattern-residency picture of that instant.

The caller owns the clock: :meth:`submit` files a request (its arrival
may be now or in the future), :meth:`tick` advances simulated time and
returns the requests that completed by then, :meth:`drain` runs the
loop to exhaustion.  The semantics are *tick-granularity independent* —
any schedule of ``tick`` calls (including none: submit everything and
``drain``) yields the same admissions, placements and simulated
timeline for the same arrival stream, which is exactly how the offline
:meth:`~repro.serve.engine.ServeEngine.serve` wrapper reproduces its
historical behaviour on top of this loop.

At equal simulated times, fault events land first, then cancellations,
then arrivals, then window closes, then shard executions (then
submission order), so ties are deterministic — a crash at a cancel's
instant has already failed its work over before the cancel goes
looking for it (cancel-during-failover is well-defined).

Fault tolerance (:mod:`repro.serve.faults`) folds into the same heap: a
:class:`~repro.serve.faults.FaultPlan` schedules crash/stall/slow
events, a crashed shard's queued and in-flight work fails over to
healthy shards through the same dispatcher (each requeued batch is
charged one pattern-switch-equivalent at execution), downed shards are
re-probed at exponentially backed-off intervals, and admission gains
two overload defenses (``shed_policy``/``max_queue``): deadline-aware
shedding and graceful degradation to sparser pattern rungs.  Shedding
and degradation both happen *before* a request touches the admission
queue, so the surviving requests group into exactly the micro-batches a
fault-free serve of the same survivors would form — which is what makes
every completed output bit-identical to that fault-free serve (the
faults bench's core invariant, alongside conservation:
``completed + shed + cancelled == submitted``).

Three scheduler-side defenses ride the same heap (PR: preemptive
deadline scheduling):

- **preemption** (``preempt_policy``) — when a freshly admitted batch
  would miss its SLO budget behind longer work on its shard, the
  scheduler may pull a looser-budget *queued* batch back out and
  re-route it (``"queued"``), or additionally retract the shard's
  in-flight batch through the crash-retraction machinery
  (``"running"``).  A preempted batch is requeued with the same
  pattern-switch-equivalent penalty as a crash failover and re-executes
  on its *full original membership*, so every completed output stays
  bit-identical;
- **cancellation** — :meth:`StreamingEngine.cancel` (or the engine-wide
  ``cancel_after_s`` client timeout) retracts a request wherever it is
  — pre-arrival, open admission group, queued/parked batch, pending
  decode job, or in-flight result — as a new *terminal* state recorded
  in :class:`~repro.serve.faults.CancelRecord`;
- **per-tenant isolation** (``tenant_weights``) — with a bounded queue,
  each tenant owns a weighted share of the admission slots; a tenant
  flooding past its share is shed (``tenant_quota``) while every other
  tenant keeps admitting, so one hot client cannot starve the fleet
  (every tenant's share is at least one slot).  Quota decisions happen
  before the admission queue, like shedding, so grouping — and
  therefore bit-exactness — is untouched.
"""

from __future__ import annotations

import heapq
import itertools
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.runtime_policy import AdaptationEvent, RuntimeAdapter
from repro.hardware.dvfs import DVFSTable, VFLevel
from repro.nn.generation import DecodeSession, GenerationConfig
from repro.nn.inference import UnsupportedModel, compile_decode, compile_inference
from repro.hardware.latency import SparsityKind
from repro.serve.batcher import (
    AdmissionQueue,
    FlushedGroup,
    InferenceRequest,
    RequestResult,
    run_padded,
)
from repro.serve.cache import ArtifactCache, CacheStats
from repro.serve.config import ServeConfig, resolve_config
from repro.serve.decode import DecodeJob
from repro.serve.faults import CancelRecord, ShardFault, ShedRecord
from repro.serve.sharding import DeviceShard, Dispatcher, QueuedBatch, ShardStats

# event-kind priorities: at one simulated instant, fault events land
# before cancellations before admissions before batch windows close
# before devices pick their next batch (a crash at an arrival's instant
# is visible to that arrival; a cancel at a crash's instant sees the
# failed-over work, so cancel-during-failover is deterministic)
_FAULT, _CANCEL = -2, -1
_ARRIVAL, _WINDOW_CLOSE, _SHARD_READY = 0, 1, 2

_LEVELS = DVFSTable()


@dataclass
class ServeReport:
    """Aggregate outcome of one serving run."""

    results: List[RequestResult] = field(default_factory=list)
    events: List[AdaptationEvent] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_stats: Optional[CacheStats] = None
    max_verify_error: Optional[float] = None
    shard_stats: List[ShardStats] = field(default_factory=list)
    policy: str = "round-robin"
    time_sliced: bool = True
    # fault-tolerance accounting: requests refused at admission (with
    # reasons), requests withdrawn by cancellation, and the conservation
    # identity — every submitted request is accounted for as completed,
    # shed or cancelled, never silently lost
    shed: List[ShedRecord] = field(default_factory=list)
    cancelled: List[CancelRecord] = field(default_factory=list)
    submitted: int = 0
    completed: int = 0
    # per tenant: completed / degraded / slo_misses counts of the
    # completions released so far (kept even when results are not)
    tenant_done: Dict[str, Dict[str, int]] = field(default_factory=dict)

    # -- request-level aggregates --------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.results)

    @property
    def num_batches(self) -> int:
        return len(self.events)

    @property
    def mean_batch_size(self) -> float:
        return self.num_requests / self.num_batches if self.num_batches else 0.0

    @property
    def throughput_rps(self) -> float:
        """Measured wall-clock requests/second of the Python hot path."""
        return self.num_requests / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def sim_makespan_s(self) -> float:
        return max((r.completion_s for r in self.results), default=0.0)

    @property
    def sim_throughput_rps(self) -> float:
        """Requests/second on the simulated device timeline."""
        span = self.sim_makespan_s
        return self.num_requests / span if span > 0 else 0.0

    @property
    def sim_busy_s(self) -> float:
        """Total simulated device busy time across all shards."""
        return sum(s.busy_s for s in self.shard_stats)

    @property
    def service_throughput_rps(self) -> float:
        """Requests/second of busy device time — batching efficiency.

        Unlike :attr:`sim_throughput_rps` (bounded by the arrival span
        under light load), this measures how much work one second of
        device time buys, which is what a larger admission window trades
        latency for.
        """
        busy = self.sim_busy_s
        return self.num_requests / busy if busy > 0 else 0.0

    @property
    def devices(self) -> int:
        return max(1, len(self.shard_stats))

    def latency_percentile(self, q: float) -> float:
        if not self.results:
            return 0.0
        return float(np.percentile([r.latency_s for r in self.results], q))

    @property
    def p50_latency_s(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95_latency_s(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def deadline_hit_rate(self) -> float:
        if not self.results:
            return 0.0
        return sum(1 for r in self.results if r.met_deadline) / len(self.results)

    @property
    def num_switches(self) -> int:
        return sum(1 for e in self.events if e.switched)

    @property
    def decode_tokens(self) -> int:
        """Decode-lane tokens emitted across all devices."""
        return sum(s.decode_tokens for s in self.shard_stats)

    @property
    def decode_streams(self) -> int:
        """Decode streams completed across all devices."""
        return sum(s.decode_streams for s in self.shard_stats)

    @property
    def violations(self) -> int:
        """Batches whose compute deadline no pattern set could meet."""
        return sum(1 for e in self.events if e.chosen_sparsity is None)

    # -- fault-tolerance aggregates ------------------------------------
    @property
    def num_shed(self) -> int:
        return len(self.shed)

    @property
    def shed_rate(self) -> float:
        return self.num_shed / self.submitted if self.submitted else 0.0

    @property
    def num_cancelled(self) -> int:
        return len(self.cancelled)

    @property
    def conserved(self) -> bool:
        """No request lost: completed + shed + cancelled == submitted."""
        return (self.completed + self.num_shed + self.num_cancelled
                == self.submitted)

    @property
    def degraded_requests(self) -> int:
        """Completions served at a degraded (sparser) operating point."""
        return sum(1 for r in self.results if r.degraded)

    @property
    def failures(self) -> int:
        return sum(s.failures for s in self.shard_stats)

    @property
    def recoveries(self) -> int:
        return sum(s.recoveries for s in self.shard_stats)

    @property
    def requeued_batches(self) -> int:
        """Batches pulled off dead shards and failed over."""
        return sum(s.requeued_batches for s in self.shard_stats)

    @property
    def stalls(self) -> int:
        return sum(s.stalls for s in self.shard_stats)

    @property
    def max_recovery_lag_s(self) -> float:
        """Worst probe-detection lag past a shard's physical recovery."""
        return max((s.recovery_lag_s for s in self.shard_stats), default=0.0)

    @property
    def preemptions(self) -> int:
        """Batches pulled back (queued or in-flight) for a tighter deadline."""
        return sum(s.preempted_batches for s in self.shard_stats)

    # -- per-tenant isolation aggregates --------------------------------
    def tenant_breakdown(self) -> Dict[str, Dict[str, int]]:
        """Terminal-state counts per tenant (completed/shed/cancelled).

        Completions are counted as :meth:`StreamingEngine.tick`/``drain``
        release them, so a ``retain_results=False`` session reports the
        same counts as a retaining one; under conservation a drained
        session's per-tenant counts sum to that tenant's submissions.
        """
        out: Dict[str, Dict[str, int]] = {}

        def slot(tenant: str) -> Dict[str, int]:
            return out.setdefault(tenant, {
                "completed": 0, "shed": 0, "cancelled": 0,
                "degraded": 0, "slo_misses": 0})

        for tenant, counts in self.tenant_done.items():
            slot(tenant).update(counts)
        for rec in self.shed:
            slot(rec.request.tenant)["shed"] += 1
        for rec in self.cancelled:
            slot(rec.request.tenant)["cancelled"] += 1
        return out

    @property
    def starved_tenants(self) -> List[str]:
        """Tenants that saw traffic reach a terminal state yet completed
        nothing — the condition the weighted fair shares exist to
        prevent (a tenant whose every request was shed or cancelled)."""
        return sorted(t for t, s in self.tenant_breakdown().items()
                      if s["completed"] == 0)

    def summary(self) -> dict:
        """Machine-readable digest (consumed by the bench JSON output)."""
        out = {
            "requests": self.num_requests,
            "batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "throughput_rps": self.throughput_rps,
            "sim_throughput_rps": self.sim_throughput_rps,
            "p50_latency_ms": 1e3 * self.p50_latency_s,
            "p95_latency_ms": 1e3 * self.p95_latency_s,
            "deadline_hit_rate": self.deadline_hit_rate,
            "switches": self.num_switches,
            "violations": self.violations,
            "wall_seconds": self.wall_seconds,
            "devices": self.devices,
            "policy": self.policy,
            "time_sliced": self.time_sliced,
        }
        if self.decode_tokens:
            out["decode_streams"] = self.decode_streams
            out["decode_tokens"] = self.decode_tokens
        if (self.shed or self.cancelled or self.degraded_requests
                or self.failures or self.stalls or self.preemptions):
            # only when fault/overload/scheduler traffic actually
            # happened, so the committed fault-free bench digests replay
            # unchanged
            reasons: Dict[str, int] = {}
            for rec in self.shed:
                reasons[rec.reason] = reasons.get(rec.reason, 0) + 1
            out["faults"] = {
                "submitted": self.submitted,
                "completed": self.completed,
                "shed": self.num_shed,
                "shed_rate": self.shed_rate,
                "shed_reasons": reasons,
                "cancelled": self.num_cancelled,
                "preemptions": self.preemptions,
                "conserved": self.conserved,
                "degraded_requests": self.degraded_requests,
                "failures": self.failures,
                "recoveries": self.recoveries,
                "requeued_batches": self.requeued_batches,
                "retried_batches": sum(s.retried_batches
                                       for s in self.shard_stats),
                "retry_penalty_s": sum(s.retry_penalty_s
                                       for s in self.shard_stats),
                "stalls": self.stalls,
                "max_recovery_lag_ms": 1e3 * self.max_recovery_lag_s,
            }
        breakdown = self.tenant_breakdown()
        if set(breakdown) - {"default"}:
            # multi-tenant traffic only: single-tenant digests replay
            # byte-identically
            out["tenants"] = breakdown
        if self.shard_stats:
            makespan = self.sim_makespan_s
            out["shards"] = [s.as_dict(makespan) for s in self.shard_stats]
        if self.cache_stats is not None:
            out["cache"] = self.cache_stats.as_dict()
        if self.max_verify_error is not None:
            out["max_verify_error"] = self.max_verify_error
        return out


class StreamingEngine:
    """Online admit/tick serving loop over N simulated devices.

    One live serving *session*: simulated time only moves forward, and
    the engine holds the admission queue, the dispatcher, and the device
    shards (with their installed-pattern state) for its whole lifetime.
    ``adapter`` supplies the sparsity ladder, latency model and (via its
    ``manager``) the mask installation path; ``cache`` memoizes mask
    derivation and sparse-format conversion across batches.  ``config``
    (a :class:`~repro.serve.config.ServeConfig`, shared by reference)
    holds every serving setting; keyword ``settings`` build or override
    one, e.g. ``StreamingEngine(model, adapter, max_batch=4)``.

    ``initial_device_state`` maps shard id → installed sparsity for
    devices provisioned before this session (a device that served an
    earlier trace keeps its masks); unlisted shards start from the
    adapter's own installed state.

    ``retain_results=False`` drops each request's result record (and its
    output array) once it is handed out by :meth:`tick`/:meth:`drain`,
    bounding a long-lived session's memory; :meth:`report` then carries
    the aggregate shard/event accounting and the per-tenant counts, so
    per-request latency percentiles must be computed by the caller from
    the released completions.
    """

    def __init__(self, model, adapter: RuntimeAdapter,
                 config: Optional[ServeConfig] = None, *,
                 cache: Optional[ArtifactCache] = None,
                 initial_device_state: Optional[Dict[int, Optional[float]]] = None,
                 retain_results: bool = True, **settings) -> None:
        if "max_wait_s" in settings:
            # the session-side name of window_s, kept because perfbench
            # builds sessions as StreamingEngine(..., max_wait_s=)
            settings["window_s"] = settings.pop("max_wait_s")
        self.config = config = resolve_config(config, settings)
        self.model = model
        self.adapter = adapter
        self.cache = cache
        if cache is not None and adapter.manager is not None:
            adapter.manager.attach_cache(cache)
        # serve-path forwards default to the compiled zero-autograd plan
        # (bit-identical to the eager path); the plan is built lazily on
        # the first executed batch and recompiles itself only when a
        # weight or installed mask actually changes (O(1) token check).
        # Cleared when the model cannot compile.
        self.fast_forward = config.decode.fast_forward
        self._plan = None
        self._decoder = None
        self._decoder_tried = False
        self.ladder: Dict[float, object] = dict(adapter.candidates)
        self.fallback_sparsity: float = adapter.candidates[-1][0]
        self._switch_cost_s: Dict[float, float] = {
            sparsity: adapter.reconfigurator.pattern_switch(
                adapter.workload, len(pset),
                adapter.hardware_pattern_size).seconds
            for sparsity, pset in self.ladder.items()}
        self.admission = AdmissionQueue(config.max_batch, config.window_s,
                                        key_fn=self._compat_key)
        self.dispatcher = Dispatcher(config, switch_cost_s=self._switch_cost_s)
        self.shards = [DeviceShard(i, config) for i in range(config.devices)]
        state = dict(initial_device_state or {})
        for shard in self.shards:
            # a device resumes with whatever it had installed last session;
            # otherwise it inherits the adapter's provisioning (deploy-time
            # installs are shared — every replica ships with the masks)
            shard.active_sparsity = state.get(shard.shard_id,
                                              adapter.active_sparsity)
            shard.expected_sparsity = shard.active_sparsity
        # -- event loop state ------------------------------------------
        self.retain_results = retain_results
        self.now_s = 0.0
        self._heap: List[Tuple[float, int, int, object]] = []
        self._tiebreak = itertools.count()
        self._seq = 0
        self._results: List[RequestResult] = []
        self._pending_done: List[Tuple[float, int, RequestResult]] = []
        self._events: List[Tuple[int, AdaptationEvent]] = []
        self._prewarmed: set = set()
        self._scheduled_ready: Dict[int, float] = {}
        self._worst_err = 0.0
        self._verify_wall = 0.0
        self._wall = 0.0
        self._cache_start = (cache.stats.snapshot()
                             if cache is not None else None)
        # -- cancellation / shedding -----------------------------------
        self._cancelled: List[CancelRecord] = []
        # requests cancelled before their arrival event was processed,
        # and the ids whose arrivals have been processed (so a cancel
        # can tell "not arrived yet" from "already terminal")
        self._cancel_pending: set = set()
        self._arrived: set = set()
        self._shed: List[ShedRecord] = []
        self._submitted = 0
        self._completed = 0
        # per tenant: completions handed out by tick()/drain()
        self._tenant_done: Dict[str, Dict[str, int]] = {}
        # work that had nowhere to go during a total outage, held until
        # a shard rejoins (or shed if the last recovery is cancelled)
        self._parked: List[QueuedBatch] = []
        self._parked_decode: List[DecodeJob] = []
        # per shard: the last executed batch/boundary, the only work that
        # can straddle a later crash instant (events process in time
        # order, so everything earlier finished before this one began)
        self._inflight: Dict[int, tuple] = {}
        if config.faults is not None:
            for f in config.faults.ordered():
                heapq.heappush(self._heap, (f.at_s, _FAULT,
                                            next(self._tiebreak),
                                            ("fault", f)))

    # ------------------------------------------------------------------
    @property
    def max_batch(self) -> int:
        return self.admission.max_batch

    @property
    def max_wait_s(self) -> float:
        return self.admission.max_wait_s

    @property
    def verify_wall_s(self) -> float:
        """Wall seconds spent on verification (excluded from wall_seconds)."""
        return self._verify_wall

    @staticmethod
    def _level(name: str) -> VFLevel:
        return _LEVELS[name]

    def _forward(self):
        """The compiled zero-autograd forward plan (None = eager path)."""
        if not self.fast_forward:
            return None
        if self._plan is None:
            try:
                self._plan = compile_inference(self.model)
            except UnsupportedModel:
                # unknown architecture: the designed fallback — serve
                # through the eager Tensor path instead (same bits)
                self.fast_forward = False
                return None
            except ValueError as exc:
                # a *supported* model that cannot compile (left in
                # training mode, say) is a misconfiguration; falling
                # back silently would hide a large perf regression
                warnings.warn(
                    f"compile_inference failed ({exc}); serving through "
                    "the eager Tensor path", RuntimeWarning, stacklevel=2)
                self.fast_forward = False
                return None
        return self._plan

    def _decode_plan(self):
        """The shared KV-cached decode plane (None = eager sessions)."""
        if not self.fast_forward:
            return None
        if self._decoder is None and not self._decoder_tried:
            self._decoder_tried = True
            try:
                self._decoder = compile_decode(self.model,
                                               plan=self._forward())
            except UnsupportedModel:
                self._decoder = None
            except ValueError as exc:
                warnings.warn(
                    f"compile_decode failed ({exc}); decode streams run "
                    "eager sessions", RuntimeWarning, stacklevel=2)
                self._decoder = None
        return self._decoder

    def _decode_session(self) -> DecodeSession:
        """A fresh lane session sharing the engine-wide decode plane."""
        decoder = self._decode_plan()
        if decoder is not None:
            return DecodeSession(self.model, decoder=decoder)
        return DecodeSession(self.model, compiled=False)

    def _compat_key(self, request: InferenceRequest) -> Hashable:
        """Requests batch together iff they resolve to one operating point."""
        level = self._level(request.level_name)
        sparsity = self.adapter.feasible_sparsity(level, request.deadline_s)
        return (request.level_name, sparsity)

    def device_state(self) -> Dict[int, Optional[float]]:
        """Installed sparsity per device (to seed a follow-up session)."""
        return {s.shard_id: s.active_sparsity for s in self.shards}

    def backlog(self) -> int:
        """Requests waiting in open groups plus batches queued on devices."""
        return len(self.admission) + sum(
            len(b) for s in self.shards for q in s.queues.values() for b in q)

    def next_event_s(self) -> Optional[float]:
        """Simulated time of the next pending event or completion."""
        times = []
        if self._heap:
            times.append(self._heap[0][0])
        if self._pending_done:
            times.append(self._pending_done[0][0])
        return min(times) if times else None

    # ------------------------------------------------------------------
    # public loop API
    # ------------------------------------------------------------------
    def submit(self, request: InferenceRequest,
               arrival_s: Optional[float] = None) -> None:
        """File one request; it reaches admission at its arrival time.

        ``arrival_s`` overrides the request's own ``arrival_s`` (the
        request is restamped).  Arrivals may not predate simulated time
        already ticked past — the loop cannot rewrite history.
        """
        start = time.perf_counter()
        if arrival_s is not None:
            request.arrival_s = arrival_s
        if request.arrival_s < self.now_s:
            raise ValueError(
                f"request {request.req_id} arrives at {request.arrival_s:.6f}s "
                f"but the loop already advanced to {self.now_s:.6f}s")
        self._submitted += 1
        heapq.heappush(self._heap, (request.arrival_s, _ARRIVAL,
                                    next(self._tiebreak), request))
        self._wall += time.perf_counter() - start

    def submit_decode(self, request: InferenceRequest,
                      config: Optional[GenerationConfig] = None,
                      arrival_s: Optional[float] = None) -> None:
        """File one decode stream: ``request.tokens`` is the prompt.

        The stream is routed at arrival and joins its device's rolling
        decode batch at the next token boundary; it leaves on eos or
        after ``max_new_tokens`` (from ``config`` or the engine's
        :class:`DecodeOptions` defaults).  Its completion surfaces
        through :meth:`tick`/:meth:`drain` like any request, with
        ``output`` a :class:`~repro.nn.generation.GenerationResult`.
        """
        start = time.perf_counter()
        if arrival_s is not None:
            request.arrival_s = arrival_s
        if request.arrival_s < self.now_s:
            raise ValueError(
                f"request {request.req_id} arrives at {request.arrival_s:.6f}s "
                f"but the loop already advanced to {self.now_s:.6f}s")
        cfg = (config if config is not None
               else self.config.decode.generation_config()).validate()
        job = DecodeJob(request=request, config=cfg)
        self._submitted += 1
        heapq.heappush(self._heap, (request.arrival_s, _ARRIVAL,
                                    next(self._tiebreak), job))
        self._wall += time.perf_counter() - start

    def cancel(self, request_id: int,
               at_s: Optional[float] = None) -> None:
        """Withdraw a request; the retraction lands at ``at_s`` (or now).

        The cancel is an event on the global heap — ordered after fault
        events and before arrivals at the same instant — so any schedule
        of submits/ticks retracts exactly the same work.  Whatever stage
        the request has reached (pre-arrival, open admission group,
        queued or parked batch, pending decode job, in-flight result
        not yet at its completion instant) it is pulled back and
        recorded as a :class:`~repro.serve.faults.CancelRecord`; a
        request that already completed (or was shed) is left alone — the
        cancel arrived too late and is a no-op.  In-flight device time
        is not refunded: the retracted member's result is suppressed,
        but its batch's clock advance stands.
        """
        when = self.now_s if at_s is None else at_s
        if when < self.now_s:
            raise ValueError(
                f"cancel of request {request_id} at {when:.6f}s predates "
                f"simulated time {self.now_s:.6f}s")
        heapq.heappush(self._heap, (when, _CANCEL, next(self._tiebreak),
                                    request_id))

    def tick(self, until_s: float) -> List[RequestResult]:
        """Advance simulated time to ``until_s``; completions in order.

        Processes every event (arrival, window close, shard execution)
        due by ``until_s`` and returns the requests whose simulated
        completion lands at or before it, ordered by completion time.

        Submit every arrival at or before ``until_s`` *before* ticking
        to it: the heap orders same-instant arrivals ahead of window
        closes, but a tick cannot wait for arrivals it has not been
        handed yet — ticking to ``t`` and only then submitting a
        ``t``-stamped request lets a window deadline at exactly ``t``
        close first (the loop cannot know more arrivals share the
        instant).
        """
        if until_s < self.now_s:
            raise ValueError("simulated time must advance monotonically")
        start = time.perf_counter()
        self._advance(until_s)
        self.now_s = max(self.now_s, until_s)
        out = self._release(until_s)
        self._wall += time.perf_counter() - start
        return out

    def drain(self) -> List[RequestResult]:
        """Run the loop to exhaustion; every remaining completion."""
        start = time.perf_counter()
        self._advance(None)
        out = self._release(float("inf"))
        self._wall += time.perf_counter() - start
        return out

    def play(self, requests, *, drain: bool = True) -> List[RequestResult]:
        """Feed an arrival-ordered request stream through the loop online.

        The one correct feeding discipline, shared by the CLI, the
        streaming bench and the tests: each request is submitted, and
        simulated time advances *lagging one arrival behind* — the loop
        only ticks to an instant once every arrival at that instant has
        been submitted, so same-instant ties batch exactly as the
        offline wrapper would (ticking eagerly to each arrival would let
        a window deadline at that instant close ahead of its same-time
        peers).  With ``drain=True`` the tail runs to exhaustion.
        Returns the released completions in completion order.
        """
        out: List[RequestResult] = []
        prev: Optional[float] = None
        for request in requests:
            if prev is not None and request.arrival_s > prev:
                out.extend(self.tick(prev))
            self.submit(request)
            prev = request.arrival_s
        if drain:
            out.extend(self.drain())
        return out

    def report(self) -> ServeReport:
        """Digest of everything executed so far (deterministic order)."""
        report = ServeReport(policy=self.config.policy,
                             time_sliced=self.config.time_sliced)
        report.results = sorted(
            (r for r in self._results if not r.canceled),
            key=lambda r: (r.batch_id, r.request.req_id))
        report.events = [e for _, e in sorted(self._events,
                                              key=lambda t: t[0])]
        report.shard_stats = [s.stats for s in self.shards]
        report.shed = list(self._shed)
        report.cancelled = list(self._cancelled)
        report.submitted = self._submitted
        report.completed = self._completed
        report.tenant_done = {t: dict(c) for t, c in self._tenant_done.items()}
        report.wall_seconds = max(0.0, self._wall - self._verify_wall)
        if self.cache is not None:
            # delta over this session only: each report describes its own
            # run, not the cache's lifetime
            end = self.cache.stats
            report.cache_stats = CacheStats(
                hits=end.hits - self._cache_start.hits,
                misses=end.misses - self._cache_start.misses,
                evictions=end.evictions - self._cache_start.evictions,
                invalidations=end.invalidations - self._cache_start.invalidations)
        if self.config.verify:
            report.max_verify_error = self._worst_err
        return report

    # ------------------------------------------------------------------
    # event loop internals
    # ------------------------------------------------------------------
    def _advance(self, horizon_s: Optional[float]) -> None:
        while self._heap:
            when, kind, _, payload = self._heap[0]
            if horizon_s is not None and when > horizon_s:
                return
            heapq.heappop(self._heap)
            self.now_s = max(self.now_s, when)
            if kind == _FAULT:
                self._on_fault(payload, when)
            elif kind == _CANCEL:
                self._on_cancel(payload, when)
            elif kind == _ARRIVAL:
                self._on_arrival(payload, when)
            elif kind == _WINDOW_CLOSE:
                key, generation = payload
                group = self.admission.close_generation(key, generation)
                if group is not None:
                    self._admit(group)
            else:  # _SHARD_READY
                self._on_shard_ready(payload, when)
        if horizon_s is None and (self._parked or self._parked_decode):
            # drain must never hang: if the heap is exhausted with work
            # still parked, no recovery is coming (the probe chain was
            # abandoned by a permanent outage) — shed, don't lose
            parked, self._parked = self._parked, []
            for qb in parked:
                self._shed_batch(qb, self.now_s, "no_device")
            jobs, self._parked_decode = self._parked_decode, []
            for job in jobs:
                self._shed_request(job.request, self.now_s, "no_device")

    # ------------------------------------------------------------------
    # fault handling (crash / failover / probe / stall / slow)
    # ------------------------------------------------------------------
    def _available_shards(self) -> List[DeviceShard]:
        return [s for s in self.shards if s.available]

    def _recovery_pending(self) -> bool:
        """Is any downed shard scheduled to come back (finite outage)?"""
        return any(not s.available and s.down_until is not None
                   and np.isfinite(s.down_until) for s in self.shards)

    def _push_fault(self, when: float, payload: tuple) -> None:
        heapq.heappush(self._heap,
                       (when, _FAULT, next(self._tiebreak), payload))

    def _on_fault(self, payload: tuple, now: float) -> None:
        op = payload[0]
        if op == "fault":
            f: ShardFault = payload[1]
            shard = self.shards[f.shard_id]
            if f.kind == "crash":
                self._crash_shard(shard, now, f.duration_s)
            elif f.kind == "stall" and shard.available:
                shard.stall(now + f.duration_s)
                self._push_fault(now + f.duration_s,
                                 ("window_end", f.shard_id))
            elif f.kind == "slow" and shard.available:
                shard.slow(f.factor)
                self._push_fault(now + f.duration_s,
                                 ("slow_end", f.shard_id))
        elif op == "probe":
            _, shard_id, interval = payload
            shard = self.shards[shard_id]
            if shard.available:
                return  # stale probe: the shard already rejoined
            if shard.down_until is None or not np.isfinite(shard.down_until):
                return  # the outage became permanent: abandon the chain
            if now >= shard.down_until:
                self._rejoin_shard(shard, now)
            else:
                # exponential backoff: each missed probe doubles the wait,
                # so a long outage costs O(log) probes and the detection
                # lag is bounded by the last interval
                self._push_fault(now + 2 * interval,
                                 ("probe", shard_id, 2 * interval))
        elif op == "slow_end":
            self.shards[payload[1]].slow_end()
        else:  # "window_end": a stall window closed
            self.shards[payload[1]].restore()

    def _crash_shard(self, shard: DeviceShard, now: float,
                     duration_s: float) -> None:
        went_down = shard.available
        retry: Optional[QueuedBatch] = None
        retry_jobs: List[DecodeJob] = []
        if went_down:
            entry = self._inflight.pop(shard.shard_id, None)
            if entry is not None and entry[-1] > now:
                # the last executed batch/boundary straddles the crash:
                # members already streamed out (completion <= now) keep
                # their results, the rest are retracted and re-execute —
                # on the *full original membership*, so the recomputed
                # bits are identical and only not-yet-done members emit
                if entry[0] == "batch":
                    _, qb, emitted, end = entry
                    retry = self._retract_inflight_batch(shard, qb,
                                                         emitted, end, now)
                    if retry is not None:
                        shard.stats.requeued_batches += 1
                else:  # decode boundary: streams finished past the crash
                    _, pairs, _ = entry
                    for result, job in pairs:
                        if result.completion_s > now and not result.canceled:
                            # a member already cancel-retracted is
                            # terminal — it neither refunds again nor
                            # restarts its stream
                            result.canceled = True
                            self._completed -= 1
                            shard.stats.decode_streams -= 1
                            retry_jobs.append(job)
        batches, jobs = shard.fail(now, now + duration_s)
        if not went_down:
            return  # overlapping crash: the outage was extended, that's all
        if np.isfinite(duration_s):
            backoff = self.config.probe_backoff_s
            self._push_fault(now + backoff, ("probe", shard.shard_id, backoff))
        for qb in batches:
            qb.requeues += 1  # every failover is charged like a switch
        for qb in ([retry] if retry is not None else []) + batches:
            qb.ready_s = max(qb.ready_s, now)
            self._dispatch_batch(qb)
        for job in retry_jobs + jobs:
            self._dispatch_decode(job)

    def _retract_inflight_batch(self, shard: DeviceShard, qb: QueuedBatch,
                                emitted: List[RequestResult], end: float,
                                now: float,
                                new_seq: Optional[int] = None
                                ) -> Optional[QueuedBatch]:
        """Retract the not-yet-completed members of an in-flight batch.

        Crash failover and running-batch preemption share this path:
        members whose completion already streamed out (or were cancel-
        retracted — terminal either way) stay done, the rest have their
        results suppressed and re-execute on the full original
        membership.  Returns the retry batch to re-dispatch, or ``None``
        when every member is already accounted for.
        """
        lost = [r for r in emitted if r.completion_s > now and not r.canceled]
        if not lost:
            return None
        done_now = {r.request.req_id for r in emitted
                    if r.completion_s <= now or r.canceled}
        done = tuple(sorted(set(qb.done_ids) | done_now))
        for r in lost:
            r.canceled = True
        self._completed -= len(lost)
        shard.rollback_inflight(
            now, len(lost), end,
            lost_batch=not any(r.completion_s <= now for r in emitted))
        return QueuedBatch(qb.seq if new_seq is None else new_seq,
                           qb.requests, qb.level_name, now, qb.est_service_s,
                           sparsity=qb.sparsity, requeues=qb.requeues + 1,
                           done_ids=done)

    def _rejoin_shard(self, shard: DeviceShard, now: float) -> None:
        shard.rejoin(now)
        parked, self._parked = self._parked, []
        for qb in parked:
            qb.ready_s = max(qb.ready_s, now)
            self._dispatch_batch(qb)
        jobs, self._parked_decode = self._parked_decode, []
        for job in jobs:
            self._dispatch_decode(job)
        self._schedule_shard(shard)

    def _dispatch_batch(self, qb: QueuedBatch) -> Optional[DeviceShard]:
        """Route a batch over the *available* shards (park/shed if none)."""
        avail = self._available_shards()
        if not avail:
            if self._recovery_pending():
                self._parked.append(qb)
            else:
                self._shed_batch(qb, self.now_s, "no_device")
            return None
        shard = self.dispatcher.route(qb, avail)
        self._schedule_shard(shard)
        return shard

    def _dispatch_decode(self, job: DecodeJob) -> None:
        """Route a decode job to an available shard's lane (park/shed)."""
        avail = self._available_shards()
        if not avail:
            if self._recovery_pending():
                self._parked_decode.append(job)
            else:
                self._shed_request(job.request, self.now_s, "no_device")
            return
        sparsity = job.compat_key[1]
        probe = QueuedBatch(-1, [job.request], job.request.level_name,
                            self.now_s, job.est_service_s, sparsity=sparsity)
        shard = self.dispatcher.place(probe, avail)
        # the lane consumes load like an enqueued batch would, minus the
        # queue itself: the stream holds its device one token at a time
        shard.assigned_est_s += job.est_service_s
        if sparsity is not None:
            shard.expected_sparsity = sparsity
        shard.decode.add_pending(job)
        self._schedule_shard(shard)

    def _shed_request(self, request: InferenceRequest, now: float,
                      reason: str, est: Optional[float] = None) -> None:
        self._shed.append(ShedRecord(request, now, reason, est))

    def _shed_batch(self, qb: QueuedBatch, now: float, reason: str) -> None:
        done = set(qb.done_ids)
        for req in qb.requests:
            if req.req_id not in done:
                self._shed_request(req, now, reason)

    # ------------------------------------------------------------------
    # cancellation (explicit client withdrawal — a terminal state)
    # ------------------------------------------------------------------
    def _record_cancel(self, request: InferenceRequest, now: float,
                       where: str) -> None:
        self._cancelled.append(CancelRecord(request, now, where))

    @staticmethod
    def _batch_member(qb: QueuedBatch, req_id: int
                      ) -> Optional[InferenceRequest]:
        """The live (not-done) member with ``req_id``, if any."""
        if req_id in qb.done_ids:
            return None
        return next((r for r in qb.requests if r.req_id == req_id), None)

    def _cancel_from_batch(self, qb: QueuedBatch, req: InferenceRequest,
                           now: float, shard: Optional[DeviceShard] = None,
                           parked: bool = False) -> None:
        """Suppress one member of a queued/parked batch.

        The membership itself is preserved — a later execution still
        computes the full batch, so the surviving members' bits are
        untouched — the cancelled member just joins ``done_ids`` and
        never emits.  A batch left with no live members is dropped
        outright (a clean serve of the survivors would never have
        executed it).
        """
        done = set(qb.done_ids) | {req.req_id}
        qb.done_ids = tuple(sorted(done))
        if len(done) == len(qb.requests):
            if parked:
                self._parked.remove(qb)
            elif shard is not None:
                shard.retract(qb.seq)
        self._record_cancel(req, now, "parked" if parked else "queued")

    def _on_cancel(self, req_id: int, now: float) -> None:
        """Retract ``req_id`` from wherever it currently lives.

        At most one stage can hold a request at any instant, so the
        search order only affects speed, not outcome.  A request found
        nowhere already reached a terminal state (completed, shed,
        previously cancelled, or an active decode stream — which holds
        live session state and runs to completion): the cancel is a
        deterministic no-op.
        """
        if req_id not in self._arrived:
            self._cancel_pending.add(req_id)
            return
        req = self.admission.remove(req_id)
        if req is not None:
            self._record_cancel(req, now, "admission")
            return
        for shard in self.shards:
            for qb in shard.queued_batches():
                member = self._batch_member(qb, req_id)
                if member is not None:
                    self._cancel_from_batch(qb, member, now, shard=shard)
                    return
        for qb in self._parked:
            member = self._batch_member(qb, req_id)
            if member is not None:
                self._cancel_from_batch(qb, member, now, parked=True)
                return
        for shard in self.shards:
            job = shard.decode.remove_pending(req_id)
            if job is not None:
                self._record_cancel(job.request, now, "decode_pending")
                return
        for job in self._parked_decode:
            if job.request.req_id == req_id:
                self._parked_decode.remove(job)
                self._record_cancel(job.request, now, "decode_pending")
                return
        for shard_id in sorted(self._inflight):
            entry = self._inflight[shard_id]
            results = (entry[2] if entry[0] == "batch"
                       else [r for r, _ in entry[1]])
            for result in results:
                if (result.request.req_id == req_id and not result.canceled
                        and result.completion_s > now):
                    # retract the result before its completion instant;
                    # the device time already spent is not refunded
                    result.canceled = True
                    self._completed -= 1
                    if entry[0] == "decode":
                        self.shards[shard_id].stats.decode_streams -= 1
                    self._record_cancel(result.request, now, "inflight")
                    return

    # ------------------------------------------------------------------
    # admission control (deadline-aware shedding / graceful degradation)
    # ------------------------------------------------------------------
    def _single_est_s(self, level: VFLevel, sparsity: Optional[float]) -> float:
        return self.adapter.latency.batch_latency_s(
            self.adapter.workload, level, 1,
            sparsity if sparsity is not None else self.fallback_sparsity,
            SparsityKind.PATTERN, self.adapter.hardware_pattern_size)

    def _admission_estimate_s(self, now: float, service_s: float,
                              key: Hashable) -> float:
        """Deterministic completion estimate for a request arriving now.

        Pessimistic by design: the batching-window wait, plus the
        earliest instant an available device runs dry (its clock plus
        queued backlog), plus the single-request service time at the
        candidate operating point.  Every input is a pure function of
        the executed event history, so the estimate — and therefore the
        shed decision — is tick-granularity independent.

        The window wait is only the residual window of the open group a
        ``key``-compatible request would actually join (nothing at all
        when the admission would flush it full), and a whole window when
        it would open a new group.
        """
        avail = self._available_shards()
        if not avail:
            return float("inf")
        free = min(max(s.clock_s, now) + s.pending_s for s in avail)
        wait = now + self.max_wait_s
        group = self.admission.open_group(key)
        if group is not None:
            wait = (now if len(group.requests) + 1 >= self.max_batch
                    else group.deadline_s)
        return max(wait, free) + service_s

    def _tenant_share(self, tenant: str) -> float:
        """The tenant's weighted share of the bounded queue, >= 1 slot.

        The one-slot floor is the starvation guard: no matter how the
        weights divide ``max_queue``, every tenant can always hold at
        least one request in the system, so every live tenant makes
        progress even under a hot-tenant flood.
        """
        max_queue = self.config.max_queue
        weights = self.config.tenant_weights or {}
        total = sum(weights.values())
        if tenant in weights:
            w = weights[tenant]
        else:
            # unlisted tenants join as weight-1 participants
            w = 1.0
            total += 1.0
        if max_queue is None or total <= 0:
            return float("inf")
        return max(1.0, max_queue * w / total)

    def _tenant_backlog(self, tenant: str) -> int:
        """This tenant's live requests waiting anywhere in the system.

        The per-tenant analogue of :meth:`backlog` (open admission
        groups + queued batches), extended over parked work and pending
        decode jobs; every term is a pure function of the executed event
        history, so quota decisions are tick-granularity independent.
        """
        count = sum(1 for r in self.admission.waiting()
                    if r.tenant == tenant)
        batches = [qb for s in self.shards for qb in s.queued_batches()]
        batches.extend(self._parked)
        for qb in batches:
            done = set(qb.done_ids)
            count += sum(1 for r in qb.requests
                         if r.req_id not in done and r.tenant == tenant)
        jobs = [job for s in self.shards for _, _, job in s.decode.pending]
        jobs.extend(self._parked_decode)
        count += sum(1 for job in jobs if job.request.tenant == tenant)
        return count

    def _admission_control(self, request: InferenceRequest,
                           now: float) -> bool:
        """Overload defenses at arrival; ``False`` = the request was shed.

        Runs *before* the request touches the admission queue, so shed
        requests never influence micro-batch grouping and a degraded
        request is re-stamped before its compatibility key is computed —
        the survivors form exactly the batches a fault-free serve of the
        surviving set would form (the bit-exactness invariant).
        """
        cfg = self.config
        if cfg.max_queue is not None and self.backlog() >= cfg.max_queue:
            self._shed_request(request, now, "queue_full")
            return False
        if (cfg.tenant_weights is not None and cfg.max_queue is not None
                and (self._tenant_backlog(request.tenant)
                     >= self._tenant_share(request.tenant))):
            # weighted fair admission: the tenant flooded past its share
            # of the bounded queue; everyone else's share stays intact
            self._shed_request(request, now, "tenant_quota")
            return False
        if cfg.shed_policy == "none":
            return True
        level = self._level(request.level_name)
        budget = request.arrival_s + request.slo
        resolved = self.adapter.feasible_sparsity(level, request.deadline_s)
        est = self._admission_estimate_s(
            now, self._single_est_s(level, resolved),
            key=(request.level_name, resolved))
        if resolved is not None and est <= budget:
            return True
        if cfg.shed_policy == "degrade":
            # the paper's accuracy-for-deadline trade as an overload
            # response: walk the sparser (faster) rungs, least degraded
            # first, and serve at the first one whose estimate fits the
            # SLO instead of shedding.  The deadline is re-stamped to the
            # rung's predicted latency so the adapter resolves exactly
            # that rung; the original deadline is kept on the request.
            slo = request.slo
            for sparsity, _ in self.adapter.candidates:
                if resolved is not None and sparsity <= resolved:
                    continue
                lat = self.adapter.latency.latency_s(
                    self.adapter.workload, level, sparsity,
                    SparsityKind.PATTERN, self.adapter.hardware_pattern_size)
                if lat > slo:
                    continue  # keep the slo >= deadline invariant
                rung_est = self._admission_estimate_s(
                    now, self._single_est_s(level, sparsity),
                    key=(request.level_name, sparsity))
                if rung_est <= budget:
                    request.degraded_from_s = request.deadline_s
                    request.slo_s = slo
                    request.deadline_s = lat
                    return True
        self._shed_request(request, now, "deadline", est)
        return False

    def _on_arrival(self, request: InferenceRequest, now: float) -> None:
        req = request.request if isinstance(request, DecodeJob) else request
        self._arrived.add(req.req_id)
        if req.req_id in self._cancel_pending:
            # cancelled before the arrival was processed: the request
            # never touches admission, exactly like a fault-free serve
            # of the survivors
            self._cancel_pending.discard(req.req_id)
            self._record_cancel(req, now, "pre_admission")
            return
        cfg = self.config
        if cfg.cancel_after_s is not None:
            # engine-wide client timeout: every arrival arms a cancel at
            # arrival + cancel_after_s (a no-op if it completes first)
            heapq.heappush(self._heap,
                           (now + cfg.cancel_after_s, _CANCEL,
                            next(self._tiebreak), req.req_id))
        if isinstance(request, DecodeJob):
            self._place_decode(request, now)
            return
        if ((cfg.shed_policy != "none" or cfg.max_queue is not None
                or cfg.tenant_weights is not None)
                and not self._admission_control(request, now)):
            return
        full, window = self.admission.add(request, now)
        if window is not None:
            deadline, key, generation = window
            heapq.heappush(self._heap, (deadline, _WINDOW_CLOSE,
                                        next(self._tiebreak),
                                        (key, generation)))
        if full is not None:
            self._admit(full)

    def _place_decode(self, job: DecodeJob, now: float) -> None:
        """Route an arrived decode stream to a device's lane."""
        req = job.request
        level = self._level(req.level_name)
        job.compat_key = self._compat_key(req)
        sparsity = job.compat_key[1]
        per_token = self.adapter.latency.batch_latency_s(
            self.adapter.workload, level, 1,
            sparsity if sparsity is not None else self.fallback_sparsity,
            SparsityKind.PATTERN, self.adapter.hardware_pattern_size)
        job.est_service_s = per_token * job.config.max_new_tokens
        self._dispatch_decode(job)

    def _admit(self, group: FlushedGroup) -> None:
        """A closed micro-batch enters the system: resolve, route, queue."""
        seq = self._seq
        self._seq += 1
        requests = group.requests
        level = self._level(requests[0].level_name)
        sparsity = self.adapter.feasible_sparsity(
            level, min(r.deadline_s for r in requests))
        est = self.adapter.latency.batch_latency_s(
            self.adapter.workload, level, len(requests),
            sparsity if sparsity is not None else self.fallback_sparsity,
            SparsityKind.PATTERN, self.adapter.hardware_pattern_size)
        qb = QueuedBatch(seq, list(requests), level.name, group.ready_s, est,
                         sparsity=sparsity)
        shard = self._dispatch_batch(qb)
        if shard is None:
            return  # total outage: parked for recovery or shed, not lost
        if (self.config.prewarm and shard.shard_id not in self._prewarmed
                and shard.active_sparsity is None and sparsity is not None):
            # deploy-time provisioning: the device's first pattern set is
            # installed before traffic, so it is not charged to the timeline
            shard.active_sparsity = sparsity
        self._prewarmed.add(shard.shard_id)
        if self.config.preempt_policy != "off":
            self._maybe_preempt(shard, qb, self.now_s)

    # ------------------------------------------------------------------
    # preemption (deadline-driven retraction of placed work)
    # ------------------------------------------------------------------
    @staticmethod
    def _batch_budget(qb: QueuedBatch) -> float:
        """The batch's SLO budget: its tightest live member's deadline."""
        done = set(qb.done_ids)
        return min((r.arrival_s + r.slo for r in qb.requests
                    if r.req_id not in done), default=float("inf"))

    def _maybe_preempt(self, shard: DeviceShard, qb: QueuedBatch,
                       now: float) -> None:
        """Pull looser-budget work off ``qb``'s shard if ``qb`` needs it.

        Runs right after admission routing.  While the freshly placed
        batch's completion estimate overshoots its SLO budget, the
        scheduler retracts the shard's largest *strictly looser-budget*
        queued batch and sends it back through the dispatcher (with a
        fresh sequence number, so it drains behind the preemptor even if
        it lands back here, and one requeue charged — the same
        pattern-switch-equivalent a crash failover pays).  Under
        ``"running"`` the shard's in-flight batch is fair game too,
        retracted through the crash machinery so completed members keep
        their (bit-identical) results and the full original membership
        re-executes.  Every decision is a pure function of the event
        history — preemption is exactly as deterministic and
        tick-granularity independent as the rest of the loop.
        """
        budget = self._batch_budget(qb)
        if not np.isfinite(budget):
            return
        if max(now, qb.ready_s) + qb.est_service_s > budget:
            return  # infeasible even alone: preempting others buys nothing

        def eta() -> float:
            # when qb plausibly completes: the device drains everything
            # ahead of it (clock + pending backlog minus qb itself), then
            # runs qb
            ahead = max(0.0, shard.pending_s - qb.est_service_s)
            return (max(max(shard.clock_s, now) + ahead, qb.ready_s)
                    + qb.est_service_s)

        moved: set = set()
        guard = len(qb.requests) + sum(len(b)
                                       for q in shard.queues.values()
                                       for b in q) + 2
        while eta() > budget and guard > 0:
            guard -= 1
            victims = [v for v in shard.queued_batches()
                       if v.seq != qb.seq and v.seq not in moved
                       and self._batch_budget(v) > budget]
            if victims:
                victim = max(victims,
                             key=lambda v: (v.est_service_s, -v.seq))
                shard.retract(victim.seq)
                # a fresh seq orders the victim behind the preemptor under
                # fifo drain wherever it re-lands
                victim.seq = self._seq
                self._seq += 1
                victim.requeues += 1
                victim.ready_s = max(victim.ready_s, now)
                shard.stats.preempted_batches += 1
                moved.add(victim.seq)
                self._dispatch_batch(victim)
                continue
            if self.config.preempt_policy == "running":
                entry = self._inflight.get(shard.shard_id)
                if (entry is not None and entry[0] == "batch"
                        and entry[-1] > now
                        and self._batch_budget(entry[1]) > budget):
                    _, vqb, emitted, end = entry
                    retry = self._retract_inflight_batch(
                        shard, vqb, emitted, end, now, new_seq=self._seq)
                    if retry is not None:
                        self._seq += 1
                        del self._inflight[shard.shard_id]
                        shard.stats.preempted_batches += 1
                        moved.add(retry.seq)
                        self._dispatch_batch(retry)
                        # the rollback freed the device at now; re-arm it
                        self._schedule_shard(shard)
                        continue
            return  # nothing (left) worth preempting

    def _schedule_shard(self, shard: DeviceShard) -> None:
        when = shard.next_event_s()
        if when is None or self._scheduled_ready.get(shard.shard_id) == when:
            return
        self._scheduled_ready[shard.shard_id] = when
        heapq.heappush(self._heap, (when, _SHARD_READY,
                                    next(self._tiebreak), shard.shard_id))

    def _on_shard_ready(self, shard_id: int, now: float) -> None:
        shard = self.shards[shard_id]
        if self._scheduled_ready.get(shard_id) == now:
            del self._scheduled_ready[shard_id]
        if not shard.available:
            return  # stale event for a downed shard; its work failed over
        while True:
            when = shard.next_event_s()
            if when is None:
                return
            if when > now:
                # the device's next chance moved (it just ran a batch, or
                # this event was stale); re-arm and yield the loop
                self._schedule_shard(shard)
                return
            decode_due = shard.decode.due_s(shard.clock_s)
            queue_due = shard.queue_event_s()
            if decode_due is not None and (queue_due is None
                                           or decode_due <= queue_due):
                # token boundaries win ties: the decode lane is the
                # latency-critical traffic and each boundary is short
                self._decode_tick(shard, when)
            else:
                batch = shard.pop_next()
                self._execute(shard, batch)

    # ------------------------------------------------------------------
    # execution (one batch on one device)
    # ------------------------------------------------------------------
    def _resolve_operating_point(self, shard: DeviceShard, level: VFLevel,
                                 qb: QueuedBatch
                                 ) -> Tuple[AdaptationEvent, float, float, bool]:
        """Adaptation decision against the shard's own installed state.

        Returns ``(event, effective_sparsity, switch_seconds, installed)``
        where ``switch_seconds`` is the total reconfiguration cost this
        batch pays on its device (planned switch and/or cold-start
        fallback) and ``installed`` says whether the device physically
        installed a pattern set for this batch (for per-shard switch
        accounting — the fallback install is not an adapter switch, but
        it is a device one).
        """
        event = self.adapter.plan(level,
                                  min(r.deadline_s for r in qb.requests),
                                  shard.active_sparsity, chosen=qb.sparsity)
        effective = event.chosen_sparsity
        switch_s = event.switch.seconds if event.switch is not None else 0.0
        installed = event.switched
        if effective is None:
            # Infeasible deadline: keep whatever this device has installed
            # (no phantom swap).  Only when nothing is installed yet fall
            # back to the sparsest set — a real switch, charged as one.
            if shard.active_sparsity is not None:
                effective = shard.active_sparsity
            else:
                effective = self.fallback_sparsity
                pset = self.ladder[effective]
                stats = self.adapter.reconfigurator.pattern_switch(
                    self.adapter.workload, len(pset),
                    self.adapter.hardware_pattern_size)
                switch_s += stats.seconds
                installed = True
        shard.active_sparsity = effective
        return event, effective, switch_s, installed

    def _execute(self, shard: DeviceShard, qb: QueuedBatch) -> None:
        group = qb.requests
        level = self._level(qb.level_name)
        event, effective, switch_s, installed = \
            self._resolve_operating_point(shard, level, qb)
        # the device re-installs its masks before every batch (a stateless
        # execution context; the artifact cache turns repeats into lookups)
        if self.adapter.manager is not None:
            self.adapter.manager.apply(self.ladder[effective])
        # keep the shared adapter's view in sync with the masks resident on
        # the model, so code mixing the loop with direct adapter.adapt
        # calls never re-charges a switch for an already-installed set
        self.adapter.active_sparsity = effective
        fwd = self._forward()
        outputs = run_padded(self.model, group, forward=fwd)
        done = set(qb.done_ids)
        if self.config.verify:
            # excluded from the timed hot path: doubles the compute
            verify_start = time.perf_counter()
            for req, out in zip(group, outputs):
                if req.req_id in done:
                    continue
                solo = run_padded(self.model, [req], forward=fwd)[0]
                self._worst_err = max(self._worst_err,
                                      float(np.abs(out - solo).max()))
            self._verify_wall += time.perf_counter() - verify_start

        if qb.requeues:
            # retry accounting: failing a batch over costs the system one
            # reconfiguration's worth of time per requeue — the new
            # device re-stages the batch like a pattern switch
            penalty = qb.requeues * self._switch_cost_s[effective]
            switch_s += penalty
            shard.stats.retried_batches += 1
            shard.stats.retry_penalty_s += penalty
        offsets = self.adapter.latency.batch_completion_offsets_s(
            self.adapter.workload, level, len(group), effective,
            SparsityKind.PATTERN, self.adapter.hardware_pattern_size)
        if shard.slowdown != 1.0:
            # a slow window stretches compute, not the switch cost
            offsets = [o * shard.slowdown for o in offsets]
        service = switch_s + offsets[-1]
        begin = max(shard.clock_s, qb.ready_s)
        completion = begin + service
        shard.record(qb, service, completion, installed,
                     members=(len(group) - len(done)) if done else None)
        sliced = self.config.time_sliced
        emitted: List[RequestResult] = []
        for i, (req, out) in enumerate(zip(group, outputs)):
            if req.req_id in done:
                # completed before the crash that requeued this batch;
                # the original (bit-identical) result already stands
                continue
            member_service = switch_s + offsets[i] if sliced else service
            result = RequestResult(
                request=req, output=out, batch_id=qb.seq,
                batch_size=len(group),
                queue_wait_s=begin - req.arrival_s,
                service_s=member_service,
                completion_s=begin + member_service,
                sparsity=effective, shard_id=shard.shard_id)
            if self.retain_results:
                # kept for report(); long-lived sessions opt out and
                # consume completions from tick()/drain() instead
                self._results.append(result)
            heapq.heappush(self._pending_done,
                           (result.completion_s, next(self._tiebreak), result))
            emitted.append(result)
            self._completed += 1
        self._inflight[shard.shard_id] = ("batch", qb, emitted, completion)
        self._events.append((qb.seq, event))

    # ------------------------------------------------------------------
    # decode lane (one token boundary on one device)
    # ------------------------------------------------------------------
    def _decode_tick(self, shard: DeviceShard, now: float) -> None:
        """Advance every decode stream on ``shard`` by one token.

        Pending streams whose arrival has passed join first (continuous
        batching: membership changes only at boundaries), then each
        operating-point group runs one stacked decode step — grouped by
        context length inside the session, so nothing is padded and
        every stream's bits match a solo run.  Switch costs are resolved
        per group against this device's installed state, exactly like a
        batch execution, and each group's step is an
        :class:`AdaptationEvent` in the report.
        """
        lane = shard.decode
        begin = max(shard.clock_s, now)
        lane.admit(begin, self._decode_session)
        clock = begin
        tokens = 0
        finished = 0
        switches = 0
        pairs: List[tuple] = []
        for key in lane.group_keys():
            group = lane.groups[key]
            session = group.session
            active = [group.streams[sid] for sid in sorted(group.streams)
                      if not session.finished(sid)]
            if not active:
                continue
            seq = self._seq
            self._seq += 1
            level = self._level(key[0])
            reqs = [s.job.request for s in active]
            qb = QueuedBatch(seq, reqs, key[0], begin, 0.0, sparsity=key[1])
            event, effective, switch_s, installed = \
                self._resolve_operating_point(shard, level, qb)
            if self.adapter.manager is not None:
                # an identical re-install keeps every cache_token stable,
                # so the decode plane's KV state survives; a real switch
                # bumps the tokens and invalidates it — the correctness
                # the recompile-on-mask-install tests pin
                self.adapter.manager.apply(self.ladder[effective])
            self.adapter.active_sparsity = effective
            emitted = session.step()
            per_token = self.adapter.latency.batch_latency_s(
                self.adapter.workload, level, len(active), effective,
                SparsityKind.PATTERN, self.adapter.hardware_pattern_size)
            if shard.slowdown != 1.0:
                per_token *= shard.slowdown
            service = switch_s + per_token
            clock += service
            tokens += len(emitted)
            if installed:
                switches += 1
            self._events.append((seq, event))
            for stream in active:
                if not session.finished(stream.sid):
                    continue
                finished += 1
                del group.streams[stream.sid]
                result = RequestResult(
                    request=stream.job.request,
                    output=session.result(stream.sid), batch_id=seq,
                    batch_size=len(active),
                    queue_wait_s=stream.join_s - stream.job.request.arrival_s,
                    service_s=clock - stream.join_s,
                    completion_s=clock,
                    sparsity=effective, shard_id=shard.shard_id)
                if self.retain_results:
                    self._results.append(result)
                heapq.heappush(
                    self._pending_done,
                    (result.completion_s, next(self._tiebreak), result))
                pairs.append((result, stream.job))
                self._completed += 1
        lane.prune()
        if clock > begin or tokens:
            self._inflight[shard.shard_id] = ("decode", pairs, clock)
            shard.record_decode(clock - begin, clock, tokens, finished,
                                switches)

    def _release(self, until_s: float) -> List[RequestResult]:
        out = []
        while self._pending_done and self._pending_done[0][0] <= until_s:
            result = heapq.heappop(self._pending_done)[2]
            if result.canceled:
                # retracted before its completion instant (crash,
                # preemption or cancel); never handed out
                continue
            out.append(result)
            counts = self._tenant_done.get(result.request.tenant)
            if counts is None:
                counts = self._tenant_done[result.request.tenant] = {
                    "completed": 0, "degraded": 0, "slo_misses": 0}
            counts["completed"] += 1
            counts["degraded"] += result.degraded
            counts["slo_misses"] += not result.met_slo
        return out
