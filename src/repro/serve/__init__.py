"""Event-driven streaming inference serving: admit, batch, route, tick.

The production half of run-time reconfiguration: requests enter an
*online admission loop* (:class:`StreamingEngine`) one arrival at a
time, compatible requests (same V/F level + feasible pattern sparsity)
form padded micro-batches under a configurable batching window, and
batches are routed at admission time across ``N`` simulated devices
whose clocks are advanced by a global event heap (arrivals, batch-window
closes, device executions).  Masks and sparse-format conversions are
memoized in an LRU artifact cache, and scenario generators stream the
paper's deployment stories as lazy arrival iterators.

Layout
------
- :mod:`~repro.serve.config`    — :class:`ServeConfig`, every serving
  setting in one frozen object whose constructor checks each rule once.
  ``ServeEngine`` holds one, hands it to each ``StreamingEngine``
  session, and the session hands it to its shards and dispatcher, so
  no layer re-spells or re-checks a setting;
- :mod:`~repro.serve.batcher`   — requests, padding-exact vectorized
  forwards, and the two halves of micro-batching: the incremental
  :class:`AdmissionQueue` (admit one request at a time; flush on
  ``max_batch`` or at the group's window deadline) and the offline
  :class:`MicroBatcher` wrapper that replays a known trace through it.
  ``run_padded`` executes each batch through the **zero-autograd
  forward plane** by default: the engines hand it a
  :class:`~repro.nn.inference.CompiledForward` plan (pure ndarray ops,
  bit-identical float64 outputs, no graph construction — asserted by a
  regression test that a fast-path serve allocates zero Tensors), with
  the eager ``no_grad`` Tensor path kept as the fallback for unknown
  architectures and behind ``--no-fast-forward``;
- :mod:`~repro.serve.streaming` — the :class:`StreamingEngine` event
  loop (``submit`` / ``tick`` / ``drain``): one simulated-time heap
  over arrivals, window closes and shard executions.  Semantics are
  tick-granularity independent — any feeding schedule of the same
  arrival stream produces the same admissions, placements and
  simulated timeline;
- :mod:`~repro.serve.engine`    — the offline :class:`ServeEngine`
  wrapper: ``serve(trace)`` submits the whole trace into a streaming
  session and drains it, preserving the historical trace-at-once API on
  top of the online core (with the default ``fifo`` drain the simulated
  metrics are exactly the pre-streaming engine's; affinity-style drains
  decide online, from the batches admitted by each decision instant);
- :mod:`~repro.serve.decode`    — the continuous-batching decode plane:
  :class:`DecodeOptions` (the decode/fast-forward sub-config
  ``ServeConfig.decode``) and the per-device :class:`DecodeLane` — a
  rolling batch that streams join (arrival) and leave (eos / token
  budget) at *token boundaries*, grouped by operating-point
  compatibility key and advanced through a shared KV-cached
  :class:`~repro.nn.generation.DecodeSession` (bit-identical to solo
  eager generation; ``submit_decode`` / ``serve_decode`` feed it);
- :mod:`~repro.serve.sharding`  — :class:`DeviceShard` (per-V/F-level
  FIFO queues, per-device clock and installed-pattern state, and the
  event-driven ``next_event_s``/``pop_next`` interface the loop drives;
  drain policies ``fifo`` — global flush order — ``level-affinity`` —
  serve one V/F level run-to-run under a fairness window — and
  ``adaptive`` — flip to level-affinity when the shard's observed
  switch rate crosses ``ADAPTIVE_THRESHOLD``, and back to fifo when it
  falls to the optional ``adaptive_low_threshold`` hysteresis band) and
  the :class:`Dispatcher` routing policies ``round-robin`` /
  ``least-loaded`` / ``switch-aware`` (least-loaded plus the simulated
  cost of the pattern swap a placement would trigger);
- :mod:`~repro.serve.scenarios` — ``steady`` / ``bursty`` / ``battery``
  / ``bandwidth`` lazy traffic streams (``stream_scenario``) with the
  offline ``build_scenario`` materializer; ``bandwidth`` is the paper's
  translation example, a fluctuating network-bandwidth trace driving
  per-request deadline jitter; ``flaky_fault_overlay`` layers a seeded
  schedule of shard failures onto any of them;
- :mod:`~repro.serve.faults`    — deterministic fault injection and the
  failure-handling vocabulary: :class:`FaultPlan` schedules of
  :class:`ShardFault` crash/stall/slow events (``FaultPlan.parse`` reads
  the CLI's ``kind:shard@at[+duration][xfactor]`` spec), the
  shard health states (``HEALTHY``/``DEGRADED``/``DOWN``) and the
  admission shed policies (``none``/``reject``/``degrade``) with their
  per-request :class:`ShedRecord` accounting.  A crashed shard's queued
  and in-flight work fails over to healthy shards (charged like a
  pattern switch), downed shards re-probe with exponential backoff, and
  every completed output stays bit-identical to a fault-free serve of
  the surviving requests.  The same vocabulary covers the scheduler
  defenses: ``PREEMPT_POLICIES`` (``off``/``queued``/``running``
  deadline-driven preemption of placed work) and :class:`CancelRecord`
  (explicit request withdrawal as a terminal state, extending
  conservation to ``completed + shed + cancelled == submitted``);
- :mod:`~repro.serve.cache`     — the byte-budgeted LRU
  :class:`ArtifactCache`: artifacts are charged their honest device
  footprint (masks bit-packed, one bit per position) and evicted
  size-aware LRU past the budget, modelling the slice of device memory
  reserved for resident reconfiguration state.

CLI and benchmarking
--------------------
``rt3 serve --scenario bursty --streaming --max-wait-ms 10 --verify``
feeds a scenario arrival-by-arrival through the online loop;
``rt3 serve --scenario bursty --devices 4 --policy switch-aware
--drain-policy level-affinity`` serves the same trace offline
(``--drain-policy adaptive`` lets each device pick for itself;
``--no-time-slice`` restores whole-batch completions;
``--cache-budget-kb`` sizes the artifact cache).
``rt3 serve --scenario bursty --devices 4 --window-ms 2 --faults flaky
--shed-policy degrade`` injects a seeded shard-failure overlay and
degrades infeasible requests to sparser patterns before shedding
(``--faults 'crash:1@0.2+0.3'`` scripts an exact schedule;
``--shed-policy reject`` sheds on predicted SLO misses; ``--max-queue``
bounds the admission backlog; ``--probe-backoff-ms`` tunes downed-shard
re-probing).
``rt3 serve --scenario bursty --preempt-policy running --tenants 2
--tenant-weight t0=3 --max-queue 32 --cancel-after 50`` adds the
scheduler defenses: deadline-driven preemption of queued (or in-flight)
batches, a client cancellation timeout, and weighted fair per-tenant
admission shares.
``benchmarks/bench_serve.py`` measures the batched-vs-single speedup
and the multi-device scaling (``BENCH_serve.json``);
``benchmarks/bench_stream.py`` sweeps the admission window on bursty
traffic — throughput/efficiency vs p50/p95, exactness against the
per-request oracle (``BENCH_stream.json``);
``benchmarks/bench_kernels.py`` measures the sparse kernels
(``BENCH_kernels.json``); ``benchmarks/bench_forward.py`` measures the
compiled forward plane against the eager Tensor path — wall clock,
autograd node counts, scratch allocations, bit-exactness
(``BENCH_forward.json``).  CI regresses every PR against the committed
digests via ``scripts/check_bench_regression.py`` (serve: simulated
throughput/p95 drift + exactness; stream: exactness, batching
monotonicity, endpoint drift; kernels: op counts, exactness, speedup
floor; table/table2: deterministic row/run-total equality; forward:
bit-exactness, node/alloc counts, speedup floor).
``benchmarks/bench_faults.py`` injects a deterministic shard outage on
bursty traffic and asserts the fault-tolerance invariants —
conservation (completed + shed == submitted), bit-exact completed
outputs vs a fault-free serve of the surviving set, and a strictly
lower shed rate for ``degrade`` than ``reject`` (``BENCH_faults.json``).
"""

from repro.serve.batcher import (
    AdmissionQueue,
    FlushedGroup,
    InferenceRequest,
    MicroBatcher,
    RequestResult,
    pad_batch,
    run_padded,
)
from repro.serve.cache import ArtifactCache, CacheStats, LRUCache, artifact_nbytes
from repro.serve.config import DRAIN_POLICIES, POLICIES, ServeConfig
from repro.serve.decode import DecodeJob, DecodeLane, DecodeOptions
from repro.serve.engine import ServeEngine
from repro.serve.faults import (
    DEGRADED,
    DOWN,
    FAULT_KINDS,
    HEALTHY,
    PREEMPT_POLICIES,
    SHED_POLICIES,
    CancelRecord,
    FaultPlan,
    ShardFault,
    ShedRecord,
)
from repro.serve.streaming import ServeReport, StreamingEngine
from repro.serve.sharding import DeviceShard, Dispatcher, QueuedBatch, ShardStats
from repro.serve.stack import StackConfig, build_serving_stack
from repro.serve.scenarios import (
    SCENARIOS,
    ScenarioConfig,
    assign_tenants,
    bandwidth_fluctuation,
    battery_drain_longtail,
    build_scenario,
    bursty_interactive,
    flaky_fault_overlay,
    steady_translation,
    stream_scenario,
)

__all__ = [
    "AdmissionQueue",
    "ArtifactCache",
    "CacheStats",
    "DEGRADED",
    "DOWN",
    "DRAIN_POLICIES",
    "CancelRecord",
    "DecodeJob",
    "DecodeLane",
    "DecodeOptions",
    "DeviceShard",
    "Dispatcher",
    "FAULT_KINDS",
    "FaultPlan",
    "FlushedGroup",
    "HEALTHY",
    "artifact_nbytes",
    "InferenceRequest",
    "LRUCache",
    "MicroBatcher",
    "POLICIES",
    "PREEMPT_POLICIES",
    "QueuedBatch",
    "RequestResult",
    "SCENARIOS",
    "SHED_POLICIES",
    "ScenarioConfig",
    "ServeConfig",
    "ServeEngine",
    "ServeReport",
    "ShardFault",
    "ShardStats",
    "ShedRecord",
    "StackConfig",
    "StreamingEngine",
    "assign_tenants",
    "bandwidth_fluctuation",
    "battery_drain_longtail",
    "build_scenario",
    "build_serving_stack",
    "bursty_interactive",
    "flaky_fault_overlay",
    "pad_batch",
    "run_padded",
    "steady_translation",
    "stream_scenario",
]
