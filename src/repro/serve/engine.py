"""Offline serving wrapper over the event-driven streaming core.

:class:`ServeEngine` is the trace-at-once API: it holds one
:class:`~repro.serve.config.ServeConfig` and offers
``serve(requests) -> ServeReport``, but the
serving semantics live in :class:`~repro.serve.streaming.StreamingEngine`
— ``serve`` simply spins up a streaming session seeded with this
engine's per-device installed-pattern state, submits the whole trace,
drains the event loop, and syncs the device state back.  Because the
streaming loop is tick-granularity independent, the wrapper's batching,
routing and simulated timeline are identical to feeding the same
arrivals through ``submit``/``tick`` online (asserted across scenarios,
device counts and dispatch policies in the streaming test suite).

With the default ``fifo`` drain this also reproduces the pre-streaming
offline engine exactly (the serve-bench digest stayed bit-identical
through the refactor).  ``level-affinity`` and post-flip ``adaptive``
schedules are *online* decisions — a shard picks among the batches
admitted by its decision instant, where the old route-everything-first
engine saw the full final queue — so their drain order can differ from
the historical one (the switch-reduction and fairness properties are
what the tests pin, not the exact schedule).

Per batch the loop

1. resolves the batch's operating point — every member shares a V/F
   level and a feasible pattern sparsity (that is the admission queue's
   compatibility key) — via the side-effect-free
   :meth:`~repro.core.runtime_policy.RuntimeAdapter.plan`, charged
   against the *target shard's* installed-pattern state, so each
   simulated device pays for its own reconfiguration switches;
2. installs the batch's pattern masks through the
   :class:`~repro.core.patterns.MaskManager`, where the
   :class:`~repro.serve.cache.ArtifactCache` turns repeat installs into
   lookups;
3. executes one vectorized, padding-exact forward pass
   (:func:`~repro.serve.batcher.run_padded`);
4. advances the shard's simulated clock using the analytic batch latency
   (MAC work × batch, per-invocation overhead paid once) plus any
   reconfiguration switch cost.  With ``time_sliced=True`` (the default)
   each request *completes* at its own offset inside the batch — the
   device streams members out as their MAC work finishes — so light-load
   p50 is no longer distorted by whole-batch service times.  The batch's
   last member always completes exactly when the non-sliced batch would,
   so time slicing changes per-request latency, never throughput.

Setting ``devices=1, time_sliced=False, max_batch=1`` with no cache
reproduces the repo's original single-request path — mask re-derivation
and one forward per request — which is exactly the baseline the serving
bench compares against.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, Optional, Sequence

from repro.core.runtime_policy import RuntimeAdapter
from repro.nn.generation import GenerationConfig
from repro.serve.batcher import InferenceRequest
from repro.serve.cache import ArtifactCache
from repro.serve.config import ServeConfig, resolve_config
from repro.serve.faults import FaultPlan
from repro.serve.streaming import ServeReport, StreamingEngine

__all__ = ["ServeEngine", "ServeReport"]


class ServeEngine:
    """Serve a request trace through a masked model on N simulated devices.

    ``adapter`` supplies the sparsity ladder, latency model and (via its
    ``manager``) the mask installation path; ``cache`` (optional) is
    attached to the manager by every session, so repeated installs of a
    known pattern set hit instead of re-deriving masks.  ``config``
    holds every serving setting
    (:class:`~repro.serve.config.ServeConfig`); keyword ``settings``
    build or override one, e.g.
    ``ServeEngine(model, adapter, devices=4, policy="switch-aware")``.

    Devices persist across ``serve`` calls: a shard keeps its installed
    pattern set between traces, so a follow-up run is never re-charged
    the cold-start install.  :meth:`streaming` hands out the underlying
    online engine for callers that want to feed arrivals incrementally.
    """

    def __init__(self, model, adapter: RuntimeAdapter,
                 config: Optional[ServeConfig] = None, *,
                 cache: Optional[ArtifactCache] = None, **settings) -> None:
        self.config = resolve_config(config, settings)
        self.model = model
        self.adapter = adapter
        self.cache = cache
        # installed pattern set per device, surviving across serve() calls
        self._device_state: Dict[int, Optional[float]] = {}

    @property
    def faults(self) -> Optional[FaultPlan]:
        return self.config.faults

    @faults.setter
    def faults(self, plan: Optional[FaultPlan]) -> None:
        # a plan sized to the trace is often known only after the engine
        # exists; replace() re-checks it against the device count
        self.config = replace(self.config, faults=plan)

    def streaming(self) -> StreamingEngine:
        """A live online session sharing this engine's model and devices.

        The session starts from the engine's current per-device installed
        state; it does *not* sync back (the offline wrapper owns that
        lifecycle — an online caller keeps its session for the duration).
        """
        return StreamingEngine(self.model, self.adapter, self.config,
                               cache=self.cache,
                               initial_device_state=dict(self._device_state))

    def serve(self, requests: Sequence[InferenceRequest]) -> ServeReport:
        """Serve a whole trace: submit everything, drain the event loop."""
        # session construction (switch-cost table, shard setup) happens
        # outside the measured window, like the old engine's __init__ did
        core = self.streaming()
        start_wall = time.perf_counter()
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
            core.submit(req)
        core.drain()
        report = core.report()
        # the measured hot path covers admission + routing + per-batch
        # work; verification is excluded (it doubles the compute)
        report.wall_seconds = (time.perf_counter() - start_wall
                               - core.verify_wall_s)
        self._device_state = core.device_state()
        return report

    def serve_decode(self, requests: Sequence[InferenceRequest],
                     config: Optional[GenerationConfig] = None) -> ServeReport:
        """Serve a trace of *decode streams* offline: each request's
        ``tokens`` is a prompt, continued for ``config`` (or the
        ``self.config.decode`` defaults) on the continuously-batched
        decode lanes.  Results carry a
        :class:`~repro.nn.generation.GenerationResult` as ``output``.
        """
        core = self.streaming()
        start_wall = time.perf_counter()
        for req in sorted(requests, key=lambda r: (r.arrival_s, r.req_id)):
            core.submit_decode(req, config=config)
        core.drain()
        report = core.report()
        report.wall_seconds = (time.perf_counter() - start_wall
                               - core.verify_wall_s)
        self._device_state = core.device_state()
        return report
