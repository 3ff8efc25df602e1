"""One validated bundle of serving settings.

:class:`ServeConfig` holds every setting of the serving stack and checks
each rule once, at construction.  The same frozen object is then passed
by reference down the stack — :class:`~repro.serve.engine.ServeEngine`
hands it to every :class:`~repro.serve.streaming.StreamingEngine`
session, and a session hands it to its
:class:`~repro.serve.sharding.DeviceShard` s and
:class:`~repro.serve.sharding.Dispatcher` — so no layer re-checks or
re-spells a setting, and a bad value fails where it is written, not at
the first batch.  ``dataclasses.replace`` derives a changed copy (and
re-runs the checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Optional

from repro.serve.batcher import check_batching
from repro.serve.decode import DecodeOptions
from repro.serve.faults import PREEMPT_POLICIES, SHED_POLICIES, FaultPlan

__all__ = [
    "ADAPTIVE_THRESHOLD",
    "ADAPTIVE_WINDOW",
    "DRAIN_POLICIES",
    "POLICIES",
    "ServeConfig",
    "resolve_config",
]

# batch routing across shards and per-shard queue drain order (see
# repro.serve.sharding for what each one does)
POLICIES = ("round-robin", "least-loaded", "switch-aware")
DRAIN_POLICIES = ("fifo", "level-affinity", "adaptive")

# adaptive drain: a shard flips fifo -> level-affinity once at least this
# fraction of its last ADAPTIVE_WINDOW executed batches swapped patterns
ADAPTIVE_WINDOW = 8
ADAPTIVE_THRESHOLD = 0.5


def _one_of(name: str, value: Any, options, label: str) -> None:
    if value not in options:
        raise ValueError(f"unknown {label} {value!r} "
                         f"({name} must be one of {list(options)})")


@dataclass(frozen=True)
class ServeConfig:
    """Every serving setting, validated once.

    - ``max_batch`` / ``window_s`` — micro-batch size cap and batching
      window: a partial batch waits at most ``window_s`` past its first
      member for compatible arrivals;
    - ``verify`` — re-run every batch member alone and record the worst
      absolute deviation (padding exactness, about double the compute,
      excluded from the measured wall time);
    - ``devices`` / ``policy`` — simulated device count and batch routing
      (:data:`POLICIES`);
    - ``time_sliced`` — each member completes at its own offset inside
      its batch (``False``: every member waits for the whole batch);
    - ``prewarm`` — each device starts with the pattern set of its first
      routed batch installed before traffic (not charged);
    - ``drain_policy`` / ``fairness_window`` / ``adaptive_low_threshold``
      — per-shard queue drain order (:data:`DRAIN_POLICIES`), the
      level-affinity run cap while another level waits, and the optional
      hysteresis band that lets an ``adaptive`` shard flip back to fifo;
    - ``decode`` — the decode-lane sampling defaults and the compiled
      forward switch (``decode.fast_forward``);
    - ``faults`` / ``probe_backoff_s`` — a crash/stall/slow schedule in
      simulated seconds from session start, and the first re-probe
      interval of a downed shard (doubling per miss);
    - ``shed_policy`` / ``max_queue`` — admission overload defenses
      (:data:`~repro.serve.faults.SHED_POLICIES`, bounded backlog);
    - ``preempt_policy`` / ``cancel_after_s`` / ``tenant_weights`` —
      deadline-driven preemption
      (:data:`~repro.serve.faults.PREEMPT_POLICIES`), an engine-wide
      client timeout, and weighted fair shares of ``max_queue``.
    """

    max_batch: int = 8
    window_s: float = 0.05
    verify: bool = False
    devices: int = 1
    policy: str = "round-robin"
    time_sliced: bool = True
    prewarm: bool = False
    drain_policy: str = "fifo"
    fairness_window: int = 4
    adaptive_low_threshold: Optional[float] = None
    decode: DecodeOptions = field(default_factory=DecodeOptions)
    faults: Optional[FaultPlan] = None
    shed_policy: str = "none"
    max_queue: Optional[int] = None
    probe_backoff_s: float = 0.005
    preempt_policy: str = "off"
    cancel_after_s: Optional[float] = None
    tenant_weights: Optional[Mapping[str, float]] = None

    def __post_init__(self) -> None:
        check_batching(self.max_batch, self.window_s)
        if self.devices < 1:
            raise ValueError(f"devices must be at least 1, got {self.devices}")
        _one_of("policy", self.policy, POLICIES, "dispatch policy")
        _one_of("drain_policy", self.drain_policy, DRAIN_POLICIES,
                "drain policy")
        if self.fairness_window < 1:
            raise ValueError("fairness_window must be at least 1, "
                             f"got {self.fairness_window}")
        low = self.adaptive_low_threshold
        if low is not None and not 0.0 <= low < ADAPTIVE_THRESHOLD:
            raise ValueError("adaptive_low_threshold must be in "
                             f"[0, {ADAPTIVE_THRESHOLD}), got {low}")
        self.decode.generation_config()
        if self.faults is not None:
            self.faults.validate(self.devices)
        if not math.isfinite(self.probe_backoff_s) or self.probe_backoff_s <= 0:
            raise ValueError("probe_backoff_s must be finite and positive, "
                             f"got {self.probe_backoff_s}")
        _one_of("shed_policy", self.shed_policy, SHED_POLICIES, "shed policy")
        if self.max_queue is not None and self.max_queue < 1:
            raise ValueError("max_queue must be at least 1 (or None), "
                             f"got {self.max_queue}")
        _one_of("preempt_policy", self.preempt_policy, PREEMPT_POLICIES,
                "preempt policy")
        cancel = self.cancel_after_s
        if cancel is not None and (not math.isfinite(cancel) or cancel <= 0):
            raise ValueError("cancel_after_s must be finite and positive "
                             f"(or None), got {cancel}")
        if self.tenant_weights is not None:
            for tenant, weight in self.tenant_weights.items():
                if not tenant:
                    raise ValueError("tenant_weights keys must be non-empty "
                                     "tenant names")
                if not math.isfinite(weight) or weight <= 0:
                    raise ValueError(f"tenant_weights[{tenant!r}] must be "
                                     f"finite and positive, got {weight}")
            # a private copy: the caller's dict can change after validation
            object.__setattr__(self, "tenant_weights",
                               dict(self.tenant_weights))


def resolve_config(config: Optional[ServeConfig],
                   settings: Mapping[str, Any]) -> ServeConfig:
    """``config`` (default :class:`ServeConfig`) with keyword ``settings``
    applied; with no keywords the given object itself is returned."""
    config = config if config is not None else ServeConfig()
    return replace(config, **settings) if settings else config
