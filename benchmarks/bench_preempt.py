"""Preemptive-scheduling bench: preemption, cancellation, tenant fairness.

The adversarial-traffic companion to ``bench_faults``: instead of a
hardware outage, one *hot tenant* floods a single device with bursts of
loose-SLO batches while a *victim tenant* trickles tight-SLO requests in
between — the head-of-line scenario ROADMAP open item 1 called out
(one long-running batch or one hot client blowing every other request's
deadline).  Two arms serve the identical trace, with the identical pair
of mid-flight cancellations:

- ``fifo``     — the historical scheduler: no preemption, no tenant
  weights, just the bounded admission queue;
- ``preempt``  — ``preempt_policy="running"`` plus equal-weight fair
  shares of the same queue bound, so tight-deadline victim admissions
  pull the hot tenant's queued (and in-flight) batches back out of the
  way and the hot flood is shed at its quota instead of squeezing the
  victim out.

Gated invariants:

- **separation** — the preemptive arm strictly cuts the victim tenant's
  SLO misses (late completions + shed requests) vs fifo;
- **conservation** — ``completed + shed + cancelled == submitted`` in
  both arms (the extended identity: cancellation is a terminal state);
- **exactness** — every completed output is bit-identical (``==``) to a
  clean serve (no preemption, no quotas, no cancels, no queue bound) of
  that arm's surviving request set: preemption re-executes full original
  memberships and quota shedding happens pre-admission, so neither may
  perturb served numerics;
- **engagement** — the preemptive arm really preempts (>= 1 retraction
  charged like a pattern switch), really sheds the hot tenant at its
  quota, both arms record exactly the two scripted cancellations, and
  no tenant starves under fairness.

The digest lands in ``benchmarks/results/BENCH_preempt.json``;
``scripts/check_bench_regression.py`` replays the committed
configuration and gates the counters exactly (the simulation is
deterministic) plus the invariants above.

Run directly: ``python benchmarks/bench_preempt.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.hardware.dvfs import DVFSTable
from repro.serve import InferenceRequest, StackConfig, build_serving_stack

from benchmarks.common import write_json_result, write_result

DEVICES = 1                  # one device: head-of-line pressure is the point
WINDOW_MS = 1.0
MAX_QUEUE = 32
LEVEL = "l4"
DEADLINE_FACTOR = 1.7        # feasible at a mid rung; uniform across tenants
HOT_BURST = 16               # two full batches per burst
BURST_PERIOD_MS = 1.0        # bursts outrun the drain rate: the queue grows
HOT_SLO_MS = 60.0            # the flood does not care about latency
VICTIM_SLO_MS = 2.2          # window + solo service fits; a queued burst won't
CANCELS = 2                  # hot requests withdrawn mid-flight, both arms
# acceptance budgets (the simulation is deterministic; these keep the
# configuration honest if someone retunes the trace)
FIFO_VICTIM_MISS_FLOOR = 1   # fifo must actually hurt the victim
PREEMPT_VICTIM_MISS_CEILING = 0
HOT_SHED_RATE_CEILING = 0.75


def _stack(seed: int, **kw):
    return build_serving_stack(StackConfig(
        devices=DEVICES, seed=seed, window_s=WINDOW_MS / 1e3, **kw))


def _trace(num_requests: int, seed: int) -> List[InferenceRequest]:
    """Hot-tenant burst flood with victim-tenant tight-SLO trickle.

    Every request shares one (level, deadline) class, so each batch —
    however preemption, cancellation or quota shedding regroups the
    survivors — resolves to the same sparsity rung and the bit-exactness
    reference is well-defined.  The tenants differ only in volume and
    SLO: ``hot`` submits ``HOT_BURST`` requests per period (two full
    batches, outrunning the device), ``victim`` one request per period,
    mid-burst, whose SLO only fits if it does not queue behind the
    flood.
    """
    _, _, probe = _stack(seed)
    level = DVFSTable()[LEVEL]
    adapter = probe.adapter
    from repro.hardware.latency import SparsityKind
    dense = adapter.latency.latency_s(adapter.workload, level, 0.0,
                                      SparsityKind.DENSE)
    deadline_s = DEADLINE_FACTOR * dense
    rng = np.random.default_rng(seed)
    bursts = max(2, num_requests // (HOT_BURST + 1))
    period_s = BURST_PERIOD_MS / 1e3
    trace: List[InferenceRequest] = []
    rid = 0
    for b in range(bursts):
        at = b * period_s
        for _ in range(HOT_BURST):
            trace.append(InferenceRequest(
                req_id=rid, tokens=rng.integers(1, 60, size=12),
                arrival_s=at, deadline_s=deadline_s, level_name=LEVEL,
                slo_s=HOT_SLO_MS / 1e3, tenant="hot"))
            rid += 1
        trace.append(InferenceRequest(
            req_id=rid, tokens=rng.integers(1, 60, size=12),
            arrival_s=at + period_s / 2, deadline_s=deadline_s,
            level_name=LEVEL, slo_s=VICTIM_SLO_MS / 1e3, tenant="victim"))
        rid += 1
    return trace


def _cancels(trace) -> List[Tuple[int, float]]:
    """The scripted withdrawals: two first-burst hot requests, 0.5 ms in."""
    hot = [r for r in trace if r.tenant == "hot"][:CANCELS]
    return [(r.req_id, r.arrival_s + 5e-4) for r in hot]


def _serve_arm(trace, cancels, seed: int, **knobs) -> dict:
    """One arm's serve plus its clean-scheduler exactness reference."""
    _, _, engine = _stack(seed, max_queue=MAX_QUEUE, **knobs)
    core = engine.streaming()
    for rid, at in cancels:
        core.cancel(rid, at_s=at)
    core.play(sorted(trace, key=lambda r: (r.arrival_s, r.req_id)))
    report = core.report()

    # clean reference over this arm's survivors: fresh same-seed stack,
    # no preemption, no quota, no cancels, no queue bound — the outputs
    # must match bit for bit
    survivors = [replace(r.request) for r in report.results]
    _, _, ref_engine = _stack(seed)
    reference = ref_engine.serve(survivors)
    served = {r.request.req_id: r.output for r in report.results}
    ref_out = {r.request.req_id: r.output for r in reference.results}
    exact = (set(served) == set(ref_out)
             and all(np.array_equal(served[i], ref_out[i]) for i in served))

    reasons: dict = {}
    for record in report.shed:
        reasons[record.reason] = reasons.get(record.reason, 0) + 1
    tenants = report.tenant_breakdown()
    for stats in tenants.values():
        # late completions and refused/withdrawn requests both miss the SLO
        stats["misses"] = (stats["slo_misses"] + stats["shed"]
                           + stats["cancelled"])
    victim = [r for r in report.results if r.request.tenant == "victim"]
    return {
        "submitted": report.submitted,
        "completed": report.completed,
        "shed": report.num_shed,
        "shed_reasons": reasons,
        "cancelled": report.num_cancelled,
        "cancel_where": sorted(c.where for c in report.cancelled),
        "preemptions": report.preemptions,
        "requeued_batches": report.requeued_batches,
        "retried_batches": sum(s.retried_batches for s in report.shard_stats),
        "retry_penalty_ms": 1e3 * sum(s.retry_penalty_s
                                      for s in report.shard_stats),
        "conserved": float(report.conserved),
        "exact": float(exact),
        "starved_tenants": report.starved_tenants,
        "tenants": tenants,
        "victim_slo_misses": tenants["victim"]["misses"],
        "hot_slo_misses": tenants["hot"]["misses"],
        "hot_shed_rate": (tenants["hot"]["shed"]
                          / max(1, sum(tenants["hot"][k] for k in
                                       ("completed", "shed", "cancelled")))),
        "victim_p95_latency_ms": (
            1e3 * float(np.percentile([r.latency_s for r in victim], 95))
            if victim else None),
        "p95_latency_ms": 1e3 * report.p95_latency_s,
        "sim_makespan_s": report.sim_makespan_s,
    }


def run_bench(num_requests: int = 102, seed: int = 0) -> dict:
    """Fifo-vs-preemptive digest on the hot-tenant head-of-line trace."""
    start = time.perf_counter()
    trace = _trace(num_requests, seed)
    cancels = _cancels(trace)
    policies = {
        "fifo": _serve_arm(trace, cancels, seed),
        "preempt": _serve_arm(trace, cancels, seed,
                              preempt_policy="running",
                              tenant_weights={"hot": 1.0, "victim": 1.0}),
    }
    return {
        "scenario": "hot-tenant head-of-line",
        "requests": len(trace),
        "devices": DEVICES,
        "seed": seed,
        "window_ms": WINDOW_MS,
        "max_queue": MAX_QUEUE,
        "level": LEVEL,
        "deadline_factor": DEADLINE_FACTOR,
        "hot_burst": HOT_BURST,
        "burst_period_ms": BURST_PERIOD_MS,
        "victim_slo_ms": VICTIM_SLO_MS,
        "cancels": CANCELS,
        "policies": policies,
        "separation": {
            "fifo_victim_misses": policies["fifo"]["victim_slo_misses"],
            "preempt_victim_misses": policies["preempt"]["victim_slo_misses"],
            "strict": float(policies["preempt"]["victim_slo_misses"]
                            < policies["fifo"]["victim_slo_misses"]),
        },
        "acceptance": {
            "fifo_victim_miss_floor": FIFO_VICTIM_MISS_FLOOR,
            "preempt_victim_miss_ceiling": PREEMPT_VICTIM_MISS_CEILING,
            "hot_shed_rate_ceiling": HOT_SHED_RATE_CEILING,
        },
        "wall_s": time.perf_counter() - start,
    }


def render(digest: dict) -> str:
    rows = [
        f"{digest['scenario']}: hot bursts of {digest['hot_burst']} every "
        f"{digest['burst_period_ms']:.1f} ms vs victim trickle "
        f"(SLO {digest['victim_slo_ms']:.1f} ms) on {digest['devices']} "
        f"shard, queue bound {digest['max_queue']}, "
        f"{digest['cancels']} scripted cancels",
        "",
        f"{'arm':>8} {'done':>5} {'shed':>5} {'cancel':>7} {'preempt':>8} "
        f"{'victim miss':>12} {'hot shed%':>10} {'conserved':>10} "
        f"{'exact':>6}",
        "-" * 78,
    ]
    for name, p in digest["policies"].items():
        rows.append(
            f"{name:>8} {p['completed']:>5d} {p['shed']:>5d} "
            f"{p['cancelled']:>7d} {p['preemptions']:>8d} "
            f"{p['victim_slo_misses']:>12d} {100 * p['hot_shed_rate']:>9.1f} "
            f"{bool(p['conserved'])!s:>10} {bool(p['exact'])!s:>6}")
    sep = digest["separation"]
    rows += [
        "",
        f"separation: preempt victim misses {sep['preempt_victim_misses']} "
        f"< fifo victim misses {sep['fifo_victim_misses']} "
        f"(strict={bool(sep['strict'])})",
    ]
    return "\n".join(rows)


def check(digest: dict) -> bool:
    """Acceptance: conservation, exactness, separation, engagement."""
    acc = digest["acceptance"]
    fifo = digest["policies"]["fifo"]
    pre = digest["policies"]["preempt"]
    engaged = (pre["preemptions"] >= 1
               and pre["shed_reasons"].get("tenant_quota", 0) >= 1
               and fifo["cancelled"] == digest["cancels"]
               and pre["cancelled"] == digest["cancels"]
               and not pre["starved_tenants"])
    return (bool(fifo["conserved"]) and bool(pre["conserved"])
            and bool(fifo["exact"]) and bool(pre["exact"])
            and engaged
            and bool(digest["separation"]["strict"])
            and fifo["victim_slo_misses"] >= acc["fifo_victim_miss_floor"]
            and pre["victim_slo_misses"]
            <= acc["preempt_victim_miss_ceiling"]
            and pre["hot_shed_rate"] <= acc["hot_shed_rate_ceiling"])


# ---------------------------------------------------------------------------
# pytest entry point (parity with bench_faults; not in the default testpath)
# ---------------------------------------------------------------------------

def test_preemptive_scheduling():
    digest = run_bench(num_requests=102)
    write_result("preempt_fairness", render(digest))
    write_json_result("preempt", digest)
    assert check(digest)


# ---------------------------------------------------------------------------
# script entry point (CI smoke job)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast run for CI (51 requests)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    num = args.requests or (51 if args.smoke else 102)
    digest = run_bench(num_requests=num, seed=args.seed)
    write_result("preempt_fairness", render(digest))
    write_json_result("preempt", digest)
    ok = check(digest)
    label = "smoke" if args.smoke else "bench"
    print(f"{label} {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
