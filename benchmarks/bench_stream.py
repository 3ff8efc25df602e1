"""Streaming bench: admission window vs throughput and latency.

Sweeps the streaming engine's batching window (``max_wait_s``) on bursty
traffic whose intra-burst arrivals are *spread* (so the window has a real
decision to make: admit now or wait for company) and measures, per
window:

- **mean batch size** — how much company the window buys;
- **service throughput** (requests per second of busy device time) — the
  batching-efficiency win: bigger admitted batches amortize the
  per-invocation overhead;
- **p50 / p95 end-to-end latency** — the cost: a partial batch waits out
  its window, and later members of a bigger time-sliced batch queue
  behind more MAC work;
- **exactness** — every swept run's outputs against the per-request
  oracle (``max_batch=1`` offline engine), which must agree to double
  precision.

The sweep exhibits the admission-time tradeoff monotonically: widening
the window never hurts batching efficiency and never helps p50 (it
trades latency for throughput), and the digest records the monotonicity
flags so the CI gate can hold the shape, not just the endpoints.
Machine-readable numbers land in ``benchmarks/results/BENCH_stream.json``;
``scripts/check_bench_regression.py`` re-runs this bench at the
committed configuration and gates exactness, monotonicity, per-window
batch sizes and endpoint drift.

Run directly: ``python benchmarks/bench_stream.py [--smoke]``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Sequence

import numpy as np

if __package__ in (None, ""):  # run as a script
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from repro.serve import (
    ScenarioConfig,
    StackConfig,
    build_serving_stack,
    stream_scenario,
)

from benchmarks.common import write_json_result, write_result

# bursty traffic with spread intra-burst arrivals: one burst of 8 spans
# ~8 ms, so the window sweep moves the admitted batch size from 1 to 8
BURST_SIZE = 8
BURST_GAP_S = 0.5
SPREAD_S = 2e-3
WINDOWS_MS = (0.0, 1.0, 4.0, 16.0, 50.0)
EXACTNESS_TOL = 1e-9
# relative slack for the monotonicity checks (floating-point ties)
MONO_RTOL = 1e-9


def _monotone(values: Sequence[float], increasing: bool = True) -> bool:
    for a, b in zip(values, values[1:]):
        slack = MONO_RTOL * max(abs(a), abs(b), 1e-12)
        if increasing and b < a - slack:
            return False
        if not increasing and b > a + slack:
            return False
    return True


def _scenario_kwargs(num_requests: int, seed: int) -> dict:
    return dict(cfg=ScenarioConfig(num_requests=num_requests, seed=seed),
                burst_size=BURST_SIZE, burst_gap_s=BURST_GAP_S,
                spread_s=SPREAD_S)


def serve_streaming(num_requests: int, max_wait_s: float, seed: int = 0):
    """Feed the bursty stream arrival-by-arrival through the online loop."""
    _, workload, engine = build_serving_stack(StackConfig(
        seed=seed, window_s=max_wait_s))
    session = engine.streaming()
    completed = session.play(stream_scenario(
        "bursty", workload, **_scenario_kwargs(num_requests, seed)))
    report = session.report()
    assert len(completed) == report.num_requests
    return report


def serve_oracle(num_requests: int, seed: int = 0):
    """Per-request oracle: every request served alone, no batching."""
    _, workload, engine = build_serving_stack(StackConfig(
        seed=seed, max_batch=1, use_cache=False))
    trace = list(stream_scenario("bursty", workload,
                                 **_scenario_kwargs(num_requests, seed)))
    return engine.serve(trace)


def run_bench(num_requests: int = 64, windows_ms: Sequence[float] = WINDOWS_MS,
              seed: int = 0) -> dict:
    """Window sweep digest (machine-readable, gated by CI)."""
    oracle = serve_oracle(num_requests, seed=seed)
    oracle_out = {r.request.req_id: r.output for r in oracle.results}

    sweep = []
    for w_ms in windows_ms:
        report = serve_streaming(num_requests, w_ms / 1e3, seed=seed)
        err = max((float(np.abs(r.output - oracle_out[r.request.req_id]).max())
                   for r in report.results), default=0.0)
        sweep.append({
            "max_wait_ms": w_ms,
            "batches": report.num_batches,
            "mean_batch_size": report.mean_batch_size,
            "sim_throughput_rps": report.sim_throughput_rps,
            "service_throughput_rps": report.service_throughput_rps,
            "sim_busy_s": report.sim_busy_s,
            "p50_latency_ms": 1e3 * report.p50_latency_s,
            "p95_latency_ms": 1e3 * report.p95_latency_s,
            "max_oracle_err": err,
        })

    first, last = sweep[0], sweep[-1]
    return {
        "scenario": "bursty",
        "requests": num_requests,
        "seed": seed,
        "max_batch": 8,
        "burst": {"size": BURST_SIZE, "gap_s": BURST_GAP_S,
                  "spread_s": SPREAD_S},
        "windows_ms": list(windows_ms),
        "sweep": sweep,
        "max_oracle_err": max(s["max_oracle_err"] for s in sweep),
        "monotonic": {
            # widening the window buys batch size and busy-time efficiency…
            "mean_batch_size": _monotone(
                [s["mean_batch_size"] for s in sweep]),
            "service_throughput_rps": _monotone(
                [s["service_throughput_rps"] for s in sweep]),
            # …and pays for it in median latency
            "p50_latency_ms": _monotone([s["p50_latency_ms"] for s in sweep]),
        },
        "tradeoff": {
            "p50_increase_ms": last["p50_latency_ms"] - first["p50_latency_ms"],
            "efficiency_gain": (
                last["service_throughput_rps"] / first["service_throughput_rps"]
                if first["service_throughput_rps"] else float("inf")),
            "batch_growth": (last["mean_batch_size"] / first["mean_batch_size"]
                             if first["mean_batch_size"] else float("inf")),
        },
    }


def render(digest: dict) -> str:
    rows = [
        f"{'wait ms':>8} {'batches':>8} {'mean B':>7} {'svc req/s':>10} "
        f"{'sim req/s':>10} {'p50 ms':>8} {'p95 ms':>8} {'|err|':>9}",
        "-" * 74,
    ]
    for s in digest["sweep"]:
        rows.append(
            f"{s['max_wait_ms']:>8.1f} {s['batches']:>8d} "
            f"{s['mean_batch_size']:>7.2f} {s['service_throughput_rps']:>10.0f} "
            f"{s['sim_throughput_rps']:>10.0f} {s['p50_latency_ms']:>8.3f} "
            f"{s['p95_latency_ms']:>8.3f} {s['max_oracle_err']:>9.1e}")
    t = digest["tradeoff"]
    mono = digest["monotonic"]
    rows += [
        "",
        f"window trade: batch x{t['batch_growth']:.1f}, efficiency "
        f"x{t['efficiency_gain']:.2f}, p50 +{t['p50_increase_ms']:.3f} ms",
        f"monotone: batch={mono['mean_batch_size']} "
        f"efficiency={mono['service_throughput_rps']} "
        f"p50={mono['p50_latency_ms']}   "
        f"oracle exactness {digest['max_oracle_err']:.1e}",
    ]
    return "\n".join(rows)


def check(digest: dict) -> bool:
    """Acceptance: the window trades p50 for throughput, monotonically."""
    mono = digest["monotonic"]
    t = digest["tradeoff"]
    return (digest["max_oracle_err"] < EXACTNESS_TOL
            and all(mono.values())
            and t["batch_growth"] > 2.0       # the sweep really moves batching
            and t["efficiency_gain"] > 1.0    # …which buys device efficiency
            and t["p50_increase_ms"] > 0.0)   # …and costs median latency


# ---------------------------------------------------------------------------
# pytest entry point (parity with bench_serve; not in the default testpath)
# ---------------------------------------------------------------------------

def test_stream_tradeoff():
    digest = run_bench(num_requests=64)
    write_result("stream_window_sweep", render(digest))
    write_json_result("stream", digest)
    assert check(digest)


# ---------------------------------------------------------------------------
# script entry point (CI smoke job)
# ---------------------------------------------------------------------------

def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small, fast run for CI (32 requests)")
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    num = args.requests or (32 if args.smoke else 64)
    digest = run_bench(num_requests=num, seed=args.seed)
    write_result("stream_window_sweep", render(digest))
    write_json_result("stream", digest)
    ok = check(digest)
    print(f"smoke {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
