"""Turning timed passes and traced spans into the benchmark's metrics.

Host-time estimator (``wall_us_per_req``, ``tokens_per_s``, ``episode_s``)
---------------------------------------------------------------------------
Every pass replays the same seeded work: the whole trace through a fresh
engine session, or one whole fixed-seed search.  Each pass's host time
is scaled to reference speed by the kernel samples that bracket it
(``reference.py``), and the estimate is the median over every pass of
the run's workers (:func:`host_estimate`).  A pass is the whole trace,
so every periodic cost — a recompile per rung alternation, a burst
cycle, the drain tail — is charged in full; the median drops passes hit
by a burst of interference, and the reference scaling removes the
machine's slower drift.
"""

from __future__ import annotations

import re
import statistics
from typing import Dict, List, Sequence

from tracing import LAYERS, Span, self_times

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def host_estimate(passes_s: Sequence[float]) -> float:
    """Host seconds of one pass: the median over the timed passes."""
    if not passes_s:
        raise ValueError("no passes to estimate from")
    return statistics.median(passes_s)


def end_to_end(pass_s: float, work: dict, sim: dict, setup_s: float,
               peak_rss_mb: float, verdict: dict) -> Dict[str, float]:
    """The ten end-to-end metrics of one run.

    ``pass_s`` is :func:`host_estimate` over the timed passes; ``work`` is a
    pass's deterministic work (``Workload.work``) and ``sim`` its
    simulated outcome; ``verdict`` comes from :func:`tally`.
    """
    return {
        "setup_s": setup_s,
        "wall_us_per_req": 1e6 * pass_s / work["requests"],
        "tokens_per_s": work["tokens"] / pass_s,
        "episode_s": pass_s / work["episodes"],
        "peak_rss_mb": peak_rss_mb,
        "sim_p50_ms": sim["sim_p50_ms"],
        "sim_p99_ms": sim["sim_p99_ms"],
        "slo_hit_rate": verdict["slo_hit_rate"],
        "ok_frac": verdict["ok_frac"],
        # serving workloads run no search: the contract asks for every
        # metric in every run, so they report the fixed value 1
        "best_reward": sim.get("best_reward", 1.0),
    }


def tally(outcomes: Sequence[dict], failures: Sequence[str]) -> dict:
    """The run's verdict over every pass's counts (``Outcome.counts``):
    each failed check fails the run and removes one request from the
    completed and the in-SLO counts."""
    failed = len(failures)
    requests = sum(o["requests"] for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": failed,
        "ok_frac": max(0, sum(o["completed"] for o in outcomes) - failed) / requests,
        "slo_hit_rate": max(0, sum(o["slo_hits"] for o in outcomes) - failed) / requests,
    }


class LayerStats:
    """Per-layer accumulation over traced passes."""

    def __init__(self) -> None:
        self.passes = 0
        self.units = 0.0
        self.wall_s = 0.0
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.by_name: Dict[str, List[float]] = {}   # name -> [calls, self_s, total_s]
        self.compile_s = self.run_s = self.decode_step_s = self.step_s = 0.0
        self.compiles = self.steps = self.step_tokens = 0
        self.padded_batches = self.padded_members = 0
        self.applies = 0
        self.batches = self.switches = 0
        self.cache_hits = self.cache_lookups = self.evictions = 0

    def add_pass(self, spans: Sequence[Span], wall_s: float, units: float,
                 report=None) -> None:
        self.passes += 1
        self.units += units
        self.wall_s += wall_s
        for span, own in zip(spans, self_times(spans)):
            dur = span.end - span.start
            self.calls[span.layer] += 1
            self.self_s[span.layer] += own
            row = self.by_name.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += dur
            if span.name == "CompiledForward.__call__":
                if span.tag:
                    self.compile_s += dur
                    self.compiles += 1
                else:
                    self.run_s += dur
            elif span.name == "CompiledDecode.decode_step":
                self.decode_step_s += dur
            elif span.name == "DecodeSession.step":
                self.step_s += dur
                self.steps += 1
                self.step_tokens += span.tag
            elif span.name == "streaming.run_padded":
                self.padded_batches += 1
                self.padded_members += span.tag
            elif span.name == "MaskManager.apply":
                self.applies += 1
        if report is not None:
            self.batches += report.num_batches
            self.switches += report.num_switches
            if report.cache_stats is not None:
                self.cache_hits += report.cache_stats.hits
                self.cache_lookups += report.cache_stats.lookups
                self.evictions += report.cache_stats.evictions

    def metrics(self, overhead: float) -> Dict[str, float]:
        per_unit = 1e6 / self.units if self.units else 0.0
        per_pass = 1.0 / self.passes if self.passes else 0.0
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer] * per_pass
            out[f"{layer}.self_us_per_unit"] = self.self_s[layer] * per_unit
            out[f"{layer}.share"] = (100.0 * self.self_s[layer] / self.wall_s
                                     if self.wall_s else 0.0)
        out.update({
            "serve.batcher.mean_batch_size": _ratio(self.padded_members,
                                                    self.padded_batches),
            "serve.sharding.switches": self.switches * per_pass,
            "core.patterns.apply_per_batch": _ratio(self.applies, self.batches),
            "serve.cache.hit_ratio": _ratio(self.cache_hits, self.cache_lookups),
            "serve.cache.evictions": self.evictions * per_pass,
            "nn.inference.run_us_per_unit": self.run_s * per_unit,
            "nn.inference.compile_us_per_unit": self.compile_s * per_unit,
            "nn.inference.recompiles": self.compiles * per_pass,
            "nn.inference.decode_step_us_per_unit": self.decode_step_s * per_unit,
            "nn.generation.step_us_per_token": 1e6 * _ratio(self.step_s,
                                                            self.step_tokens),
            "nn.generation.tokens_per_step": _ratio(self.step_tokens, self.steps),
            "trace.overhead": overhead,
        })
        return out

    def summary(self) -> dict:
        """Per-call-site breakdown written next to the Chrome trace."""
        return {name: {"calls": row[0], "self_s": row[1], "total_s": row[2]}
                for name, row in sorted(self.by_name.items(),
                                        key=lambda kv: -kv[1][1])}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

