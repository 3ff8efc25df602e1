#!/usr/bin/env python
"""CI regression gate over every committed bench digest.

For every registered bench the gate reads the committed
``<results-dir>/BENCH_<name>.json`` baseline, re-runs the bench at the
configuration recorded in that baseline, writes the fresh digest to
``BENCH_<name>.fresh.json`` next to it, and fails when a gated metric
regresses.  Each bench is one :data:`BENCHES` entry: the bench's entry
point, a replay map from each entry-point keyword to the baseline path
holding its committed value, and a list of rules built from the
constructors below.  Only deterministic metrics are gated; wall clock is
reported but never gated.  Committed floors and budgets are read from
the baseline, so a bench cannot loosen its own gate.

The comparison report lands in ``<results-dir>/bench_regression_report.json``
unless ``--output`` says otherwise.  After an intentional change,
regenerate and commit the baselines with ``--update-baseline``.
``docs/benchmarks.md`` describes what each bench's rules pin and how to
add a bench.
"""

from __future__ import annotations

import argparse
import importlib
import json
import operator
import pathlib
import re
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = REPO_ROOT / "benchmarks" / "results"
REPORT_NAME = "bench_regression_report.json"

sys.path.insert(0, str(REPO_ROOT))
sys.path.insert(0, str(REPO_ROOT / "src"))

from benchmarks.common import (  # noqa: E402
    WALL_CLOCK_NOTE, cover_pareto_points, find_check, find_exact, find_info, find_row_set,
    find_within,
)

EXACTNESS_TOL = 1e-9
MAX_THROUGHPUT_DROP = 0.15  # serve + stream: relative simulated-throughput slack
MAX_LATENCY_RISE = 0.20     # serve + stream: relative simulated-latency slack
POWER_DRIFT = 0.01          # table: relative modelled-power band
ACC_DRIFT = 0.02            # absolute weighted-accuracy / score floor slack
REWARD_DRIFT = 0.05         # absolute best-reward floor slack
RUNS_REL_DRIFT = 0.02       # relative #runs slack for Pareto-point coverage
SWITCH_MS_RISE = 0.10       # relative rise allowed in the modelled switch cost

EXACT_NOTE = "deterministic: must match baseline exactly"


# ---------------------------------------------------------------------------
# rules: each maps a Scope to a list of findings (see benchmarks/common.py)
# ---------------------------------------------------------------------------

def _get(node: Any, path: str) -> Any:
    """Follow a dotted path (``[i]`` indexes a list); None when absent.

    Only fixed field names go through here: entry keys that may contain
    dots (``cases.serve.b1``) are iterated by :func:`each` instead.
    """
    for part in filter(None, re.split(r"\.|(?=\[)", path)):
        if part.startswith("["):
            i = int(part[1:-1])
            node = node[i] if isinstance(node, list) and -len(node) <= i < len(node) else None
        else:
            node = node.get(part) if isinstance(node, dict) else None
    return node


def _num(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


class Scope(NamedTuple):
    """Where a rule applies: the matching baseline / fresh nodes (``fresh``
    is None inside an entry the fresh run dropped), the metric prefix, the
    enclosing entry's key, and the two whole digests."""
    base: Any
    fresh: Any
    prefix: str = ""
    key: str = ""
    roots: Tuple[dict, dict] = ({}, {})

    def metric(self, path: str) -> str:
        return ".".join(p for p in (self.prefix, path) if p)

    def nums(self, path: str) -> Tuple[Optional[float], Optional[float]]:
        return _num(_get(self.base, path)), _num(_get(self.fresh, path))


Rule = Callable[[Scope], List[dict]]


def committed(path: str) -> Callable[[Scope], Optional[float]]:
    """A limit read from the baseline digest's root, falling back to the
    fresh digest's; ``{key}`` in ``path`` names the enclosing entry."""
    def limit(s: Scope) -> Optional[float]:
        at = path.format(key=s.key)
        base = _num(_get(s.roots[0], at))
        return base if base is not None else _num(_get(s.roots[1], at))
    return limit


def exact(*paths: str, note: str = EXACT_NOTE) -> Rule:
    """Each path must equal its baseline value."""
    return lambda s: [find_exact(s.metric(p), *s.nums(p), note) for p in paths]


def within(*paths: str, budget: float, kind: str, relative: bool = False,
           note: str = "") -> Rule:
    """Each path must stay inside a ``floor`` / ``ceiling`` / ``band``
    drift budget around its baseline value."""
    return lambda s: [find_within(s.metric(p), *s.nums(p), budget=budget, kind=kind,
                                  relative=relative, note=note) for p in paths]


def info(*paths: str, note: str = WALL_CLOCK_NOTE) -> Rule:
    """Report each path, never gate it."""
    return lambda s: [] if s.fresh is None else [
        find_info(s.metric(p), *s.nums(p), note=note) for p in paths]


_OPS = {"<": operator.lt, "<=": operator.le, "==": operator.eq, ">=": operator.ge}


def check(path: str, op: str, limit, note: str, metric: str = "") -> Rule:
    """The fresh value at ``path`` must satisfy ``value <op> limit``; the
    limit is a constant or a :func:`committed` one."""
    def rule(s: Scope) -> List[dict]:
        bound = limit(s) if callable(limit) else limit
        new = _num(_get(s.fresh, path))
        ok = new is not None and bound is not None and _OPS[op](new, bound)
        return [find_check(s.metric(metric or path), bound, new, ok, note)]
    return rule


def flag(*paths: str, note: str) -> Rule:
    """Each fresh value must be truthy."""
    return lambda s: [find_check(s.metric(p), 1.0, float(bool(_get(s.fresh, p))),
                                 _get(s.fresh, p), note) for p in paths]


def empty(path: str, note: str) -> Rule:
    """The fresh list at ``path`` must be empty."""
    return lambda s: [find_check(s.metric(path), float(len(_get(s.base, path) or [])),
                                 float(len(_get(s.fresh, path) or [])),
                                 not _get(s.fresh, path), note)]


def length(path: str, metric: str, note: str) -> Rule:
    """The list at ``path`` must keep its baseline length."""
    def size(node: Any, path: str = path) -> Optional[int]:
        value = _get(node, path)
        return None if value is None else len(value)
    return lambda s: [find_exact(s.metric(metric), size(s.base), size(s.fresh), note)]


def less(metric: str, lower: str, upper: str, note: str) -> Rule:
    """Strict separation in the fresh run: ``lower < upper``."""
    def rule(s: Scope) -> List[dict]:
        a, b = _num(_get(s.fresh, lower)), _num(_get(s.fresh, upper))
        strict = a is not None and b is not None and a < b
        return [find_check(metric, 1.0, float(strict), strict, note)]
    return rule


def rows(section: str, fields: Sequence[str], note: str,
         source: Optional[Callable[[dict], list]] = None) -> Rule:
    """The set of ``fields`` tuples over the rows at ``section`` (or
    ``source(digest)``) must match the baseline's exactly."""
    def keys(digest: Any) -> list:
        found = source(digest) if source else _get(digest, section) or []
        return [tuple(tuple(v) if isinstance(v, list) else v
                      for v in (r.get(f) for f in fields)) for r in found]
    return lambda s: [find_row_set(f"{section}.row_set", keys(s.base), keys(s.fresh), note)]


def pareto(path: str, metric: str) -> Rule:
    """Every baseline Pareto point must stay covered by the fresh front."""
    return lambda s: cover_pareto_points(
        _get(s.base, path) or [], _get(s.fresh, path) or [], acc_budget=ACC_DRIFT,
        runs_rel_budget=RUNS_REL_DRIFT, prefix=s.metric(metric))


def each(section: str, *rules: Rule, key: Any = None, descend: bool = False) -> Rule:
    """Apply ``rules`` to every baseline entry of the dict or list at
    ``section``.

    Dict entries match by key; list rows by ``key`` (a field name or a
    callable giving the row's label), or by position when ``key`` is None.
    A baseline entry missing from the fresh run fails: a dict entry once,
    under its own name; a list row (or a dict entry, with ``descend``)
    through each of its gated rules.
    """
    label = (lambda r: r.get(key)) if isinstance(key, str) else key

    def entries(node: Any) -> Dict[Any, Any]:
        if isinstance(node, list):
            return {label(r) if label else i: r for i, r in enumerate(node)}
        return node if isinstance(node, dict) else {}

    def rule(s: Scope) -> List[dict]:
        found: List[dict] = []
        base_node = _get(s.base, section)
        fresh_entries = entries(_get(s.fresh, section))
        positional = isinstance(base_node, list) and label is None
        for k, entry in entries(base_node).items():
            metric = s.metric(section) + (f"[{k}]" if positional else f".{k}")
            fresh = fresh_entries.get(k)
            if fresh is None and isinstance(base_node, dict) and not descend:
                found.append(find_check(metric, None, None, False,
                                        "committed entry missing from fresh run"))
                continue
            inner = Scope(entry, fresh, metric, str(k), s.roots)
            for r in rules:
                found.extend(r(inner))
        return found
    return rule


# ---------------------------------------------------------------------------
# the registry: one entry per bench
# ---------------------------------------------------------------------------

class BenchSpec(NamedTuple):
    """One bench: its ``module:function`` entry point under ``benchmarks``,
    the replay map (entry-point keyword -> baseline path, or a callable of
    the baseline), and its rules."""
    entry: str
    replay: Dict[str, Any]
    rules: Sequence[Rule]

    def entry_point(self) -> Callable[..., dict]:
        module, func = self.entry.split(":")
        return getattr(importlib.import_module(f"benchmarks.{module}"), func)

    def replay_kwargs(self, baseline: dict) -> Dict[str, Any]:
        """The entry-point keywords at the baseline's recorded values."""
        kwargs = {}
        for kw, source in self.replay.items():
            if callable(source):
                kwargs[kw] = source(baseline)
                continue
            node = baseline
            for part in source.split("."):
                if not isinstance(node, dict) or part not in node:
                    raise KeyError(f"baseline records no {source!r} to replay {kw}=")
                node = node[part]
            kwargs[kw] = node
        return kwargs

    def run(self, baseline: dict) -> dict:
        """Re-run the bench at the baseline's recorded configuration."""
        return self.entry_point()(**self.replay_kwargs(baseline))


SEEDED = {"smoke": "smoke", "seed": "seed", "repeats": "repeats"}
ERR_NOTE = f"outputs must match the reference to {EXACTNESS_TOL:.0e}"
WALL = info("wall_s")


def _policy_flags(lost: str, clean: str) -> List[Rule]:
    return [flag("conserved", note=f"no request may be lost: {lost} must equal submitted"),
            flag("exact", note="completed outputs must be bit-identical to the "
                               f"{clean} serve of the surviving set")]


def _verdict_rows(digest: dict) -> list:
    return [dict(level, experiment=label)
            for label, e in (digest.get("experiments") or {}).items()
            for level in e.get("levels", [])]


BENCHES: Dict[str, BenchSpec] = {
    "serve": BenchSpec(
        "bench_serve:run_comparison",
        {"num_requests": "requests", "batch": "batch_size", "seed": "seed",
         "devices": "sharded.devices", "policy": "sharded.policy"},
        [within("sim_throughput_rps", "sharded.sim_rps_sharded",
                budget=MAX_THROUGHPUT_DROP, kind="floor", relative=True),
         within("p95_latency_ms", "sharded.p95_latency_ms",
                budget=MAX_LATENCY_RISE, kind="ceiling", relative=True),
         *(check(p, "<", EXACTNESS_TOL, ERR_NOTE) for p in (
             "max_batch_vs_single_error", "max_cross_engine_error",
             "sharded.max_verify_error")),
         info("baseline_throughput_rps", "batched_throughput_rps", "speedup",
              "sharded.scaling")]),
    "stream": BenchSpec(
        "bench_stream:run_bench",
        {"num_requests": "requests", "windows_ms": "windows_ms", "seed": "seed"},
        [check("max_oracle_err", "<", EXACTNESS_TOL, ERR_NOTE),
         flag("monotonic.mean_batch_size", "monotonic.service_throughput_rps",
              "monotonic.p50_latency_ms",
              note="window sweep must keep its monotone tradeoff shape"),
         each("sweep", exact("mean_batch_size")),
         within("sweep[-1].service_throughput_rps", budget=MAX_THROUGHPUT_DROP,
                kind="floor", relative=True),
         within("sweep[-1].p50_latency_ms", budget=MAX_LATENCY_RISE,
                kind="ceiling", relative=True),
         info("tradeoff.efficiency_gain", note="informational")]),
    "kernels": BenchSpec(
        "bench_kernels:run_bench", SEEDED,
        [each("cases",
              each("max_abs_err", check("", "<", EXACTNESS_TOL, ERR_NOTE)),
              each("op_counters",
                   exact("macs", "index_ops", "overhead_ops", "weighted_total")),
              info("wall_ms.pattern"), descend=True),
         check("acceptance.speedup", ">=", committed("acceptance.min_speedup"),
               "grouped pattern kernel must stay >= the committed floor over "
               "the loop reference (same-machine ratio)")]),
    "table": BenchSpec(
        "bench_table1_dvfs:run_bench", {"lookups": "governor.lookups"},
        [rows("levels", ("name", "freq_mhz", "voltage_mv"),
              "V/F rows (name, freq, voltage) are paper configuration"),
         each("levels", within("power_w", budget=POWER_DRIFT, kind="band",
                               relative=True), key="name"),
         info("governor.wall_ms")]),
    "table2": BenchSpec(
        "bench_table2_reconfig:run_bench", {},
        [rows("rows", ("experiment", "level", "latency_ms", "meets_deadline"),
              "reconfiguration rows replay the deterministic discharge simulation"),
         exact("total_runs.E1", "total_runs.E2", "total_runs.E3"),
         info("wall_ms")]),
    "forward": BenchSpec(
        "bench_forward:run_bench", SEEDED,
        [each("cases",
              check("max_abs_err", "==", 0.0, "compiled float64 forward must be "
                    "bit-identical to the eager Tensor forward"),
              exact("tensor_nodes", "compiled_steady_allocs"),
              check("float32_max_rel_err", "<", committed("acceptance.float32_tol"),
                    "float32 mode must stay within its committed relative tolerance"),
              info("speedup")),
         check("acceptance.speedup", ">=", committed("acceptance.min_speedup"),
               "compiled forward must stay >= the committed floor over the eager "
               "path (same-machine ratio)")]),
    "generate": BenchSpec(
        "bench_generate:run_bench", SEEDED,
        [each("cases",
              flag("exact", note="compiled decode tokens + logprobs must be "
                                 "bit-identical to the eager loop"),
              check("max_abs_err", "==", 0.0, "float64 logprobs must match exactly"),
              flag("ragged_exact", note="streams joining/leaving the rolling batch "
                                        "must stay bit-identical to their solo runs"),
              info("speedup")),
         check("acceptance.speedup", ">=", committed("acceptance.min_speedup"),
               "KV-cached decode must stay >= the committed per-token floor over "
               "the eager loop (same-machine ratio)"),
         info("batching.speedup")]),
    "faults": BenchSpec(
        "bench_faults:run_bench", {"num_requests": "requests", "seed": "seed"},
        [each("policies",
              *_policy_flags("completed + shed", "fault-free"),
              exact("submitted", "completed", "shed", "degraded", "failures",
                    "recoveries", "requeued_batches", "retried_batches"),
              check("shed_rate", "<=", committed("acceptance.{key}_shed_rate_ceiling"),
                    "shed rate must stay within the committed budget"),
              check("recovery_lag_s", "<=", committed("acceptance.recovery_lag_budget_s"),
                    "downed-shard detection lag must stay within the committed budget"),
              info("retry_penalty_ms", "p95_latency_ms",
                   note="informational (simulated; the counters gate behaviour)")),
         less("separation.strict", "policies.degrade.shed", "policies.reject.shed",
              "graceful degradation must shed strictly fewer requests than "
              "deadline-aware rejection"),
         WALL]),
    "preempt": BenchSpec(
        "bench_preempt:run_bench", {"num_requests": "requests", "seed": "seed"},
        [each("policies",
              *_policy_flags("completed + shed + cancelled", "clean"),
              exact("submitted", "completed", "shed", "cancelled", "preemptions",
                    "requeued_batches", "retried_batches", "victim_slo_misses",
                    "hot_slo_misses"),
              empty("starved_tenants", "every tenant with traffic must complete something"),
              check("hot_shed_rate", "<=", committed("acceptance.hot_shed_rate_ceiling"),
                    "hot-tenant shed rate must stay within the committed budget"),
              info("retry_penalty_ms", "victim_p95_latency_ms",
                   note="informational (simulated; the counters gate behaviour)")),
         less("separation.strict", "policies.preempt.victim_slo_misses",
              "policies.fifo.victim_slo_misses",
              "preemption + fairness must strictly cut victim-tenant SLO misses"),
         check("policies.fifo.victim_slo_misses", ">=",
               committed("acceptance.fifo_victim_miss_floor"),
               "the fifo arm must still hurt the victim (adversarial scenario)",
               metric="policies.fifo.victim_miss_floor"),
         check("policies.preempt.victim_slo_misses", "<=",
               committed("acceptance.preempt_victim_miss_ceiling"),
               "the preemptive arm must keep victim misses under the committed ceiling",
               metric="policies.preempt.victim_miss_ceiling"),
         WALL]),
    "fig3": BenchSpec(
        "bench_fig3_pareto:run_bench",
        {"episodes": "episodes", "seed": "seed", "pretrain_epochs": "pretrain_epochs"},
        [each("searches",
              exact("deadline_ms"),
              within("num_feasible", budget=0, kind="floor"),
              pareto("pareto_front", "pareto"),
              within("best_weighted_accuracy", budget=ACC_DRIFT, kind="floor"),
              within("best_reward", budget=REWARD_DRIFT, kind="floor"),
              each("min_sparsity", exact("")),
              info("original_accuracy", "backbone_accuracy",
                   "heuristic_weighted_accuracy",
                   note="informational (tiny-scale training context)")),
         WALL]),
    "fig4": BenchSpec(
        "bench_fig4_patterns:run_bench",
        {"seed": "seed", "pretrain_epochs": "pretrain_epochs"},
        [rows("levels", ("level", "sparsity", "num_patterns", "pattern_size",
                         "pattern_digests"),
              "pattern rows replay deterministically from the seed"),
         exact("overlap.shared_kept", "overlap.chance"),
         WALL]),
    "fig5": BenchSpec(
        "bench_fig5_bp:run_bench",
        {"tasks": "tasks", "pretrain_epochs": "pretrain_epochs",
         "finetune_epochs": "finetune_epochs"},
        [rows("rows", ("task", "rate", "dense_score", "pruned_score", "score_loss",
                       "compression"),
              "BP rows replay deterministically from the seeds/epochs"),
         exact("mean_score_loss"),
         WALL]),
    "table3": BenchSpec(
        "bench_table3_automl:run_bench",
        {"labels": lambda b: list(b["experiments"]), "episodes": "episodes",
         "seed": "seed"},
        [rows("verdicts", ("experiment", "level", "meets_deadline"),
              "per-level deadline verdicts are the paper's timing claim",
              source=_verdict_rows),
         each("experiments",
              within("best_reward", budget=REWARD_DRIFT, kind="floor"),
              length("best_reward_trajectory", "trajectory_len",
                     "the search must keep running the committed episode count"),
              each("levels", within("rt3_score", budget=ACC_DRIFT, kind="floor"),
                   info("latency_ms", note="informational (verdict rows gate the claim)"),
                   key="level"),
              within("rt3_switch_ms", budget=SWITCH_MS_RISE, kind="ceiling",
                     relative=True),
              check("switch_speedup", ">=", committed("min_switch_speedup"),
                    "UB-reload over RT3-switch must stay >= the committed floor "
                    "(the paper's >1000x claim)"),
              info("ub_reload_ms", note="informational (modelled reload)")),
         WALL]),
    "table4": BenchSpec(
        "bench_table4_ablation:run_bench",
        {"tasks": "tasks", "episodes": "episodes", "pretrain_epochs": "pretrain_epochs",
         "finetune_epochs": "finetune_epochs"},
        [rows("rows", ("task", "method", "avg_sparsity", "runs", "improvement",
                       "avg_accuracy", "accuracy_loss"),
              "ablation rows replay deterministically"),
         WALL]),
    "ablations": BenchSpec(
        "bench_design_ablations:run_bench",
        {"episodes": "episodes", "seed": "seed", "pretrain_epochs": "pretrain_epochs"},
        [rows("pattern_size", ("psize", "latency_ms", "overhead_cycles"), EXACT_NOTE),
         rows("governor", ("thresholds", "low_energy_fraction", "total_runs"), EXACT_NOTE),
         rows("kernels", ("kernel", "macs", "index_ops", "weighted_total"), EXACT_NOTE),
         each("space_size",
              within("best_reward", "best_weighted_accuracy", budget=REWARD_DRIFT,
                     kind="floor"),
              key=lambda r: f"theta{r.get('theta')}_m{r.get('m')}"),
         WALL]),
}


def compare(name: str, baseline: dict, fresh: dict) -> List[dict]:
    """Apply bench ``name``'s rules; one finding per checked metric."""
    scope = Scope(baseline, fresh, roots=(baseline, fresh))
    return [f for rule in BENCHES[name].rules for f in rule(scope)]


def render(findings: List[dict], title: str = "") -> str:
    rows = []
    if title:
        rows.append(f"== {title} ==")
    rows += [f"{'metric':<48} {'baseline':>12} {'fresh':>12}  verdict",
             "-" * 88]
    for f in findings:
        base = "-" if f["baseline"] is None else f"{f['baseline']:.4g}"
        new = "-" if f["fresh"] is None else f"{f['fresh']:.4g}"
        verdict = ("PASS" if f["ok"] else "FAIL") if f["gated"] else "info"
        rows.append(f"{f['metric']:<48} {base:>12} {new:>12}  {verdict}")
    return "\n".join(rows)


def _dump(path: pathlib.Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", default="all", choices=["all", *BENCHES],
                        help="which bench(es) to gate")
    parser.add_argument("--results-dir", type=pathlib.Path, default=RESULTS,
                        help="where to read BENCH_<name>.json baselines and "
                             "write BENCH_<name>.fresh.json digests")
    parser.add_argument("--output", type=pathlib.Path, default=None,
                        help=f"comparison report (default <results-dir>/{REPORT_NAME})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="overwrite the selected baselines with the "
                             "fresh digests instead of gating (commit them)")
    args = parser.parse_args(argv)
    selected = list(BENCHES) if args.bench == "all" else [args.bench]
    paths = {name: args.results_dir / f"BENCH_{name}.json" for name in selected}
    missing = [path for path in paths.values() if not path.exists()]
    for path in missing:
        print(f"error: no committed baseline at {path}", file=sys.stderr)
    if missing:
        return 2

    report: dict = {"ok": True, "benches": {}}
    total_failures = 0
    for name in selected:
        # read the baseline before the bench overwrites the digest in place
        baseline = json.loads(paths[name].read_text())
        fresh = BENCHES[name].run(baseline)
        _dump(paths[name].with_suffix(".fresh.json"), fresh)
        if args.update_baseline:
            _dump(paths[name], fresh)
            print(f"[{name}] baseline updated -> {paths[name]}")
            continue
        findings = compare(name, baseline, fresh)
        failures = [f for f in findings if f["gated"] and not f["ok"]]
        total_failures += len(failures)
        report["benches"][name] = {"ok": not failures,
                                   "baseline_path": str(paths[name]),
                                   "findings": findings}
        report["ok"] = report["ok"] and not failures
        print(render(findings, title=name))
        print()

    if args.update_baseline:
        return 0

    report.update(registry=list(BENCHES), selected=selected, failures=total_failures)
    output = args.output or args.results_dir / REPORT_NAME
    output.parent.mkdir(parents=True, exist_ok=True)
    _dump(output, report)
    print(f"report -> {output}")
    if total_failures:
        print(f"\nbench regression: {total_failures} gated metric(s) failed "
              "(if intentional, rerun with --update-baseline and commit)")
        return 1
    print("\nno bench regression detected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
