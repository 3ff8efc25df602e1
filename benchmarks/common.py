"""Shared scaffolding for the per-table/figure benchmark harnesses.

Each ``bench_*`` module reproduces one table or figure of the paper at
laptop scale: it builds the experiment, prints the same rows/series the
paper reports (plus the paper's own numbers for comparison), writes the
rendered table under ``benchmarks/results/`` (human-readable,
informational — never gated) and a machine-readable ``BENCH_<name>.json``
digest that ``scripts/check_bench_regression.py`` diffs against the
committed baseline on every CI run.

Absolute numbers are not expected to match the authors' testbed; the
*shape* (who wins, by roughly what factor) is asserted in the tests and
pinned by the regression gate's rules.  This module also hosts the
finding helpers (row-set equality, drift budgets, the missing-metric
conventions) the gate's rule constructors are built on.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List


from repro.core.controller import ControllerConfig
from repro.core.block_pruning import BlockPruningConfig
from repro.core.rt3 import RT3Config
from repro.core.search_space import SearchSpaceConfig
from repro.core.tasks import GlueTask, LMTask
from repro.core.trainer import TrainConfig, train_plain
from repro.data.glue import GlueTaskConfig, SyntheticGlueTask
from repro.data.wikitext import SyntheticWikiText, WikiTextConfig
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.transformer import TransformerConfig, TransformerLM

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def write_json_result(name: str, payload: Dict) -> pathlib.Path:
    """Persist a machine-readable bench result as ``BENCH_<name>.json``.

    These files give later PRs a perf trajectory to regress against:
    CI archives them, and a future bench can diff its numbers against
    the committed history.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[bench] machine-readable result -> {path}")
    return path


# ---------------------------------------------------------------------------
# experiment builders (kept deliberately small so benches stay minutes-fast)
# ---------------------------------------------------------------------------

def make_lm_task(seed: int = 0, pretrain_epochs: int = 4) -> LMTask:
    """A trained tiny WikiText-2-style LM task."""
    model = TransformerLM(TransformerConfig(
        vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
        num_encoder_layers=2, num_decoder_layers=1,
        max_len=16, dropout=0.0, seed=seed,
    ))
    corpus = SyntheticWikiText(WikiTextConfig(vocab_size=60, num_tokens=6000, seed=7))
    task = LMTask(model, corpus, seq_len=12, batch_size=8,
                  max_train_batches=20, max_eval_batches=6)
    if pretrain_epochs:
        train_plain(task, epochs=pretrain_epochs, lr=3e-3)
    return task


def make_glue_task(task_name: str, seed: int = 0, pretrain_epochs: int = 4) -> GlueTask:
    """A trained tiny DistilBERT GLUE task."""
    data = SyntheticGlueTask(GlueTaskConfig(
        task=task_name, vocab_size=80, num_train=128, num_eval=64,
        seq_len=16, seed=11,
    ))
    cfg = DistilBertConfig(
        vocab_size=80, dim=32, num_heads=2, ffn_dim=64, num_layers=2,
        max_len=24, dropout=0.0, num_labels=max(data.num_labels, 2),
        is_regression=data.is_regression, seed=seed,
    )
    model = DistilBertForSequenceTask(cfg)
    glue = GlueTask(model, data, batch_size=16, max_train_batches=8)
    if pretrain_epochs:
        train_plain(glue, epochs=pretrain_epochs, lr=3e-3)
    return glue


def small_rt3_config(deadline_s: float, episodes: int = 6, seed: int = 0,
                     min_accuracy: float = 0.0) -> RT3Config:
    """RT3 configuration shared by the search-driven benches."""
    return RT3Config(
        deadline_s=deadline_s,
        episodes=episodes,
        min_accuracy=min_accuracy,
        bp=BlockPruningConfig(num_blocks=2, rate=0.3, seed=seed),
        space=SearchSpaceConfig(pattern_size=8, theta=3, patterns_per_set=3,
                                seed=seed),
        controller=ControllerConfig(seed=seed),
        episode_train=TrainConfig(epochs=1, lr=2e-3),
        finetune_train=TrainConfig(epochs=2, lr=2e-3),
        backbone_finetune_epochs=2,
        seed=seed,
    )


def fmt_pct(x: float) -> str:
    return f"{100 * x:.2f}%"


def fmt_runs(x: float) -> str:
    return f"{x:.3e}"


# ---------------------------------------------------------------------------
# finding helpers for scripts/check_bench_regression.py
#
# Every gate rule returns a list of *findings*; one finding per checked
# metric with the shape {metric, baseline, fresh, gated, ok, note}.  The
# helpers below encode the gate-wide conventions:
#   - a metric absent from the *baseline* passes with a note (older
#     baselines predate it);
#   - a metric missing from the *fresh* run fails (the bench stopped
#     reporting a gated number);
#   - wall-clock numbers are recorded but never gated.
# ---------------------------------------------------------------------------

WALL_CLOCK_NOTE = "informational (wall-clock / runner-dependent)"


def canon(x: float, ndigits: int = 9) -> float:
    """Canonical float for digest rows: rounded so exact-equality gating
    compares stable decimals rather than the last ulp of a repr."""
    return round(float(x), ndigits)


def find_info(metric: str, baseline, fresh, note: str = WALL_CLOCK_NOTE) -> dict:
    """An informational finding: shown in the report, never gated."""
    return {"metric": metric, "baseline": baseline, "fresh": fresh,
            "gated": False, "ok": True, "note": note}


def find_check(metric: str, baseline, fresh, ok, note: str) -> dict:
    """A gated finding whose verdict the caller computed (``baseline``
    shows the limit or reference the fresh value is held to)."""
    return {"metric": metric, "baseline": baseline, "fresh": fresh,
            "gated": True, "ok": bool(ok), "note": note}


def find_row_set(metric: str, base_rows, fresh_rows, note: str) -> dict:
    """Gate two collections of canonical row tuples by exact set equality."""
    base_set, fresh_set = set(base_rows), set(fresh_rows)
    return {"metric": metric, "baseline": float(len(base_set)),
            "fresh": float(len(fresh_set)), "gated": True,
            "ok": base_set == fresh_set, "note": note}


def find_exact(metric: str, base, fresh, note: str) -> dict:
    """Gate one deterministic scalar by exact equality."""
    finding = {"metric": metric,
               "baseline": None if base is None else float(base),
               "fresh": None if fresh is None else float(fresh),
               "gated": True}
    if base is None:
        finding.update(ok=True, note="metric absent from baseline; skipped")
    elif fresh is None:
        finding.update(ok=False, note="metric missing from fresh run")
    else:
        finding.update(ok=float(fresh) == float(base), note=note)
    return finding


def find_within(metric: str, base, fresh, *, budget: float, kind: str,
                relative: bool = False, note: str = "") -> dict:
    """Gate one scalar under a drift budget.

    ``kind`` is ``"floor"`` (higher is better: fail when the fresh value
    drops below ``base - budget``), ``"ceiling"`` (lower is better: fail
    when it rises above ``base + budget``) or ``"band"`` (fail when it
    leaves ``base ± budget`` in either direction); with ``relative=True``
    the budget is a fraction of the baseline value.
    """
    finding = {"metric": metric,
               "baseline": None if base is None else float(base),
               "fresh": None if fresh is None else float(fresh),
               "gated": True}
    if base is None:
        finding.update(ok=True, note="metric absent from baseline; skipped")
        return finding
    if fresh is None:
        finding.update(ok=False, note="metric missing from fresh run")
        return finding
    base, fresh = float(base), float(fresh)
    span = abs(base) * budget if relative else budget
    if kind == "floor":
        limit = base - span
        finding.update(ok=fresh >= limit, limit=limit,
                       note=note or f"must stay >= {limit:.4g}")
    elif kind == "ceiling":
        limit = base + span
        finding.update(ok=fresh <= limit, limit=limit,
                       note=note or f"must stay <= {limit:.4g}")
    elif kind == "band":
        finding.update(ok=abs(fresh - base) <= span,
                       note=note or f"must stay within {span:.4g} of baseline")
    else:
        raise ValueError(f"unknown drift kind {kind!r}")
    return finding


def cover_pareto_points(base_front, fresh_front, *, acc_budget: float,
                        runs_rel_budget: float, prefix: str = "pareto") -> List[dict]:
    """One finding per committed Pareto point: it must be matched or
    dominated (within the drift budgets) by some fresh front point.

    A dropped point — no fresh point reaching its accuracy *and* its
    #runs — fails; a fresh front that strictly dominates passes.
    """
    findings = []
    for i, (aw, runs) in enumerate(base_front):
        covered = any(
            q_aw >= aw - acc_budget
            and q_runs >= runs * (1.0 - runs_rel_budget)
            for q_aw, q_runs in fresh_front)
        findings.append(find_check(
            f"{prefix}[{i}]", float(aw), None, covered,
            f"committed front point (Aw={aw:.4f}, runs={runs:.3e}) "
            "must stay covered by the replayed front"))
    return findings
