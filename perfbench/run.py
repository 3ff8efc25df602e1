"""The repo's benchmark: one workload per call, one JSON line of metrics.

    python3 perfbench/run.py --workload steady|fleet|decode|search \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload runs in single-threaded
worker processes (``worker.py``), one after another.  With ``--trace 0``
three workers each set up, then time passes for a third of ``--seconds``;
set-up time and peak memory are their medians, and the host-time
estimate is the median pass over all three (see ``measure.py``), all
host times at reference speed (``reference.py``; the raw figures land in
``.perfbench/``).  With ``--trace 1`` one worker interleaves untraced and
traced passes for ``--seconds`` and reports the per-layer metrics; the
Chrome trace (open it in Perfetto) and a per-call-site summary land in
``.perfbench/``.  The last line of standard output carries the metrics.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from measure import end_to_end, host_estimate, tally

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steady", "fleet", "decode", "search")
WORKERS = 3
WORKER_TIMEOUT_S = 50


def _worker(args, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--spawn-t", repr(time.perf_counter())]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=WORKER_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return json.loads(lines[-1])


def _measure(args) -> dict:
    if args.trace:
        result = _worker(args, args.seconds)
        return dict(tally(result["outcomes"], result["failures"]),
                    metrics=result["metrics"], failures=result["failures"])
    results = [_worker(args, args.seconds / WORKERS) for _ in range(WORKERS)]
    failures = [f for r in results for f in r["failures"]]
    for r in results[1:]:
        if r["sim"] != results[0]["sim"]:
            failures.append(f"workers disagree on the simulated outcome: "
                            f"{r['sim']} != {results[0]['sim']}")
    verdict = tally([o for r in results for o in r["outcomes"]], failures)
    metrics = end_to_end(
        host_estimate([s for r in results for s in r["passes_s"]]),
        results[0]["work"], results[0]["sim"],
        statistics.median(r["setup_s"] for r in results),
        statistics.median(r["peak_rss_mb"] for r in results), verdict)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    (out / f"raw-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps([r["raw"] for r in results]))
    return dict(verdict, metrics=metrics, failures=failures)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = _measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError,
            KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    for line in run["failures"][:20]:
        print(f"perfbench gate: {line}", file=sys.stderr)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in run["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
