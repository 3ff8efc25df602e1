"""One workload in one single-threaded process (started by ``run.py``).

    python3 perfbench/worker.py --workload steady --seed 0 --seconds 5 \
        --trace 0 --spawn-t <perf_counter at spawn>

Set-up is timed from the parent's ``time.perf_counter()`` at spawn (one
system-wide monotonic clock on Linux) to ready-to-time: interpreter
start, imports, stack or task build, the first plan compile and one
warm-up pass.  Then passes run for ``--seconds``, each gated outside its
timing and bracketed by samples of the reference kernel, whose times
scale the pass's host time to reference speed (``reference.py``).

The last line of standard output is one JSON object: with ``--trace 0``
the raw material of the end-to-end metrics (set-up time, every pass's
host time, the deterministic outcome), which ``run.py`` combines across
workers; with ``--trace 1`` the per-layer metrics of interleaved
untraced and traced passes.
"""

from __future__ import annotations

import os

# pinned before numpy loads: one BLAS/OpenMP thread, so the workload is
# single-threaded and a run measures one core's work
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from measure import LayerStats, host_estimate  # noqa: E402
from reference import NOMINAL_S, Reference  # noqa: E402
from tracing import Tracer, chrome_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".perfbench"
MIN_PASSES = 2
# spans kept for the Chrome trace file: the first traced pass, capped
TRACE_SPAN_CAP = 200_000


def _check_first_run(name: str, seed: int, sim: dict) -> list:
    """The simulated outcome must equal the first run of this seed."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"sim-{name}-seed{seed}.json"
    current = json.loads(json.dumps(sim))
    if path.exists():
        first = json.loads(path.read_text())
        if first != current:
            return [f"simulated outcome differs from the first run of seed "
                    f"{seed}: {current} != {first}"]
        return []
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current))
    os.replace(tmp, path)
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn-t", type=float, required=True)
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    warm = workload.warm_up()
    setup_s = time.perf_counter() - args.spawn_t
    first = workload.outcome(warm)
    del warm
    reference = Reference()
    ref_before = reference.sample_s()
    refs = [ref_before]
    failures = list(first.failures)
    outcomes, plain, traced, raw = [], [], [], []
    stats = LayerStats()
    spans_out = None
    start = time.perf_counter()
    while len(plain) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        for traced_pass in ((False, True) if args.trace else (False,)):
            tracer = Tracer() if traced_pass else None
            if tracer is not None:
                with tracer:
                    p = workload.run_pass()
            else:
                p = workload.run_pass()
            ref_after = reference.sample_s()
            refs.append(ref_after)
            pass_s = p.wall_s * NOMINAL_S / (0.5 * (ref_before + ref_after))
            ref_before = ref_after
            o = workload.outcome(p)
            failures.extend(o.failures)
            outcomes.append(o)
            if tracer is not None:
                traced.append(pass_s)
                stats.add_pass(tracer.spans, p.wall_s, workload.work(o)["units"], p.report)
                if spans_out is None:
                    spans_out = tracer.spans[:TRACE_SPAN_CAP]
            else:
                plain.append(pass_s)
                raw.append(p.wall_s)
            del p, tracer
            gc.collect()
    failures.extend(_check_first_run(args.workload, args.seed, first.sim))

    out = {"failures": failures, "outcomes": [o.counts() for o in outcomes]}
    if args.trace:
        metrics = stats.metrics(host_estimate(traced) / host_estimate(plain))
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        (OUT / f"trace-{stem}.json").write_text(json.dumps(chrome_trace(spans_out)))
        (OUT / f"layers-{stem}.json").write_text(json.dumps(
            {"metrics": metrics, "spans": stats.summary(),
             "traced_passes": stats.passes, "unit": workload.unit}, indent=1))
        out["metrics"] = metrics
    else:
        # set-up is a single sample: scale it by the worker's median kernel
        # sample, its typical speed
        out.update(
            setup_s=setup_s * NOMINAL_S / statistics.median(refs), passes_s=plain,
            sim=first.sim, work=workload.work(first),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            raw={"setup_s": setup_s, "passes_s": raw, "kernel_s": refs})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
