"""Span tracing from outside the program, for the benchmark's traced run.

The tracer wraps the public entry points of each layer (a repo module)
for the duration of a traced pass and restores them afterwards; nothing
under ``src/`` changes.  Each call becomes one span: name, layer, start,
end, the enclosing span, and the request id where the call names one.
Spans stay in memory; :func:`chrome_trace` turns them into Chrome
trace-event JSON that Perfetto opens, and :func:`self_times` computes
each span's self time — its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int                  # index of the enclosing span, -1 at top
    req: Optional[int] = None    # request id, where the call names one
    tag: object = None           # per-call detail (batch size, compiled?)


def _req_arg(args, kwargs) -> Optional[int]:
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "req_id", None)


def _batch_size(args, kwargs, result, before) -> int:
    return len(args[1])


def _compiled(args, kwargs, result, before) -> bool:
    return args[0].compiles > before


def _tokens_emitted(args, kwargs, result, before) -> int:
    return len(result)


# (layer, "module:Owner" or "module", attribute, request-id reader,
#  (before(args) -> token, tag(args, kwargs, result, token)))
PROBES: Tuple[tuple, ...] = (
    ("serve.streaming", "repro.serve.streaming:StreamingEngine", "submit", _req_arg, None),
    ("serve.streaming", "repro.serve.streaming:StreamingEngine", "submit_decode",
     _req_arg, None),
    ("serve.streaming", "repro.serve.streaming:StreamingEngine", "tick", None, None),
    ("serve.streaming", "repro.serve.streaming:StreamingEngine", "drain", None, None),
    ("serve.batcher", "repro.serve.batcher:AdmissionQueue", "add", _req_arg, None),
    ("serve.batcher", "repro.serve.batcher:AdmissionQueue", "close_due", None, None),
    ("serve.batcher", "repro.serve.batcher:AdmissionQueue", "close_generation", None, None),
    # the engine calls run_padded through its own module's name
    ("serve.batcher", "repro.serve.streaming", "run_padded", None,
     (None, _batch_size)),
    ("serve.sharding", "repro.serve.sharding:Dispatcher", "route", None, None),
    ("serve.sharding", "repro.serve.sharding:Dispatcher", "place", None, None),
    ("serve.sharding", "repro.serve.sharding:DeviceShard", "pop_next", None, None),
    ("core.patterns", "repro.core.patterns:MaskManager", "apply", None, None),
    ("nn.inference", "repro.nn.inference:CompiledForward", "__call__", None,
     (lambda args: args[0].compiles, _compiled)),
    ("nn.inference", "repro.nn.inference:CompiledDecode", "decode_step", None, None),
    ("nn.generation", "repro.nn.generation:DecodeSession", "step", None,
     (None, _tokens_emitted)),
    ("core.runtime_policy", "repro.core.runtime_policy:RuntimeAdapter",
     "feasible_sparsity", None, None),
    ("core.runtime_policy", "repro.core.runtime_policy:RuntimeAdapter", "plan", None, None),
    ("core.trainer", "repro.core.trainer:JointTrainer", "train", None, None),
    ("core.trainer", "repro.core.trainer:JointTrainer", "accuracies", None, None),
    ("core.controller", "repro.core.controller:RNNController", "sample", None, None),
    ("core.controller", "repro.core.controller:RNNController", "update", None, None),
    ("core.rt3", "repro.core.rt3:RT3", "run_level1", None, None),
    ("core.rt3", "repro.core.rt3:RT3", "predict_hardware", None, None),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(p[0] for p in PROBES))


def _resolve(target: str):
    module, _, owner = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, owner) if owner else obj


class Tracer:
    """Records spans around the probed calls while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, name: str, fn: Callable, req_of, hooks):
        spans, stack = self.spans, self._stack
        before, tag_of = hooks if hooks else (None, None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            token = before(args) if before is not None else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[idx] = Span(name, layer, start, clock(), parent)
                raise
            end = clock()
            stack.pop()
            req = req_of(args, kwargs) if req_of is not None else None
            tag = (tag_of(args, kwargs, result, token)
                   if tag_of is not None else None)
            spans[idx] = Span(name, layer, start, end, parent, req, tag)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, target, attr, req_of, hooks in PROBES:
            owner = _resolve(target)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            label = f"{target.partition(':')[2] or target.rsplit('.', 1)[-1]}.{attr}"
            setattr(owner, attr, self._wrap(layer, label, original, req_of, hooks))
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, span.start), min(end, span.end)
            if end <= start:
                continue
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(span.end - span.start - covered)
    return out


def chrome_trace(spans: Sequence[Span]) -> dict:
    """Chrome trace-event JSON (complete events, microseconds)."""
    origin = min((s.start for s in spans), default=0.0)
    selfs = self_times(spans)
    events = []
    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        args = {"span": i, "parent": span.parent, "self_us": round(1e6 * self_s, 3)}
        if span.req is not None:
            args["req"] = span.req
        if span.tag is not None:
            args["tag"] = span.tag
        events.append({"name": span.name, "cat": span.layer, "ph": "X",
                       "ts": round(1e6 * (span.start - origin), 3),
                       "dur": round(1e6 * (span.end - span.start), 3),
                       "pid": 1, "tid": 1, "args": args})
    return {"traceEvents": events, "displayTimeUnit": "ms"}
