"""The benchmark's four workloads: seeded inputs, timed passes, the gate.

Every serving workload shares one shape.  Set-up builds the demo stack
(model, sparsity ladder, adapter, artifact cache) through the public
``build_serving_stack`` and generates a seeded request trace here, in the
benchmark; the program only ever receives the generated requests.  A
*pass* opens a fresh :class:`~repro.serve.streaming.StreamingEngine`
session on that stack, feeds the whole trace and drains it:

- arrivals are an open loop in *simulated* time — the trace stamps them,
  so simulated queues can grow;
- in *host* time one closed-loop caller submits each request, ticks the
  loop to the previous arrival instant (the feeding discipline of
  ``StreamingEngine.play``) and drains at the end, as fast as the engine
  returns.  No host-time schedule exists, so generator lateness does not
  apply.

A fresh session per pass replays the identical simulated timeline (the
sessions share the warm artifact cache and the installed masks, which
change host time only), so every pass does the same work and must
produce the same simulated outcome bit for bit; the gate checks it.

The ``search`` workload repeats one fixed-seed RT3 search (level-1 block
pruning, heuristic seed, REINFORCE episodes, final fine-tune) from the
same pretrained weights.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.serve.streaming as streaming
from repro.core.block_pruning import BlockPruningConfig
from repro.core.controller import ControllerConfig
from repro.core.runtime_policy import RuntimeAdapter
from repro.core.rt3 import RT3, RT3Config
from repro.core.search_space import SearchSpaceConfig
from repro.core.tasks import LMTask
from repro.core.trainer import TrainConfig, train_plain
from repro.data.wikitext import SyntheticWikiText, WikiTextConfig
from repro.hardware.dvfs import DVFSTable
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import paper_scale_transformer
from repro.nn.generation import DecodeSession, GenerationConfig
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    InferenceRequest,
    StackConfig,
    StreamingEngine,
    build_serving_stack,
    flaky_fault_overlay,
)
from repro.tensor.tensor import Tensor, no_grad

# completed outputs the gate re-checks per pass, drawn from a generator
# seeded by the workload seed
GATE_SAMPLE = 8
VOCAB = 60


@dataclass
class Pass:
    """What one pass measured and produced."""

    wall_s: float                 # host seconds, session start to drained
    submitted: int                # units of work handed to the program
    results: list                 # completions released by tick/drain
    shed: int = 0
    cancelled: int = 0
    report: object = None         # the session's ServeReport (counters)
    tokens: int = 0               # tokens the completed work processed


@dataclass
class Outcome:
    """The deterministic part of a pass, after the gate."""

    sim: dict                     # must repeat exactly for a seed
    attempted: int                # operations handed to the program
    requests: int                 # requests submitted
    completed: int                # requests completed
    slo_hits: int                 # requests completed within their SLO
    tokens: int
    failures: List[str] = field(default_factory=list)

    def counts(self) -> dict:
        return {"attempted": self.attempted, "requests": self.requests,
                "completed": self.completed, "slo_hits": self.slo_hits}


@dataclass
class RequestTemplate:
    """A generated request, instantiated afresh for every pass (the engine
    restamps degraded requests in place, so objects are never reused)."""

    req_id: int
    tokens: np.ndarray
    arrival_s: float
    deadline_s: float
    level_name: str
    slo_s: float
    tenant: str = "default"
    max_new_tokens: int = 0       # > 0 marks a decode stream

    def make(self) -> InferenceRequest:
        return InferenceRequest(self.req_id, self.tokens,
                                arrival_s=self.arrival_s,
                                deadline_s=self.deadline_s,
                                level_name=self.level_name, slo_s=self.slo_s,
                                tenant=self.tenant)


def _dense_latency_s(workload, level_name: str) -> float:
    return LatencyModel().latency_s(workload, DVFSTable()[level_name], 0.0,
                                    SparsityKind.DENSE)


def _tokens(rng: np.random.Generator, length: int) -> np.ndarray:
    # token 0 is the pad id
    return rng.integers(1, VOCAB, size=length, dtype=np.int64)


def _percentiles(values_ms) -> Dict[str, float]:
    values_ms = np.asarray(values_ms, dtype=np.float64)
    return {"sim_p50_ms": float(np.percentile(values_ms, 50)),
            "sim_p99_ms": float(np.percentile(values_ms, 99))}


class Workload:
    """What every workload shares: a seed and the repeat check."""

    name = ""
    unit = "req"   # per-layer unit: a completed request, token or candidate

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._first_sim: Optional[dict] = None

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def warm_up(self) -> Pass:
        return self.run_pass()

    def _check_repeat(self, sim: dict) -> List[str]:
        """Every pass's deterministic outcome must equal the first's."""
        if self._first_sim is None:
            self._first_sim = sim
            return []
        if sim != self._first_sim:
            return [f"simulated outcome differs between passes: {sim} != "
                    f"{self._first_sim}"]
        return []


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------

class ServingWorkload(Workload):
    """Shared pass driver, metrics and gate of the serving workloads."""

    requests = 0
    stack: StackConfig

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.model, self.profile, self.engine = build_serving_stack(self.stack)
        self.templates = self.make_trace(np.random.default_rng(seed))
        self.engine.faults = self.faults()
        # a session's shards start from the adapter's installed rung, which
        # every executed batch overwrites; restoring it per pass is what
        # makes every pass replay the identical simulated timeline
        self._provisioned = self.engine.adapter.active_sparsity
        self._gate_rng = np.random.default_rng([seed, 1])
        # request id -> length its batch was padded to (see warm_up)
        self.padded_len: Dict[int, int] = {}

    # -- inputs --------------------------------------------------------
    def make_trace(self, rng: np.random.Generator) -> List[RequestTemplate]:
        raise NotImplementedError

    def faults(self):
        return None

    # -- passes ----------------------------------------------------------
    def warm_up(self) -> Pass:
        """One untimed pass, recording how each request's batch was padded."""
        with self._record_padding():
            return self.run_pass()

    @contextmanager
    def _record_padding(self):
        original = streaming.run_padded

        def recording(model, requests, pad_id=0, forward=None):
            longest = max(r.length for r in requests)
            for r in requests:
                self.padded_len[r.req_id] = longest
            return original(model, requests, pad_id, forward)

        streaming.run_padded = recording
        try:
            yield
        finally:
            streaming.run_padded = original

    def _submit(self, session, template: RequestTemplate) -> None:
        session.submit(template.make())

    def run_pass(self) -> Pass:
        self.engine.adapter.active_sparsity = self._provisioned
        start = time.perf_counter()
        session = self.engine.streaming()
        results: list = []
        prev: Optional[float] = None
        for template in self.templates:
            if prev is not None and template.arrival_s > prev:
                results.extend(session.tick(prev))
            self._submit(session, template)
            prev = template.arrival_s
        results.extend(session.drain())
        wall = time.perf_counter() - start
        report = session.report()
        return Pass(wall_s=wall, submitted=len(self.templates), results=results,
                    shed=report.num_shed, cancelled=report.num_cancelled,
                    report=report, tokens=self.work_tokens(results))

    def work(self, o: Outcome) -> dict:
        """A pass's deterministic work: the divisors of the host-time
        metrics (per completed request; one pass is one episode) and the
        per-layer unit (a completed request, or a generated token)."""
        units = o.tokens if self.unit == "token" else o.completed
        return {"requests": max(1, o.completed), "episodes": 1,
                "tokens": o.tokens, "units": units}

    def work_tokens(self, results) -> int:
        """Input tokens the completed requests pushed through the model."""
        return sum(r.request.length for r in results)

    # -- the gate and the deterministic outcome ------------------------
    def outcome(self, p: Pass) -> Outcome:
        """Gate one pass (outside timing) and keep its deterministic part."""
        failures: List[str] = []
        if len(p.results) + p.shed + p.cancelled != p.submitted:
            failures.append(
                f"conservation: {len(p.results)} completed + {p.shed} shed + "
                f"{p.cancelled} cancelled != {p.submitted} submitted")
        ids = [r.request.req_id for r in p.results]
        if len(set(ids)) != len(ids):
            failures.append("a request completed more than once")
        if p.results:
            picks = self._gate_rng.choice(len(p.results),
                                          size=min(GATE_SAMPLE, len(p.results)),
                                          replace=False)
            for idx in sorted(int(i) for i in picks):
                problem = self.check_output(p.results[idx])
                if problem:
                    failures.append(problem)
        hits = sum(1 for r in p.results if r.met_slo)
        lat_ms = [1e3 * r.latency_s for r in p.results] or [float("nan")]
        sim = dict(_percentiles(lat_ms), completed=len(p.results), shed=p.shed,
                   cancelled=p.cancelled, slo_hits=hits)
        failures.extend(self._check_repeat(sim))
        return Outcome(sim=sim, attempted=p.submitted, requests=p.submitted,
                       completed=len(p.results), slo_hits=hits, tokens=p.tokens,
                       failures=failures)

    def install(self, sparsity: float) -> None:
        """Install the ladder rung a completion was served at."""
        adapter = self.engine.adapter
        adapter.manager.apply(dict(adapter.candidates)[sparsity])

    def check_output(self, result) -> Optional[str]:
        """A served output must equal (``==``) a solo eager forward of the
        same request, padded to the length its batch was padded to: the
        request alone, its batch-mates removed."""
        req = result.request
        if req.req_id not in self.padded_len:
            return f"request {req.req_id}: no batch record from the warm-up"
        length = self.padded_len[req.req_id]
        tokens = np.zeros((1, length), dtype=np.int64)
        tokens[0, :req.length] = req.tokens
        self.install(result.sparsity)
        with no_grad():
            if length > req.length:
                mask = np.zeros((1, 1, 1, length), dtype=bool)
                mask[0, 0, 0, req.length:] = True
                solo = self.model(Tensor(tokens), attn_mask=mask).data[0]
            else:
                solo = self.model(Tensor(tokens)).data[0]
        solo = solo[:req.length]
        if solo.shape != result.output.shape or not np.array_equal(solo, result.output):
            return f"request {req.req_id}: served output != solo forward"
        return None


class Steady(ServingWorkload):
    """The steady translation scenario on one device at one rung."""

    name = "steady"
    requests = 1024
    stack = StackConfig(devices=1)

    def make_trace(self, rng):
        level = "l6"
        deadline = 1.7 * _dense_latency_s(self.profile, level)
        out, t = [], 0.0
        for i in range(self.requests):
            t += float(rng.uniform(0.8, 1.2)) / 4000.0
            out.append(RequestTemplate(i, _tokens(rng, int(rng.integers(10, 13))),
                                       t, deadline, level, deadline + 0.015))
        return out


class Fleet(ServingWorkload):
    """Rung-alternating bursts of 16 on 128 devices under every defense."""

    name = "fleet"
    requests = 512
    burst = 16
    # (V/F level, compute-deadline factor) per burst: the rung alternates
    # every burst, and the last family is infeasible at every rung, so the
    # degrade policy must rescue it or shed it.
    families = (("l6", 1.7), ("l4", 1.2), ("l6", 1.7), ("l4", 0.95))
    tenants = {"t0": 4.0, "t1": 2.0, "t2": 1.0, "t3": 1.0}
    stack = StackConfig(devices=128, policy="switch-aware",
                        preempt_policy="running", shed_policy="degrade",
                        max_queue=16, tenant_weights=dict(tenants),
                        window_s=0.002, probe_backoff_s=0.005)

    def make_trace(self, rng):
        names = sorted(self.tenants)
        out, t = [], 0.0
        for i in range(self.requests):
            level, factor = self.families[(i // self.burst) % len(self.families)]
            if i and i % self.burst == 0:
                t += float(rng.uniform(0.004, 0.008))
            t += float(rng.uniform(0.0, 2e-4))
            deadline = factor * _dense_latency_s(self.profile, level)
            out.append(RequestTemplate(i, _tokens(rng, int(rng.integers(2, 17))),
                                       t, deadline, level, deadline + 0.005,
                                       tenant=names[i % len(names)]))
        return out

    def faults(self):
        # one fixed outage schedule, scaled to the trace: the simulated
        # tail is set by which shards fail when, so fixing it keeps the
        # tail metrics comparable across traffic seeds
        horizon = self.templates[-1].arrival_s
        return flaky_fault_overlay(self.stack.devices, horizon, seed=0)


class Decode(ServingWorkload):
    """Every request is a KV-cached decode stream, on two devices."""

    name = "decode"
    unit = "token"
    requests = 256
    # streams arrive in groups of eight that share rolling decode batches,
    # joining and leaving at token boundaries
    group = 8
    stack = StackConfig(devices=2)

    def make_trace(self, rng):
        level = "l6"
        deadline = 1.7 * _dense_latency_s(self.profile, level)
        out, t = [], 0.0
        for i in range(self.requests):
            if i and i % self.group == 0:
                t += float(rng.uniform(3e-3, 5e-3))
            t += float(rng.uniform(0.0, 1e-4))
            out.append(RequestTemplate(i, _tokens(rng, int(rng.integers(3, 9))),
                                       t, deadline, level, deadline + 0.05,
                                       max_new_tokens=int(rng.integers(3, 7))))
        return out

    def _submit(self, session, template):
        session.submit_decode(
            template.make(),
            GenerationConfig(max_new_tokens=template.max_new_tokens))

    def work_tokens(self, results) -> int:
        """Generated tokens."""
        return sum(len(r.output.generated) for r in results)

    def check_output(self, result) -> Optional[str]:
        """Tokens and logprobs must equal (``==``) an eager re-decode."""
        self.install(result.sparsity)
        cfg = GenerationConfig(max_new_tokens=len(result.output.generated))
        session = DecodeSession(self.model, cfg, compiled=False)
        sid = session.submit_prompt(result.request.tokens)
        session.run()
        eager = session.result(sid)
        if (not np.array_equal(eager.tokens, result.output.tokens)
                or eager.logprobs != result.output.logprobs):
            return f"stream {result.request.req_id}: decode != eager re-decode"
        return None


# ---------------------------------------------------------------------------
# search workload
# ---------------------------------------------------------------------------

class CountingLMTask(LMTask):
    """The tiny LM task, counting the training tokens it hands out."""

    tokens = 0

    def train_batches(self):
        for x, y in super().train_batches():
            self.tokens += int(np.asarray(x).size)
            yield x, y


class Search(Workload):
    """RT3 level-1 block pruning + RL pattern-set search on the tiny LM task.

    The search runs with one fixed seed (task, pruning, search space and
    controller), so every run repeats the same computation; ``seed``
    drives the deployment trace.  After the first search, outside timing,
    the searched configuration is deployed: a battery-drain trace (the
    governor walks the V/F level down l6 -> l4 -> l3 while the paper's
    deadline T holds) is served through the runtime adapter, switching
    pattern sets per level.  Its completions give the search's simulated
    latency, SLO and completion metrics.
    """

    name = "search"
    unit = "episode"
    episodes = 4
    deadline_s = 0.104
    deploy_requests = 1024

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        dim = 16
        self.model = TransformerLM(TransformerConfig(
            vocab_size=VOCAB, dim=dim, num_heads=2, ffn_dim=2 * dim, max_len=16,
            dropout=0.0, seed=0))
        corpus = SyntheticWikiText(WikiTextConfig(vocab_size=VOCAB, num_tokens=3000))
        self.task = CountingLMTask(self.model, corpus, seq_len=12, batch_size=8,
                                   max_train_batches=6, max_eval_batches=3)
        train_plain(self.task, epochs=1, lr=3e-3)
        self.pretrained = self.model.state_dict()
        self.workload = paper_scale_transformer()
        self.deploy_trace = self._deploy_trace(np.random.default_rng(seed))
        self._deployed: Optional[dict] = None

    def _deploy_trace(self, rng) -> List[RequestTemplate]:
        # bursts of 1-6 near-simultaneous requests about a second apart: a
        # burst batches together and drains before the next, so latency
        # is set by burst position, not by an unstable queue
        levels = ("l6", "l4", "l3")
        out, t, left = [], 0.0, 0
        for i in range(self.deploy_requests):
            if left == 0:
                left = int(rng.integers(1, 7))
                t += float(rng.uniform(0.8, 1.2))
            left -= 1
            t += float(rng.uniform(0.0, 2e-3))
            level = levels[i * len(levels) // self.deploy_requests]
            out.append(RequestTemplate(i, _tokens(rng, int(rng.integers(6, 13))), t,
                                       self.deadline_s, level, self.deadline_s + 0.3))
        return out

    def config(self) -> RT3Config:
        return RT3Config(
            deadline_s=self.deadline_s, episodes=self.episodes, min_accuracy=0.0,
            bp=BlockPruningConfig(num_blocks=2, rate=0.3, seed=0),
            space=SearchSpaceConfig(pattern_size=8, theta=3, patterns_per_set=3, seed=0),
            controller=ControllerConfig(seed=0),
            episode_train=TrainConfig(epochs=1, lr=2e-3),
            finetune_train=TrainConfig(epochs=1, lr=2e-3),
            backbone_finetune_epochs=1, seed=0)

    @property
    def candidates(self) -> int:
        """Evaluated candidates per search: the heuristic seed, the RL
        episodes and the final fine-tune."""
        return self.episodes + 2

    def work(self, o: Outcome) -> dict:
        """Host time is per evaluated candidate: request, episode and
        per-layer unit alike."""
        return {"requests": self.candidates, "episodes": self.candidates,
                "tokens": o.tokens, "units": self.candidates}

    def run_pass(self) -> Pass:
        self.model.load_state_dict(self.pretrained)
        self.task.tokens = 0
        rt3 = RT3(self.task, self.workload, self.config())
        start = time.perf_counter()
        result = rt3.search()
        wall = time.perf_counter() - start
        return Pass(wall_s=wall, submitted=self.candidates,
                    results=[result, rt3], tokens=self.task.tokens)

    def deploy(self, result, rt3) -> list:
        """Serve the deployment trace on the searched configuration."""
        space = rt3.space
        ladder = {space.total_sparsity(pset.sparsity): pset
                  for pset in result.best.pattern_sets.values()}
        adapter = RuntimeAdapter(ladder, self.workload, manager=rt3.manager,
                                 hardware_pattern_size=space.cfg.hardware_pattern_size)
        self.model.eval()
        engine = StreamingEngine(self.model, adapter, max_batch=4, max_wait_s=0.01)
        return engine.play(t.make() for t in self.deploy_trace)

    def outcome(self, p: Pass) -> Outcome:
        """The searched rewards, and the deployed configuration's service
        (served once per run: the search repeats exactly, which this checks)."""
        result, rt3 = p.results
        terms = [h.terms for h in result.history]
        search = dict(best_reward=max(t.reward for t in terms),
                      rewards=[t.reward for t in terms],
                      final_accuracies=sorted(result.final_accuracies.items()))
        failures = []
        if len(terms) + 1 != self.candidates:
            failures.append(f"search evaluated {len(terms) + 1} candidates, "
                            f"expected {self.candidates}")
        failures.extend(self._check_repeat(search))
        if self._deployed is None:
            served = self.deploy(result, rt3)
            self._deployed = dict(
                _percentiles([1e3 * r.latency_s for r in served] or [float("nan")]),
                completed=len(served), slo_hits=sum(1 for r in served if r.met_slo))
        deployed = self._deployed
        if deployed["completed"] != len(self.deploy_trace):
            failures.append(f"deployment served {deployed['completed']} of "
                            f"{len(self.deploy_trace)} requests")
        return Outcome(sim=dict(search, **deployed),
                       attempted=self.candidates + len(self.deploy_trace),
                       requests=len(self.deploy_trace),
                       completed=deployed["completed"], slo_hits=deployed["slo_hits"],
                       tokens=p.tokens, failures=failures)


WORKLOADS = {cls.name: cls for cls in (Steady, Fleet, Decode, Search)}
