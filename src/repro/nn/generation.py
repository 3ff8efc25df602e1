"""Autoregressive generation for :class:`~repro.nn.transformer.TransformerLM`.

Supports the paper's deployment story ("local language translation for
on-line interactive events"): greedy and top-k sampling continuations, and
a latency-budgeted helper that reports whether each generated token met
its per-token deadline under a hardware model — the per-token analogue of
the per-inference timing constraint T.

The public surface is :class:`GenerationConfig` (the sampling knobs as one
value object) plus :class:`DecodeSession` (``submit_prompt`` / ``step`` /
``finished``): a session owns a set of decode streams, advances every
unfinished stream by one token per ``step`` and batches equal-length
contexts through the compiled KV-cached decode plane
(:class:`~repro.nn.inference.CompiledDecode`).  Streams may be submitted
at any point — they join the rolling batch at the next token boundary —
and each stream's float64 output is bit-identical (``==``) to running it
alone through the eager Tensor forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.inference import CompiledDecode, UnsupportedModel, compile_decode
from repro.nn.transformer import TransformerLM
from repro.tensor.tensor import Tensor, no_grad

__all__ = ["DecodeSession", "GenerationConfig", "GenerationResult",
           "generate_with_deadline", "sample_token"]


@dataclass
class GenerationResult:
    """Tokens plus per-step bookkeeping."""

    tokens: np.ndarray  # (prompt + generated,)
    generated: np.ndarray  # just the continuation
    logprobs: List[float]


@dataclass
class GenerationConfig:
    """Per-stream sampling knobs, replacing the old kwarg sprawl.

    ``top_k=None`` is greedy decoding; otherwise sample from the top-k
    renormalized probabilities at the given temperature with a
    per-stream ``default_rng(seed)``.  ``eos_id`` (optional) ends the
    stream early once that token is emitted — the eos token itself is
    kept in the continuation.
    """

    max_new_tokens: int = 16
    top_k: Optional[int] = None
    temperature: float = 1.0
    seed: Optional[int] = None
    eos_id: Optional[int] = None

    def validate(self) -> "GenerationConfig":
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.top_k is not None and self.top_k < 1:
            raise ValueError("top_k must be >= 1 when given")
        return self


def sample_token(logits: np.ndarray, cfg: GenerationConfig,
                 rng: np.random.Generator) -> Tuple[int, float]:
    """One sampling step on float64 next-token ``logits``.

    Expression-for-expression the historical ``generate()`` arithmetic
    (shift-max softmax, top-k renormalize, one ``rng.choice`` draw), so
    bit-identical logits yield identical tokens and logprobs.
    """
    logits = logits / cfg.temperature
    logits = logits - logits.max()
    probs = np.exp(logits)
    probs /= probs.sum()
    if cfg.top_k is None:
        nxt = int(probs.argmax())
    else:
        k = min(cfg.top_k, len(probs))
        top = np.argsort(probs)[::-1][:k]
        p = probs[top] / probs[top].sum()
        nxt = int(rng.choice(top, p=p))
    return nxt, float(np.log(probs[nxt] + 1e-12))


class _Stream:
    __slots__ = ("sid", "tokens", "prompt_len", "cfg", "rng", "logprobs",
                 "state", "emitted", "done")

    def __init__(self, sid: int, prompt: np.ndarray,
                 cfg: GenerationConfig) -> None:
        self.sid = sid
        self.tokens = prompt.copy()
        self.prompt_len = len(prompt)
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.logprobs: List[float] = []
        self.state = None
        self.emitted = 0
        self.done = False


class DecodeSession:
    """A rolling batch of decode streams over one model.

    ``submit_prompt`` opens a stream (joining at the next token
    boundary), ``step`` advances every unfinished stream by exactly one
    token, ``finished``/``result`` read a stream out.  Streams are
    grouped by context length each step — no padding — so every stream's
    tokens and logprobs are bit-identical to a solo run regardless of
    what joins or leaves the batch around it.

    ``compiled=True`` (default) decodes through the shared
    :class:`~repro.nn.inference.CompiledDecode` plane (pass ``decoder=``
    to share one across sessions, as the serving engine does);
    ``compiled=False`` keeps the eager per-stream Tensor forward under
    ``no_grad`` — same bits, no plan.  The session puts the model in
    eval mode and leaves it there; callers that need train mode back
    restore it themselves.
    """

    def __init__(self, model: TransformerLM,
                 config: Optional[GenerationConfig] = None, *,
                 compiled: bool = True, dtype: str = "float64",
                 decoder: Optional[CompiledDecode] = None) -> None:
        self.model = model
        self.config = (config or GenerationConfig()).validate()
        model.eval()
        if decoder is not None:
            self.decoder: Optional[CompiledDecode] = decoder
        elif compiled:
            try:
                self.decoder = compile_decode(model, dtype=dtype)
            except UnsupportedModel:
                self.decoder = None
        else:
            self.decoder = None
        self._max_len = model.cfg.max_len
        self._streams: Dict[int, _Stream] = {}
        self._next_sid = 0

    # ------------------------------------------------------------------
    def submit_prompt(self, prompt: np.ndarray,
                      config: Optional[GenerationConfig] = None) -> int:
        """Open a new stream; returns its id.  The stream joins the
        rolling batch at the next ``step`` boundary."""
        cfg = (config or self.config).validate()
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("prompt cannot be empty")
        sid = self._next_sid
        self._next_sid += 1
        stream = _Stream(sid, prompt, cfg)
        if self.decoder is not None:
            stream.state = self.decoder.new_state()
        self._streams[sid] = stream
        return sid

    @property
    def active_ids(self) -> List[int]:
        return [s.sid for s in self._streams.values() if not s.done]

    def finished(self, stream_id: Optional[int] = None) -> bool:
        """Whether one stream (or, with no argument, all of them) is done."""
        if stream_id is not None:
            return self._streams[stream_id].done
        return not self.active_ids

    def step(self) -> Dict[int, int]:
        """Advance every unfinished stream one token; ``{sid: token}``."""
        active = [s for s in self._streams.values() if not s.done]
        if not active:
            return {}
        emitted: Dict[int, int] = {}
        if self.decoder is None:
            for s in active:
                context = s.tokens[-self._max_len:]
                with no_grad():
                    logits = self.model(Tensor(context[None, :])).data[0, -1]
                self._emit(s, logits, emitted)
            return emitted
        groups: Dict[Tuple[int, bool], List[_Stream]] = {}
        for s in active:
            # once the context window slides, cached K/V rows describe
            # shifted positions — signal the decode plane to run full
            length = min(len(s.tokens), self._max_len)
            sliding = len(s.tokens) > self._max_len
            groups.setdefault((length, sliding), []).append(s)
        for key in sorted(groups):
            members = groups[key]
            contexts = np.stack([s.tokens[-self._max_len:] for s in members])
            states = [s.state for s in members]
            logits = self.decoder.decode_step(contexts, states, full=key[1])
            for i, s in enumerate(members):
                self._emit(s, logits[i], emitted)
        return emitted

    def _emit(self, s: _Stream, logits: np.ndarray,
              emitted: Dict[int, int]) -> None:
        nxt, logprob = sample_token(logits, s.cfg, s.rng)
        s.tokens = np.append(s.tokens, nxt)
        s.logprobs.append(logprob)
        s.emitted += 1
        emitted[s.sid] = nxt
        if (s.emitted >= s.cfg.max_new_tokens
                or (s.cfg.eos_id is not None and nxt == s.cfg.eos_id)):
            s.done = True
            if s.state is not None:
                s.state.release()
                s.state = None

    def run(self) -> None:
        """Step until every stream has finished."""
        while not self.finished():
            self.step()

    def result(self, stream_id: int) -> GenerationResult:
        s = self._streams[stream_id]
        return GenerationResult(s.tokens, s.tokens[s.prompt_len:],
                                s.logprobs)

    def close(self) -> None:
        """Release every stream's K/V rows back to the scratch pool."""
        for s in self._streams.values():
            if s.state is not None:
                s.state.release()
                s.state = None


def _generate(model: TransformerLM, prompt: np.ndarray, max_new_tokens: int,
              top_k: Optional[int] = None, temperature: float = 1.0,
              seed: Optional[int] = None) -> GenerationResult:
    """Continue ``prompt`` for ``max_new_tokens`` steps in a one-stream
    session, leaving the model in train mode."""
    cfg = GenerationConfig(max_new_tokens=max_new_tokens, top_k=top_k,
                           temperature=temperature, seed=seed).validate()
    prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
    if prompt.size == 0:
        raise ValueError("prompt cannot be empty")
    session = DecodeSession(model, cfg)
    try:
        sid = session.submit_prompt(prompt)
        session.run()
        result = session.result(sid)
    finally:
        session.close()
        # the historical contract: generation flipped the model back to
        # train mode on the way out
        model.train()
    return result


def generate_with_deadline(model: TransformerLM, prompt: np.ndarray,
                           max_new_tokens: int, workload, level,
                           deadline_s: float, sparsity: float,
                           latency_model=None) -> Tuple[GenerationResult, List[bool]]:
    """Generate while checking each token's predicted on-device latency.

    Returns the generation plus a per-token "met deadline" list computed
    from the hardware model for the configured (level, sparsity).  Useful
    for the interactive-translation scenario where the constraint applies
    per produced token.
    """
    from repro.hardware.latency import LatencyModel, SparsityKind

    lm = latency_model or LatencyModel()
    per_token = lm.latency_s(workload, level, sparsity, SparsityKind.PATTERN)
    result = _generate(model, prompt, max_new_tokens)
    met = [per_token <= deadline_s] * len(result.generated)
    return result, met
