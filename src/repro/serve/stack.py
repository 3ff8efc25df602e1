"""One-call construction of a demo serving stack.

The `rt3 serve` CLI command and ``benchmarks/bench_serve.py`` serve the
same tiny Transformer through the same ladder/adapter/engine recipe; this
module is the single copy of that recipe so the CLI's behaviour cannot
drift from the bench that is supposed to mirror it.
:class:`StackConfig` is a :class:`~repro.serve.config.ServeConfig` plus
the model-recipe fields, and the built engine holds it by reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.workload import WorkloadProfile, profile_from_model
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve.cache import ArtifactCache
from repro.serve.config import ServeConfig
from repro.serve.engine import ServeEngine


@dataclass(frozen=True)
class StackConfig(ServeConfig):
    """Serving settings plus the demo model recipe (defaults match the bench)."""

    dim: int = 32
    vocab_size: int = 60
    seq_len: int = 12
    max_len: int = 16
    pattern_size: int = 8
    patterns_per_set: int = 3
    sparsities: Sequence[float] = (0.3, 0.5, 0.7, 0.9)
    seed: int = 0
    use_cache: bool = True
    # device memory reserved for resident masks/format conversions; the
    # ArtifactCache evicts size-aware LRU past this budget
    cache_budget_bytes: int = 8 << 20


def build_serving_stack(cfg: Optional[StackConfig] = None
                        ) -> Tuple[TransformerLM, WorkloadProfile, ServeEngine]:
    """Model + workload profile + ready-to-serve offline engine (whose
    :meth:`~ServeEngine.streaming` hands out online sessions)."""
    cfg = cfg or StackConfig()
    model = TransformerLM(TransformerConfig(
        vocab_size=cfg.vocab_size, dim=cfg.dim, num_heads=2,
        ffn_dim=2 * cfg.dim, max_len=cfg.max_len, dropout=0.0,
        seed=cfg.seed)).eval()
    workload = profile_from_model(model, seq_len=cfg.seq_len)
    rng = np.random.default_rng(cfg.seed)
    ladder = {s: random_pattern_set(cfg.pattern_size, s, cfg.patterns_per_set, rng)
              for s in cfg.sparsities}
    adapter = RuntimeAdapter(ladder, workload, manager=MaskManager(model),
                             hardware_pattern_size=cfg.pattern_size)
    cache = (ArtifactCache(budget_bytes=cfg.cache_budget_bytes)
             if cfg.use_cache else None)
    return model, workload, ServeEngine(model, adapter, cfg, cache=cache)
