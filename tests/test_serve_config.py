"""ServeConfig: every serving rule checked once, at construction."""

import dataclasses

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.workload import profile_from_model
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    DecodeOptions,
    FaultPlan,
    ServeConfig,
    ServeEngine,
    StackConfig,
    StreamingEngine,
    build_serving_stack,
)

LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           max_len=16, dropout=0.0, seed=3)


def model_and_adapter():
    model = TransformerLM(LM_CFG).eval()
    wl = profile_from_model(model, seq_len=12)
    ladder = {s: random_pattern_set(8, s, 2, np.random.default_rng(0))
              for s in (0.3, 0.7)}
    return model, RuntimeAdapter(ladder, wl, manager=MaskManager(model),
                                 hardware_pattern_size=8)


# one case per rule: (field named in the message, offending settings)
RULES = [
    ("max_batch", dict(max_batch=0)),
    ("window_s", dict(window_s=float("inf"))),
    ("devices", dict(devices=0)),
    ("policy", dict(policy="fastest-first")),
    ("drain_policy", dict(drain_policy="lifo")),
    ("fairness_window", dict(fairness_window=0)),
    ("adaptive_low_threshold", dict(adaptive_low_threshold=0.5)),
    ("max_new_tokens", dict(decode=DecodeOptions(max_new_tokens=0))),
    ("faults", dict(devices=2, faults=FaultPlan.outage(3, 0.1))),
    ("probe_backoff_s", dict(probe_backoff_s=0.0)),
    ("shed_policy", dict(shed_policy="drop-all")),
    ("max_queue", dict(max_queue=0)),
    ("preempt_policy", dict(preempt_policy="always")),
    ("cancel_after_s", dict(cancel_after_s=float("nan"))),
    ("tenant_weights", dict(tenant_weights={"": 1.0})),
    ("tenant_weights", dict(tenant_weights={"a": float("inf")})),
]


@pytest.mark.parametrize("name,settings", RULES,
                         ids=[f"{n}-{i}" for i, (n, _) in enumerate(RULES)])
def test_rule_rejected(name, settings):
    with pytest.raises(ValueError, match=name):
        ServeConfig(**settings)


# settings that used to construct fine and fail only at the first session
LATE_FAILURES = [
    dict(max_queue=0),
    dict(preempt_policy="bogus"),
    dict(cancel_after_s=-1.0),
    dict(tenant_weights={"a": -1.0}),
]


@pytest.mark.parametrize("settings", LATE_FAILURES,
                         ids=[next(iter(s)) for s in LATE_FAILURES])
def test_stack_config_fails_at_construction(settings):
    with pytest.raises(ValueError, match=next(iter(settings))):
        StackConfig(**settings)


@pytest.mark.parametrize("settings", LATE_FAILURES,
                         ids=[next(iter(s)) for s in LATE_FAILURES])
def test_serve_engine_fails_at_construction(settings):
    model, adapter = model_and_adapter()
    with pytest.raises(ValueError, match=next(iter(settings))):
        ServeEngine(model, adapter, **settings)


def test_defaults_are_valid_and_frozen():
    cfg = ServeConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.devices = 0


def test_replace_rechecks():
    with pytest.raises(ValueError, match="devices"):
        dataclasses.replace(StackConfig(), devices=0)


def test_config_passed_by_reference_down_the_stack():
    cfg = StackConfig(devices=2, drain_policy="level-affinity")
    _, _, engine = build_serving_stack(cfg)
    core = engine.streaming()
    assert engine.config is cfg and core.config is cfg
    assert core.dispatcher.config is cfg
    assert all(s.drain_policy == "level-affinity" for s in core.shards)


def test_decode_options_never_rewritten():
    opts = DecodeOptions(fast_forward=False)
    cfg = StackConfig(decode=opts)
    assert cfg.decode is opts and opts.fast_forward is False
    with pytest.raises(TypeError):
        StackConfig(decode=opts, fast_forward=True)  # no flat alias


def test_tenant_weights_copied_at_validation():
    weights = {"a": 1.0}
    cfg = ServeConfig(tenant_weights=weights)
    weights["a"] = -1.0
    assert cfg.tenant_weights == {"a": 1.0}


def test_engine_fault_plan_checked_against_devices():
    _, _, engine = build_serving_stack(StackConfig(devices=2))
    engine.faults = FaultPlan.outage(1, 0.1)
    assert engine.streaming().config.faults is engine.faults
    with pytest.raises(ValueError, match="shard 5"):
        engine.faults = FaultPlan.outage(5, 0.1)


def test_session_keywords_build_or_override_a_config():
    model, adapter = model_and_adapter()
    core = StreamingEngine(model, adapter, max_batch=4, max_wait_s=0.01)
    assert (core.config.max_batch, core.config.window_s) == (4, 0.01)
    assert core.max_wait_s == 0.01
    base = ServeConfig(devices=2)
    core = StreamingEngine(model, adapter, base, max_batch=2)
    assert core.config.devices == 2 and core.config.max_batch == 2
    assert base.max_batch == 8  # the shared config is never mutated
