"""Continuously-batched decode through the serving stack.

Decode streams join a per-shard rolling batch at token boundaries,
grouped by operating-point compatibility; the contract is the same as
the nn layer's — every served stream's tokens and logprobs are
bit-identical to a solo eager run under the same installed pattern set —
plus the serving-side bookkeeping: completion times, switch accounting,
decode stats, and the consolidated ``DecodeOptions`` sub-config.
"""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.nn.generation import DecodeSession, GenerationConfig
from repro.serve import (
    DecodeOptions,
    InferenceRequest,
    StackConfig,
    build_serving_stack,
)


def decode_trace(vocab, n, seed=0, levels=("l2", "l4"), spacing=0.01):
    rng = np.random.default_rng(seed)
    reqs = []
    for i in range(n):
        toks = rng.integers(0, vocab, size=int(rng.integers(2, 9))).tolist()
        reqs.append(InferenceRequest(req_id=i, tokens=toks,
                                     level_name=levels[i % len(levels)],
                                     arrival_s=spacing * i))
    return reqs


def solo_eager(stack_seed, prompt, cfg, sparsity, stack_kwargs=None):
    """Reference: the same model, the result's pattern set installed, one
    stream decoded eagerly."""
    model, _, engine = build_serving_stack(
        StackConfig(seed=stack_seed, **(stack_kwargs or {})))
    if sparsity is not None:
        pset = dict(engine.adapter.candidates)[sparsity]
        engine.adapter.manager.apply(pset)
    session = DecodeSession(model, cfg, compiled=False)
    try:
        sid = session.submit_prompt(prompt)
        session.run()
        return session.result(sid)
    finally:
        session.close()


class TestServeDecode:
    def test_offline_serve_decode_bit_exact(self):
        cfg = StackConfig(seed=3, devices=2, policy="least-loaded",
                          decode=DecodeOptions(max_new_tokens=6, seed=11))
        _, _, engine = build_serving_stack(cfg)
        reqs = decode_trace(cfg.vocab_size, 8)
        report = engine.serve_decode(reqs)
        assert len(report.results) == 8
        gen_cfg = GenerationConfig(max_new_tokens=6, seed=11)
        for r in report.results:
            ref = solo_eager(3, list(r.request.tokens), gen_cfg, r.sparsity,
                             {"devices": 2, "policy": "least-loaded"})
            assert np.array_equal(r.output.tokens, ref.tokens)
            assert r.output.logprobs == ref.logprobs

    def test_decode_bookkeeping(self):
        cfg = StackConfig(seed=3, devices=2,
                          decode=DecodeOptions(max_new_tokens=5))
        _, _, engine = build_serving_stack(cfg)
        report = engine.serve_decode(decode_trace(cfg.vocab_size, 6))
        assert report.decode_streams == 6
        assert report.decode_tokens == 6 * 5
        summary = report.summary()
        assert summary["decode_streams"] == 6
        assert summary["decode_tokens"] == 30
        assert report.events  # decode ticks record adaptation events
        by_shard = {}
        for r in report.results:
            assert r.queue_wait_s >= -1e-12
            assert r.service_s > 0
            assert r.completion_s >= r.request.arrival_s
            by_shard.setdefault(r.shard_id, []).append(r.completion_s)

    def test_batch_only_summary_has_no_decode_keys(self):
        """Pure batch traffic must not grow new summary keys (the
        committed serve-bench digests hash the summary shape)."""
        from repro.serve import ScenarioConfig, build_scenario

        cfg = StackConfig(seed=0)
        _, workload, engine = build_serving_stack(cfg)
        trace = build_scenario("steady", workload, ScenarioConfig(
            num_requests=8, vocab_size=cfg.vocab_size, seq_len=cfg.seq_len,
            max_len=cfg.max_len, seed=0))
        report = engine.serve(trace)
        assert "decode_tokens" not in report.summary()
        assert "decode_streams" not in report.summary()

    def test_streaming_mixed_batch_and_decode(self):
        cfg = StackConfig(seed=3,
                          decode=DecodeOptions(max_new_tokens=4, seed=5))
        core = build_serving_stack(cfg)[2].streaming()
        rng = np.random.default_rng(1)
        for i in range(3):
            toks = rng.integers(0, cfg.vocab_size, size=5).tolist()
            core.submit(InferenceRequest(req_id=100 + i, tokens=toks,
                                         level_name="l2",
                                         arrival_s=0.002 * i))
        for i in range(3):
            toks = rng.integers(0, cfg.vocab_size, size=4).tolist()
            core.submit_decode(InferenceRequest(req_id=200 + i, tokens=toks,
                                                level_name="l2",
                                                arrival_s=0.001 + 0.002 * i))
        core.drain()
        report = core.report()
        assert len(report.results) == 6
        decode = [r for r in report.results if r.request.req_id >= 200]
        assert all(len(r.output.tokens) == 4 + 4 for r in decode)
        batch = [r for r in report.results if r.request.req_id < 200]
        assert all(r.output is not None for r in batch)
        assert report.decode_streams == 3 and report.decode_tokens == 12

    def test_same_tick_join_and_leave(self):
        """A one-token stream finishes on the very boundary a later
        stream joins; both stay exact and both complete."""
        cfg = StackConfig(seed=3, decode=DecodeOptions(max_new_tokens=1))
        core = build_serving_stack(cfg)[2].streaming()
        rng = np.random.default_rng(2)
        p1 = rng.integers(0, cfg.vocab_size, size=4).tolist()
        p2 = rng.integers(0, cfg.vocab_size, size=6).tolist()
        core.submit_decode(InferenceRequest(req_id=0, tokens=p1,
                                            level_name="l2", arrival_s=0.0))
        core.submit_decode(InferenceRequest(req_id=1, tokens=p2,
                                            level_name="l2", arrival_s=0.0),
                           config=GenerationConfig(max_new_tokens=3))
        core.drain()
        report = core.report()
        assert len(report.results) == 2
        outs = {r.request.req_id: r for r in report.results}
        assert len(outs[0].output.generated) == 1
        assert len(outs[1].output.generated) == 3
        for rid, prompt, n in ((0, p1, 1), (1, p2, 3)):
            r = outs[rid]
            ref = solo_eager(3, prompt, GenerationConfig(max_new_tokens=n),
                             r.sparsity)
            assert np.array_equal(r.output.tokens, ref.tokens)

    def test_submit_decode_rejects_stale_arrival(self):
        core = build_serving_stack(StackConfig(seed=0))[2].streaming()
        core.submit_decode(InferenceRequest(req_id=0, tokens=[1, 2, 3],
                                            level_name="l2", arrival_s=0.0))
        core.drain()
        with pytest.raises(ValueError, match="already advanced"):
            core.submit_decode(InferenceRequest(req_id=1, tokens=[1, 2],
                                                level_name="l2",
                                                arrival_s=0.0))

    def test_eager_fallback_path(self):
        """fast_forward=False decodes eagerly, same results surface."""
        _, _, engine = build_serving_stack(StackConfig(
            decode=DecodeOptions(fast_forward=False)))
        report = engine.serve_decode(
            [InferenceRequest(req_id=0, tokens=[1, 2, 3], level_name="l2",
                              arrival_s=0.0)],
            config=GenerationConfig(max_new_tokens=3, seed=7))
        assert list(report.results[0].output.tokens[:3]) == [1, 2, 3]
        assert len(report.results[0].output.generated) == 3


class TestDecodeOptionsConfig:
    def test_stack_config_grouped_sub_config(self):
        opts = DecodeOptions(max_new_tokens=3, top_k=2, fast_forward=False)
        cfg = StackConfig(decode=opts)
        assert cfg.decode is opts
        _, _, engine = build_serving_stack(cfg)
        assert engine.config is cfg  # shared by reference, never copied
        core = engine.streaming()
        assert core.config is cfg
        assert core.fast_forward is False

    def test_generation_config_derivation(self):
        opts = DecodeOptions(max_new_tokens=4, top_k=3, temperature=0.5,
                             seed=1, eos_id=2)
        gc = opts.generation_config()
        assert (gc.max_new_tokens, gc.top_k, gc.temperature, gc.seed,
                gc.eos_id) == (4, 3, 0.5, 1, 2)
        with pytest.raises(ValueError, match="max_new_tokens"):
            DecodeOptions(max_new_tokens=0).generation_config()


class TestCLI:
    def test_generate_check(self, capsys):
        assert cli_main(["generate", "--num-streams", "2",
                         "--max-new-tokens", "4", "--check"]) == 0
        import json
        out = json.loads(capsys.readouterr().out)
        assert out["check_exact"] is True
        assert out["streams"] == 2
        assert out["compiled_decode"] is True

    def test_serve_decode_streams(self, capsys):
        assert cli_main(["serve", "--requests", "12", "--decode-streams", "4",
                         "--decode-max-new-tokens", "3"]) == 0
        import json
        out = json.loads(capsys.readouterr().out)
        assert out["decode_streams"] == 4
        assert out["decode_tokens"] == 12
        assert out["requests"] == 12
