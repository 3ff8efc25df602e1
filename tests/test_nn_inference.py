"""Compiled zero-autograd forward plane: exactness, recompile, serving."""

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.inference import CompiledForward, UnsupportedModel, compile_inference
from repro.nn.layers import Linear, prunable_linears
from repro.nn.optim import SGD
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    ArtifactCache,
    DecodeOptions,
    InferenceRequest,
    ScenarioConfig,
    StackConfig,
    build_scenario,
    build_serving_stack,
    pad_batch,
    run_padded,
)
from repro.sparse.executor import SparseExecutor
from repro.tensor.tensor import Tensor, no_grad

LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)
DB_CFG = DistilBertConfig(vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
                          num_layers=2, max_len=24, dropout=0.0, seed=5)


def make_model(kind):
    if kind == "lm":
        return TransformerLM(LM_CFG).eval()
    if kind == "distilbert":
        return DistilBertForSequenceTask(DB_CFG).eval()
    return DistilBertForSequenceTask(
        DistilBertConfig(vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
                         num_layers=2, max_len=24, dropout=0.0,
                         is_regression=True, seed=5)).eval()


def install_masks(model, kind):
    """Install the requested mask family on every prunable layer."""
    if kind == "none":
        return
    if kind == "pattern":
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        MaskManager(model).apply(pset)
        return
    # block: zero the bottom half-rows of each prunable weight (the
    # block-pruning structure: whole row groups removed)
    for layer in prunable_linears(model).values():
        mask = np.ones_like(layer.weight.data)
        mask[layer.out_features // 2:, :] = 0.0
        layer.set_mask(mask)


def tokens_for(model, batch, ragged, seed=0):
    rng = np.random.default_rng(seed)
    vocab = model.cfg.vocab_size
    length = 12
    if not ragged:
        return rng.integers(1, vocab, size=(batch, length)), None
    lengths = [max(2, length - 2 * i) for i in range(batch)]
    seqs = [rng.integers(1, vocab, size=n) for n in lengths]
    toks, mask, _ = pad_batch(seqs)
    return toks, mask


def eager(model, toks, mask):
    with no_grad():
        out = model(toks) if mask is None else model(toks, attn_mask=mask)
    return out.data


# ---------------------------------------------------------------------------
# the equivalence matrix: models x mask families x padding x dtypes
# ---------------------------------------------------------------------------

class TestEquivalenceMatrix:
    @pytest.mark.parametrize("kind", ["lm", "distilbert", "regression"])
    @pytest.mark.parametrize("masks", ["none", "pattern", "block"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_float64_bit_identical(self, kind, masks, ragged):
        model = make_model(kind)
        install_masks(model, masks)
        plan = compile_inference(model)
        toks, mask = tokens_for(model, 4, ragged)
        ref = eager(model, toks, mask)
        got = plan(toks, attn_mask=mask)
        assert got.dtype == np.float64
        assert np.array_equal(ref, got)  # exact ==, not allclose

    @pytest.mark.parametrize("kind", ["lm", "distilbert"])
    def test_float32_within_documented_tolerance(self, kind):
        model = make_model(kind)
        install_masks(model, "pattern")
        plan32 = compile_inference(model, dtype="float32")
        toks, mask = tokens_for(model, 4, True)
        ref = eager(model, toks, mask)
        got = plan32(toks, attn_mask=mask)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-3)
        assert not np.array_equal(ref, got.astype(np.float64))

    def test_batch_of_one_and_full_batch_agree(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 8, False)
        full = plan(toks)
        for i in range(8):
            solo = plan(toks[i:i + 1])
            np.testing.assert_array_equal(full[i], solo[0])

    def test_run_padded_fast_path_matches_eager(self):
        model = make_model("lm")
        plan = compile_inference(model)
        rng = np.random.default_rng(7)
        reqs = [InferenceRequest(i, rng.integers(1, 60, size=n))
                for i, n in enumerate((12, 9, 6, 12))]
        eager_outs = run_padded(model, reqs)
        fast_outs = run_padded(model, reqs, forward=plan)
        for a, b in zip(eager_outs, fast_outs):
            assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# recompilation: keyed on cache_token / Parameter.version, O(1) checks
# ---------------------------------------------------------------------------

class TestRecompile:
    def test_mask_install_triggers_exactly_one_recompile(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 4, False)
        plan(toks)
        assert plan.compiles == 1
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        manager = MaskManager(model)
        manager.apply(pset)
        got = plan(toks)
        assert plan.compiles == 2  # masks changed -> one recompile
        assert np.array_equal(eager(model, toks, None), got)
        plan(toks)
        assert plan.compiles == 2  # stable weights -> no recompile

    def test_identical_reinstall_keeps_plan(self):
        model = make_model("lm")
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        manager = MaskManager(model)
        manager.apply(pset)
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 4, False)
        plan(toks)
        # re-installing the identical mask keeps cache_token stable
        # (content compare in set_mask), so the plan must not recompile
        manager.apply(pset)
        plan(toks)
        assert plan.compiles == 1

    def test_weight_update_triggers_recompile(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 2, False)
        stale = plan(toks)
        opt = SGD(model.parameters(), lr=1e-2)
        loss = model.loss(Tensor(toks), Tensor(toks))
        loss.backward()
        opt.step()
        fresh = plan(toks)
        assert plan.compiles == 2
        assert np.array_equal(eager(model, toks, None), fresh)
        assert not np.array_equal(stale, fresh)

    def test_bias_only_update_triggers_recompile(self):
        model = make_model("lm")
        plan = compile_inference(model)
        plan32 = compile_inference(model, dtype="float32")
        toks, _ = tokens_for(model, 2, False)
        stale32 = plan32(toks)
        plan(toks)
        # the sanctioned in-place mutation protocol: edit data, bump
        layer = model.lm_head
        layer.bias.data[...] = layer.bias.data + 1.0
        layer.bias.bump_version()
        fresh = plan(toks)
        assert plan.compiles == 2
        assert np.array_equal(eager(model, toks, None), fresh)
        fresh32 = plan32(toks)
        assert plan32.compiles == 2  # float32 snapshots must not go stale
        assert not np.array_equal(stale32, fresh32)

    def test_recompile_rechecks_eval_mode(self):
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16,
            dropout=0.1, seed=0)).eval()
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 2, False)
        plan(toks)
        model.train()
        model.embed.weight.bump_version()  # force a signature change
        with pytest.raises(ValueError, match="eval"):
            plan(toks)

    def test_switch_back_reinstates_program(self):
        model = make_model("lm")
        manager = MaskManager(model, cache=ArtifactCache())
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.5, 0.7))]
        toks, mask = tokens_for(model, 3, True)
        manager.apply(psets[0])
        plan = compile_inference(model)
        first = plan(toks, attn_mask=mask)
        manager.apply(psets[1])
        plan(toks, attn_mask=mask)
        assert plan.compiles == 2
        for _ in range(3):
            manager.apply(psets[0])
            back = plan(toks, attn_mask=mask)
            manager.apply(psets[1])
            plan(toks, attn_mask=mask)
        assert plan.compiles == 2  # every switch back was a pointer swap
        manager.apply(psets[0])
        back = plan(toks, attn_mask=mask)
        assert np.array_equal(back, first)
        assert np.array_equal(back, compile_inference(model)(toks, attn_mask=mask))
        assert np.array_equal(back, eager(model, toks, mask))

    def test_weight_update_drops_stale_programs(self):
        model = make_model("lm")
        manager = MaskManager(model, cache=ArtifactCache())
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.5, 0.7))]
        toks, _ = tokens_for(model, 2, False)
        plan = compile_inference(model)
        for pset in psets:
            manager.apply(pset)
            plan(toks)
        assert len(plan._programs) == 3  # unmasked + two rungs
        model.embed.weight.bump_version()
        plan(toks)
        assert len(plan._programs) == 1
        assert np.array_equal(plan(toks), eager(model, toks, None))

    def test_programs_bounded(self):
        from repro.nn.inference import _PROGRAM_CAP
        model = make_model("lm")
        manager = MaskManager(model, cache=ArtifactCache())
        plan = compile_inference(model)
        toks, _ = tokens_for(model, 2, False)
        rng = np.random.default_rng(3)
        for _ in range(_PROGRAM_CAP + 3):
            manager.apply(random_pattern_set(8, 0.5, 3, rng))
            plan(toks)
        assert len(plan._programs) == _PROGRAM_CAP
        assert np.array_equal(plan(toks), eager(model, toks, None))

    def test_reinstated_program_rechecks_eval_mode(self):
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16,
            dropout=0.1, seed=0)).eval()
        manager = MaskManager(model, cache=ArtifactCache())
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.5, 0.7))]
        toks, _ = tokens_for(model, 2, False)
        plan = compile_inference(model)
        for pset in psets:
            manager.apply(pset)
            plan(toks)
        model.train()
        manager.apply(psets[0])
        with pytest.raises(ValueError, match="eval"):
            plan(toks)

    def test_signature_is_cheap_ints(self):
        model = make_model("lm")
        plan = compile_inference(model)
        sig = plan.signature()
        assert all(isinstance(v, int) for group in sig for tup in group
                   for v in (tup if isinstance(tup, tuple) else (tup,)))


# ---------------------------------------------------------------------------
# scratch pool + mask memoization
# ---------------------------------------------------------------------------

class TestScratchAndMasks:
    def test_zero_steady_state_allocations(self):
        model = make_model("lm")
        plan = compile_inference(model)
        toks, mask = tokens_for(model, 4, True)
        plan(toks, attn_mask=mask)
        misses = plan.pool.misses
        for _ in range(3):
            plan(toks, attn_mask=mask)
        assert plan.pool.misses == misses
        assert plan.pool.hits > 0

    def test_causal_mask_memoized_per_length(self):
        model = make_model("lm")
        plan = compile_inference(model)
        for _ in range(3):
            plan(np.ones((2, 8), dtype=np.int64))
            plan(np.ones((2, 12), dtype=np.int64))
        keys = [k for k in plan._mask_cache if k[0] == "causal"]
        assert sorted(k[1] for k in keys) == [8, 12]

    def test_mask_cache_bounded(self):
        model = make_model("lm")
        plan = compile_inference(model)
        rng = np.random.default_rng(0)
        for i in range(80):
            seqs = [rng.integers(1, 60, size=12),
                    rng.integers(1, 60, size=4 + (i % 8))]
            toks, mask, _ = pad_batch(seqs)
            plan(toks, attn_mask=mask)
        from repro.nn.inference import _MASK_CACHE_CAP
        assert len(plan._mask_cache) <= _MASK_CACHE_CAP


# ---------------------------------------------------------------------------
# sparse-kernel dispatch (no Tensor wrapping anywhere)
# ---------------------------------------------------------------------------

class TestSparseDispatch:
    def test_pattern_kernel_plan_matches_dense(self):
        model = make_model("lm")
        pset = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        MaskManager(model).apply(pset)
        dense_plan = compile_inference(model)
        executor = SparseExecutor("pattern", pattern_set=pset,
                                  cache=ArtifactCache())
        sparse_plan = compile_inference(model, sparse=executor)
        toks, mask = tokens_for(model, 4, True)
        ref = dense_plan(toks, attn_mask=mask)
        got = sparse_plan(toks, attn_mask=mask)
        np.testing.assert_allclose(got, ref, atol=1e-9, rtol=0)

    def test_block_kernel_plan_matches_dense(self):
        model = make_model("lm")
        install_masks(model, "block")
        dense_plan = compile_inference(model)
        executor = SparseExecutor("block", num_blocks=4, cache=ArtifactCache())
        sparse_plan = compile_inference(model, sparse=executor)
        toks, _ = tokens_for(model, 4, False)
        np.testing.assert_allclose(sparse_plan(toks), dense_plan(toks),
                                   atol=1e-9, rtol=0)

    def test_layer_matmul_is_pure_ndarray(self):
        model = make_model("lm")
        install_masks(model, "block")
        executor = SparseExecutor("block", num_blocks=4)
        name, layer = next(iter(prunable_linears(model).items()))
        x = np.random.default_rng(0).normal(size=(layer.in_features, 3))
        created = []
        orig = Tensor.__init__

        def spy(self, *args, **kwargs):
            created.append(self)
            orig(self, *args, **kwargs)

        Tensor.__init__ = spy
        try:
            out = executor.layer_matmul(name, layer, x)
        finally:
            Tensor.__init__ = orig
        assert created == []
        w_eff = layer.weight.data * layer.mask
        np.testing.assert_allclose(out, w_eff @ x, atol=1e-9, rtol=0)

    def test_sparse_requires_float64(self):
        model = make_model("lm")
        with pytest.raises(ValueError, match="float64"):
            compile_inference(model, dtype="float32",
                              sparse=SparseExecutor("block"))


# ---------------------------------------------------------------------------
# validation / fallback
# ---------------------------------------------------------------------------

class TestValidation:
    def test_unknown_architecture_raises(self):
        with pytest.raises(UnsupportedModel):
            compile_inference(Linear(8, 8))

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            compile_inference(make_model("lm"), dtype="float16")

    def test_training_dropout_rejected(self):
        model = TransformerLM(TransformerConfig(
            vocab_size=60, dim=32, num_heads=2, ffn_dim=64, max_len=16,
            dropout=0.1, seed=0))  # train mode, p > 0
        with pytest.raises(ValueError, match="eval"):
            compile_inference(model)
        assert isinstance(compile_inference(model.eval()), CompiledForward)

    def test_one_dim_tokens_rejected(self):
        plan = compile_inference(make_model("lm"))
        with pytest.raises(ValueError, match="batch, length"):
            plan(np.ones(8, dtype=np.int64))

    def test_engine_falls_back_on_unsupported_model(self):
        _, _, engine = build_serving_stack(StackConfig(seed=0))
        core = engine.streaming()
        core.model = Linear(8, 8)  # not a compilable architecture
        assert core._forward() is None
        assert core.fast_forward is False


# ---------------------------------------------------------------------------
# serving integration: fast path default, bit-identical, zero grad graph
# ---------------------------------------------------------------------------

def serve_report(fast_forward, seed=0, requests=24):
    _, workload, engine = build_serving_stack(StackConfig(
        seed=seed, decode=DecodeOptions(fast_forward=fast_forward),
        verify=True))
    trace = build_scenario("bursty", workload,
                          ScenarioConfig(num_requests=requests, seed=seed))
    return engine.serve(trace)


class TestServingIntegration:
    def test_fast_and_eager_serving_bit_identical(self):
        fast = serve_report(True)
        eager_r = serve_report(False)
        # the verify error measures batched-vs-solo padding exactness;
        # bit-identical forwards mean the two engines must report the
        # *same* value (and both within the serving tolerance)
        assert fast.max_verify_error == eager_r.max_verify_error
        assert fast.max_verify_error < 1e-9
        outs_f = {r.request.req_id: r.output for r in fast.results}
        outs_e = {r.request.req_id: r.output for r in eager_r.results}
        assert outs_f.keys() == outs_e.keys()
        for rid, out in outs_f.items():
            assert np.array_equal(out, outs_e[rid])
        assert fast.sim_throughput_rps == eager_r.sim_throughput_rps
        assert fast.p95_latency_s == eager_r.p95_latency_s
        assert fast.num_switches == eager_r.num_switches

    def test_fast_serve_builds_no_tensors_at_all(self):
        _, workload, engine = build_serving_stack(StackConfig(seed=1))
        trace = build_scenario("steady", workload,
                               ScenarioConfig(num_requests=16, seed=1))
        created = []
        orig = Tensor.__init__

        def spy(self, *args, **kwargs):
            created.append(self)
            orig(self, *args, **kwargs)

        Tensor.__init__ = spy
        try:
            report = engine.serve(trace)
        finally:
            Tensor.__init__ = orig
        assert report.num_requests == 16
        # the serve path never touches the Tensor engine: zero graph
        # nodes, hence trivially zero recorded parents
        assert created == []

    def test_eager_serve_never_records_grad_graph(self):
        _, workload, engine = build_serving_stack(StackConfig(
            seed=1, decode=DecodeOptions(fast_forward=False)))
        trace = build_scenario("steady", workload,
                               ScenarioConfig(num_requests=16, seed=1))
        created = []
        orig = Tensor.__init__

        def spy(self, *args, **kwargs):
            created.append(self)
            orig(self, *args, **kwargs)

        Tensor.__init__ = spy
        try:
            report = engine.serve(trace)
        finally:
            Tensor.__init__ = orig
        assert report.num_requests == 16
        assert len(created) > 0  # the eager path does build wrappers...
        # ...but run_padded's no_grad guard means none requires grad and
        # none records parents (the regression this test pins)
        assert not any(t.requires_grad for t in created)
        assert not any(t._parents for t in created)

    def test_streaming_session_shares_fast_plan(self):
        _, workload, engine = build_serving_stack(StackConfig(seed=2))
        core = engine.streaming()
        plan = core._forward()
        assert isinstance(plan, CompiledForward)
        assert core._forward() is plan  # built once, reused

    def test_serve_engine_exposes_fast_forward_flag(self):
        _, _, engine = build_serving_stack(StackConfig(
            seed=0, decode=DecodeOptions(fast_forward=False)))
        assert engine.config.decode.fast_forward is False
        assert engine.streaming().fast_forward is False
