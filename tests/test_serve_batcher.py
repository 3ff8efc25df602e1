"""Micro-batching: grouping, padding exactness, scenarios, engine."""

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.dvfs import DVFSTable
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import profile_from_model
from repro.nn.distilbert import DistilBertConfig, DistilBertForSequenceTask
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    ArtifactCache,
    InferenceRequest,
    MicroBatcher,
    ScenarioConfig,
    ServeEngine,
    build_scenario,
    pad_batch,
    run_padded,
)

LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)

BERT_CFG = DistilBertConfig(vocab_size=80, dim=32, num_heads=2, ffn_dim=64,
                            num_layers=2, max_len=24, dropout=0.0,
                            num_labels=2, seed=3)


@pytest.fixture(scope="module")
def lm():
    return TransformerLM(LM_CFG).eval()


@pytest.fixture(scope="module")
def bert():
    return DistilBertForSequenceTask(BERT_CFG).eval()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def make_requests(rng, lengths, vocab=60, **kwargs):
    return [InferenceRequest(i, rng.integers(1, vocab, size=n), **kwargs)
            for i, n in enumerate(lengths)]


class TestInferenceRequest:
    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, np.array([]))

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            InferenceRequest(0, np.array([1, 2]), deadline_s=0.0)

    def test_slo_defaults_to_deadline(self):
        req = InferenceRequest(0, np.array([1, 2]), deadline_s=0.5)
        assert req.slo == 0.5
        assert InferenceRequest(0, np.array([1]), deadline_s=0.5, slo_s=2.0).slo == 2.0

    @pytest.mark.parametrize("deadline", [-1.0, 0.0, float("nan")])
    def test_non_positive_or_nan_deadline_rejected(self, deadline):
        with pytest.raises(ValueError, match="deadline"):
            InferenceRequest(0, np.array([1, 2]), deadline_s=deadline)

    @pytest.mark.parametrize("slo", [-1.0, 0.0, float("nan")])
    def test_non_positive_or_nan_slo_rejected(self, slo):
        with pytest.raises(ValueError, match="slo"):
            InferenceRequest(0, np.array([1, 2]), deadline_s=0.5, slo_s=slo)

    def test_slo_below_deadline_rejected(self):
        # the end-to-end budget also covers the compute deadline; an SLO
        # tighter than the compute deadline is a contradiction
        with pytest.raises(ValueError, match="slo_s"):
            InferenceRequest(0, np.array([1, 2]), deadline_s=0.5, slo_s=0.4)

    def test_infinite_budgets_allowed(self):
        req = InferenceRequest(0, np.array([1, 2]), deadline_s=float("inf"))
        assert req.slo == float("inf")


class TestPadBatch:
    def test_uniform_lengths_skip_mask(self, rng):
        tokens, mask, lengths = pad_batch([rng.integers(1, 9, size=5) for _ in range(3)])
        assert tokens.shape == (3, 5)
        assert mask is None
        assert lengths == [5, 5, 5]

    def test_ragged_mask_positions(self, rng):
        seqs = [rng.integers(1, 9, size=n) for n in (2, 5, 3)]
        tokens, mask, lengths = pad_batch(seqs, pad_id=0)
        assert tokens.shape == (3, 5)
        assert mask.shape == (3, 1, 1, 5)
        np.testing.assert_array_equal(mask[0, 0, 0], [False, False, True, True, True])
        np.testing.assert_array_equal(mask[1, 0, 0], [False] * 5)
        np.testing.assert_array_equal(tokens[0, 2:], 0)
        np.testing.assert_array_equal(tokens[0, :2], seqs[0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            pad_batch([])


class TestPaddingExactness:
    def test_lm_batched_equals_per_request(self, lm, rng):
        reqs = make_requests(rng, [5, 12, 9, 12, 3])
        batched = run_padded(lm, reqs)
        for req, out in zip(reqs, batched):
            solo = run_padded(lm, [req])[0]
            assert out.shape == (req.length, LM_CFG.vocab_size)
            np.testing.assert_allclose(out, solo, atol=1e-9, rtol=0)

    def test_lm_exact_under_masks(self, rng):
        model = TransformerLM(LM_CFG).eval()
        MaskManager(model).apply(random_pattern_set(4, 0.5, 2, rng))
        reqs = make_requests(rng, [4, 11, 7])
        batched = run_padded(model, reqs)
        for req, out in zip(reqs, batched):
            np.testing.assert_allclose(out, run_padded(model, [req])[0],
                                       atol=1e-9, rtol=0)

    def test_distilbert_batched_equals_per_request(self, bert, rng):
        reqs = make_requests(rng, [7, 16, 4, 10], vocab=80)
        batched = run_padded(bert, reqs)
        for req, out in zip(reqs, batched):
            solo = run_padded(bert, [req])[0]
            assert out.shape == (2,)
            np.testing.assert_allclose(out, solo, atol=1e-9, rtol=0)


class TestMicroBatcher:
    def test_chunks_at_max_batch(self, rng):
        reqs = make_requests(rng, [4] * 10)
        groups = MicroBatcher(max_batch=4).batches(reqs)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_fifo_order_preserved(self, rng):
        reqs = make_requests(rng, [4] * 6)
        groups = MicroBatcher(max_batch=3).batches(reqs)
        flat = [r.req_id for g in groups for r in g]
        assert flat == list(range(6))

    def test_incompatible_keys_never_mix(self, rng):
        reqs = make_requests(rng, [4] * 4, level_name="l6")
        reqs += [InferenceRequest(10 + i, rng.integers(1, 60, size=4), level_name="l3")
                 for i in range(4)]
        groups = MicroBatcher(max_batch=8).batches(reqs)
        assert len(groups) == 2
        for group in groups:
            assert len({r.level_name for r in group}) == 1

    def test_window_flushes_stale_groups(self, rng):
        early = InferenceRequest(0, rng.integers(1, 60, size=4), arrival_s=0.0)
        late = InferenceRequest(1, rng.integers(1, 60, size=4), arrival_s=10.0)
        groups = MicroBatcher(max_batch=8, window_s=0.05).batches([early, late])
        assert [len(g) for g in groups] == [1, 1]

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(window_s=-1.0)


class TestScenarios:
    def test_deterministic_given_seed(self, lm):
        wl = profile_from_model(lm, seq_len=12)
        cfg = ScenarioConfig(num_requests=24, seed=9)
        a = build_scenario("bursty", wl, cfg)
        b = build_scenario("bursty", wl, cfg)
        assert len(a) == len(b) == 24
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.tokens, y.tokens)
            assert x.arrival_s == y.arrival_s
            assert x.level_name == y.level_name

    def test_battery_levels_walk_down(self, lm):
        wl = profile_from_model(lm, seq_len=12)
        trace = build_scenario("battery", wl, ScenarioConfig(num_requests=64, seed=1))
        table = DVFSTable()
        freqs = [table[r.level_name].freq_mhz for r in trace]
        assert freqs == sorted(freqs, reverse=True)
        assert len({r.level_name for r in trace}) >= 2

    def test_steady_single_operating_point(self, lm):
        wl = profile_from_model(lm, seq_len=12)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=16, seed=1))
        assert {r.level_name for r in trace} == {"l6"}
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)

    def test_unknown_scenario_raises(self, lm):
        wl = profile_from_model(lm, seq_len=12)
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario("nope", wl)


def build_engine(model, *, max_batch, use_cache, seed=0, verify=False):
    wl = profile_from_model(model, seq_len=12)
    ladder = {s: random_pattern_set(8, s, 2, np.random.default_rng(seed))
              for s in (0.3, 0.5, 0.7, 0.9)}
    adapter = RuntimeAdapter(ladder, wl, manager=MaskManager(model),
                             hardware_pattern_size=8)
    cache = ArtifactCache() if use_cache else None
    return ServeEngine(model, adapter, max_batch=max_batch, cache=cache,
                       verify=verify), wl


class TestServeEngine:
    def test_steady_serving_report(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True, verify=True)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=48, seed=3))
        report = engine.serve(trace)
        assert report.num_requests == 48
        assert sorted(r.request.req_id for r in report.results) == list(range(48))
        assert report.num_batches == 6
        assert report.mean_batch_size == 8.0
        assert report.cache_stats.hit_rate > 0.8
        assert report.deadline_hit_rate == 1.0
        assert report.max_verify_error < 1e-9
        assert report.p95_latency_s >= report.p50_latency_s > 0
        assert report.throughput_rps > 0

    def test_batched_equals_single_request_engine(self):
        model_a, model_b = TransformerLM(LM_CFG).eval(), TransformerLM(LM_CFG).eval()
        engine_b, wl = build_engine(model_a, max_batch=8, use_cache=True)
        engine_s, _ = build_engine(model_b, max_batch=1, use_cache=False)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=24, seed=5))
        by_id = lambda rep: {r.request.req_id: r.output for r in rep.results}  # noqa: E731
        outs_b, outs_s = by_id(engine_b.serve(trace)), by_id(engine_s.serve(list(trace)))
        assert outs_b.keys() == outs_s.keys()
        for req_id, out in outs_b.items():
            np.testing.assert_allclose(out, outs_s[req_id], atol=1e-9, rtol=0)

    def test_cache_stats_are_per_run(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=24, seed=3))
        first = engine.serve(trace)
        second = engine.serve(list(trace))
        assert first.cache_stats.misses > 0  # cold start
        assert second.cache_stats.misses == 0  # warm: this run alone
        assert second.cache_stats.hit_rate == 1.0

    def test_adapter_driven_per_batch_not_per_request(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=32, seed=3))
        report = engine.serve(trace)
        assert len(report.events) == report.num_batches < report.num_requests

    def test_battery_scenario_climbs_sparsity_ladder(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True)
        trace = build_scenario("battery", wl, ScenarioConfig(num_requests=64, seed=3))
        report = engine.serve(trace)
        chosen = [e.chosen_sparsity for e in report.events
                  if e.chosen_sparsity is not None]
        assert len(set(chosen)) >= 2, "battery drain should move the ladder"
        assert chosen == sorted(chosen), "sparsity should only climb as battery drains"
        assert report.num_switches >= 2

    def test_partial_batch_charged_the_batching_window(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True)
        lone = InferenceRequest(0, np.arange(1, 9), arrival_s=0.0, deadline_s=10.0)
        report = engine.serve([lone])
        # an online batcher cannot know the stream ended: the lone request
        # waits out the full window before dispatch
        assert report.results[0].queue_wait_s == pytest.approx(
            engine.config.window_s)

    def test_infeasible_deadline_no_phantom_switches(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True)
        rng = np.random.default_rng(0)
        reqs = [InferenceRequest(i, rng.integers(1, 60, size=8),
                                 arrival_s=i * 1e-4, deadline_s=1e-12, slo_s=10.0)
                for i in range(16)]
        report = engine.serve(reqs)
        assert report.violations == report.num_batches == 2
        assert report.num_switches == 0  # the adapter itself never switched
        # served at the sparsest rung, recorded as such
        assert {r.sparsity for r in report.results} == {0.9}
        # the one real install (fallback) is charged to the first batch only
        svc = {r.batch_id: r.service_s for r in report.results}
        assert svc[0] > svc[1]

    def test_feasibility_matches_latency_model(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, max_batch=8, use_cache=True)
        latency = engine.adapter.latency
        for event in engine.serve(build_scenario(
                "bursty", wl, ScenarioConfig(num_requests=16, seed=3))).events:
            if event.chosen_sparsity is None:
                continue
            level = DVFSTable()[event.level_name]
            assert latency.latency_s(wl, level, event.chosen_sparsity,
                                     SparsityKind.PATTERN, 8) <= event.deadline_s


class TestBatchLatencyModel:
    def test_overhead_amortized_once(self):
        lm_model = TransformerLM(LM_CFG)
        wl = profile_from_model(lm_model, seq_len=12)
        lat = LatencyModel()
        level = DVFSTable()["l6"]
        single = lat.latency_s(wl, level, 0.5, SparsityKind.PATTERN, 4)
        batch8 = lat.batch_latency_s(wl, level, 8, 0.5, SparsityKind.PATTERN, 4)
        assert batch8 < 8 * single
        assert batch8 > lat.batch_latency_s(wl, level, 1, 0.5,
                                            SparsityKind.PATTERN, 4)

    def test_batch_of_one_equals_single(self):
        lm_model = TransformerLM(LM_CFG)
        wl = profile_from_model(lm_model, seq_len=12)
        lat = LatencyModel()
        level = DVFSTable()["l4"]
        assert lat.batch_latency_s(wl, level, 1, 0.3, SparsityKind.PATTERN, 4) == (
            pytest.approx(lat.latency_s(wl, level, 0.3, SparsityKind.PATTERN, 4)))

    def test_invalid_batch_rejected(self):
        lm_model = TransformerLM(LM_CFG)
        wl = profile_from_model(lm_model, seq_len=12)
        with pytest.raises(ValueError):
            LatencyModel().batch_breakdown(wl, 0)
