"""Sharded dispatch: queue isolation, routing policies, time slicing."""

import numpy as np
import pytest

from repro.core.patterns import MaskManager, random_pattern_set
from repro.core.runtime_policy import RuntimeAdapter
from repro.hardware.dvfs import DVFSTable
from repro.hardware.latency import LatencyModel, SparsityKind
from repro.hardware.workload import profile_from_model
from repro.nn.transformer import TransformerConfig, TransformerLM
from repro.serve import (
    ArtifactCache,
    DeviceShard,
    Dispatcher,
    InferenceRequest,
    QueuedBatch,
    ScenarioConfig,
    ServeConfig,
    ServeEngine,
    StackConfig,
    build_scenario,
    build_serving_stack,
)

LM_CFG = TransformerConfig(vocab_size=60, dim=32, num_heads=2, ffn_dim=64,
                           num_encoder_layers=2, num_decoder_layers=1,
                           max_len=16, dropout=0.0, seed=3)


def make_batch(seq, level="l6", est=1.0, n=2, ready=0.0, seed=0):
    rng = np.random.default_rng(seed + seq)
    reqs = [InferenceRequest(100 * seq + i, rng.integers(1, 60, size=6),
                             level_name=level) for i in range(n)]
    return QueuedBatch(seq, reqs, level, ready, est)


def make_dispatcher(policy, **kwargs):
    return Dispatcher(ServeConfig(policy=policy), **kwargs)


def make_shard(drain_policy="fifo", fairness_window=4):
    return DeviceShard(0, ServeConfig(drain_policy=drain_policy,
                                      fairness_window=fairness_window))


def build_engine(model, **kwargs):
    wl = profile_from_model(model, seq_len=12)
    ladder = {s: random_pattern_set(8, s, 2, np.random.default_rng(0))
              for s in (0.3, 0.5, 0.7, 0.9)}
    adapter = RuntimeAdapter(ladder, wl, manager=MaskManager(model),
                             hardware_pattern_size=8)
    return ServeEngine(model, adapter, cache=ArtifactCache(),
                       **kwargs), wl


class TestDeviceShardQueues:
    def test_per_level_queue_isolation(self):
        shard = DeviceShard(0)
        for seq, level in enumerate(["l6", "l3", "l6", "l4", "l3"]):
            shard.enqueue(make_batch(seq, level))
        assert set(shard.queues) == {"l6", "l3", "l4"}
        for level, queue in shard.queues.items():
            assert all(b.level_name == level for b in queue)
            seqs = [b.seq for b in queue]
            assert seqs == sorted(seqs)  # FIFO inside each level queue
        assert shard.backlog() == 5

    def test_drain_preserves_global_flush_order(self):
        shard = DeviceShard(0)
        order = ["l6", "l3", "l6", "l4", "l3", "l4"]
        for seq, level in enumerate(order):
            shard.enqueue(make_batch(seq, level))
        drained = [b.seq for b in shard.drain()]
        assert drained == list(range(len(order)))
        assert shard.backlog() == 0
        assert shard.pending_s == pytest.approx(0.0)

    def test_record_accumulates_stats(self):
        shard = DeviceShard(3)
        batch = make_batch(0, n=4)
        shard.enqueue(batch)
        next(shard.drain())
        shard.record(batch, service_s=0.5, completion_s=0.7, switched=True)
        assert shard.clock_s == 0.7
        assert shard.stats.requests == 4
        assert shard.stats.batches == 1
        assert shard.stats.switches == 1
        assert shard.stats.busy_s == pytest.approx(0.5)
        assert shard.stats.utilization(1.0) == pytest.approx(0.5)


class TestDispatcher:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            make_dispatcher("fastest-first")

    def test_round_robin_cycles(self):
        shards = [DeviceShard(i) for i in range(3)]
        dispatcher = make_dispatcher("round-robin")
        homes = [dispatcher.route(make_batch(seq), shards).shard_id
                 for seq in range(7)]
        assert homes == [0, 1, 2, 0, 1, 2, 0]

    def test_least_loaded_balances_estimated_backlog(self):
        shards = [DeviceShard(i) for i in range(2)]
        dispatcher = make_dispatcher("least-loaded")
        # alternating heavy/light batches: round-robin would pile every
        # heavy batch onto shard 0; least-loaded interleaves them
        weights = [4.0, 1.0, 4.0, 1.0, 4.0, 1.0]
        for seq, est in enumerate(weights):
            dispatcher.route(make_batch(seq, est=est), shards)
        loads = sorted(s.pending_s for s in shards)
        # round-robin would split 12 / 3; least-loaded lands on 6 / 9
        assert loads == [pytest.approx(6.0), pytest.approx(9.0)]

    def test_least_loaded_beats_round_robin_on_skewed_traffic(self):
        def assign(policy):
            shards = [DeviceShard(i) for i in range(2)]
            dispatcher = make_dispatcher(policy)
            for seq in range(8):
                est = 4.0 if seq % 2 == 0 else 0.5
                dispatcher.route(make_batch(seq, est=est), shards)
            return max(s.pending_s for s in shards)

        assert assign("least-loaded") < assign("round-robin")


class TestShardedServing:
    def test_requests_partition_across_shards(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=3, policy="round-robin")
        trace = build_scenario("bursty", wl, ScenarioConfig(num_requests=48, seed=3))
        report = engine.serve(trace)
        assert report.num_requests == 48
        assert {s.shard_id for s in report.shard_stats} == {0, 1, 2}
        assert sum(s.requests for s in report.shard_stats) == 48
        served_ids = sorted(r.request.req_id for r in report.results)
        assert served_ids == list(range(48))
        assert {r.shard_id for r in report.results} == {0, 1, 2}

    def test_sharded_outputs_exactly_equal_per_request(self):
        model_a, model_b = TransformerLM(LM_CFG).eval(), TransformerLM(LM_CFG).eval()
        sharded, wl = build_engine(model_a, devices=4, policy="least-loaded")
        single, _ = build_engine(model_b, max_batch=1, devices=1)
        trace = build_scenario("bursty", wl, ScenarioConfig(num_requests=32, seed=5))
        by_id = lambda rep: {r.request.req_id: r.output for r in rep.results}  # noqa: E731
        outs_s, outs_1 = by_id(sharded.serve(trace)), by_id(single.serve(list(trace)))
        assert outs_s.keys() == outs_1.keys()
        for req_id, out in outs_s.items():
            np.testing.assert_allclose(out, outs_1[req_id], atol=1e-9, rtol=0)

    def test_each_shard_pays_its_own_switches(self):
        # bursts alternate sparsity rungs, so with round-robin every shard
        # must install both rungs itself: total switches grow with devices
        model_1, model_4 = TransformerLM(LM_CFG).eval(), TransformerLM(LM_CFG).eval()
        serial, wl = build_engine(model_1, devices=1)
        sharded, _ = build_engine(model_4, devices=4, policy="round-robin")
        trace = build_scenario("bursty", wl, ScenarioConfig(num_requests=64, seed=3),
                               burst_size=32, burst_gap_s=2e-3)
        r1, r4 = serial.serve(trace), sharded.serve(list(trace))
        assert r4.num_switches > r1.num_switches
        assert sum(s.switches for s in r4.shard_stats) == r4.num_switches

    def test_scaling_on_saturated_bursty_traffic(self):
        def run(devices):
            _, wl, engine = build_serving_stack(StackConfig(
                dim=96, devices=devices, policy="least-loaded", prewarm=True))
            trace = build_scenario("bursty", wl,
                                   ScenarioConfig(num_requests=96, seed=0),
                                   burst_size=32, burst_gap_s=2e-3,
                                   deadline_factors=(1.7, 1.7))
            return engine.serve(trace)

        r1, r4 = run(1), run(4)
        scaling = r4.sim_throughput_rps / r1.sim_throughput_rps
        assert scaling >= 2.0
        assert r4.sim_makespan_s < r1.sim_makespan_s

    def test_invalid_devices_rejected(self):
        model = TransformerLM(LM_CFG).eval()
        with pytest.raises(ValueError, match="devices"):
            build_engine(model, devices=0)

    def test_invalid_policy_rejected_eagerly(self):
        model = TransformerLM(LM_CFG).eval()
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            build_engine(model, policy="fastest-first")

    def test_fallback_install_counted_in_shard_stats(self):
        # an infeasible deadline on a cold device installs the sparsest
        # set: not an adapter switch (event semantics, pinned elsewhere)
        # but a physical device install the per-shard stats must show
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=1)
        rng = np.random.default_rng(0)
        reqs = [InferenceRequest(i, rng.integers(1, 60, size=8),
                                 arrival_s=i * 1e-4, deadline_s=1e-12, slo_s=10.0)
                for i in range(16)]
        report = engine.serve(reqs)
        assert report.num_switches == 0  # adapter never switched
        assert report.shard_stats[0].switches == 1  # the device installed once

    def test_adapter_state_synced_after_serve(self):
        # direct adapter use after serving must not re-charge a switch for
        # the pattern set the engine left installed
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=2)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=32, seed=3))
        report = engine.serve(trace)
        installed = {r.sparsity for r in report.results}
        assert engine.adapter.active_sparsity in installed
        level = DVFSTable()[trace[0].level_name]
        event = engine.adapter.adapt(level, trace[0].deadline_s)
        assert event.chosen_sparsity == engine.adapter.active_sparsity
        assert not event.switched

    def test_preinstalled_adapter_state_not_recharged(self):
        # adapter.adapt before serving installs a pattern set; the engine's
        # devices inherit that provisioning instead of re-charging it
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=2)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=32, seed=3))
        level = DVFSTable()[trace[0].level_name]
        pre = engine.adapter.adapt(level, trace[0].deadline_s)
        assert pre.switched  # the one real install, paid up front
        report = engine.serve(trace)
        assert report.num_switches == 0
        assert all(s.switches == 0 for s in report.shard_stats)

    def test_devices_keep_installed_state_across_runs(self):
        # a device retains its masks between traces: the second run must
        # not re-charge the cold-start install
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=2)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=32, seed=3))
        first = engine.serve(trace)
        second = engine.serve(list(trace))
        assert first.num_switches > 0  # cold start installs once per device
        assert second.num_switches == 0
        assert second.sim_makespan_s < first.sim_makespan_s


class TestTimeSlicing:
    def test_offsets_sum_to_batch_latency(self, tiny_transformer):
        wl = profile_from_model(tiny_transformer, seq_len=12)
        lat = LatencyModel()
        level = DVFSTable()["l4"]
        offsets = lat.batch_completion_offsets_s(wl, level, 8, 0.5,
                                                 SparsityKind.PATTERN, 8)
        assert len(offsets) == 8
        assert offsets == sorted(offsets)
        assert offsets[-1] == pytest.approx(
            lat.batch_latency_s(wl, level, 8, 0.5, SparsityKind.PATTERN, 8))
        # equal spacing: each member adds one request's worth of MAC work
        gaps = np.diff(offsets)
        np.testing.assert_allclose(gaps, gaps[0])

    def test_invalid_batch_rejected(self, tiny_transformer):
        wl = profile_from_model(tiny_transformer, seq_len=12)
        with pytest.raises(ValueError):
            LatencyModel().batch_completion_offsets_s(wl, DVFSTable()["l4"], 0)

    def test_time_sliced_matches_serial_engine_exactly(self):
        """Time slicing redistributes completions inside a batch only."""
        model_a, model_b = TransformerLM(LM_CFG).eval(), TransformerLM(LM_CFG).eval()
        sliced, wl = build_engine(model_a, devices=1, time_sliced=True)
        serial, _ = build_engine(model_b, devices=1, time_sliced=False)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=48, seed=3))
        a, b = sliced.serve(trace), serial.serve(list(trace))

        def batch_end(report):
            out = {}
            for r in report.results:
                out[r.batch_id] = max(out.get(r.batch_id, 0.0), r.completion_s)
            return out

        # identical batching, identical batch end times, identical makespan
        assert [e.chosen_sparsity for e in a.events] == \
               [e.chosen_sparsity for e in b.events]
        assert batch_end(a) == batch_end(b)
        assert a.sim_makespan_s == b.sim_makespan_s
        assert a.sim_throughput_rps == b.sim_throughput_rps
        # identical outputs
        for ra, rb in zip(a.results, b.results):
            assert ra.request.req_id == rb.request.req_id
            np.testing.assert_array_equal(ra.output, rb.output)

    def test_early_members_exit_early(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=1, time_sliced=True)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=16, seed=3))
        report = engine.serve(trace)
        full = [r for r in report.results
                if r.batch_size == engine.config.max_batch]
        assert full, "expected at least one full batch"
        by_batch = {}
        for r in full:
            by_batch.setdefault(r.batch_id, []).append(r.completion_s)
        for completions in by_batch.values():
            assert len(set(completions)) == len(completions), \
                "time slicing must spread completions inside a batch"

    def test_time_slicing_sharpens_p50(self):
        model_a, model_b = TransformerLM(LM_CFG).eval(), TransformerLM(LM_CFG).eval()
        sliced, wl = build_engine(model_a, devices=1, time_sliced=True)
        serial, _ = build_engine(model_b, devices=1, time_sliced=False)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=48, seed=3))
        assert sliced.serve(trace).p50_latency_s < serial.serve(list(trace)).p50_latency_s


class TestPrewarm:
    def test_prewarm_waives_cold_start_switch_cost(self):
        model_a, model_b = TransformerLM(LM_CFG).eval(), TransformerLM(LM_CFG).eval()
        cold, wl = build_engine(model_a, devices=2)
        warm, _ = build_engine(model_b, devices=2, prewarm=True)
        trace = build_scenario("steady", wl, ScenarioConfig(num_requests=32, seed=3))
        r_cold, r_warm = cold.serve(trace), warm.serve(list(trace))
        assert r_warm.num_switches < r_cold.num_switches
        assert r_warm.sim_makespan_s < r_cold.sim_makespan_s
        # provisioning never changes outputs
        for ra, rb in zip(r_warm.results, r_cold.results):
            np.testing.assert_array_equal(ra.output, rb.output)


class TestBandwidthScenario:
    def test_deterministic_and_jittered(self, tiny_transformer):
        wl = profile_from_model(tiny_transformer, seq_len=12)
        cfg = ScenarioConfig(num_requests=48, seed=11)
        a = build_scenario("bandwidth", wl, cfg)
        b = build_scenario("bandwidth", wl, cfg)
        assert [r.deadline_s for r in a] == [r.deadline_s for r in b]
        assert len({round(r.deadline_s, 9) for r in a}) > 10  # real jitter
        assert {r.level_name for r in a} == {"l6"}  # one V/F level: pure
        # deadline-driven adaptation, the paper's translation story

    def test_rides_the_sparsity_ladder(self):
        model = TransformerLM(LM_CFG).eval()
        engine, wl = build_engine(model, devices=1)
        trace = build_scenario("bandwidth", wl, ScenarioConfig(num_requests=96, seed=0))
        report = engine.serve(trace)
        rungs = {e.chosen_sparsity for e in report.events}
        assert None not in rungs, "bandwidth deadlines must stay feasible"
        assert len(rungs) >= 3, "fluctuating bandwidth should move the ladder"
        assert report.num_switches >= 2


class TestLevelAffinityDrain:
    def interleaved_shard(self, drain_policy="level-affinity", window=4,
                          levels=("l6", "l4"), n=12):
        shard = make_shard(drain_policy, window)
        for seq in range(n):
            shard.enqueue(make_batch(seq, levels[seq % len(levels)]))
        return shard

    def test_unknown_drain_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown drain policy"):
            make_shard(drain_policy="lifo")

    def test_invalid_fairness_window_rejected(self):
        with pytest.raises(ValueError, match="fairness_window"):
            make_shard(fairness_window=0)

    def test_serves_levels_run_to_run(self):
        # alternating enqueue order, but the drain sticks with a level:
        # runs of `window` instead of a switch per batch
        shard = self.interleaved_shard(window=4)
        drained = list(shard.drain())
        runs = []
        for batch in drained:
            if runs and runs[-1][0] == batch.level_name:
                runs[-1][1].append(batch.seq)
            else:
                runs.append((batch.level_name, [batch.seq]))
        # 6 batches per level, window 4: runs of 4,4 then the 2,2 tails —
        # 4 level runs instead of FIFO's 12 alternations
        assert len(runs) == 4
        assert [len(seqs) for _, seqs in runs] == [4, 4, 2, 2]
        # within a level, FIFO order is preserved
        for _, seqs in runs:
            assert seqs == sorted(seqs)
        assert sorted(b.seq for b in drained) == list(range(12))

    def test_fifo_still_default_and_global_order(self):
        shard = self.interleaved_shard(drain_policy="fifo")
        assert [b.seq for b in shard.drain()] == list(range(12))

    def test_fairness_window_bounds_runs(self):
        # window=2 on a 3-level interleave: no level may be served more
        # than `window` consecutive batches while another level waits
        shard = make_shard("level-affinity", 2)
        levels = ["l6", "l4", "l3"]
        for seq in range(18):
            shard.enqueue(make_batch(seq, levels[seq % 3]))
        run_len, last, longest = 0, None, 0
        for batch in shard.drain():
            run_len = run_len + 1 if batch.level_name == last else 1
            last = batch.level_name
            longest = max(longest, run_len)
        assert longest <= 2

    def test_no_starvation_under_saturation(self):
        # one dominant level must not starve the minority level: the
        # minority's batches appear before the dominant queue is exhausted
        shard = make_shard("level-affinity", 3)
        for seq in range(15):
            shard.enqueue(make_batch(seq, "l6"))
        shard.enqueue(make_batch(15, "l4"))
        order = [b.level_name for b in shard.drain()]
        assert "l4" in order[:4]  # served after at most `window` l6 batches
        assert len(order) == 16

    def test_exhausted_level_rotates_out(self):
        shard = make_shard("level-affinity", 8)
        shard.enqueue(make_batch(0, "l6"))
        for seq in range(1, 5):
            shard.enqueue(make_batch(seq, "l4"))
        drained = [b.seq for b in shard.drain()]
        assert sorted(drained) == list(range(5))
        assert shard.backlog() == 0


class TestSwitchAwareDispatch:
    def test_prefers_shard_with_matching_pattern_set(self):
        shards = [DeviceShard(0), DeviceShard(1)]
        shards[0].expected_sparsity = 0.3
        shards[1].expected_sparsity = 0.7
        dispatcher = make_dispatcher("switch-aware", switch_cost_s={0.3: 1.0, 0.7: 1.0})
        batch = make_batch(0)
        batch.sparsity = 0.7
        assert dispatcher.route(batch, shards).shard_id == 1

    def test_load_outweighs_switch_when_imbalanced(self):
        shards = [DeviceShard(0), DeviceShard(1)]
        shards[0].expected_sparsity = 0.7
        shards[0].assigned_est_s = 5.0  # matching shard, but deeply loaded
        shards[1].expected_sparsity = 0.3
        dispatcher = make_dispatcher("switch-aware", switch_cost_s={0.7: 1.0})
        batch = make_batch(0, est=0.1)
        batch.sparsity = 0.7
        # 5.0 backlog vs 0.0 + 1.0 switch: the swap is the cheaper path
        assert dispatcher.route(batch, shards).shard_id == 1

    def test_enqueue_updates_expected_sparsity(self):
        shard = DeviceShard(0)
        batch = make_batch(0)
        batch.sparsity = 0.5
        shard.enqueue(batch)
        assert shard.expected_sparsity == 0.5

    def test_unresolved_sparsity_costs_nothing(self):
        # infeasible batches (sparsity None) rout purely by load
        shards = [DeviceShard(0), DeviceShard(1)]
        shards[1].assigned_est_s = 1.0
        dispatcher = make_dispatcher("switch-aware", switch_cost_s={0.3: 9.0})
        assert dispatcher.route(make_batch(0), shards).shard_id == 0


class TestSwitchReductionEndToEnd:
    """Acceptance: level-affinity + switch-aware cut simulated switches on
    rung-alternating bursty traffic with throughput no worse."""

    def run(self, policy, drain, devices, trace, model=None):
        model = model or TransformerLM(LM_CFG).eval()
        engine, _ = build_engine(model, devices=devices, policy=policy,
                                 drain_policy=drain)
        return engine.serve(list(trace))

    def make_trace(self, wl, n=96):
        # saturating bursts alternating V/F rungs: the worst case for
        # global-FIFO drain (a pattern swap per burst)
        return build_scenario("bursty", wl, ScenarioConfig(num_requests=n, seed=0),
                              burst_size=8, burst_gap_s=1e-4)

    def test_level_affinity_cuts_switches_single_device(self):
        wl = profile_from_model(TransformerLM(LM_CFG).eval(), seq_len=12)
        trace = self.make_trace(wl)
        fifo = self.run("round-robin", "fifo", 1, trace)
        affinity = self.run("round-robin", "level-affinity", 1, trace)
        fifo_switches = sum(s.switches for s in fifo.shard_stats)
        affinity_switches = sum(s.switches for s in affinity.shard_stats)
        assert affinity.num_requests == fifo.num_requests
        assert affinity_switches < fifo_switches
        assert affinity.sim_throughput_rps >= fifo.sim_throughput_rps

    def test_switch_aware_routing_cuts_switches_sharded(self):
        wl = profile_from_model(TransformerLM(LM_CFG).eval(), seq_len=12)
        trace = self.make_trace(wl)
        fifo = self.run("least-loaded", "fifo", 4, trace)
        tuned = self.run("switch-aware", "level-affinity", 4, trace)
        fifo_switches = sum(s.switches for s in fifo.shard_stats)
        tuned_switches = sum(s.switches for s in tuned.shard_stats)
        assert tuned.num_requests == fifo.num_requests
        assert tuned_switches < fifo_switches
        assert tuned.sim_throughput_rps >= fifo.sim_throughput_rps

    def test_outputs_identical_across_policies(self):
        wl = profile_from_model(TransformerLM(LM_CFG).eval(), seq_len=12)
        trace = self.make_trace(wl, n=32)
        base = self.run("least-loaded", "fifo", 2, trace)
        tuned = self.run("switch-aware", "level-affinity", 2, trace)
        outs_a = {r.request.req_id: r.output for r in base.results}
        outs_b = {r.request.req_id: r.output for r in tuned.results}
        assert outs_a.keys() == outs_b.keys()
        for req_id, out in outs_a.items():
            np.testing.assert_allclose(out, outs_b[req_id], atol=1e-9, rtol=0)

    def test_engine_rejects_unknown_drain_policy(self):
        model = TransformerLM(LM_CFG).eval()
        with pytest.raises(ValueError, match="unknown drain policy"):
            build_engine(model, drain_policy="lifo")
