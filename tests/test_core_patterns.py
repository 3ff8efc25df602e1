"""Patterns, pattern sets, mask application and storage accounting."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.block_pruning import BlockPruningConfig, apply_block_pruning
from repro.core.patterns import (
    MaskManager,
    PackedMask,
    Pattern,
    PatternSet,
    block_sparse_nbytes,
    coo_nbytes,
    pattern_mask_for_matrix,
    random_pattern_set,
)
from repro.nn.optim import SGD
from repro.nn.transformer import TransformerLM
from repro.serve.cache import ArtifactCache
from repro.tensor.tensor import Tensor


def checkerboard(n):
    return Pattern(np.indices((n, n)).sum(axis=0) % 2)


class TestPattern:
    def test_sparsity(self):
        p = checkerboard(4)
        assert p.sparsity == pytest.approx(0.5)

    def test_immutable(self):
        p = checkerboard(4)
        with pytest.raises(ValueError):
            p.mask[0, 0] = 1.0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Pattern(np.ones((2, 3)))

    def test_equality_and_hash(self):
        a, b = checkerboard(4), checkerboard(4)
        assert a == b and hash(a) == hash(b)
        c = Pattern(np.ones((4, 4)))
        assert a != c

    def test_nbytes_bitmask(self):
        assert Pattern(np.ones((8, 8))).nbytes == 8.0

    def test_render(self):
        out = Pattern(np.eye(3)).render()
        assert out.splitlines()[0] == "#.."


class TestPatternSet:
    def test_requires_patterns(self):
        with pytest.raises(ValueError):
            PatternSet([])

    def test_size_consistency(self):
        with pytest.raises(ValueError):
            PatternSet([checkerboard(4), checkerboard(8)])

    def test_default_sparsity_is_mean(self):
        ps = PatternSet([checkerboard(4), Pattern(np.ones((4, 4)))])
        assert ps.sparsity == pytest.approx(0.25)

    def test_subset(self):
        ps = PatternSet([checkerboard(4), Pattern(np.ones((4, 4)))], sparsity=0.5)
        sub = ps.subset([1])
        assert len(sub) == 1
        assert sub.sparsity == 0.5  # nominal sparsity carried over

    def test_indexing_iteration(self):
        ps = PatternSet([checkerboard(4), Pattern(np.ones((4, 4)))])
        assert ps[0] == checkerboard(4)
        assert len(list(ps)) == 2


class TestRandomPatternSet:
    def test_sparsity_respected(self):
        ps = random_pattern_set(10, 0.7, 4, np.random.default_rng(0))
        for p in ps:
            assert p.sparsity == pytest.approx(0.7, abs=0.02)

    def test_count(self):
        assert len(random_pattern_set(6, 0.5, 5, np.random.default_rng(1))) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            random_pattern_set(6, 1.0, 2)


class TestPatternMaskForMatrix:
    def test_exact_tiling(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(8, 8))
        ps = PatternSet([checkerboard(4), Pattern(np.eye(4))], sparsity=0.5)
        mask, ids = pattern_mask_for_matrix(w, ps)
        assert mask.shape == w.shape
        assert ids.shape == (2, 2)
        assert set(np.unique(mask)) <= {0.0, 1.0}

    def test_pads_non_divisible(self):
        w = np.random.default_rng(1).normal(size=(10, 7))
        ps = PatternSet([checkerboard(4)])
        mask, ids = pattern_mask_for_matrix(w, ps)
        assert mask.shape == (10, 7)
        assert ids.shape == (3, 2)

    def test_chooses_largest_l2_pattern(self):
        """Fig. 2 rule: each block keeps the pattern retaining most energy."""
        w = np.zeros((4, 4))
        w[0, :] = 5.0  # all energy in row 0
        row_pattern = Pattern(np.vstack([np.ones((1, 4)), np.zeros((3, 4))]))
        col_pattern = Pattern(np.hstack([np.ones((4, 1)), np.zeros((4, 3))]))
        ps = PatternSet([col_pattern, row_pattern])
        mask, ids = pattern_mask_for_matrix(w, ps)
        assert ids[0, 0] == 1  # row pattern wins
        assert np.allclose(mask, row_pattern.mask)

    def test_mask_sparsity_tracks_pattern_sparsity(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(32, 32))
        ps = random_pattern_set(8, 0.75, 3, rng)
        mask, _ = pattern_mask_for_matrix(w, ps)
        assert 1.0 - mask.mean() == pytest.approx(0.75, abs=0.02)


class TestStorageAccounting:
    def test_coo_counts_three_vectors(self):
        mask = np.zeros((10, 10))
        mask[:5] = 1.0
        # 50 nonzeros * (4 value + 8 index bytes)
        assert coo_nbytes(mask) == 50 * 12

    def test_block_storage_beats_coo(self):
        """The paper's memory argument: BP indices are per kept group."""
        rng = np.random.default_rng(3)
        w = rng.normal(size=(100, 80))
        mask = np.ones_like(w)
        mask[:, ::2] = 0.0  # half the columns pruned (all blocks agree)
        assert block_sparse_nbytes(mask, 4) < coo_nbytes(mask)

    def test_block_index_count(self):
        mask = np.ones((8, 4))
        # 1 block, 4 kept columns -> 32 values * 4B + 4 idx * 2B
        assert block_sparse_nbytes(mask, 1) == 32 * 4 + 4 * 2


class TestMaskManager:
    @pytest.fixture()
    def managed(self, tiny_transformer):
        report = apply_block_pruning(tiny_transformer,
                                     BlockPruningConfig(num_blocks=2, rate=0.3))
        return tiny_transformer, MaskManager(tiny_transformer, report.masks)

    def test_backbone_sparsity(self, managed):
        _, mgr = managed
        assert mgr.backbone_sparsity() == pytest.approx(0.3, abs=0.05)

    def test_apply_composes_with_backbone(self, managed):
        model, mgr = managed
        ps = random_pattern_set(8, 0.5, 3, np.random.default_rng(0))
        mgr.apply(ps)
        combined = mgr.combined_sparsity()
        # combined sparsity >= max(bp, pp) since masks intersect
        assert combined >= 0.5 - 0.02
        assert combined >= mgr.backbone_sparsity()
        for name, layer in mgr.layers.items():
            # nothing pruned by BP is resurrected
            assert np.all(layer.mask <= mgr.backbone_masks[name])

    def test_clear_patterns_restores_backbone(self, managed):
        _, mgr = managed
        ps = random_pattern_set(8, 0.5, 2, np.random.default_rng(1))
        mgr.apply(ps)
        mgr.clear_patterns()
        assert mgr.combined_sparsity() == pytest.approx(mgr.backbone_sparsity())

    def test_clear_all_removes_masks(self, managed):
        _, mgr = managed
        mgr.clear_all()
        for layer in mgr.layers.values():
            assert layer.mask is None

    def test_swap_nbytes_small(self, managed):
        """The deployable switch moves kilobytes, not megabytes."""
        _, mgr = managed
        ps = random_pattern_set(8, 0.5, 4, np.random.default_rng(2))
        nbytes = mgr.swap_nbytes(ps)
        model_bytes = sum(l.weight.size for l in mgr.layers.values()) * 4
        assert nbytes < 0.05 * model_bytes

    def test_snapshot_masks(self, managed):
        _, mgr = managed
        ps = random_pattern_set(8, 0.6, 2, np.random.default_rng(3))
        mgr.apply(ps)
        snap = mgr.snapshot_masks()
        mgr.clear_patterns()
        for name, layer in mgr.layers.items():
            assert not np.array_equal(snap[name], layer.mask) or snap[name].mean() == layer.mask.mean()

    def test_no_prunable_layers_rejected(self):
        from repro.nn.layers import Linear
        from repro.nn.module import Module

        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(2, 2)

        with pytest.raises(ValueError):
            MaskManager(Tiny())


# ---------------------------------------------------------------------------
# re-installs: the resident pointer swap and every case that falls through
# ---------------------------------------------------------------------------

@pytest.fixture()
def count_unpacks(monkeypatch):
    calls = []
    original = PackedMask.unpack

    def counting(self):
        calls.append(1)
        return original(self)

    monkeypatch.setattr(PackedMask, "unpack", counting)
    return calls


class TestMaskManagerReinstall:
    @pytest.fixture()
    def setup(self, tiny_transformer):
        report = apply_block_pruning(tiny_transformer,
                                     BlockPruningConfig(num_blocks=2, rate=0.3))
        mgr = MaskManager(tiny_transformer, report.masks, cache=ArtifactCache())
        psets = [random_pattern_set(8, s, 3, np.random.default_rng(i))
                 for i, s in enumerate((0.5, 0.7))]
        return tiny_transformer, report.masks, mgr, psets

    @staticmethod
    def assert_matches_fresh(model, backbone, mgr, pset, cache=True):
        """Installed masks and pattern ids == a fresh manager's install."""
        masks = mgr.snapshot_masks()
        ids = {name: a.copy() for name, a in mgr._pattern_ids.items()}
        fresh = MaskManager(model, backbone,
                            cache=ArtifactCache() if cache else None)
        fresh.apply(pset)
        assert masks.keys() == fresh.snapshot_masks().keys()
        for name, layer in fresh.layers.items():
            assert np.array_equal(masks[name], layer.mask), name
        assert ids.keys() == fresh._pattern_ids.keys()
        for name, want in fresh._pattern_ids.items():
            assert np.array_equal(ids[name], want), name

    def test_identical_reinstall_unpacks_nothing(self, setup, count_unpacks):
        _, _, mgr, psets = setup
        mgr.apply(psets[0])
        tokens = {n: l.cache_token for n, l in mgr.layers.items()}
        unpacks = len(count_unpacks)
        hits = mgr.cache.stats.hits
        mgr.apply(psets[0])
        assert len(count_unpacks) == unpacks
        assert {n: l.cache_token for n, l in mgr.layers.items()} == tokens
        # every layer's artifact was still looked up
        assert mgr.cache.stats.hits == hits + len(mgr.layers)

    def test_switch_back_reinstates_tokens(self, setup, count_unpacks):
        model, backbone, mgr, psets = setup
        mgr.apply(psets[0])
        tokens = {n: l.cache_token for n, l in mgr.layers.items()}
        mgr.apply(psets[1])
        assert {n: l.cache_token for n, l in mgr.layers.items()} != tokens
        unpacks = len(count_unpacks)
        mgr.apply(psets[0])
        assert len(count_unpacks) == unpacks
        assert {n: l.cache_token for n, l in mgr.layers.items()} == tokens
        self.assert_matches_fresh(model, backbone, mgr, psets[0])

    def test_resident_masks_are_read_only(self, setup):
        _, _, mgr, psets = setup
        mgr.apply(psets[0])
        layer = next(iter(mgr.layers.values()))
        with pytest.raises(ValueError):
            layer.mask[0, 0] = 1.0

    def test_direct_set_mask_falls_through(self, setup):
        model, backbone, mgr, psets = setup
        mgr.apply(psets[0])
        name, layer = next(iter(mgr.layers.items()))
        layer.set_mask(np.ones_like(layer.weight.data))
        mgr.apply(psets[0])
        assert not np.all(layer.mask == 1.0)
        self.assert_matches_fresh(model, backbone, mgr, psets[0])

    def test_optimizer_step_falls_through(self, setup):
        model, backbone, mgr, psets = setup
        mgr.apply(psets[0])
        before = mgr.snapshot_masks()
        rng = np.random.default_rng(0)
        toks = rng.integers(0, model.cfg.vocab_size, size=(4, 10))
        model.loss(Tensor(toks), Tensor(toks)).backward()
        SGD(model.parameters(), lr=50.0).step()
        # cached masks assume frozen weights: a weight update is followed
        # by invalidate_cache (the documented protocol)
        mgr.invalidate_cache()
        mgr.apply(psets[0])
        after = mgr.snapshot_masks()
        assert any(not np.array_equal(before[n], after[n]) for n in before)
        self.assert_matches_fresh(model, backbone, mgr, psets[0])

    def test_load_state_dict_falls_through(self, setup):
        model, backbone, mgr, psets = setup
        mgr.apply(psets[0])
        before = mgr.snapshot_masks()
        other = TransformerLM(replace(model.cfg, seed=11))
        model.load_state_dict(other.state_dict())
        # cleared at the cache (say, by another user of a shared cache),
        # not through the manager: its resident masks must not outlive
        # the artifacts they were derived from
        mgr.cache.invalidate()
        mgr.apply(psets[0])
        after = mgr.snapshot_masks()
        assert any(not np.array_equal(before[n], after[n]) for n in before)
        self.assert_matches_fresh(model, backbone, mgr, psets[0])

    def test_weight_update_without_invalidation_keeps_cached_masks(self, setup):
        # no invalidate_cache: the cached artifacts (and so the installed
        # masks) are what the cache holds, exactly as before the update
        model, _, mgr, psets = setup
        mgr.apply(psets[0])
        before = mgr.snapshot_masks()
        for layer in mgr.layers.values():
            layer.weight.data[...] = -layer.weight.data
            layer.weight.bump_version()
        mgr.apply(psets[0])
        after = mgr.snapshot_masks()
        assert all(np.array_equal(before[n], after[n]) for n in before)

    def test_clear_all_then_same_set(self, setup):
        model, backbone, mgr, psets = setup
        mgr.apply(psets[0])
        mgr.clear_all()
        mgr.apply(psets[0])
        assert all(layer.mask is not None for layer in mgr.layers.values())
        self.assert_matches_fresh(model, backbone, mgr, psets[0])

    def test_apply_none_twice(self, setup):
        model, backbone, mgr, psets = setup
        mgr.apply(psets[0])
        mgr.apply(None)
        mgr.apply(None)
        assert mgr.active_set is None and mgr._pattern_ids == {}
        self.assert_matches_fresh(model, backbone, mgr, None)
        for name, layer in mgr.layers.items():
            assert np.array_equal(layer.mask, backbone[name])

    def test_manager_without_cache(self, setup, count_unpacks):
        # the RT3 search path: masks derive from the live weights on
        # every apply, nothing is kept resident
        model, backbone, _, psets = setup
        mgr = MaskManager(model, backbone)
        mgr.apply(psets[0])
        name, layer = next(iter(mgr.layers.items()))
        layer.set_mask(np.ones_like(layer.weight.data))
        mgr.apply(psets[0])
        assert count_unpacks == [] and not mgr._resident
        self.assert_matches_fresh(model, backbone, mgr, psets[0], cache=False)

    def test_resident_sets_bounded(self, setup):
        from repro.core.patterns import _RESIDENT_SETS
        _, _, mgr, _ = setup
        rng = np.random.default_rng(5)
        for _ in range(_RESIDENT_SETS + 3):
            mgr.apply(random_pattern_set(8, 0.5, 2, rng))
        assert len(mgr._resident) == _RESIDENT_SETS
