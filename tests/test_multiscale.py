"""Resolution adaptation, multilevel training, and depth prolongation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mgcnn import multiscale as multiscale_mod
from mgcnn import network as network_mod
from mgcnn.data import LabeledDataset, SyntheticKind, make_synthetic, split
from mgcnn.errors import DimensionError
from mgcnn.grid import (
    Grid2D,
    TransferKind,
    TransferPair,
    gaussian_blur_values,
    restrict_values,
)
from mgcnn.multiscale import (
    Direction,
    LevelSchedule,
    ResolutionPyramid,
    adapt_model_resolution,
    multilevel_train,
    prolong_depth,
    shallow_to_deep_train,
)
from mgcnn.network import (
    Activation,
    Classifier,
    NetworkInit,
    loss,
    propagate_final,
    random_network_params,
    zero_classifier,
)
from mgcnn.stencils import StencilBank, build_coarsen_map
from mgcnn.training import (
    ArmijoBacktracking,
    BcdConfig,
    EvalReport,
    RegConfig,
    TrainResult,
    bcd_train,
    evaluate,
)

from oracles import naive_time_resample, rel_err

CA = TransferPair.constant_average()
FW = TransferPair.bilinear_full_weighting()


def varied_params(seed=0, num_layers=2, channels=2):
    rng = np.random.default_rng(seed)
    p = random_network_params(channels=channels, num_layers=num_layers,
                              final_time=1.0, seed=seed, init_scale=0.3)
    for b in p.banks:
        b.weights[:] = rng.normal(0.0, 0.3, b.weights.shape)
    p.embed.weights[:] = rng.normal(0.0, 0.3, p.embed.weights.shape)
    p.biases[:] = rng.normal(0.0, 0.3, p.biases.shape)
    return p


def block_classes(n, num_classes, side, seed=0):
    """One random pattern of 4x4-pixel blocks per class, with pixel noise;
    two 2x coarsenings keep one cell per block, so the classes stay apart."""
    rng = np.random.default_rng(seed)
    protos = rng.random((num_classes, side // 4, side // 4)) < 0.5
    labels = np.arange(n) % num_classes
    pixels = np.kron(protos[labels].astype(float), np.ones((4, 4)))
    values = 0.25 + 0.4 * pixels + 0.05 * rng.standard_normal(pixels.shape)
    return LabeledDataset(Grid2D(side, side, 1.0), np.clip(values, 0.0, 1.0), labels,
                          num_classes)


def identity_params(channels=2, num_layers=2, k=3):
    p = random_network_params(channels=channels, num_layers=num_layers,
                              final_time=1.0, kernel_size=k)
    w = np.zeros((channels, channels, k, k))
    for c in range(channels):
        w[c, c, k // 2, k // 2] = 1.0
    for b in p.banks:
        b.weights[:] = w
    return p


class TestAdaptModelResolution:
    @pytest.mark.parametrize("pair", [CA, FW], ids=["ca", "fw"])
    def test_coarsen_then_refine_restores_banks(self, pair):
        cmap = build_coarsen_map(3, pair)
        p = varied_params(0)
        clf = Classifier(Grid2D(8, 8, 1.0),
                         np.random.default_rng(1).normal(size=(2, 2, 8, 8)),
                         np.array([0.3, -0.3]))
        pc, cc = adapt_model_resolution(p, clf, Direction.COARSEN, cmap, pair)
        pf, cf = adapt_model_resolution(pc, cc, Direction.REFINE, cmap, pair)
        for b0, b1 in zip(p.banks, pf.banks):
            assert rel_err(b1.weights, b0.weights) <= 1e-10
        assert rel_err(pf.embed.weights, p.embed.weights) <= 1e-10
        np.testing.assert_array_equal(pf.biases, p.biases)
        np.testing.assert_array_equal(cf.mu, clf.mu)
        assert (pf.dt, pf.final_time, pf.num_layers) == (p.dt, p.final_time, p.num_layers)

    @pytest.mark.parametrize("pair", [CA, FW], ids=["ca", "fw"])
    def test_refine_then_coarsen_restores_banks(self, pair):
        cmap = build_coarsen_map(3, pair)
        p = varied_params(2)
        clf = Classifier(Grid2D(8, 8, 1.0),
                         np.random.default_rng(3).normal(size=(2, 2, 8, 8)),
                         np.zeros(2))
        pf, cf = adapt_model_resolution(p, clf, Direction.REFINE, cmap, pair)
        pc, cc = adapt_model_resolution(pf, cf, Direction.COARSEN, cmap, pair)
        for b0, b1 in zip(p.banks, pc.banks):
            assert rel_err(b1.weights, b0.weights) <= 1e-10
        if pair.kind is TransferKind.CONSTANT_AVERAGE:
            # R P = I everywhere for this pair, so classifier fields return.
            assert rel_err(cc.weights, clf.weights) <= 1e-12
        else:
            # Bilinear full weighting restores only its invariant subspace;
            # constants are in it.
            const = Classifier(clf.grid, np.full_like(clf.weights, 0.7), clf.mu)
            _, up = adapt_model_resolution(p, const, Direction.REFINE, cmap, pair)
            _, back = adapt_model_resolution(pf, up, Direction.COARSEN, cmap, pair)
            assert rel_err(back.weights, const.weights) <= 1e-13
        assert (cc.grid.ny, cc.grid.nx, cc.grid.h) == (8, 8, 1.0)

    def test_block_constant_classifier_round_trips_ca(self):
        cmap = build_coarsen_map(3, CA)
        p = varied_params(4)
        rng = np.random.default_rng(5)
        w = rng.normal(size=(2, 2, 4, 4)).repeat(2, axis=-2).repeat(2, axis=-1)
        clf = Classifier(Grid2D(8, 8, 1.0), w, np.zeros(2))
        pc, cc = adapt_model_resolution(p, clf, Direction.COARSEN, cmap, CA)
        pf, cf = adapt_model_resolution(pc, cc, Direction.REFINE, cmap, CA)
        assert rel_err(cf.weights, w) <= 1e-13

    def test_grid_bookkeeping(self):
        cmap = build_coarsen_map(3, CA)
        p = varied_params(6)
        clf = zero_classifier(Grid2D(8, 8, 1.0), 2, 2)
        pc, cc = adapt_model_resolution(p, clf, Direction.COARSEN, cmap, CA)
        assert (cc.grid.ny, cc.grid.nx, cc.grid.h) == (4, 4, 2.0)
        pf, cf = adapt_model_resolution(p, clf, Direction.REFINE, cmap, CA)
        assert (cf.grid.ny, cf.grid.nx, cf.grid.h) == (16, 16, 0.5)

    def test_identity_network_stays_identity_under_ca(self):
        cmap = build_coarsen_map(3, CA)
        p = identity_params()
        clf = zero_classifier(Grid2D(8, 8, 1.0), 2, 2)
        pc, _ = adapt_model_resolution(p, clf, Direction.COARSEN, cmap, CA)
        want = np.zeros((2, 2, 3, 3))
        want[0, 0, 1, 1] = want[1, 1, 1, 1] = 1.0
        for b in pc.banks:
            assert rel_err(b.weights, want) <= 1e-12

    def test_pair_kind_mismatch_rejected(self):
        cmap = build_coarsen_map(3, CA)
        p = varied_params(7)
        clf = zero_classifier(Grid2D(8, 8, 1.0), 2, 2)
        with pytest.raises(ValueError):
            adapt_model_resolution(p, clf, Direction.COARSEN, cmap, FW)

    def test_odd_grid_coarsen_rejected(self):
        cmap = build_coarsen_map(3, CA)
        p = varied_params(8)
        clf = zero_classifier(Grid2D(7, 7, 1.0), 2, 2)
        with pytest.raises(DimensionError):
            adapt_model_resolution(p, clf, Direction.COARSEN, cmap, CA)

    def test_adapted_beats_unadjusted_after_refine(self):
        # One-seed version of the cross-resolution transfer experiment: a
        # model trained on the coarse stripes must classify the fine ones
        # better with the refined stencils than with the stencils reused
        # as-is.  The full fixed-seed-set claim lives in the acceptance
        # suite; this is the cheap smoke check of the same recipe.
        seed = 2
        cmap = build_coarsen_map(3, CA)
        ds = make_synthetic(SyntheticKind.BARS, 600, Grid2D(12, 12, 1.0),
                            seed=seed, noise=0.4)
        tr, va = split(ds, 0.8, seed=seed)
        trc = ResolutionPyramid.build(tr, 1, CA, blur_sigma=0.0).datasets[1]
        vac = ResolutionPyramid.build(va, 1, CA, blur_sigma=0.0).datasets[1]
        init = NetworkInit(channels=2, final_time=0.5, init_scale=0.3,
                           activation=Activation.IDENTITY)
        reg = RegConfig(lambda_w=0.7, lambda_theta=1e-3)
        cfg = BcdConfig(outer_iters=40, newton_steps=3,
                        prop_step_rule=ArmijoBacktracking(1.0, 0.5, 1e-4, 8),
                        batch_size=0, seed=seed)
        res = bcd_train(trc, init.network_params(4, seed + 100),
                        zero_classifier(trc.grid, 2, 2), reg, cfg, val=vac)
        adapted_p, adapted_c = adapt_model_resolution(
            res.params, res.classifier, Direction.REFINE, cmap, CA)
        acc_adapted = evaluate(va, adapted_p, adapted_c).accuracy
        acc_naive = evaluate(va, replace(res.params), adapted_c).accuracy
        assert acc_adapted > acc_naive


class TestResolutionPyramid:
    def test_levels_and_grids(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(12, 12, 1.0), seed=0)
        pyr = ResolutionPyramid.build(ds, 2, CA, blur_sigma=0.5)
        assert pyr.levels == 3
        assert [d.grid.shape for d in pyr.datasets] == [(12, 12), (6, 6), (3, 3)]
        assert [d.grid.h for d in pyr.datasets] == [1.0, 2.0, 4.0]
        for d in pyr.datasets:
            np.testing.assert_array_equal(d.labels, ds.labels)

    def test_level_invariant_blur_then_restrict(self):
        ds = make_synthetic(SyntheticKind.BLOBS, 8, Grid2D(8, 8, 1.0), seed=1)
        pyr = ResolutionPyramid.build(ds, 1, FW, blur_sigma=0.8)
        want = np.clip(
            restrict_values(gaussian_blur_values(ds.images, 0.8), FW.kind), 0.0, 1.0
        )
        np.testing.assert_array_equal(pyr.datasets[1].images, want)

    def test_zero_blur_skips_smoothing(self):
        ds = make_synthetic(SyntheticKind.BARS, 8, Grid2D(8, 8, 1.0), seed=2)
        pyr = ResolutionPyramid.build(ds, 1, CA, blur_sigma=0.0)
        want = np.clip(restrict_values(ds.images, CA.kind), 0.0, 1.0)
        np.testing.assert_array_equal(pyr.datasets[1].images, want)

    def test_zero_levels(self):
        ds = make_synthetic(SyntheticKind.BARS, 6, Grid2D(8, 8, 1.0), seed=3)
        pyr = ResolutionPyramid.build(ds, 0, CA)
        assert pyr.levels == 1

    def test_negative_levels_rejected(self):
        ds = make_synthetic(SyntheticKind.BARS, 6, Grid2D(8, 8, 1.0), seed=4)
        with pytest.raises(ValueError):
            ResolutionPyramid.build(ds, -1, CA)


class TestMultilevelTrain:
    def test_degenerate_pyramid_equals_plain_bcd(self):
        ds = make_synthetic(SyntheticKind.BLOBS, 30, Grid2D(8, 8, 1.0), seed=5)
        pyr = ResolutionPyramid.build(ds, 0, CA)
        p0 = varied_params(9)
        c0 = zero_classifier(ds.grid, 2, 2)
        reg = RegConfig(0.01, 0.01)
        cfg = BcdConfig(outer_iters=4, newton_steps=2, seed=3)
        ml = multilevel_train(pyr, LevelSchedule.uniform(cfg, 1), (p0, c0), reg)
        direct = bcd_train(ds, p0, c0, reg, cfg)
        assert len(ml.levels) == 1
        assert ml.levels[0].history == direct.history
        np.testing.assert_array_equal(ml.classifier.weights, direct.classifier.weights)
        for b0, b1 in zip(ml.params.banks, direct.params.banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)

    def test_two_levels_schedule_and_bookkeeping(self):
        ds = make_synthetic(SyntheticKind.BARS, 40, Grid2D(8, 8, 1.0), seed=6)
        val = make_synthetic(SyntheticKind.BARS, 16, Grid2D(8, 8, 1.0), seed=7)
        pyr = ResolutionPyramid.build(ds, 1, CA, blur_sigma=0.0)
        vpyr = ResolutionPyramid.build(val, 1, CA, blur_sigma=0.0)
        sched = LevelSchedule([
            BcdConfig(outer_iters=3, newton_steps=2, seed=0),  # fine
            BcdConfig(outer_iters=5, newton_steps=2, seed=0),  # coarse
        ])
        init = (random_network_params(channels=2, num_layers=2, final_time=0.5, seed=1),
                zero_classifier(pyr.datasets[1].grid, 2, 2))
        cold_calls = []
        def cold_init(level):
            cold_calls.append(level)
            return (random_network_params(channels=2, num_layers=2, final_time=0.5,
                                          seed=50 + level),
                    zero_classifier(pyr.datasets[level].grid, 2, 2))
        res = multilevel_train(pyr, sched, init, RegConfig(0.01, 0.01),
                               val_pyramid=vpyr, cold_init=cold_init)
        assert [lv.level for lv in res.levels] == [1, 0]
        assert [len(lv.history) for lv in res.levels] == [5, 3]
        assert cold_calls == [1, 0]
        assert all(np.isfinite(lv.init_loss_cold) for lv in res.levels)
        assert all(np.isfinite(lv.init_loss_warm) for lv in res.levels)
        assert res.classifier.grid.shape == (8, 8)

    def test_bilinear_levels_start_below_the_uniform_loss(self):
        # The coarse fit, refined by bilinear transfer, is saturated on each
        # finer level's features.  Each level's first Newton fit starts from
        # the zero classifier, whose objective is log L, and never rises.
        L = 4
        pyr = ResolutionPyramid.build(block_classes(40, L, 16, seed=3), 2, FW)
        init = (random_network_params(channels=2, num_layers=2, final_time=2.0, seed=0,
                                      init_scale=0.1),
                zero_classifier(pyr.datasets[2].grid, 2, L))
        res = multilevel_train(pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1), 3), init,
                               RegConfig(1e-3, 1e-2))
        assert [lv.level for lv in res.levels] == [2, 1, 0]
        assert max(lv.init_loss_warm for lv in res.levels[1:]) > 100.0 * math.log(L)
        for lv in res.levels:
            assert lv.history[0].data_term < math.log(L)

    def test_cold_column_nan_without_provider(self):
        ds = make_synthetic(SyntheticKind.BARS, 20, Grid2D(8, 8, 1.0), seed=8)
        pyr = ResolutionPyramid.build(ds, 0, CA)
        res = multilevel_train(
            pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1, newton_steps=1), 1),
            (varied_params(10), zero_classifier(ds.grid, 2, 2)), RegConfig())
        assert np.isnan(res.levels[0].init_loss_cold)

    def test_schedule_length_mismatch(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(8, 8, 1.0), seed=9)
        pyr = ResolutionPyramid.build(ds, 1, CA)
        with pytest.raises(ValueError):
            multilevel_train(
                pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1), 1),
                (varied_params(11), zero_classifier(pyr.datasets[1].grid, 2, 2)),
                RegConfig())

    def test_val_pyramid_depth_mismatch(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(8, 8, 1.0), seed=10)
        pyr = ResolutionPyramid.build(ds, 1, CA)
        vpyr = ResolutionPyramid.build(ds, 0, CA)
        with pytest.raises(ValueError):
            multilevel_train(
                pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1), 2),
                (varied_params(12), zero_classifier(pyr.datasets[1].grid, 2, 2)),
                RegConfig(), val_pyramid=vpyr)

    def test_val_pyramid_on_other_grids_rejected(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(8, 8, 1.0), seed=10)
        val = make_synthetic(SyntheticKind.BARS, 10, Grid2D(16, 16, 0.5), seed=11)
        pyr = ResolutionPyramid.build(ds, 1, CA)
        vpyr = ResolutionPyramid.build(val, 1, CA)
        with pytest.raises(ValueError, match=r"level 0 .*nx=16.*nx=8"):
            multilevel_train(
                pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1), 2),
                (varied_params(12), zero_classifier(pyr.datasets[1].grid, 2, 2)),
                RegConfig(), val_pyramid=vpyr)

    def test_init_on_a_finer_grid_rejected(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(8, 8, 1.0), seed=10)
        pyr = ResolutionPyramid.build(ds, 1, CA)
        with pytest.raises(ValueError, match=r"nx=8.*nx=4"):
            multilevel_train(
                pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1), 2),
                (varied_params(12), zero_classifier(ds.grid, 2, 2)), RegConfig())


class TestProlongDepth:
    def test_constant_parameters_stay_constant(self):
        p = random_network_params(channels=2, num_layers=3, final_time=1.5, seed=12)
        q = prolong_depth(p, 2)
        assert q.num_layers == 6
        assert q.final_time == 1.5
        assert q.dt == p.dt / 2
        for b in q.banks:
            np.testing.assert_array_equal(b.weights, p.banks[0].weights)
        np.testing.assert_array_equal(q.biases, np.tile(p.biases[0], (6, 1)))

    @pytest.mark.parametrize("factor, banks, biases", [
        (2, [1.0, 2.0, 3.0, 3.0], [10.0, 15.0, 20.0, 20.0]),
        (3, [1.0, 5 / 3, 7 / 3, 3.0, 3.0, 3.0], [10.0, 40 / 3, 50 / 3, 20.0, 20.0, 20.0]),
    ], ids=["2", "3"])
    def test_two_layer_interpolation_pattern(self, factor, banks, biases):
        p = random_network_params(channels=1, num_layers=2, final_time=1.0, seed=13)
        a = np.full((1, 1, 3, 3), 1.0)
        b = np.full((1, 1, 3, 3), 3.0)
        p.banks[0].weights[:] = a
        p.banks[1].weights[:] = b
        p.biases[:] = np.array([[10.0], [20.0]])
        q = prolong_depth(p, factor)
        got = [bank.weights[0, 0, 0, 0] for bank in q.banks]
        np.testing.assert_allclose(got, banks, rtol=1e-15)
        np.testing.assert_allclose(q.biases[:, 0], biases, rtol=1e-15)
        # Nodes beyond the last old node copy it exactly, also where
        # (1 - frac) * v + frac * v rounds away from v (v = 0.85, frac = 4/3 - 1).
        p.banks[1].weights[:] = np.random.default_rng(14).normal(size=b.shape)
        p.biases[1] = 0.85
        q = prolong_depth(p, factor)
        for j in range(factor, 2 * factor):
            np.testing.assert_array_equal(q.banks[j].weights, p.banks[1].weights)
            np.testing.assert_array_equal(q.biases[j], p.biases[1])

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("factor", [1, 2, 3, 4])
    def test_matches_the_node_loop_to_the_bit(self, n, factor):
        p = varied_params(16, num_layers=n)
        p.biases[0, 0] = -0.0
        q = prolong_depth(p, factor)
        banks = np.stack([b.weights for b in p.banks])
        got = np.stack([b.weights for b in q.banks])
        assert got.tobytes() == naive_time_resample(banks, factor).tobytes()
        assert q.biases.tobytes() == naive_time_resample(p.biases, factor).tobytes()

    def test_iterated_prolongation_converges_first_order(self):
        # Iterating the prolongation samples one fixed parameter path at
        # ever finer steps, so successive outputs contract like O(dt).
        p = varied_params(14, num_layers=4)
        x = np.random.default_rng(15).random((1, 8, 8))
        chain = [p]
        for _ in range(3):
            chain.append(prolong_depth(chain[-1], 2))
        outs = [propagate_final(x, q) for q in chain]
        diffs = [np.linalg.norm(a - b) for a, b in zip(outs, outs[1:])]
        ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
        assert all(r >= 1.5 for r in ratios), ratios

    def test_zero_factor_rejected(self):
        p = random_network_params(channels=1, num_layers=2, final_time=1.0)
        with pytest.raises(ValueError):
            prolong_depth(p, 0)


class TestShallowToDeep:
    @staticmethod
    def make_model(grid):
        init = NetworkInit(channels=2, final_time=0.25, init_scale=0.3)
        return lambda depth, seed: (init.network_params(depth, seed),
                                    zero_classifier(grid, 2, 2))

    def test_single_depth_is_plain_training(self):
        ds = make_synthetic(SyntheticKind.BARS, 60, Grid2D(8, 8, 1.0), seed=11)
        cfg = BcdConfig(outer_iters=3, newton_steps=2, seed=4)
        reg = RegConfig(0.01, 0.03)
        res = shallow_to_deep_train(ds, [2], cfg, reg, self.make_model(ds.grid))
        p0, c0 = self.make_model(ds.grid)(2, cfg.seed)
        direct = bcd_train(ds, p0, c0, reg, cfg)
        assert len(res.depths) == 1
        assert res.depths[0].history == direct.history
        assert np.isnan(res.depths[0].init_loss_warm)
        assert res.depths[0].cold_history is None

    def test_depth_validation(self):
        ds = make_synthetic(SyntheticKind.BARS, 10, Grid2D(8, 8, 1.0), seed=12)
        cfg = BcdConfig(outer_iters=1)
        mk = self.make_model(ds.grid)
        with pytest.raises(ValueError):
            shallow_to_deep_train(ds, [], cfg, RegConfig(), mk)
        with pytest.raises(ValueError):
            shallow_to_deep_train(ds, [4, 2], cfg, RegConfig(), mk)
        with pytest.raises(ValueError):
            shallow_to_deep_train(ds, [2, 3], cfg, RegConfig(), mk)
        for depths in ([0, 2], [-1, 2]):
            with pytest.raises(ValueError, match="integer factors"):
                shallow_to_deep_train(ds, depths, cfg, RegConfig(), mk)
        assert [d.depth for d in shallow_to_deep_train(ds, [0], cfg, RegConfig(), mk).depths] == [0]

    def test_warm_start_beats_cold_at_next_depth(self):
        # One-seed version of the depth-continuation experiment; the 5-seed
        # averaged claim is in the acceptance suite.
        ds = make_synthetic(SyntheticKind.BARS, 400, Grid2D(12, 12, 1.0),
                            seed=0, noise=0.4)
        tr, va = split(ds, 0.8, seed=0)
        cfg = BcdConfig(outer_iters=10, newton_steps=3, seed=0)
        reg = RegConfig(lambda_w=0.01, lambda_theta=0.03)
        res = shallow_to_deep_train(tr, [2, 4], cfg, reg,
                                    self.make_model(tr.grid), val=va)
        d4 = res.depths[1]
        assert [len(r.history) for r in res.depths] == [10, 10]
        assert len(d4.cold_history) == 10
        assert d4.init_loss_warm < d4.init_loss_cold
        assert res.params.num_layers == 4


class TestZeroClassifierInitialLoss:
    """A classifier whose weights are all zero sees only its offsets: its
    initial loss takes no forward pass and keeps the bits of ``loss``."""

    @staticmethod
    def model(seed, grid, L, num_layers=2):
        # per-layer banks, so the path penalty is not zero; offsets not zero
        mu = np.random.default_rng(seed).normal(0.0, 2.0, L)
        return varied_params(seed, num_layers), Classifier(grid, np.zeros((L, 2) + grid.shape), mu)

    @staticmethod
    def untrained(monkeypatch):
        """Count forward steps, and train nothing: every stage returns its
        model as given, so only the initial losses could propagate."""
        steps = []
        step = network_mod.forward_step

        def counted(*args, **kwargs):
            steps.append(args[0].shape[0])
            return step(*args, **kwargs)

        monkeypatch.setattr(network_mod, "forward_step", counted)
        monkeypatch.setattr(multiscale_mod, "bcd_train", lambda ds, p, c, *rest, **kw:
                            TrainResult(p, c, []))
        monkeypatch.setattr(multiscale_mod, "evaluate", lambda *args, **kwargs:
                            EvalReport(math.nan, math.nan))
        return steps

    @pytest.mark.parametrize("m", [7, 90, 300, 540])  # below, between, above CHUNK multiples
    @pytest.mark.parametrize("L", [2, 10])
    def test_multilevel_cold_and_coarsest_warm(self, monkeypatch, m, L):
        rng = np.random.default_rng(m + L)
        ds = LabeledDataset(Grid2D(8, 8, 1.0), rng.random((m, 8, 8)), np.arange(m) % L, L)
        pyr = ResolutionPyramid.build(ds, 1, FW)
        reg = RegConfig(lambda_w=0.1, lambda_theta=0.05)

        def cold(level):
            return self.model(20 + level, pyr.datasets[level].grid, L)

        steps = self.untrained(monkeypatch)
        res = multilevel_train(pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1), 2), cold(1),
                               reg, cold_init=cold)
        assert steps == []
        assert [lv.level for lv in res.levels] == [1, 0]
        for lv in res.levels:
            level = pyr.datasets[lv.level]
            assert lv.init_loss_cold == loss(level.images, level.labels, *cold(lv.level), reg).total
        assert res.levels[0].init_loss_warm == res.levels[0].init_loss_cold

    @pytest.mark.parametrize("m, L", [(7, 10), (300, 2)])
    def test_shallow_to_deep_cold(self, monkeypatch, m, L):
        rng = np.random.default_rng(m)
        ds = LabeledDataset(Grid2D(6, 6, 1.0), rng.random((m, 6, 6)), np.arange(m) % L, L)
        reg = RegConfig(lambda_w=0.1, lambda_theta=0.05)

        def make(depth, seed):
            return self.model(seed, ds.grid, L, num_layers=depth)

        steps = self.untrained(monkeypatch)
        cfg = BcdConfig(outer_iters=1, seed=5)
        res = shallow_to_deep_train(ds, [2, 4], cfg, reg, make)
        assert steps == []
        for pos, dep in enumerate(res.depths):
            want = loss(ds.images, ds.labels, *make(dep.depth, cfg.seed + pos), reg).total
            assert dep.init_loss_cold == want

    def test_only_a_trained_classifier_propagates(self, monkeypatch):
        # and only in the first gradient pass of its level's training
        seen, real = [], multiscale_mod.loss

        def spy_loss(images, labels, params, clf, *args, **kwargs):
            seen.append(bool(clf.weights.any()))
            return real(images, labels, params, clf, *args, **kwargs)

        monkeypatch.setattr(multiscale_mod, "loss", spy_loss)
        outside, started = TestWarmInitialLoss.spied(monkeypatch)
        ds = make_synthetic(SyntheticKind.BARS, 20, Grid2D(8, 8, 1.0), seed=8)
        pyr = ResolutionPyramid.build(ds, 1, CA, blur_sigma=0.0)
        reg = RegConfig(0.01, 0.01)

        def cold(level):
            return varied_params(30 + level), zero_classifier(pyr.datasets[level].grid, 2, 2)

        res = multilevel_train(pyr, LevelSchedule.uniform(BcdConfig(outer_iters=1, newton_steps=1),
                                                          2), cold(1), reg, cold_init=cold)
        assert seen == [False, False]  # the coarse and the fine cold losses; no warm one
        assert outside == []
        fine_ds, refined_p, refined_c = started[1]
        assert refined_c.weights.any()
        assert res.levels[1].init_loss_warm == \
            loss(fine_ds.images, fine_ds.labels, refined_p, refined_c, reg).total


class TestWarmInitialLoss:
    """A warm stage's initial loss comes from its training's first gradient
    pass: no forward pass runs outside ``bcd_train``, and the value is that
    of ``loss`` at the model the stage starts from."""

    @staticmethod
    def spied(monkeypatch):
        """Forward steps outside ``bcd_train``, and each call's start model."""
        outside, started, inside = [], [], []
        step, train = network_mod.forward_step, multiscale_mod.bcd_train

        def counted_step(*args, **kwargs):
            if not inside:
                outside.append(1)
            return step(*args, **kwargs)

        def spy_train(ds, params, clf, *args, **kwargs):
            started.append((ds, params, clf))
            inside.append(1)
            try:
                return train(ds, params, clf, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(network_mod, "forward_step", counted_step)
        monkeypatch.setattr(multiscale_mod, "bcd_train", spy_train)
        return outside, started

    @staticmethod
    def assert_loss_at_start(init_loss, start, reg, batch_size):
        ds, params, clf = start
        want = loss(ds.images, ds.labels, params, clf, reg).total
        if batch_size is None:
            assert init_loss == want
        else:
            assert abs(init_loss - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_multilevel(self, monkeypatch, batch_size):
        outside, started = self.spied(monkeypatch)
        ds = make_synthetic(SyntheticKind.BARS, 30, Grid2D(8, 8, 1.0), seed=12)
        pyr = ResolutionPyramid.build(ds, 1, CA)
        reg = RegConfig(0.01, 0.01)
        rng = np.random.default_rng(13)
        grid = pyr.datasets[1].grid
        init = varied_params(14), Classifier(grid, rng.normal(size=(2, 2) + grid.shape),
                                             rng.normal(size=2))
        cfg = BcdConfig(outer_iters=2, newton_steps=2, batch_size=batch_size)
        res = multilevel_train(pyr, LevelSchedule.uniform(cfg, 2), init, reg)
        assert outside == []
        assert len(started) == 2
        for lv, start in zip(res.levels, started):
            self.assert_loss_at_start(lv.init_loss_warm, start, reg, batch_size)

    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_shallow_to_deep(self, monkeypatch, batch_size):
        outside, started = self.spied(monkeypatch)
        ds = make_synthetic(SyntheticKind.BLOBS, 30, Grid2D(6, 6, 1.0), seed=15)
        reg = RegConfig(0.01, 0.01)
        init = NetworkInit(channels=2, final_time=0.5, init_scale=0.3)
        res = shallow_to_deep_train(
            ds, [1, 2], BcdConfig(outer_iters=2, newton_steps=2, batch_size=batch_size), reg,
            lambda depth, seed: (init.network_params(depth, seed), zero_classifier(ds.grid, 2, 2)))
        assert outside == []
        # depth 1, then depth 2's cold control and its warm stage
        assert len(started) == 3
        assert math.isnan(res.depths[0].init_loss_warm)
        assert started[2][2].weights.any()
        self.assert_loss_at_start(res.depths[1].init_loss_warm, started[2], reg, batch_size)

    def test_a_stage_of_no_iteration_records_loss(self, monkeypatch):
        seen, real = [], multiscale_mod.loss

        def spy_loss(images, labels, params, clf, *args, **kwargs):
            out = real(images, labels, params, clf, *args, **kwargs)
            seen.append((bool(clf.weights.any()), out.total))
            return out

        monkeypatch.setattr(multiscale_mod, "loss", spy_loss)
        ds = make_synthetic(SyntheticKind.BARS, 30, Grid2D(8, 8, 1.0), seed=16)
        pyr = ResolutionPyramid.build(ds, 1, CA)
        init = varied_params(17), zero_classifier(pyr.datasets[1].grid, 2, 2)
        sched = LevelSchedule([BcdConfig(outer_iters=0), BcdConfig(outer_iters=2, newton_steps=2)])
        res = multilevel_train(pyr, sched, init, RegConfig(0.01, 0.01))
        fine = res.levels[1]
        assert fine.history == []
        # the trained coarse classifier, refined, scores the fine level once
        assert seen == [(True, fine.init_loss_warm)]
        deep = shallow_to_deep_train(
            ds, [1, 2], BcdConfig(outer_iters=0), RegConfig(0.01, 0.01),
            lambda depth, seed: (varied_params(seed, num_layers=depth),
                                 zero_classifier(ds.grid, 2, 2)))
        # each depth's cold loss, then its stage's loss at its start: depth 1
        # starts from its cold model (and reports NaN), depth 2 warm
        assert [total for _, total in seen[1:]] == \
            [deep.depths[0].init_loss_cold, deep.depths[0].init_loss_cold,
             deep.depths[1].init_loss_cold, deep.depths[1].init_loss_warm]
        assert math.isnan(deep.depths[0].init_loss_warm)


class TestStageScoring:
    """A stage's ``final_acc`` is its last history row's accuracy: each
    iteration propagates the validation images once, and nothing more."""

    @staticmethod
    def passes_over(monkeypatch, image_sets):
        """Count the propagations of each of ``image_sets``, by identity."""
        counts = [0] * len(image_sets)
        batch = network_mod._propagate_batch

        def counted(images, *args, **kwargs):
            for i, images_i in enumerate(image_sets):
                counts[i] += images is images_i
            return batch(images, *args, **kwargs)

        monkeypatch.setattr(network_mod, "_propagate_batch", counted)
        return counts

    @staticmethod
    def pyramids():
        ds = make_synthetic(SyntheticKind.BARS, 40, Grid2D(8, 8, 1.0), seed=40)
        val = make_synthetic(SyntheticKind.BARS, 16, Grid2D(8, 8, 1.0), seed=41)
        pyr = ResolutionPyramid.build(ds, 1, CA, blur_sigma=0.0)
        return pyr, ResolutionPyramid.build(val, 1, CA, blur_sigma=0.0)

    @staticmethod
    def multilevel(pyr, vpyr, iters, batch_size=None):
        init = (varied_params(42), zero_classifier(pyr.datasets[1].grid, 2, 2))
        sched = LevelSchedule([BcdConfig(outer_iters=n, newton_steps=2, batch_size=batch_size)
                               for n in iters])
        return multilevel_train(pyr, sched, init, RegConfig(0.01, 0.01), val_pyramid=vpyr)

    @staticmethod
    def deepen(ds, val, iters):
        init = NetworkInit(channels=2, final_time=0.25, init_scale=0.3)
        return shallow_to_deep_train(
            ds, [1, 2], BcdConfig(outer_iters=iters, newton_steps=2), RegConfig(0.01, 0.01),
            lambda depth, seed: (init.network_params(depth, seed), zero_classifier(ds.grid, 2, 2)),
            val=val)

    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_multilevel_propagates_each_validation_level_once_per_iteration(self, monkeypatch,
                                                                            batch_size):
        pyr, vpyr = self.pyramids()
        counts = self.passes_over(monkeypatch, [v.images for v in vpyr.datasets])
        res = self.multilevel(pyr, vpyr, [3, 2], batch_size)
        assert [len(lv.history) for lv in res.levels] == [2, 3]
        assert counts == [3, 2]
        for lv in res.levels:
            assert lv.final_acc == lv.history[-1].val_acc

    def test_deepen_propagates_the_validation_set_once_per_iteration(self, monkeypatch):
        pyr, vpyr = self.pyramids()
        ds, val = pyr.datasets[0], vpyr.datasets[0]
        counts = self.passes_over(monkeypatch, [val.images])
        res = self.deepen(ds, val, 3)
        # depth 1, then depth 2 and its cold control
        assert counts == [3 * 3]
        for dep in res.depths:
            assert dep.final_acc == dep.history[-1].val_acc

    def test_without_validation_final_acc_is_the_last_train_acc(self):
        pyr, _ = self.pyramids()
        res = self.multilevel(pyr, None, [3, 2])
        for lv in res.levels:
            assert lv.final_acc == lv.history[-1].train_acc
        fine = pyr.datasets[0]
        assert res.levels[-1].final_acc == evaluate(fine, res.params, res.classifier).accuracy
        deep = self.deepen(fine, None, 2)
        for dep in deep.depths:
            assert dep.final_acc == dep.history[-1].train_acc
        assert deep.depths[-1].final_acc == \
            evaluate(fine, deep.params, deep.classifier).accuracy

    @pytest.mark.parametrize("with_val", [False, True])
    def test_a_stage_of_no_iteration_reports_evaluate(self, monkeypatch, with_val):
        pyr, vpyr = self.pyramids()
        vpyr = vpyr if with_val else None
        scored = (vpyr or pyr).datasets[0]
        counts = self.passes_over(monkeypatch, [scored.images])
        res = self.multilevel(pyr, vpyr, [0, 2])  # level_iters = 0,2
        fine = res.levels[-1]
        assert fine.level == 0 and fine.history == []
        # the fine level's one evaluate and, on the training images, its warm initial loss
        assert counts == [1 if with_val else 2]
        assert fine.final_acc == evaluate(scored, res.params, res.classifier).accuracy
