"""Forward propagation, classification, loss, and gradient tests.

The finite-difference block check here is the canonical correctness argument
for the reverse-mode code: every learnable block on a small but non-trivial
network is compared against central differences at step 1e-5.
"""

import sys

import numpy as np
import pytest

from mgcnn import network as network_mod
from mgcnn import stencils as stencils_mod
from mgcnn.data import SyntheticKind, make_synthetic
from mgcnn.errors import DimensionError, DivergenceError
from mgcnn.grid import Grid2D
from mgcnn.network import (
    Activation,
    Classifier,
    NetworkParams,
    RegConfig,
    embed_input,
    forward_step,
    loss,
    loss_and_gradient,
    propagate_final,
    random_network_params,
    reg_value_and_grad,
    softmax,
    zero_classifier,
    _cross_entropy,
    _logits,
)
from mgcnn.stencils import StencilBank, bank_apply, tap_gradient

from oracles import (
    fd_gradient,
    naive_bank_apply,
    naive_cross_entropy,
    naive_forward,
    naive_logits,
    naive_softmax,
    rel_err,
)


def small_params(seed=0, channels=2, num_layers=2, k=3, scale=0.3,
                 act=Activation.TANH):
    return random_network_params(
        channels=channels, num_layers=num_layers, final_time=1.0,
        kernel_size=k, seed=seed, init_scale=scale, activation=act,
    )


def scramble_in_time(params, seed=0, bias_scale=0.3):
    """Replace the shared-bank init with independent per-layer parameters."""
    rng = np.random.default_rng(seed)
    for b in params.banks:
        b.weights[:] = rng.normal(0.0, 0.3, b.weights.shape)
    params.biases[:] = rng.normal(0.0, bias_scale, params.biases.shape)
    return params


class TestParamsValidation:
    def test_time_grid_consistency(self):
        p = small_params()
        with pytest.raises(ValueError):
            NetworkParams(dt=0.3, final_time=1.0, banks=p.banks,
                          biases=p.biases, embed=p.embed)

    def test_embed_must_be_single_input(self):
        p = small_params()
        square = StencilBank(StencilBank.replicate(2, 3).weights.repeat(2, axis=1))
        with pytest.raises(DimensionError):
            NetworkParams(dt=0.5, final_time=1.0, banks=p.banks,
                          biases=p.biases, embed=square)

    def test_bank_channel_mismatch(self):
        p = small_params(channels=2)
        bad = [StencilBank(np.zeros((3, 3, 3, 3))) for _ in range(2)]
        with pytest.raises(DimensionError):
            NetworkParams(dt=0.5, final_time=1.0, banks=bad,
                          biases=p.biases, embed=p.embed)

    def test_zero_layers_allowed(self):
        p = random_network_params(channels=1, num_layers=0, final_time=1.0)
        assert p.num_layers == 0 and p.final_time == 0.0


class TestEmbed:
    def test_identity_single_channel(self):
        p = random_network_params(channels=1, num_layers=1, final_time=1.0)
        x = np.random.default_rng(0).random((5, 7))
        y0 = embed_input(x, p)
        assert y0.shape == (1, 5, 7)
        np.testing.assert_array_equal(y0[0], x)

    def test_zero_bank(self):
        p = small_params()
        p.embed.weights[:] = 0.0
        x = np.random.default_rng(1).random((4, 4))
        np.testing.assert_array_equal(embed_input(x, p), 0.0)

    def test_replication_default(self):
        p = small_params(channels=3)
        x = np.random.default_rng(2).random((6, 6))
        y0 = embed_input(x, p)
        for c in range(3):
            np.testing.assert_array_equal(y0[c], x)

    def test_replication_default_batched_across_blocks(self):
        x = np.random.default_rng(20).normal(size=(100, 12, 12))
        # 100 frames of 14 x 14 columns: the kernel takes three column blocks
        assert 2 * stencils_mod._BLOCK < x.shape[0] * 14 * 14 <= 3 * stencils_mod._BLOCK
        y0 = embed_input(x, small_params(channels=3))
        assert y0.shape == (100, 3, 12, 12)
        for c in range(3):
            np.testing.assert_array_equal(y0[:, c], x)

    def test_matches_naive_composition(self):
        rng = np.random.default_rng(3)
        p = small_params(channels=2)
        p.embed.weights[:] = rng.normal(size=p.embed.weights.shape)
        x = rng.random((6, 6))
        got = embed_input(x, p)
        want = naive_bank_apply(p.embed.weights, x[None])
        assert rel_err(got, want) <= 1e-13


class TestForwardStep:
    def test_zero_bank_zero_bias_tanh(self):
        rng = np.random.default_rng(4)
        y = rng.random((2, 5, 5))
        out = forward_step(y, StencilBank(np.zeros((2, 2, 3, 3))),
                           np.zeros(2), 0.1, Activation.TANH)
        np.testing.assert_array_equal(out, y)

    def test_identity_bank_identity_act_doubles(self):
        rng = np.random.default_rng(5)
        y = rng.random((3, 4, 4))
        w = np.zeros((3, 3, 3, 3))
        for c in range(3):
            w[c, c, 1, 1] = 1.0
        out = forward_step(y, StencilBank(w), np.zeros(3), 1.0, Activation.IDENTITY)
        assert rel_err(out, 2.0 * y) <= 1e-15

    def test_matches_naive_scalar_loop(self):
        rng = np.random.default_rng(6)
        y = rng.normal(size=(2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        bias = rng.normal(size=2)
        dt = 0.37
        got = forward_step(y, StencilBank(w), bias, dt, Activation.TANH, gain=1.3)
        z = naive_bank_apply(w, y) + bias[:, None, None]
        want = y + dt * np.tanh(1.3 * z)
        assert rel_err(got, want) <= 1e-13


    @pytest.mark.parametrize("act, gain", [(Activation.TANH, 1.3), (Activation.IDENTITY, 0.7)])
    def test_new_array_equal_to_the_formula_to_the_bit(self, act, gain):
        rng = np.random.default_rng(7)
        y = rng.normal(size=(3, 2, 6, 6))
        w = rng.normal(size=(2, 2, 3, 3))
        bias = rng.normal(size=2)
        before = y.copy()
        got = forward_step(y, StencilBank(w), bias, 0.37, act, gain)
        z = gain * (bank_apply(w, y) + bias[:, None, None])
        want = y + 0.37 * (np.tanh(z) if act is Activation.TANH else z)
        assert not np.shares_memory(got, y)
        np.testing.assert_array_equal(y, before)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestForwardPropagate:
    def test_zero_depth_trajectory(self):
        p = random_network_params(channels=2, num_layers=0, final_time=1.0)
        x = np.random.default_rng(7).random((4, 4))
        states = network_mod._propagate(x, p, keep=True)
        assert len(states) == 1
        np.testing.assert_array_equal(states[-1], embed_input(x, p))

    def test_zero_params_tanh_fixed_point(self):
        p = small_params(num_layers=3)
        for b in p.banks:
            b.weights[:] = 0.0
        x = np.random.default_rng(8).random((4, 4))
        states = network_mod._propagate(x, p, keep=True)
        assert len(states) == 4
        for s in states[1:]:
            np.testing.assert_array_equal(s, states[0])

    def test_matches_manual_two_step_composition(self):
        p = scramble_in_time(small_params(num_layers=2), seed=9)
        x = np.random.default_rng(9).random((6, 6))
        states = network_mod._propagate(x, p, keep=True)
        y = embed_input(x, p)
        y1 = forward_step(y, p.banks[0], p.biases[0], p.dt, p.activation)
        y2 = forward_step(y1, p.banks[1], p.biases[1], p.dt, p.activation)
        np.testing.assert_array_equal(states[1], y1)
        np.testing.assert_array_equal(states[-1], y2)

    def test_matches_naive_oracle_all_states(self):
        p = scramble_in_time(small_params(num_layers=3), seed=10)
        x = np.random.default_rng(10).random((6, 6))
        states = network_mod._propagate(x, p, keep=True)
        want = naive_forward(x, p.embed.weights, [b.weights for b in p.banks],
                             p.biases, p.dt, "tanh", p.act_gain)
        assert len(states) == len(want)
        for got, ref in zip(states, want):
            assert rel_err(got, ref) <= 1e-12

    def test_divergence_names_layer(self):
        p = small_params(num_layers=6, act=Activation.IDENTITY)
        for b in p.banks:
            b.weights[:] *= 1e80
        x = np.full((1, 4, 4), 1.0)
        with pytest.raises(DivergenceError, match="layer"):
            propagate_final(x, p)

    def test_batch_final_state_matches_trajectory(self):
        p = scramble_in_time(small_params(), seed=11)
        imgs = np.random.default_rng(11).random((5, 6, 6))
        batch = propagate_final(imgs, p)
        for i in range(5):
            single = network_mod._propagate(imgs[i], p, keep=True)[-1]
            np.testing.assert_array_equal(batch[i], single)
        # a batch trajectory keeps every state of every image
        states = network_mod._propagate(imgs, p, keep=True)
        assert len(states) == p.num_layers + 1
        np.testing.assert_array_equal(states[-1], batch)

    def test_identity_activation_superposition(self):
        p = small_params(act=Activation.IDENTITY)  # zero biases at init
        rng = np.random.default_rng(12)
        x1, x2 = rng.random((2, 1, 6, 6))
        a, b = 1.7, -0.4
        lhs = propagate_final(a * x1 + b * x2, p)
        rhs = a * propagate_final(x1, p) + b * propagate_final(x2, p)
        assert rel_err(lhs, rhs) <= 1e-12


class TestEulerRefinement:
    def test_halving_dt_is_first_order(self):
        # Time-constant parameters, so every depth integrates the same
        # autonomous flow and the output error is O(dt).  Three successive
        # halvings must each shrink the step-to-step difference by >= 1.5.
        grid_x = np.random.default_rng(13).random((8, 8))
        rng = np.random.default_rng(14)
        shared = rng.normal(0.0, 0.4, (2, 2, 3, 3))
        bias = rng.normal(0.0, 0.3, 2)

        def run(n):
            p = random_network_params(channels=2, num_layers=n, final_time=1.0,
                                      seed=0, activation=Activation.TANH)
            for b in p.banks:
                b.weights[:] = shared
            p.biases[:] = bias
            return propagate_final(grid_x[None], p)[0]

        outs = [run(n) for n in (4, 8, 16, 32, 64)]
        diffs = [np.linalg.norm(a - b) for a, b in zip(outs, outs[1:])]
        ratios = [d0 / d1 for d0, d1 in zip(diffs, diffs[1:])]
        assert len(ratios) == 3
        assert all(r >= 1.5 for r in ratios), ratios


class TestClassify:
    def test_zero_classifier_uniform(self):
        g = Grid2D(4, 4, 1.0)
        clf = zero_classifier(g, 2, 10)
        y = np.random.default_rng(15).random((2, 4, 4))
        probs = softmax(_logits(y, clf))
        np.testing.assert_allclose(probs, 0.1, rtol=0, atol=1e-15)

    def test_offsets_only(self):
        g = Grid2D(4, 4, 1.0)
        mu = np.array([1.0, -2.0, 0.5])
        clf = Classifier(g, np.zeros((3, 1, 4, 4)), mu)
        y = np.random.default_rng(16).random((1, 4, 4))
        assert rel_err(softmax(_logits(y, clf)), naive_softmax(mu)) <= 1e-15

    def test_matches_naive_inner_product_oracle(self):
        rng = np.random.default_rng(17)
        g = Grid2D(5, 4, 2.0)  # h != 1 so the area factor is exercised
        w = rng.normal(size=(3, 2, 4, 5))
        mu = rng.normal(size=3)
        clf = Classifier(g, w, mu)
        y = rng.normal(size=(2, 4, 5))
        want = naive_softmax(naive_logits(y, w, mu, g.h))
        assert rel_err(softmax(_logits(y, clf)), want) <= 1e-12

    def test_simplex_property(self):
        rng = np.random.default_rng(40)
        p = softmax(rng.normal(scale=3.0, size=(6, 5)))
        assert np.all(p > 0) and np.all(p < 1)
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)

    def test_no_overflow_for_huge_logits(self):
        p = softmax(np.array([[1e3, 1e3, 1e3], [700.0, -700.0, 0.0]]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)


class TestLoss:
    def test_perfect_confident_predictions(self):
        g = Grid2D(4, 4, 1.0)
        p = random_network_params(channels=1, num_layers=0, final_time=1.0)
        clf = Classifier(g, np.zeros((2, 1, 4, 4)), np.array([25.0, -25.0]))
        imgs = np.random.default_rng(18).random((4, 4, 4))
        rep = loss(imgs, np.zeros(4, dtype=int), p, clf)
        assert rep.data_term <= 1e-8
        assert rep.reg_term == 0.0

    def test_uniform_predictions_log_ell(self):
        g = Grid2D(4, 4, 1.0)
        p = random_network_params(channels=1, num_layers=0, final_time=1.0)
        clf = zero_classifier(g, 1, 10)
        imgs = np.random.default_rng(19).random((3, 4, 4))
        rep = loss(imgs, np.array([0, 5, 9]), p, clf)
        assert abs(rep.data_term - np.log(10.0)) <= 1e-12
        assert rep.total == rep.data_term

    def test_matches_naive_scalar_oracle(self):
        rng = np.random.default_rng(20)
        p = scramble_in_time(small_params(num_layers=2), seed=21)
        g = Grid2D(6, 6, 1.0)
        w = rng.normal(size=(3, 2, 6, 6))
        mu = rng.normal(size=3)
        clf = Classifier(g, w, mu)
        imgs = rng.random((3, 6, 6))
        labels = np.array([0, 2, 1])
        rep = loss(imgs, labels, p, clf)
        vals = []
        for i in range(3):
            states = naive_forward(imgs[i], p.embed.weights,
                                   [b.weights for b in p.banks], p.biases,
                                   p.dt, "tanh", p.act_gain)
            z = naive_logits(states[-1], w, mu, g.h)
            vals.append(naive_cross_entropy(z, int(labels[i])))
        assert abs(rep.data_term - np.mean(vals)) <= 1e-12

    def test_invalid_label_rejected(self):
        g = Grid2D(4, 4, 1.0)
        p = random_network_params(channels=1, num_layers=0, final_time=1.0)
        clf = zero_classifier(g, 1, 2)
        imgs = np.zeros((2, 4, 4))
        with pytest.raises(ValueError):
            loss(imgs, np.array([0, 2]), p, clf)

    def test_relabeling_permutation_invariance(self):
        rng = np.random.default_rng(22)
        p = scramble_in_time(small_params(), seed=23)
        g = Grid2D(6, 6, 1.0)
        w = rng.normal(size=(4, 2, 6, 6))
        mu = rng.normal(size=4)
        imgs = rng.random((6, 6, 6))
        labels = np.array([0, 1, 2, 3, 1, 0])
        perm = np.array([2, 0, 3, 1])  # class j renamed to perm[j]
        clf = Classifier(g, w, mu)
        permuted = Classifier(g, np.empty_like(w), np.empty_like(mu))
        permuted.weights[perm] = w
        permuted.mu[perm] = mu
        a = loss(imgs, labels, p, clf).total
        b = loss(imgs, perm[labels], p, permuted).total
        assert abs(a - b) <= 1e-12


class TestNonFiniteLogits:
    """A row with an infinite or NaN logit has cross-entropy ``+inf``, and
    numpy warns of nothing (every warning is an error here)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_cross_entropy_row_is_infinite(self, bad):
        rng = np.random.default_rng(60)
        logits = rng.normal(0.0, 3.0, (7, 4))
        labels = np.arange(7) % 4
        want = _cross_entropy(logits, labels)
        logits[[1, 4], [2, 0]] = bad
        got = _cross_entropy(logits, labels)
        assert np.isposinf(got[[1, 4]]).all()
        finite = [0, 2, 3, 5, 6]
        np.testing.assert_array_equal(got[finite], want[finite])  # same bits
        for i in finite:
            assert abs(got[i] - naive_cross_entropy(logits[i], int(labels[i]))) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_cross_entropy_of_a_spread_beyond_the_float_range(self):
        logits = np.array([[1e308, -1e308], [1e308, -1e308], [0.5, -0.25]])
        got = _cross_entropy(logits, np.array([0, 1, 1]))
        assert got[0] == 0.0 and np.isposinf(got[1])
        assert got[2] == _cross_entropy(logits[2:], np.array([1]))[0]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("weights", [False, True], ids=["zero-weights", "weights"])
    def test_loss_is_infinite(self, bad, weights):
        rng = np.random.default_rng(61)
        p = scramble_in_time(small_params(), seed=62)
        w = rng.normal(size=(3, 2, 6, 6)) if weights else np.zeros((3, 2, 6, 6))
        mu = rng.normal(size=3)
        mu[1] = bad
        rep = loss(rng.random((5, 6, 6)), np.arange(5) % 3, p, Classifier(Grid2D(6, 6, 1.0), w, mu),
                   RegConfig(0.01, 0.01))
        assert np.isposinf(rep.data_term) and np.isposinf(rep.total)


class TestDivergentGradient:
    """An overflow in the gradient pass raises ``DivergenceError``, and numpy
    warns of nothing first (every warning is an error here)."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("where", ["softmax", "adjoint"])
    def test_overflow_is_divergence(self, where, workers):
        ds = make_synthetic(SyntheticKind.BLOBS, 30, Grid2D(8, 8, 1.0), seed=0)
        rng = np.random.default_rng(63)
        clf = Classifier(ds.grid, rng.normal(size=(2, 2, 8, 8)), np.zeros(2))
        if where == "softmax":
            # finite features whose logits overflow: softmax meets inf - inf
            p = small_params(num_layers=1, act=Activation.IDENTITY)
            p.banks[0].weights[:] = 0.05e308
            images = ds.images
        else:
            # zero images keep every state at zero; the adjoint pass overflows
            p = small_params(num_layers=4, act=Activation.IDENTITY)
            for b in p.banks:
                b.weights *= 1e300
            images = np.zeros_like(ds.images)
        assert np.isfinite(propagate_final(images, p)).all()
        with pytest.raises(DivergenceError, match="gradient became non-finite"):
            loss_and_gradient(images, ds.labels, p, clf, workers=workers)


class TestGradient:
    def test_symmetric_stationary_point(self):
        # Zero images and zero parameters with a class-balanced batch: the
        # uniform prediction already matches the mean one-hot target.
        g = Grid2D(4, 4, 1.0)
        p = small_params()
        for b in p.banks:
            b.weights[:] = 0.0
        clf = zero_classifier(g, 2, 2)
        _, grads = loss_and_gradient(np.zeros((2, 4, 4)), np.array([0, 1]), p, clf)
        for block in (grads.banks, grads.biases, grads.weights, grads.mu, grads.embed):
            np.testing.assert_array_equal(block, 0.0)

    def test_mu_gradient_is_prob_minus_onehot(self):
        rng = np.random.default_rng(24)
        g = Grid2D(4, 4, 1.0)
        p = small_params(seed=25)
        mu = rng.normal(size=3)
        clf = Classifier(g, np.zeros((3, 2, 4, 4)), mu)
        imgs = rng.random((5, 4, 4))
        labels = np.array([0, 1, 2, 1, 0])
        _, grads = loss_and_gradient(imgs, labels, p, clf)
        onehot = np.zeros((5, 3))
        onehot[np.arange(5), labels] = 1.0
        want = naive_softmax(mu) - onehot.mean(axis=0)
        assert rel_err(grads.mu, want) <= 1e-12

    def test_every_block_against_central_differences(self):
        rng = np.random.default_rng(26)
        g = Grid2D(6, 6, 1.0)
        p = scramble_in_time(small_params(num_layers=2, scale=0.3), seed=27)
        clf = Classifier(g, 0.5 * rng.normal(size=(3, 2, 6, 6)), rng.normal(size=3))
        imgs = rng.random((4, 6, 6))
        labels = np.array([0, 1, 2, 0])
        reg = RegConfig(lambda_w=0.05, lambda_theta=0.02)
        _, grads = loss_and_gradient(imgs, labels, p, clf, reg)

        # fd_gradient perturbs a buffer in place and calls a zero-arg
        # closure, so each block check builds the model from its buffer.
        def check(buf, rebuild, got, name):
            def f():
                q, c2 = rebuild(buf)
                return loss(imgs, labels, q, c2, reg).total
            want = fd_gradient(f, buf).reshape(got.shape)
            assert rel_err(got, want) <= 1e-6, name

        def from_banks(buf):
            q = p.copy()
            for i, b in enumerate(q.banks):
                b.weights[:] = buf[i]
            return q, clf

        def from_biases(buf):
            q = p.copy()
            q.biases[:] = buf
            return q, clf

        def from_embed(buf):
            q = p.copy()
            q.embed.weights[:] = buf
            return q, clf

        check(np.stack([b.weights for b in p.banks]), from_banks,
              grads.banks, "banks")
        check(p.biases.copy(), from_biases, grads.biases, "biases")
        check(clf.weights.copy(),
              lambda buf: (p, Classifier(g, buf, clf.mu)),
              grads.weights, "weights")
        check(clf.mu.copy(),
              lambda buf: (p, Classifier(g, clf.weights, buf)),
              grads.mu, "mu")
        check(p.embed.weights.copy(), from_embed, grads.embed, "embed")

    def test_deep_saturated_tanh_matches_pre_activation_sweep(self):
        # The reverse sweep reads tanh's slope off each layer's increment.
        # Compare it with the textbook sweep that keeps every pre-activation
        # z_k and calls tanh again, on a deep network whose large weights
        # saturate most units.
        rng = np.random.default_rng(34)
        g = Grid2D(6, 6, 1.0)
        p = random_network_params(channels=2, num_layers=8, final_time=2.0, seed=35,
                                  act_gain=1.7, embed_learnable=True)
        for b in p.banks:
            b.weights[:] = rng.normal(0.0, 3.0, b.weights.shape)
        p.biases[:] = rng.normal(0.0, 1.0, p.biases.shape)
        clf = Classifier(g, rng.normal(size=(3, 2, 6, 6)), rng.normal(size=3))
        imgs = rng.random((5, 6, 6))
        labels = np.array([0, 1, 2, 1, 0])
        _, grads = loss_and_gradient(imgs, labels, p, clf)

        gain, dt, k = p.act_gain, p.dt, p.kernel_size
        y = embed_input(imgs, p)
        states, pre = [y], []
        for bank, bias in zip(p.banks, p.biases):
            z = bank_apply(bank.weights, y) + bias[:, None, None]
            y = y + dt * np.tanh(gain * z)
            states.append(y)
            pre.append(z)
        assert np.mean(np.abs(np.tanh(gain * np.stack(pre))) > 0.999) > 0.5
        d = softmax(np.einsum("lcyx,mcyx->ml", clf.weights, y) + clf.mu)
        d[np.arange(5), labels] -= 1.0
        d /= 5
        want_w = np.einsum("ml,mcyx->lcyx", d, y)
        dy = np.einsum("ml,lcyx->mcyx", d, clf.weights)
        want_banks, want_biases = np.zeros_like(grads.banks), np.zeros_like(grads.biases)
        for i in reversed(range(p.num_layers)):
            u = dt * dy * gain * (1.0 - np.tanh(gain * pre[i]) ** 2)
            want_biases[i] = u.sum(axis=(0, 2, 3))
            want_banks[i] = tap_gradient(u, states[i], k)
            dy = dy + bank_apply(p.banks[i].weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1], u)
        want_embed = tap_gradient(dy, imgs[:, None], k)
        for got, want, name in ((grads.banks, want_banks, "banks"),
                                (grads.biases, want_biases, "biases"),
                                (grads.weights, want_w, "weights"),
                                (grads.mu, d.sum(axis=0), "mu"),
                                (grads.embed, want_embed, "embed")):
            assert rel_err(got, want) <= 1e-12, name

    def test_one_forward_step_per_layer_and_chunk(self, monkeypatch):
        calls = []
        step = network_mod.forward_step

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return step(*args, **kwargs)

        monkeypatch.setattr(network_mod, "forward_step", counted)
        rng = np.random.default_rng(36)
        p = scramble_in_time(small_params(num_layers=3), seed=37)
        clf = Classifier(Grid2D(6, 6, 1.0), rng.normal(size=(2, 2, 6, 6)), rng.normal(size=2))
        imgs = rng.random((300, 6, 6))  # two chunks: 256 and 44 examples
        loss_and_gradient(imgs, (np.arange(300) % 2).astype(int), p, clf)
        assert calls == [256] * 3 + [44] * 3

    def test_loss_report_matches_loss(self):
        rng = np.random.default_rng(28)
        p = scramble_in_time(small_params(), seed=29)
        g = Grid2D(6, 6, 1.0)
        clf = Classifier(g, rng.normal(size=(2, 2, 6, 6)), rng.normal(size=2))
        imgs = rng.random((3, 6, 6))
        labels = np.array([0, 1, 0])
        reg = RegConfig(lambda_w=0.1, lambda_theta=0.05)
        rep_only = loss(imgs, labels, p, clf, reg)
        rep_grad, _ = loss_and_gradient(imgs, labels, p, clf, reg)
        assert rep_only.total == rep_grad.total
        assert rep_only.data_term == rep_grad.data_term
        assert rep_only.reg_term == rep_grad.reg_term

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("act, channels, n, classes, m, zero_weights", [
        (Activation.IDENTITY, 2, 6, 2, 300, False),  # chunks of 256 and 44 examples
        (Activation.TANH, 2, 6, 3, 300, False),
        (Activation.TANH, 3, 14, 10, 540, False),  # 3 x 14^2 features, three chunks
        (Activation.TANH, 2, 6, 3, 540, True),  # offset-only logits, no sweep
    ])
    def test_multi_chunk_loss_matches_the_gradient_pass_to_the_bit(
        self, act, channels, n, classes, m, zero_weights, workers
    ):
        # the Armijo test compares a trial's loss with the gradient pass's
        rng = np.random.default_rng(42)
        p = scramble_in_time(small_params(channels=channels, num_layers=3, act=act), seed=43)
        clf = Classifier(Grid2D(n, n, 1.0), rng.normal(size=(classes, channels, n, n)),
                         rng.normal(size=classes))
        if zero_weights:
            clf.weights[:] = 0.0
        imgs = rng.random((m, n, n))
        labels = np.arange(m) % classes
        reg = RegConfig(lambda_w=0.05, lambda_theta=0.02)
        kept = loss(imgs, labels, p, clf, reg, workers, keep=True)
        fresh, _ = loss_and_gradient(imgs, labels, p, clf, reg, workers)
        fed, _ = loss_and_gradient(imgs, labels, p, clf, reg, workers, states=kept.states)
        for report in (loss(imgs, labels, p, clf, reg, workers), kept):
            for grad_report in (fresh, fed):
                assert report.data_term == grad_report.data_term
                assert report.total == grad_report.total


class TestBatchReduction:
    def test_sequential_replay_is_bit_identical(self):
        rng = np.random.default_rng(30)
        p = scramble_in_time(small_params(), seed=31)
        g = Grid2D(6, 6, 1.0)
        clf = Classifier(g, rng.normal(size=(2, 2, 6, 6)), rng.normal(size=2))
        imgs = rng.random((300, 6, 6))  # spans two reduction chunks
        labels = (np.arange(300) % 2).astype(int)
        r1, g1 = loss_and_gradient(imgs, labels, p, clf)
        r2, g2 = loss_and_gradient(imgs, labels, p, clf)
        assert r1.total == r2.total
        np.testing.assert_array_equal(g1.banks, g2.banks)
        np.testing.assert_array_equal(g1.weights, g2.weights)

    def test_parallel_matches_sequential(self):
        rng = np.random.default_rng(32)
        p = scramble_in_time(small_params(), seed=33)
        g = Grid2D(6, 6, 1.0)
        clf = Classifier(g, rng.normal(size=(2, 2, 6, 6)), rng.normal(size=2))
        imgs = rng.random((300, 6, 6))
        labels = (np.arange(300) % 2).astype(int)
        r1, g1 = loss_and_gradient(imgs, labels, p, clf, workers=1)
        r2, g2 = loss_and_gradient(imgs, labels, p, clf, workers=3)
        assert abs(r1.total - r2.total) <= 1e-12
        assert rel_err(g1.banks, g2.banks) <= 1e-12
        assert rel_err(g1.mu, g2.mu) <= 1e-12

    def test_threaded_chunks_land_in_their_rows(self):
        # more workers than cores and frequent thread switches: each chunk
        # writes its own rows of one shared array
        rng = np.random.default_rng(34)
        p = scramble_in_time(small_params(num_layers=1), seed=35)
        imgs = rng.random((5 * network_mod.CHUNK + 1, 4, 4))
        want = propagate_final(imgs, p, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = propagate_final(imgs, p, workers=6)
        finally:
            sys.setswitchinterval(interval)
        np.testing.assert_array_equal(got, want)


def assert_same_gradients(got, want, blocks=("banks", "biases", "weights", "mu", "embed")):
    for name in blocks:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestTrajectoryReuse:
    @staticmethod
    def problem(act, seed=40):
        rng = np.random.default_rng(seed)
        p = scramble_in_time(small_params(num_layers=3, act=act), seed=seed + 1)
        clf = Classifier(Grid2D(6, 6, 1.0), rng.normal(size=(3, 2, 6, 6)), rng.normal(size=3))
        imgs = rng.random((300, 6, 6))  # two chunks: 256 and 44 examples
        return imgs, np.arange(300) % 3, p, clf, RegConfig(lambda_w=0.05, lambda_theta=0.02)

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.IDENTITY])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_kept_states_give_the_fresh_gradient(self, act, workers):
        imgs, labels, p, clf, reg = self.problem(act)
        kept = loss(imgs, labels, p, clf, reg, workers=workers, keep=True)
        # per chunk y_1 .. y_N, the last one a view of the features
        assert [len(states) for states in kept.states] == [3, 3]
        assert [states[-1].shape[0] for states in kept.states] == [256, 44]
        for states, s in zip(kept.states, (slice(0, 256), slice(256, 300))):
            assert np.shares_memory(states[-1], kept.features)
            np.testing.assert_array_equal(states[-1], kept.features[s])
        fresh_report, fresh = loss_and_gradient(imgs, labels, p, clf, reg, workers=workers)
        report, grads = loss_and_gradient(imgs, labels, p, clf, reg, workers=workers,
                                          states=kept.states)
        assert report == fresh_report
        assert_same_gradients(grads, fresh)
        assert [len(states) for states in kept.states] == [3, 3]  # read, not consumed

    def test_states_of_another_batch_refused(self):
        imgs, labels, p, clf, reg = self.problem(Activation.TANH)
        kept = loss(imgs[:100], labels[:100], p, clf, reg, keep=True)
        with pytest.raises(ValueError, match="states"):
            loss_and_gradient(imgs, labels, p, clf, reg, states=kept.states)

    def test_frozen_embedding_skip_keeps_every_other_block(self, monkeypatch):
        imgs, labels, p, clf, reg = self.problem(Activation.TANH)
        full_report, full = loss_and_gradient(imgs, labels, p, clf, reg)
        calls = {"bank_apply": 0, "tap_gradient": 0}
        for name in calls:
            def counted(*args, _name=name, _fn=getattr(network_mod, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(network_mod, name, counted)
        report, grads = loss_and_gradient(imgs, labels, p, clf, reg, embed_grad=False)
        assert report == full_report
        assert grads.embed is None
        assert_same_gradients(grads, full, ("banks", "biases", "weights", "mu"))
        # per chunk: embedding and 3 layers forward, 2 adjoint applications
        # back instead of 3; 3 tap gradients instead of 4
        assert calls == {"bank_apply": 2 * (4 + 2), "tap_gradient": 2 * 3}


class TestEmbeddingReuse:
    """``embedded=`` stands in for ``embed_input`` of the same images."""

    @pytest.mark.parametrize("act", [Activation.TANH, Activation.IDENTITY])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_bits_as_the_plain_calls(self, act, workers):
        imgs, labels, p, clf, reg = TestTrajectoryReuse.problem(act, seed=44)
        assert imgs.shape[0] > network_mod.CHUNK
        y0 = embed_input(imgs, p)
        before = y0.copy()
        np.testing.assert_array_equal(propagate_final(imgs, p, workers, embedded=y0),
                                      propagate_final(imgs, p, workers))
        plain = loss(imgs, labels, p, clf, reg, workers=workers, keep=True)
        fed = loss(imgs, labels, p, clf, reg, workers=workers, keep=True, embedded=y0)
        assert fed == plain
        np.testing.assert_array_equal(fed.features, plain.features)
        for got, want in zip(fed.states, plain.states, strict=True):
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
        fresh_report, fresh = loss_and_gradient(imgs, labels, p, clf, reg, workers=workers)
        for states in (None, plain.states):
            report, grads = loss_and_gradient(imgs, labels, p, clf, reg, workers=workers,
                                              states=states, embedded=y0)
            assert report == fresh_report
            assert_same_gradients(grads, fresh)
        np.testing.assert_array_equal(y0, before)  # read, not changed

    def test_wrong_shape_refused(self):
        imgs, labels, p, clf, reg = TestTrajectoryReuse.problem(Activation.TANH)
        for bad in (embed_input(imgs[:100], p), embed_input(imgs, p)[:, :1]):
            with pytest.raises(ValueError, match="embedded"):
                propagate_final(imgs, p, embedded=bad)
            with pytest.raises(ValueError, match="embedded"):
                loss(imgs, labels, p, clf, reg, embedded=bad)
            with pytest.raises(ValueError, match="embedded"):
                loss_and_gradient(imgs, labels, p, clf, reg, embedded=bad)


class TestLabelCount:
    """``loss`` and ``loss_and_gradient`` take one label per image."""

    @pytest.mark.parametrize("zero", [False, True])  # zero weights: no image is read
    @pytest.mark.parametrize("count", [299, 301])
    def test_other_counts_refused(self, count, zero):
        imgs, _, p, clf, reg = TestZeroWeightClassifier.problem(m=300, L=3)
        if not zero:
            clf = Classifier(clf.grid, np.ones_like(clf.weights), clf.mu)
        labels = np.arange(count) % 3
        for fn in (loss, loss_and_gradient):
            with pytest.raises(ValueError, match=f"{count} labels for 300 images"):
                fn(imgs, labels, p, clf, reg)


class TestGradientLogits:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_keeps_each_chunks_logits(self, workers):
        imgs, labels, p, clf, reg = TestTrajectoryReuse.problem(Activation.TANH, seed=45)
        report, _ = loss_and_gradient(imgs, labels, p, clf, reg, workers=workers)
        features = propagate_final(imgs, p)
        want = np.concatenate([_logits(features[s], clf) for s in network_mod._chunks(len(imgs))])
        assert report.logits.tobytes() == want.tobytes()


class TestZeroWeightClassifier:
    """Zero classifier weights: every logit row is the offsets, and the
    adjoint entering the reverse sweep is exactly +-0."""

    @staticmethod
    def problem(m=300, L=3, seed=50):
        rng = np.random.default_rng(seed)
        p = scramble_in_time(small_params(num_layers=3), seed=seed + 1)
        p.embed_learnable = True
        clf = Classifier(Grid2D(6, 6, 0.8), np.zeros((L, 2, 6, 6)), rng.normal(0.0, 2.0, L))
        imgs = rng.random((m, 6, 6))  # two chunks at m = 300
        return imgs, np.arange(m) % L, p, clf, RegConfig(lambda_w=0.05, lambda_theta=0.02)

    @staticmethod
    def count(monkeypatch, name):
        """The leading dimension of the first argument of each call to ``name``."""
        calls = []
        fn = getattr(network_mod, name)

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return fn(*args, **kwargs)

        monkeypatch.setattr(network_mod, name, counted)
        return calls

    @pytest.mark.parametrize("m", [7, 540])  # one and three chunks
    @pytest.mark.parametrize("L", [2, 10])
    def test_loss_reads_no_image_unless_kept(self, monkeypatch, m, L):
        imgs, labels, p, clf, reg = self.problem(m, L, seed=m + L)
        steps = self.count(monkeypatch, "forward_step")
        got = loss(imgs, labels, p, clf, reg)
        assert steps == []
        assert got.features is None and got.states is None
        want = loss(imgs, labels, p, clf, reg, keep=True)
        assert len(steps) == 3 * len(range(0, m, 256))  # keep propagates every chunk
        assert (got.total, got.data_term, got.reg_term) == (want.total, want.data_term,
                                                            want.reg_term)
        assert got.reg_term > 0.0
        # no image is read, so none can diverge
        imgs[0, 2, 3] = np.inf
        assert loss(imgs, labels, p, clf, reg) == got

    def test_gradient_skips_the_sweep(self, monkeypatch):
        imgs, labels, p, clf, reg = self.problem()
        # references: scalar-loop propagation, softmax and cross-entropy
        m, L, h = labels.size, clf.num_classes, clf.grid.h
        d = np.zeros((m, L))
        want_w = np.zeros_like(clf.weights)
        ce = []
        for i in range(m):
            y = naive_forward(imgs[i], p.embed.weights, [b.weights for b in p.banks],
                              p.biases, p.dt, "tanh", p.act_gain)[-1]
            z = naive_logits(y, clf.weights, clf.mu, h)
            ce.append(naive_cross_entropy(z, int(labels[i])))
            d[i] = naive_softmax(z)
            d[i, labels[i]] -= 1.0
            want_w += h * h * d[i][:, None, None, None] * y / m
        banks = np.stack([b.weights for b in p.banks])
        path = sum(float(((th[1:] - th[:-1]) ** 2).sum()) for th in (banks, p.biases))
        want_total = np.mean(ce) + reg.lambda_theta * path / p.dt
        _, want = reg_value_and_grad(p, clf, reg)
        kept = loss(imgs, labels, p, clf, reg, keep=True).states

        taps = self.count(monkeypatch, "tap_gradient")
        for states in (None, kept):
            for embed_grad in (True, False):
                for workers in (1, 2):
                    report, grads = loss_and_gradient(imgs, labels, p, clf, reg, workers=workers,
                                                      states=states, embed_grad=embed_grad)
                    assert grads.banks.tobytes() == want.banks.tobytes()
                    assert grads.biases.tobytes() == want.biases.tobytes()
                    if embed_grad:
                        assert grads.embed.tobytes() == np.zeros((2, 1, 3, 3)).tobytes()
                    else:
                        assert grads.embed is None
                    assert abs(report.total - want_total) <= 1e-12
                    assert rel_err(grads.weights, want_w) <= 1e-12
                    assert rel_err(grads.mu, d.mean(axis=0)) <= 1e-12
        assert taps == []

    def test_one_tiny_weight_runs_the_full_sweep(self, monkeypatch):
        imgs, labels, p, clf, reg = self.problem()
        clf.weights[1, 0, 2, 3] = 1e-300
        taps = self.count(monkeypatch, "tap_gradient")
        loss_and_gradient(imgs, labels, p, clf, reg)
        # per chunk: one tap gradient per layer and one for the embedding
        assert taps == [256] * 4 + [44] * 4
