"""Regularizer, classifier Newton subproblem, BCD loop, and evaluation."""

import dataclasses
import math

import numpy as np
import pytest

import mgcnn.network as network_mod
import mgcnn.training as training_mod
from mgcnn.data import LabeledDataset, SyntheticKind, make_synthetic
from mgcnn.errors import DivergenceError
from mgcnn.grid import Grid2D
from mgcnn.network import (
    Activation,
    Classifier,
    _cross_entropy,
    _logits,
    loss_and_gradient,
    propagate_final,
    random_network_params,
    zero_classifier,
)
from mgcnn.training import (
    ArmijoBacktracking,
    BcdConfig,
    FixedStep,
    HISTORY_COLUMNS,
    RegConfig,
    bcd_train,
    classifier_objective,
    evaluate,
    history_to_csv,
    newton_classifier_step,
    reg_value_and_grad,
)

from oracles import fd_gradient, naive_logits, rel_err


def varied_params(seed=0, num_layers=3):
    rng = np.random.default_rng(seed)
    p = random_network_params(channels=2, num_layers=num_layers, final_time=1.0,
                              seed=seed, init_scale=0.3)
    for b in p.banks:
        b.weights[:] = rng.normal(0.0, 0.3, b.weights.shape)
    p.biases[:] = rng.normal(0.0, 0.3, p.biases.shape)
    return p


class TestRegValueAndGrad:
    def test_constant_fields_and_constant_path(self):
        g = Grid2D(4, 4, 1.0)
        clf = Classifier(g, np.full((2, 2, 4, 4), 3.7), np.array([1.0, -1.0]))
        p = random_network_params(channels=2, num_layers=3, final_time=1.0, seed=0)
        value, grads = reg_value_and_grad(p, clf, RegConfig(0.5, 0.5))
        assert value == 0.0
        # The Laplacian of a constant field cancels only to rounding.
        assert np.abs(grads.weights).max() <= 1e-12
        np.testing.assert_array_equal(grads.banks, 0.0)

    def test_zero_weights_give_zero(self):
        g = Grid2D(4, 4, 1.0)
        rng = np.random.default_rng(1)
        clf = Classifier(g, rng.normal(size=(2, 2, 4, 4)), rng.normal(size=2))
        p = varied_params(1)
        value, grads = reg_value_and_grad(p, clf, RegConfig(0.0, 0.0))
        assert value == 0.0
        np.testing.assert_array_equal(grads.weights, 0.0)
        np.testing.assert_array_equal(grads.biases, 0.0)

    def test_positive_for_varying_inputs(self):
        g = Grid2D(4, 4, 1.0)
        rng = np.random.default_rng(2)
        clf = Classifier(g, rng.normal(size=(2, 2, 4, 4)), rng.normal(size=2))
        value, _ = reg_value_and_grad(varied_params(2), clf, RegConfig(1.0, 1.0))
        assert value > 0.0

    def test_gradients_match_finite_differences(self):
        g = Grid2D(4, 4, 2.0)  # h != 1 exercises the area scaling
        rng = np.random.default_rng(3)
        clf = Classifier(g, rng.normal(size=(2, 2, 4, 4)), rng.normal(size=2))
        p = varied_params(3)
        reg = RegConfig(0.3, 0.7)
        _, grads = reg_value_and_grad(p, clf, reg)

        w_buf = clf.weights.copy()
        def f_w():
            return reg_value_and_grad(p, Classifier(g, w_buf, clf.mu), reg)[0]
        assert rel_err(grads.weights, fd_gradient(f_w, w_buf).reshape(grads.weights.shape)) <= 1e-6

        bank_buf = np.stack([b.weights for b in p.banks])
        def f_banks():
            q = p.copy()
            for i, b in enumerate(q.banks):
                b.weights[:] = bank_buf[i]
            return reg_value_and_grad(q, clf, reg)[0]
        assert rel_err(grads.banks, fd_gradient(f_banks, bank_buf).reshape(grads.banks.shape)) <= 1e-6

        bias_buf = p.biases.copy()
        def f_bias():
            q = p.copy()
            q.biases[:] = bias_buf
            return reg_value_and_grad(q, clf, reg)[0]
        assert rel_err(grads.biases, fd_gradient(f_bias, bias_buf).reshape(grads.biases.shape)) <= 1e-6


class TestNewtonClassifierStep:
    def test_stationary_start_is_untouched(self):
        # Zero features with balanced labels make the zero classifier exactly
        # optimal, so the gradient short-circuit must leave it untouched.
        g = Grid2D(4, 4, 1.0)
        clf = zero_classifier(g, 2, 2)
        res = newton_classifier_step(np.zeros((4, 2, 4, 4)), np.array([0, 1, 0, 1]),
                                     clf, RegConfig(0.1, 0.0), steps=3)
        np.testing.assert_array_equal(res.classifier.weights, 0.0)
        np.testing.assert_array_equal(res.classifier.mu, 0.0)
        assert not res.used_fallback

    def test_converged_point_is_a_fixed_point(self):
        rng = np.random.default_rng(4)
        g = Grid2D(4, 4, 1.0)
        features = rng.normal(size=(12, 2, 4, 4))
        labels = rng.integers(0, 3, 12)
        reg = RegConfig(0.05, 0.0)
        first = newton_classifier_step(features, labels, zero_classifier(g, 2, 3),
                                       reg, steps=40)
        again = newton_classifier_step(features, labels, first.classifier, reg, steps=3)
        assert rel_err(again.classifier.weights, first.classifier.weights) <= 1e-10
        assert rel_err(again.classifier.mu, first.classifier.mu) <= 1e-10

    def test_offset_solution_matches_scalar_frequency_oracle(self):
        # Zero features pin W at zero and reduce the subproblem to offsets
        # alone; the optimum then reproduces the class frequencies and the
        # logit gap solves the scalar problem d/ds [freq*log(1+e^-s) +
        # (1-freq)*log(1+e^s)] = 0, i.e. s = log(freq/(1-freq)).
        g = Grid2D(4, 4, 1.0)
        features = np.zeros((3, 2, 4, 4))
        labels = np.array([0, 0, 1])
        res = newton_classifier_step(features, labels, zero_classifier(g, 2, 2),
                                     RegConfig(0.1, 0.0), steps=30)
        np.testing.assert_array_equal(res.classifier.weights, 0.0)
        gap = res.classifier.mu[0] - res.classifier.mu[1]
        assert abs(gap - np.log(2.0)) <= 1e-8

    def test_objective_monotone_non_increasing(self):
        rng = np.random.default_rng(5)
        g = Grid2D(4, 4, 1.0)
        features = rng.normal(size=(10, 2, 4, 4))
        labels = rng.integers(0, 3, 10)
        res = newton_classifier_step(features, labels, zero_classifier(g, 2, 3),
                                     RegConfig(0.02, 0.0), steps=8)
        assert len(res.objectives) == 8
        for a, b in zip(res.objectives, res.objectives[1:]):
            assert b <= a

    def test_beats_500_plain_gradient_steps(self):
        rng = np.random.default_rng(6)
        g = Grid2D(4, 4, 1.0)
        m, L = 12, 3
        features = rng.normal(size=(m, 2, 4, 4))
        labels = rng.integers(0, L, m)
        reg = RegConfig(0.05, 0.0)
        res = newton_classifier_step(features, labels, zero_classifier(g, 2, L),
                                     reg, steps=5)
        newton_obj = classifier_objective(features, labels, res.classifier, reg)

        # Plain gradient descent reference on the same subproblem.  The
        # gradient is recomputed in full here (softmax residual plus the
        # periodic Laplacian of each weight field) rather than imported.
        A = g.h**2 * features.reshape(m, -1)
        onehot = np.zeros((m, L))
        onehot[np.arange(m), labels] = 1.0
        w = np.zeros((L, A.shape[1]))
        mu = np.zeros(L)
        lam = reg.lambda_w * g.h**2
        def laplacian(wf):
            f = wf.reshape(L, 2, 4, 4)
            out = 2.0 * (4.0 * f
                         - np.roll(f, 1, -1) - np.roll(f, -1, -1)
                         - np.roll(f, 1, -2) - np.roll(f, -1, -2))
            return out.reshape(L, -1)
        step = 0.1
        for _ in range(500):
            z = A @ w.T + mu
            z -= z.max(axis=1, keepdims=True)
            p = np.exp(z)
            p /= p.sum(axis=1, keepdims=True)
            d = (p - onehot) / m
            w -= step * (d.T @ A + lam * laplacian(w))
            mu -= step * d.sum(axis=0)
        gd_clf = Classifier(g, w.reshape(L, 2, 4, 4), mu)
        gd_obj = classifier_objective(features, labels, gd_clf, reg)
        assert newton_obj <= gd_obj + 1e-12

    # 40 examples against 72 features per class: without monkeypatching,
    # lam = 0.05 routes to the sample solve and lam = 0 to the contrast one.
    @pytest.mark.parametrize("route, lam", [
        ("sample", 0.05), ("contrast", 0.05), ("contrast", 0.0), ("cg", 0.05), ("cg", 0.0),
    ])
    def test_class_means_stay_zero(self, monkeypatch, route, lam):
        # Softmax is shift invariant, so the class means of the weights and
        # of the offsets get no gradient and no curvature: Newton steps from
        # a zero classifier must leave them at zero, not at rounding noise
        # divided by the Hessian jitter, whichever solve takes the contrasts.
        monkeypatch.setattr(training_mod, "_newton_route", lambda *args: route)
        rng = np.random.default_rng(7)
        g = Grid2D(6, 6, 1.0)
        features = rng.normal(size=(40, 2, 6, 6))
        labels = rng.integers(0, 3, 40)
        res = newton_classifier_step(features, labels, zero_classifier(g, 2, 3),
                                     RegConfig(lam, 0.0), steps=8)
        assert np.abs(res.classifier.weights).max() > 1e-3  # the steps did move
        assert abs(res.classifier.mu.mean()) <= 1e-14
        assert np.abs(res.classifier.weights.mean(axis=0)).max() <= 1e-14

    def test_empty_batch_rejected(self):
        g = Grid2D(4, 4, 1.0)
        with pytest.raises(ValueError):
            newton_classifier_step(np.zeros((0, 2, 4, 4)), np.zeros(0, dtype=int),
                                   zero_classifier(g, 2, 2), RegConfig(), steps=1)


def newton_problem(seed, field_shape, m=7, L=3):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, int(np.prod(field_shape))))
    logits = rng.normal(size=(m, L))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return A, probs, (L,) + field_shape


def newton_gradient(A, probs, w_shape, lam, seed):
    """A classifier gradient at weights with a nonzero, rough class mean, as
    ``(L, F+1)`` rows ``[g_w_j | g_mu_j]``."""
    rng = np.random.default_rng(seed)
    L, m = w_shape[0], A.shape[0]
    w = rng.normal(size=(L, A.shape[1])) + rng.normal(size=A.shape[1])
    resid = (probs - np.eye(L)[rng.integers(0, L, m)]) / m
    g_w = resid.T @ A + lam * training_mod._laplacian_flat(w, w_shape)
    return np.concatenate([g_w, resid.sum(axis=0)[:, None]], axis=1)


def routed_direction(monkeypatch, route, A, probs, g, lam, w_shape):
    """The Newton direction through one solve."""
    monkeypatch.setattr(training_mod, "_newton_route", lambda *args: route)
    return training_mod._newton_solver(A, lam, w_shape)(probs, g)


class TestNewtonAssembly:
    # (2, 4, 5) has full 5-point rows; (1, 2, 3) has a side of 2, where the
    # periodic neighbours coincide and their entries add.
    @pytest.mark.parametrize("field_shape", [(2, 4, 5), (1, 2, 3)])
    def test_dense_hessian_matches_matrix_free_product(self, field_shape):
        # The dense system is the full Hessian seen through the contrast
        # basis Q: column (a, f) is Q^T H (Q e_(a, f)), class by class.
        lam = 0.3
        for L in (2, 3):
            A, probs, w_shape = newton_problem(40, field_shape, L=L)
            Q = training_mod._contrast_basis(L)
            np.testing.assert_allclose(Q.T @ Q, np.eye(L - 1), atol=1e-15)
            assert np.abs(Q.sum(axis=0)).max() <= 1e-15
            H = training_mod._contrast_hessian(A, probs, lam, w_shape)
            hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
            columns = []
            for e in np.eye(H.shape[0]):
                columns.append((Q.T @ hess_vec(Q @ e.reshape(L - 1, -1))).reshape(-1))
            columns = np.stack(columns, axis=1)
            assert np.abs(H - columns).max() <= 1e-12 * max(1.0, np.abs(H).max())

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("lam", [0.3, 0.0])
    def test_dense_direction_solves_the_full_system(self, monkeypatch, L, lam):
        # Classifier weights with a nonzero, rough class mean put weight on
        # the FFT-solved mean block when lam > 0.
        A, probs, w_shape = newton_problem(43, (2, 4, 5), L=L)
        g = newton_gradient(A, probs, w_shape, lam, seed=44)
        if lam > 0.0:
            g_w = g[:, :-1]
            assert np.linalg.norm(g_w.mean(axis=0)) >= 0.1 * np.linalg.norm(g_w)
        d = routed_direction(monkeypatch, "contrast", A, probs, g, lam, w_shape)
        hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
        assert np.linalg.norm(hess_vec(d) + g) <= 1e-9 * np.linalg.norm(g)

    def test_cg_branch_solves_the_same_system(self, monkeypatch):
        A, probs, w_shape = newton_problem(41, (2, 4, 5))
        lam = 0.3
        hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
        L = w_shape[0]
        size = L * (A.shape[1] + 1)
        H = np.stack([hess_vec(e.reshape(L, -1)).reshape(-1) for e in np.eye(size)], axis=1)
        # a right-hand side in the range of the nearly shift-invariant H, from
        # flat [w_1..w_L | mu] draws
        z = np.random.default_rng(42).normal(size=size)
        z = np.concatenate([z[:-L].reshape(L, -1), z[-L:, None]], axis=1)
        rhs = H @ z.reshape(-1)
        g = -rhs.reshape(L, -1)
        dense = training_mod._newton_solver(A, lam, w_shape)(probs, g)

        def no_dense(*args):
            raise AssertionError("dense assembly on the CG branch")

        monkeypatch.setattr(training_mod, "DENSE_NEWTON_LIMIT", 0)
        monkeypatch.setattr(training_mod, "_contrast_hessian", no_dense)
        cg = training_mod._newton_solver(A, lam, w_shape)(probs, g)
        for d in (dense, cg):
            assert np.linalg.norm(H @ d.reshape(-1) - rhs) <= 1e-6 * np.linalg.norm(rhs)


def refuse(*args, **kwargs):
    raise AssertionError("this solve must not run")


class TestSampleSpaceNewton:
    # (1, 2, 3) has a side of 2, where the periodic neighbours coincide.
    @pytest.mark.parametrize("field_shape", [(2, 4, 5), (1, 2, 3)])
    @pytest.mark.parametrize("L", [2, 3, 10])
    def test_matches_the_contrast_direction(self, monkeypatch, field_shape, L):
        A, probs, w_shape = newton_problem(45, field_shape, L=L)
        lam = 0.3
        g = newton_gradient(A, probs, w_shape, lam, seed=46)
        g_w = g[:, :-1]
        assert np.linalg.norm(g_w.mean(axis=0)) >= 0.1 * np.linalg.norm(g_w)
        sample = routed_direction(monkeypatch, "sample", A, probs, g, lam, w_shape)
        contrast = routed_direction(monkeypatch, "contrast", A, probs, g, lam, w_shape)
        assert np.linalg.norm(sample - contrast) <= 1e-9 * np.linalg.norm(contrast)

    @pytest.mark.parametrize("field_shape", [(2, 4, 5), (1, 2, 3)])
    @pytest.mark.parametrize("L", [2, 3, 10])
    def test_solves_the_full_system(self, monkeypatch, field_shape, L):
        A, probs, w_shape = newton_problem(47, field_shape, L=L)
        lam = 0.3
        g = newton_gradient(A, probs, w_shape, lam, seed=48)
        d = routed_direction(monkeypatch, "sample", A, probs, g, lam, w_shape)
        hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
        assert np.linalg.norm(hess_vec(d) + g) <= 1e-9 * np.linalg.norm(g)

    def test_many_features_take_the_sample_path(self, monkeypatch):
        # 6 examples against 288 unknowns per class: the sample system has
        # 2 * 9 unknowns, the contrast system 2 * 289.
        A, probs, w_shape = newton_problem(49, (2, 12, 12), m=6)
        lam = 0.3
        assert training_mod._newton_route(6, w_shape, lam) == "sample"
        g = newton_gradient(A, probs, w_shape, lam, seed=50)
        monkeypatch.setattr(training_mod, "_contrast_hessian", refuse)
        monkeypatch.setattr(training_mod.scipy.sparse.linalg, "cg", refuse)
        d = training_mod._newton_solver(A, lam, w_shape)(probs, g)
        hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
        assert np.linalg.norm(hess_vec(d) + g) <= 1e-9 * np.linalg.norm(g)

    def test_no_penalty_never_takes_the_sample_path(self, monkeypatch):
        A, probs, w_shape = newton_problem(49, (2, 12, 12), m=6)
        assert training_mod._newton_route(6, w_shape, 0.0) == "contrast"
        g = newton_gradient(A, probs, w_shape, 0.0, seed=50)
        monkeypatch.setattr(training_mod, "_sample_kernel", refuse)
        monkeypatch.setattr(training_mod, "_sample_solve", refuse)
        d = training_mod._newton_solver(A, 0.0, w_shape)(probs, g)
        assert np.all(np.isfinite(d))

    @staticmethod
    def wide_problem():
        # 30 examples against 1200 unknowns per class at h = 1/20, where the
        # 200-iteration CG stops short of convergence.
        rng = np.random.default_rng(9)
        features = rng.normal(size=(30, 3, 20, 20))
        labels = rng.integers(0, 10, 30)
        clf = zero_classifier(Grid2D(20, 20, 1.0 / 20), 3, 10)
        return features, labels, clf, RegConfig(1e-3, 0.0)

    def test_newton_step_ends_no_higher_than_cg(self, monkeypatch):
        features, labels, clf, reg = self.wide_problem()
        sample = newton_classifier_step(features, labels, clf, reg, steps=5)
        monkeypatch.setattr(training_mod, "_newton_route", lambda *args: "cg")
        cg = newton_classifier_step(features, labels, clf, reg, steps=5)
        assert not sample.used_fallback
        assert sample.objectives[-1] <= cg.objectives[-1]

    def test_bit_identical_replay(self, monkeypatch):
        features, labels, clf, reg = self.wide_problem()
        monkeypatch.setattr(training_mod.scipy.sparse.linalg, "cg", refuse)
        first = newton_classifier_step(features, labels, clf, reg, steps=3)
        again = newton_classifier_step(features, labels, clf, reg, steps=3)
        np.testing.assert_array_equal(first.classifier.weights, again.classifier.weights)
        np.testing.assert_array_equal(first.classifier.mu, again.classifier.mu)


def blob_set(n=40, seed=0, noise=0.05):
    return make_synthetic(SyntheticKind.BLOBS, n, Grid2D(6, 6, 1.0), seed=seed,
                          noise=noise)


class TestMinibatches:
    def test_epochs_reshuffle_and_skip_the_remainder(self):
        # m = 10, size 4: each shuffle yields two batches, and the last two
        # examples of every epoch's order are never drawn.
        batches = training_mod._minibatches(10, 4, np.random.default_rng(5))
        got = [next(batches) for _ in range(5)]
        rng = np.random.default_rng(5)
        orders = [rng.permutation(10) for _ in range(3)]
        expected = [order[i : i + 4] for order in orders for i in (0, 4)][:5]
        for g, e in zip(got, expected, strict=True):
            np.testing.assert_array_equal(g, e)


class TestBcdTrain:
    def test_zero_iterations_is_identity(self):
        ds = blob_set()
        p0 = varied_params(7, num_layers=2)
        c0 = zero_classifier(ds.grid, 2, 2)
        res = bcd_train(ds, p0, c0, RegConfig(0.01, 0.01), BcdConfig(outer_iters=0))
        assert res.history == []
        np.testing.assert_array_equal(res.classifier.weights, c0.weights)
        for b0, b1 in zip(p0.banks, res.params.banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)

    def test_inputs_left_untouched(self):
        ds = blob_set()
        p0 = varied_params(8, num_layers=2)
        c0 = zero_classifier(ds.grid, 2, 2)
        snapshot = np.stack([b.weights for b in p0.banks]).copy()
        bcd_train(ds, p0, c0, RegConfig(0.01, 0.01),
                  BcdConfig(outer_iters=2, newton_steps=2))
        np.testing.assert_array_equal(np.stack([b.weights for b in p0.banks]), snapshot)
        np.testing.assert_array_equal(c0.weights, 0.0)

    def test_separable_blobs_reach_full_training_accuracy(self):
        ds = blob_set(n=40, seed=0)
        params = random_network_params(channels=2, num_layers=2, final_time=0.5,
                                       seed=0, init_scale=0.3)
        res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.01, 0.01), BcdConfig(outer_iters=30, newton_steps=5))
        assert max(row.train_acc for row in res.history) == 1.0
        assert res.history[-1].train_acc == 1.0

    def test_deterministic_replay_bit_identical(self):
        ds = blob_set(n=24, seed=1)
        params = varied_params(9, num_layers=2)
        cfg = BcdConfig(outer_iters=4, newton_steps=3, batch_size=8, seed=11)
        runs = []
        for _ in range(2):
            res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                            RegConfig(0.01, 0.01), cfg, val=blob_set(n=10, seed=2))
            runs.append(res)
        assert runs[0].history == runs[1].history
        np.testing.assert_array_equal(runs[0].classifier.weights,
                                      runs[1].classifier.weights)
        for b0, b1 in zip(runs[0].params.banks, runs[1].params.banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)

    def test_armijo_full_batch_loss_monotone(self):
        ds = blob_set(n=30, seed=3)
        params = varied_params(10, num_layers=2)
        res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.02, 0.05),
                        BcdConfig(outer_iters=12, newton_steps=3,
                                  prop_step_rule=ArmijoBacktracking()))
        losses = [row.loss for row in res.history]
        for a, b in zip(losses, losses[1:]):
            assert b <= a + 1e-12

    def test_fixed_step_rule_runs(self):
        ds = blob_set(n=20, seed=4)
        params = random_network_params(channels=2, num_layers=2, final_time=0.5, seed=4)
        res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.01, 0.01),
                        BcdConfig(outer_iters=3, newton_steps=2,
                                  prop_step_rule=FixedStep(0.05)))
        assert len(res.history) == 3

    def test_history_shape_and_val_column(self):
        ds = blob_set(n=20, seed=5)
        val = blob_set(n=10, seed=6)
        params = random_network_params(channels=2, num_layers=2, final_time=0.5, seed=5)
        res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.01, 0.01),
                        BcdConfig(outer_iters=2, newton_steps=2), val=val)
        assert [row.iteration for row in res.history] == [1, 2]
        assert all(0.0 <= row.val_acc <= 1.0 for row in res.history)
        no_val = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                           RegConfig(0.01, 0.01),
                           BcdConfig(outer_iters=1, newton_steps=2))
        assert np.isnan(no_val.history[0].val_acc)

    @pytest.mark.parametrize("rule,batch_size", [
        (ArmijoBacktracking(), None),
        (FixedStep(0.05), None),
        (ArmijoBacktracking(), 8),
    ])
    def test_last_row_matches_a_fresh_pass(self, rule, batch_size):
        # full-batch Armijo reuses the accepted trial's states as features;
        # they must be the exact states of a fresh pass at the final point
        ds = blob_set(n=30, seed=12)
        res = bcd_train(ds, varied_params(13, num_layers=2), zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.02, 0.05),
                        BcdConfig(outer_iters=4, newton_steps=2, prop_step_rule=rule,
                                  batch_size=batch_size))
        logits = _logits(propagate_final(ds.images, res.params), res.classifier)
        assert res.history[-1].data_term == float(_cross_entropy(logits, ds.labels).mean())

    def test_full_batch_armijo_skips_the_feature_pass(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return propagate_final(*args, **kwargs)

        monkeypatch.setattr(training_mod, "propagate_final", counted)
        ds = blob_set(n=30, seed=14)
        res = bcd_train(ds, varied_params(15, num_layers=2), zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.02, 0.05), BcdConfig(outer_iters=3, newton_steps=2))
        assert len(res.history) == 3
        assert calls == []

    def test_empty_training_set_rejected(self):
        ds = blob_set().subset(np.array([], dtype=int))
        params = random_network_params(channels=2, num_layers=1, final_time=0.5)
        with pytest.raises(ValueError):
            bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                      RegConfig(), BcdConfig(outer_iters=1))


class SearchSpy:
    """Records every BCD iteration of ``bcd_train``: the point and loss report
    it starts from, and each propagation step tried with the trial's total
    (``None`` when no trial loss was computed).  Trial losses of the
    iterations in ``reject`` are replaced by infinity, so their searches
    accept nothing."""

    def __init__(self, monkeypatch, reject=()):
        self.iters = []
        loss_grad, trial_loss, prop_step = (
            training_mod.loss_and_gradient, training_mod.loss, training_mod._prop_step)

        def spy_loss_grad(images, labels, params, *args, **kwargs):
            report, grads = loss_grad(images, labels, params, *args, **kwargs)
            self.iters.append(dict(params=params.copy(), total=report.total,
                                   sq=grads.prop_sq_norm(params.embed_learnable), trials=[]))
            return report, grads

        def spy_prop_step(params, grads, t):
            self.iters[-1]["trials"].append([t, None])
            return prop_step(params, grads, t)

        def spy_loss(*args, **kwargs):
            report = trial_loss(*args, **kwargs)
            if len(self.iters) in reject:
                report = dataclasses.replace(report, total=math.inf)
            self.iters[-1]["trials"][-1][1] = report.total
            return report

        monkeypatch.setattr(training_mod, "loss_and_gradient", spy_loss_grad)
        monkeypatch.setattr(training_mod, "_prop_step", spy_prop_step)
        monkeypatch.setattr(training_mod, "loss", spy_loss)

    def accepted(self, it, rule):
        """The step iteration ``it`` accepted, or None; checks that it is
        the first trial that passes the sufficient-decrease test."""
        passes = [total <= it["total"] - rule.c * t * it["sq"] for t, total in it["trials"]]
        if not any(passes):
            return None
        assert passes.index(True) == len(passes) - 1
        return it["trials"][-1][0]


class TestArmijoWarmStart:
    @pytest.mark.parametrize("beta", [0.5, 0.3])
    def test_each_search_starts_above_the_last_accepted_step(self, monkeypatch, beta):
        rule = ArmijoBacktracking(step_size=1.0, beta=beta)
        spy = SearchSpy(monkeypatch)
        ds = blob_set(n=30, seed=3)
        bcd_train(ds, varied_params(10, num_layers=2), zero_classifier(ds.grid, 2, 2),
                  RegConfig(0.02, 0.05),
                  BcdConfig(outer_iters=8, newton_steps=2, prop_step_rule=rule))
        assert len(spy.iters) == 8
        start = rule.step_size
        accepted = []
        for it in spy.iters:
            steps = [t for t, _ in it["trials"]]
            assert steps[0] == start
            for a, b in zip(steps, steps[1:]):
                assert b == a * rule.beta
            t = spy.accepted(it, rule)
            assert t is not None and t <= rule.step_size
            accepted.append(t)
            start = min(rule.step_size, t / rule.beta)
        # both branches of the start were taken: the cap, and a warm start
        # below step_size
        assert max(accepted) / rule.beta > rule.step_size
        assert min(it["trials"][0][0] for it in spy.iters) < rule.step_size

    def test_search_without_accepted_step_keeps_point_and_start(self, monkeypatch):
        rule = ArmijoBacktracking(step_size=1.0, max_backtracks=10)
        spy = SearchSpy(monkeypatch, reject={3})
        ds = blob_set(n=30, seed=3)
        bcd_train(ds, varied_params(10, num_layers=2), zero_classifier(ds.grid, 2, 2),
                  RegConfig(0.02, 0.05),
                  BcdConfig(outer_iters=4, newton_steps=2, prop_step_rule=rule))
        before, rejected, after = spy.iters[1:]
        t = spy.accepted(before, rule)
        assert t is not None
        start = min(rule.step_size, t / rule.beta)
        assert start < rule.step_size
        assert rejected["trials"][0][0] == start
        assert len(rejected["trials"]) == rule.max_backtracks
        assert spy.accepted(rejected, rule) is None
        for b0, b1 in zip(rejected["params"].banks, after["params"].banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)
        np.testing.assert_array_equal(rejected["params"].biases, after["params"].biases)
        assert after["trials"][0][0] == start

    def test_fixed_step_matches_the_plain_loop(self, monkeypatch):
        # FixedStep takes step_size every iteration, computes no trial loss,
        # and gives the history of the loop written out by hand
        ds = blob_set(n=20, seed=4)
        params = random_network_params(channels=2, num_layers=2, final_time=0.5, seed=4)
        reg = RegConfig(0.01, 0.01)
        spy = SearchSpy(monkeypatch)
        res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2), reg,
                        BcdConfig(outer_iters=3, newton_steps=2,
                                  prop_step_rule=FixedStep(0.05)))
        assert [it["trials"] for it in spy.iters] == [[[0.05, None]]] * 3
        monkeypatch.undo()
        p, clf = params.copy(), zero_classifier(ds.grid, 2, 2)
        for row in res.history:
            _, grads = loss_and_gradient(ds.images, ds.labels, p, clf, reg)
            p = training_mod._prop_step(p, grads, 0.05)
            features = propagate_final(ds.images, p)
            clf = newton_classifier_step(features, ds.labels, clf, reg, 2).classifier
            reg_term, _ = reg_value_and_grad(p, clf, reg)
            data_term = float(_cross_entropy(_logits(features, clf), ds.labels).mean())
            assert (row.data_term, row.reg_term) == (data_term, reg_term)
        np.testing.assert_array_equal(res.params.biases, p.biases)
        np.testing.assert_array_equal(res.classifier.weights, clf.weights)


def assert_same_run(a, b):
    assert a.history == b.history
    for b0, b1 in zip(a.params.banks, b.params.banks):
        np.testing.assert_array_equal(b0.weights, b1.weights)
    np.testing.assert_array_equal(a.params.biases, b.params.biases)
    np.testing.assert_array_equal(a.params.embed.weights, b.params.embed.weights)
    np.testing.assert_array_equal(a.classifier.weights, b.classifier.weights)
    np.testing.assert_array_equal(a.classifier.mu, b.classifier.mu)


class TestTrajectoryReuse:
    """Full-batch Armijo feeds the accepted trial's trajectory to the next
    gradient pass and skips a frozen embedding's gradient; same bits."""

    @staticmethod
    def start(ds, embed_learnable=False, seed=16):
        # a nonzero classifier, so the first search already has a gradient
        rng = np.random.default_rng(seed)
        params = varied_params(seed, num_layers=2)
        params.embed_learnable = embed_learnable
        clf = Classifier(ds.grid, rng.normal(size=(2, 2) + ds.grid.shape), rng.normal(size=2))
        return params, clf

    @pytest.mark.parametrize("embed_learnable", [False, True])
    def test_matches_fresh_gradient_passes(self, monkeypatch, embed_learnable):
        ds = blob_set(n=30, seed=17)
        params, clf = self.start(ds, embed_learnable)
        cfg = BcdConfig(outer_iters=4, newton_steps=2)
        res = bcd_train(ds, params, clf, RegConfig(0.02, 0.05), cfg)
        assert np.array_equal(res.params.embed.weights, params.embed.weights) != embed_learnable

        loss_grad = training_mod.loss_and_gradient

        def fresh(*args, states=None, embed_grad=True, **kwargs):
            return loss_grad(*args, **kwargs)

        monkeypatch.setattr(training_mod, "loss_and_gradient", fresh)
        assert_same_run(res, bcd_train(ds, params, clf, RegConfig(0.02, 0.05), cfg))

    # ``cold`` starts from a zero classifier without the path penalty, so the
    # first propagation gradient is exactly zero: the first search accepts
    # its trial at the unchanged point, and that trial's features and
    # trajectory are used like any other's.
    @pytest.mark.parametrize("rule, batch_size, layers_per_pass, cold, fresh_passes", [
        (ArmijoBacktracking(), None, [2, 0, 0, 0], False, 0),
        (ArmijoBacktracking(), 10, [2, 2, 2, 2], False, 4),
        (FixedStep(0.05), None, [2, 2, 2, 2], False, 4),
        (ArmijoBacktracking(), None, [2, 0, 0, 0], True, 0),
    ])
    def test_layers_run_by_each_gradient_pass(self, monkeypatch, rule, batch_size,
                                              layers_per_pass, cold, fresh_passes):
        steps, per_pass, finals = [], [], []
        step, loss_grad = network_mod.forward_step, training_mod.loss_and_gradient
        final = training_mod.propagate_final

        def counted_step(*args, **kwargs):
            steps.append(1)
            return step(*args, **kwargs)

        def counted_pass(*args, **kwargs):
            before = len(steps)
            out = loss_grad(*args, **kwargs)
            per_pass.append(len(steps) - before)
            return out

        def counted_final(*args, **kwargs):
            finals.append(1)
            return final(*args, **kwargs)

        monkeypatch.setattr(network_mod, "forward_step", counted_step)
        monkeypatch.setattr(training_mod, "loss_and_gradient", counted_pass)
        monkeypatch.setattr(training_mod, "propagate_final", counted_final)
        ds = blob_set(n=30, seed=14)
        params, clf = self.start(ds)
        reg = RegConfig(0.02, 0.05)
        if cold:
            clf, reg = zero_classifier(ds.grid, 2, 2), RegConfig(0.02, 0.0)
        res = bcd_train(ds, params, clf, reg,
                        BcdConfig(outer_iters=4, newton_steps=2, prop_step_rule=rule,
                                  batch_size=batch_size))
        assert len(res.history) == 4
        assert per_pass == layers_per_pass
        assert len(finals) == fresh_passes

    def test_two_chunks_on_two_workers_match_one(self):
        ds = blob_set(n=300, seed=18)  # two chunks: 256 and 44 examples
        params, clf = self.start(ds)
        cfg = BcdConfig(outer_iters=3, newton_steps=2)
        runs = [bcd_train(ds, params, clf, RegConfig(0.02, 0.05), cfg, workers=w)
                for w in (1, 2)]
        assert_same_run(*runs)


class TestEmbeddingOnce:
    """A frozen embedding is formed once per image set and ``bcd_train`` call."""

    @staticmethod
    def spied_run(monkeypatch, n, batch_size=None, embed_learnable=False):
        """Embeddings and passes of one run: per pass, whether it got ``embedded``."""
        embeds, passes = [], []
        embed = network_mod.embed_input

        def counted_embed(x, params):
            embeds.append(np.shape(x)[0])
            return embed(x, params)

        monkeypatch.setattr(network_mod, "embed_input", counted_embed)
        for name in ("loss", "loss_and_gradient", "propagate_final"):
            def counted(*args, _fn=getattr(training_mod, name), **kwargs):
                passes.append(kwargs.get("embedded") is not None)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(training_mod, name, counted)
        ds, val = blob_set(n=n, seed=19), blob_set(n=12, seed=20)
        params, clf = TestTrajectoryReuse.start(ds, embed_learnable)
        res = bcd_train(ds, params, clf, RegConfig(0.02, 0.05),
                        BcdConfig(outer_iters=3, newton_steps=2, batch_size=batch_size), val=val)
        assert len(res.history) == 3
        return embeds, passes

    def test_frozen_full_batch_embeds_train_and_val_once(self, monkeypatch):
        embeds, passes = self.spied_run(monkeypatch, n=300)  # two chunks per pass
        assert embeds == [300, 12]
        assert passes and all(passes)

    def test_learnable_embedding_embeds_every_chunk_of_every_pass(self, monkeypatch):
        embeds, passes = self.spied_run(monkeypatch, n=30, embed_learnable=True)
        assert len(embeds) == len(passes) and not any(passes)

    def test_minibatches_embed_every_pass(self, monkeypatch):
        embeds, passes = self.spied_run(monkeypatch, n=30, batch_size=10)
        assert embeds[0] == 10
        assert len(embeds) == len(passes) and not any(passes)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("with_val", [False, True])
    def test_overflowing_embedding_refused(self, with_val):
        ds = blob_set(n=20, seed=21)
        params = varied_params(22, num_layers=2)
        params.embed.weights[:] = 1e308  # finite, but nine taps overflow
        with pytest.raises(DivergenceError, match="at embedding"):
            bcd_train(ds, params, zero_classifier(ds.grid, 2, 2), RegConfig(0.02, 0.05),
                      BcdConfig(outer_iters=2, newton_steps=2),
                      val=blob_set(n=10, seed=23) if with_val else None)


class TestEvaluate:
    def test_uniform_classifier_tie_breaks_low(self):
        ds = blob_set(n=21, seed=7)
        params = random_network_params(channels=2, num_layers=0, final_time=1.0)
        rep = evaluate(ds, params, zero_classifier(ds.grid, 2, 2))
        freq0 = float((ds.labels == 0).mean())
        assert rep.accuracy == freq0
        assert rep.confusion[:, 1].sum() == 0  # every prediction is class 0

    def test_perfect_oracle(self):
        ds = make_synthetic(SyntheticKind.BLOBS, 30, Grid2D(8, 8, 1.0),
                            seed=8, noise=0.0)
        params = random_network_params(channels=1, num_layers=0, final_time=1.0)
        rows, cols = np.arange(8)[:, None], np.arange(8)[None, :]
        w = 0.12 * 8
        bumps = np.stack([
            np.exp(-((rows - 2.4) ** 2 + (cols - 2.4) ** 2) / (2 * w * w)),
            np.exp(-((rows - 5.6) ** 2 + (cols - 5.6) ** 2) / (2 * w * w)),
        ])[:, None]
        rep = evaluate(ds, params, Classifier(ds.grid, bumps, np.zeros(2)))
        assert rep.accuracy == 1.0
        assert np.trace(rep.confusion) == 30

    def test_confusion_matches_manual_recount(self):
        rng = np.random.default_rng(9)
        ds = blob_set(n=20, seed=10)
        params = varied_params(11, num_layers=2)
        clf = Classifier(ds.grid, rng.normal(size=(2, 2, 6, 6)), rng.normal(size=2))
        rep = evaluate(ds, params, clf)
        feats = propagate_final(ds.images, params)
        confusion = np.zeros((2, 2), dtype=int)
        correct = 0
        for i in range(20):
            z = naive_logits(feats[i], clf.weights, clf.mu, ds.grid.h)
            pred = int(np.argmax(z))
            confusion[ds.labels[i], pred] += 1
            correct += pred == ds.labels[i]
        np.testing.assert_array_equal(rep.confusion, confusion)
        assert rep.accuracy == correct / 20
        assert rep.confusion.sum(axis=1).tolist() == np.bincount(ds.labels).tolist()

    def test_empty_dataset_rejected(self):
        ds = blob_set().subset(np.array([], dtype=int))
        params = random_network_params(channels=2, num_layers=0, final_time=1.0)
        with pytest.raises(ValueError):
            evaluate(ds, params, zero_classifier(ds.grid, 2, 2))


class TestHistoryCsv:
    def test_header_and_rows(self, tmp_path):
        ds = blob_set(n=20, seed=12)
        params = random_network_params(channels=2, num_layers=2, final_time=0.5, seed=6)
        res = bcd_train(ds, params, zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.01, 0.01), BcdConfig(outer_iters=3, newton_steps=2))
        path = str(tmp_path / "h.csv")
        history_to_csv(res.history, path)
        lines = open(path, newline="").read().splitlines()
        assert lines[0] == ",".join(HISTORY_COLUMNS)
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[1]) == res.history[0].loss
