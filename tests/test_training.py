"""Regularizer, classifier Newton subproblem, BCD loop, and evaluation."""

import numpy as np
import pytest

import mgcnn.training as training_mod
from mgcnn.data import LabeledDataset, SyntheticKind, make_synthetic
from mgcnn.grid import Grid2D
from mgcnn.network import (
    Activation,
    Classifier,
    _cross_entropy,
    _logits,
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


def class_rows(v, L):
    """Flat ``[w_1..w_L | mu]`` unknowns as L rows ``[w_j | mu_j]``."""
    return np.concatenate([v[:-L].reshape(L, -1), v[-L:, None]], axis=1)


def flat_unknowns(rows):
    return np.concatenate([rows[:, :-1].reshape(-1), rows[:, -1]])


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
                h = hess_vec(flat_unknowns(Q @ e.reshape(L - 1, -1)))
                columns.append((Q.T @ class_rows(h, L)).reshape(-1))
            columns = np.stack(columns, axis=1)
            assert np.abs(H - columns).max() <= 1e-12 * max(1.0, np.abs(H).max())

    @pytest.mark.parametrize("L", [2, 3])
    @pytest.mark.parametrize("lam", [0.3, 0.0])
    def test_dense_direction_solves_the_full_system(self, L, lam):
        # Classifier weights with a nonzero, rough class mean put weight on
        # the FFT-solved mean block when lam > 0.
        A, probs, w_shape = newton_problem(43, (2, 4, 5), L=L)
        rng = np.random.default_rng(44)
        m = A.shape[0]
        w = rng.normal(size=(L, A.shape[1])) + rng.normal(size=A.shape[1])
        resid = (probs - np.eye(L)[rng.integers(0, L, m)]) / m
        g_w = resid.T @ A + lam * training_mod._laplacian_flat(w, w_shape)
        g_mu = resid.sum(axis=0)
        rhs = -np.concatenate([g_w.reshape(-1), g_mu])
        if lam > 0.0:
            assert np.linalg.norm(g_w.mean(axis=0)) >= 0.1 * np.linalg.norm(g_w)
        d_w, d_mu = training_mod._newton_direction(A, probs, g_w, g_mu, lam, w_shape)
        hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
        d = np.concatenate([d_w.reshape(-1), d_mu])
        assert np.linalg.norm(hess_vec(d) - rhs) <= 1e-9 * np.linalg.norm(rhs)

    def test_cg_branch_solves_the_same_system(self, monkeypatch):
        A, probs, w_shape = newton_problem(41, (2, 4, 5))
        lam = 0.3
        hess_vec = training_mod._hessian_matvec(A, probs, lam, w_shape)
        size = w_shape[0] * (A.shape[1] + 1)
        H = np.stack([hess_vec(e) for e in np.eye(size)], axis=1)
        # a right-hand side in the range of the nearly shift-invariant H
        rhs = H @ np.random.default_rng(42).normal(size=H.shape[0])
        g_w, g_mu = -rhs[: -w_shape[0]].reshape(w_shape[0], -1), -rhs[-w_shape[0] :]
        dense = training_mod._newton_direction(A, probs, g_w, g_mu, lam, w_shape)

        def no_dense(*args):
            raise AssertionError("dense assembly on the CG branch")

        monkeypatch.setattr(training_mod, "DENSE_NEWTON_LIMIT", 0)
        monkeypatch.setattr(training_mod, "_contrast_hessian", no_dense)
        cg = training_mod._newton_direction(A, probs, g_w, g_mu, lam, w_shape)
        for d_w, d_mu in (dense, cg):
            d = np.concatenate([d_w.reshape(-1), d_mu])
            assert np.linalg.norm(H @ d - rhs) <= 1e-6 * np.linalg.norm(rhs)

    def test_cached_laplacian_is_read_only(self):
        rows, cols, vals = training_mod._laplacian_entries((2, 4, 5))
        for a in (rows, cols, vals):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
        again = training_mod._laplacian_entries((2, 4, 5))
        assert all(x is y for x, y in zip(again, (rows, cols, vals)))
        assert vals.sum() == 0.0  # constants are in the kernel


def blob_set(n=40, seed=0, noise=0.05):
    return make_synthetic(SyntheticKind.BLOBS, n, Grid2D(6, 6, 1.0), seed=seed,
                          noise=noise)


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
