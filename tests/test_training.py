"""Regularizer, classifier Newton subproblem, BCD loop, and evaluation."""

import dataclasses
import math
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import mgcnn.network as network_mod
import mgcnn.training as training_mod
from mgcnn.cli import _load_dataset, parse_config
from mgcnn.data import LabeledDataset, SyntheticKind, make_synthetic
from mgcnn.errors import DimensionError, DivergenceError
from mgcnn.grid import Grid2D
from mgcnn.network import (
    Activation,
    Classifier,
    _cross_entropy,
    _logits,
    loss,
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

from oracles import (
    fd_gradient, geometric_armijo, hessian_matvec, rel_err, scatter_five_point,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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

    @pytest.mark.parametrize("block", ["banks", "biases", "classifier"])
    def test_overflow_is_divergence_without_a_warning(self, block):
        rng = np.random.default_rng(2)
        clf = Classifier(Grid2D(4, 4, 1.0), rng.normal(size=(2, 2, 4, 4)), rng.normal(size=2))
        p = varied_params(2)
        arrays = {"banks": p.banks[0].weights, "biases": p.biases[0], "classifier": clf.weights}
        arrays[block][...] *= 1e200  # finite entries whose squared differences overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DivergenceError, match="penalty became non-finite"):
                reg_value_and_grad(p, clf, RegConfig(0.5, 0.5))

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

    # Directions Newton cannot use: a failed solve, the ascent direction +g,
    # and a descent direction that no halving of 1, 1/2, ..., 2^-19 shortens
    # enough to lower the objective.
    @pytest.mark.parametrize("direction", [
        lambda g: None, lambda g: g, lambda g: -1e30 * g,
    ], ids=["no-solve", "ascent", "too-long"])
    def test_unusable_direction_ends_the_call(self, monkeypatch, direction):
        calls = []
        monkeypatch.setattr(training_mod, "_newton_solver",
                            lambda *args: lambda probs, g, rtol=1e-8: calls.append(g)
                            or direction(g))
        rng = np.random.default_rng(8)
        features = rng.normal(size=(10, 2, 4, 4))
        labels = rng.integers(0, 3, 10)
        reg = RegConfig(0.05, 0.0)
        clf = Classifier(Grid2D(4, 4, 1.0), rng.normal(size=(3, 2, 4, 4)), rng.normal(size=3))
        res = newton_classifier_step(features, labels, clf, reg, steps=3)
        assert res.classifier.weights.tobytes() == clf.weights.tobytes()
        assert res.classifier.mu.tobytes() == clf.mu.tobytes()
        assert res.used_fallback
        assert res.objectives == [classifier_objective(features, labels, clf, reg)] * 3
        assert len(calls) == 1

    def test_converged_call_stops_solving_at_its_first_rejected_step(self, monkeypatch):
        # A 2-class fit run to convergence: after four steps the gradient is
        # near 1e-9, so the next decrease, of order 1e-18, is below the
        # objective's rounding; rounding rejects that step, and no solve
        # runs after it.
        calls = []
        original = training_mod._newton_solver

        def counting_solver(*args):
            direction = original(*args)
            return lambda *a: calls.append(1) or direction(*a)

        monkeypatch.setattr(training_mod, "_newton_solver", counting_solver)
        rng = np.random.default_rng(10)
        features = rng.normal(size=(100, 2, 4, 4))
        labels = rng.integers(0, 2, 100)
        clf, reg = zero_classifier(Grid2D(4, 4, 1.0), 2, 2), RegConfig(1e-3, 0.0)
        res = newton_classifier_step(features, labels, clf, reg, steps=40)
        assert res.used_fallback
        objectives = [classifier_objective(features, labels, clf, reg)] + res.objectives
        moved = sum(b < a for a, b in zip(objectives, objectives[1:]))
        assert len(calls) == moved + 1 < 40
        assert res.objectives[moved:] == [res.objectives[-1]] * (40 - moved)

    # At h = 1 and h = 2 the features scale by a power of two, exactly, so the
    # call's objective is classifier_objective's bit for bit.
    @pytest.mark.parametrize("h, rtol", [(1.0, 0.0), (2.0, 0.0), (0.7, 1e-15)])
    def test_last_objective_is_the_classifier_objective(self, h, rtol):
        rng = np.random.default_rng(11)
        features = rng.normal(size=(15, 2, 4, 4))
        labels = rng.integers(0, 3, 15)
        reg = RegConfig(0.05, 0.0)
        res = newton_classifier_step(features, labels, zero_classifier(Grid2D(4, 4, h), 2, 3),
                                     reg, steps=4)
        ref = classifier_objective(features, labels, res.classifier, reg)
        assert abs(res.objectives[-1] - ref) <= rtol * ref

    # A pixel of 1e160 in every example cancels from the zero classifier's
    # gradient, as the labels are balanced, but each route's system squares
    # it past the float range.  In class 0 alone it overflows the gradient's
    # norm, and under a weight of 1e160 the objective.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case, side, lam, match", [
        ("contrast", 4, 0.0, "Newton system"),
        ("sample", 8, 0.1, "Newton system"),
        ("cg", 64, 0.0, "Newton direction"),
        ("gradient", 4, 0.0, "classifier gradient"),
        ("objective", 4, 0.0, "classifier objective"),
    ])
    def test_overflowing_features_are_divergence(self, case, side, lam, match):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(10, 1, side, side))
        labels = np.arange(10) % 2
        clf = zero_classifier(Grid2D(side, side, 1.0), 1, 2)
        features[labels == 0 if case == "gradient" else slice(None), 0, 0, 0] = 1e160
        if case == "objective":
            clf.weights[0, 0, 0, 0] = 1e160
        if case in ("contrast", "sample", "cg"):
            assert training_mod._newton_route(10, clf.weights.shape, lam) == case
        with pytest.raises(DivergenceError, match=match):
            newton_classifier_step(features, labels, clf, RegConfig(lam, 0.0), steps=3)


def newton_problem(seed, field_shape, m=7, L=3, scale=1.0):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, int(np.prod(field_shape))))
    logits = scale * rng.normal(size=(m, L))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    return A, probs, (L,) + field_shape


def newton_gradient(A, probs, w_shape, lam, seed):
    """A classifier gradient at weights with a nonzero, rough class mean, as
    ``(L, F+1)`` rows ``[g_w_j | g_mu_j]``."""
    rng = np.random.default_rng(seed)
    L, m = w_shape[0], A.shape[0]
    w = rng.normal(size=(L, A.shape[1])) + rng.normal(size=A.shape[1])
    resid = (probs - np.eye(L)[rng.integers(0, L, m)]) / m
    g_w = resid.T @ A + lam * network_mod._smooth_grad(w.reshape(w_shape)).reshape(w.shape)
    return np.concatenate([g_w, resid.sum(axis=0)[:, None]], axis=1)


def routed_direction(monkeypatch, route, A, probs, g, lam, w_shape):
    """The Newton direction through one solve."""
    monkeypatch.setattr(training_mod, "_newton_route", lambda *args: route)
    return training_mod._newton_solver(A, lam, w_shape)(probs, g)


def contrast_setup(monkeypatch, A, probs, lam, w_shape):
    """What the contrast solve builds once per Newton call, as it reaches
    ``_contrast_hessian``: ``A1 = [A | 1]``, the contrast basis ``Q`` and the
    penalty block."""
    seen = []
    original = training_mod._contrast_hessian

    def spy(A1, cov, penalty):
        seen.append((A1, training_mod._contrast_basis(w_shape[0]), penalty))
        return original(A1, cov, penalty)

    with monkeypatch.context() as mp:
        mp.setattr(training_mod, "_contrast_hessian", spy)
        g = np.zeros((w_shape[0], A.shape[1] + 1))
        routed_direction(mp, "contrast", A, probs, g, lam, w_shape)
    (setup,) = seen
    return setup


class TestNewtonAssembly:
    # (2, 4, 5) has full 5-point rows; (1, 2, 3) has a side of 2, where the
    # periodic neighbours coincide and their entries add.
    @pytest.mark.parametrize("field_shape", [(2, 4, 5), (1, 2, 3)])
    def test_dense_hessian_matches_matrix_free_product(self, monkeypatch, field_shape):
        # The dense system is the full Hessian seen through the contrast
        # basis Q: column (a, f) is Q^T H (Q e_(a, f)), class by class.
        lam = 0.3
        for L in (2, 3):
            A, probs, w_shape = newton_problem(40, field_shape, L=L)
            A1, Q, penalty = contrast_setup(monkeypatch, A, probs, lam, w_shape)
            np.testing.assert_array_equal(A1, np.hstack([A, np.ones((A.shape[0], 1))]))
            np.testing.assert_allclose(Q.T @ Q, np.eye(L - 1), atol=1e-15)
            assert np.abs(Q.sum(axis=0)).max() <= 1e-15
            H = training_mod._contrast_hessian(A1, training_mod._contrast_covariance(probs, Q),
                                               penalty)
            hess_vec = hessian_matvec(A, probs, lam, w_shape)
            columns = []
            for e in np.eye(H.shape[0]):
                columns.append((Q.T @ hess_vec(Q @ e.reshape(L - 1, -1))).reshape(-1))
            columns = np.stack(columns, axis=1)
            assert np.abs(H - columns).max() <= 1e-12 * max(1.0, np.abs(H).max())

    # (2, 4, 5) and (3, 7, 7) have full 5-point rows; on (1, 2, 3) the two
    # neighbours along the side of 2 are one cell.
    @pytest.mark.parametrize("field_shape, bitwise", [
        ((2, 4, 5), True), ((3, 7, 7), True), ((1, 2, 3), False),
    ])
    def test_penalty_block_is_the_five_point_stencil(self, monkeypatch, field_shape, bitwise):
        # The dense penalty is lam * 2 D^T D: 8 lam on the diagonal and -2 lam
        # per periodic neighbour, coinciding neighbours summed.  Added to a
        # data block in one addition per entry, it matches the scatter that
        # adds one neighbour shift at a time bit for bit, except where two
        # neighbours coincide: there -4 lam once differs from -2 lam twice
        # by rounding.
        lam = 0.3
        A, probs, w_shape = newton_problem(51, field_shape)
        _, _, penalty = contrast_setup(monkeypatch, A, probs, lam, w_shape)
        F = A.shape[1]
        zero_ref = scatter_five_point(np.zeros((F, F)), lam, field_shape)
        np.testing.assert_array_equal(penalty, zero_ref)
        data = A.T @ A / A.shape[0]
        ref = scatter_five_point(data.copy(), lam, field_shape)
        if bitwise:
            assert (data + penalty).tobytes() == ref.tobytes()
        else:
            assert np.abs(data + penalty - ref).max() <= 1e-15 * np.abs(ref).max()
        assert contrast_setup(monkeypatch, A, probs, 0.0, w_shape)[2] is None

    @pytest.mark.parametrize("route", ["sample", "contrast", "cg"])
    def test_contrast_basis_built_once_per_call(self, monkeypatch, route):
        # The basis depends on the class count alone, so one Newton call
        # builds it once, however many inner steps it takes.
        calls = []
        original = training_mod._contrast_basis
        monkeypatch.setattr(training_mod, "_contrast_basis",
                            lambda L: calls.append(L) or original(L))
        monkeypatch.setattr(training_mod, "_newton_route", lambda *args: route)
        rng = np.random.default_rng(52)
        features = rng.normal(size=(12, 2, 4, 4))
        labels = rng.integers(0, 3, 12)
        clf = zero_classifier(Grid2D(4, 4, 1.0), 2, 3)
        reg = RegConfig(0.05, 0.0)
        res = newton_classifier_step(features, labels, clf, reg, steps=4)
        objectives = [classifier_objective(features, labels, clf, reg)] + res.objectives
        assert all(b < a for a, b in zip(objectives, objectives[1:]))  # every step moved
        assert calls == [3]

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
        hess_vec = hessian_matvec(A, probs, lam, w_shape)
        assert np.linalg.norm(hess_vec(d) + g) <= 1e-9 * np.linalg.norm(g)

    def test_cg_branch_solves_the_same_system(self, monkeypatch):
        A, probs, w_shape = newton_problem(41, (2, 4, 5))
        lam = 0.3
        hess_vec = hessian_matvec(A, probs, lam, w_shape)
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


class TestContrastOperator:
    """The CG route's product with the contrast system, taken in row blocks
    of the features."""

    @staticmethod
    def problem(field_shape=(2, 4, 5), m=7, L=3, lam=0.3):
        A, probs, w_shape = newton_problem(53, field_shape, m=m, L=L)
        Q = training_mod._contrast_basis(L)
        return A, probs, Q, lam, w_shape

    @staticmethod
    def matrix(matvec, n):
        return np.stack([matvec(e) for e in np.eye(n)], axis=1)

    # (1, 2, 3) has a side of 2, where the periodic neighbours coincide.
    @pytest.mark.parametrize("field_shape", [(2, 4, 5), (1, 2, 3)])
    @pytest.mark.parametrize("L", [2, 3, 10])
    @pytest.mark.parametrize("lam", [0.3, 0.0])
    def test_columns_match_the_full_hessian_and_the_dense_system(
            self, monkeypatch, field_shape, L, lam):
        A, probs, Q, lam, w_shape = self.problem(field_shape, L=L, lam=lam)
        n = (L - 1) * (A.shape[1] + 1)
        cov = training_mod._contrast_covariance(probs, Q)
        op = self.matrix(training_mod._contrast_matvec(A, cov, lam, w_shape), n)
        hess_vec = hessian_matvec(A, probs, lam, w_shape)
        lifted = self.matrix(lambda e: (Q.T @ hess_vec(Q @ e.reshape(L - 1, -1))).reshape(-1), n)
        A1, _, penalty = contrast_setup(monkeypatch, A, probs, lam, w_shape)
        dense = training_mod._contrast_hessian(A1, cov, penalty)
        for ref in (lifted, dense):
            assert np.abs(op - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_symmetric_to_rounding(self):
        A, probs, Q, lam, w_shape = self.problem((3, 6, 6), m=40, L=10)
        matvec = training_mod._contrast_matvec(A, training_mod._contrast_covariance(probs, Q),
                                               lam, w_shape)
        rng = np.random.default_rng(54)
        for _ in range(5):
            u, v = rng.normal(size=(2, 9 * (A.shape[1] + 1)))
            hv = matvec(v)
            assert abs(u @ hv - v @ matvec(u)) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(hv)

    def test_block_sizes_agree(self, monkeypatch):
        # 40 rows of 108 features: one row per block (also below one row's
        # bytes), blocks of 6 with a ragged last block of 4, and one block
        # holding every row, exactly or with room to spare
        A, probs, Q, lam, w_shape = self.problem((3, 6, 6), m=40, L=10)
        v = np.random.default_rng(55).normal(size=9 * (A.shape[1] + 1))
        row = A[0].nbytes
        cov = training_mod._contrast_covariance(probs, Q)
        products = []
        for block_bytes in (1, row, 6 * row, 40 * row, 1 << 30):
            monkeypatch.setattr(training_mod, "_CG_BLOCK_BYTES", block_bytes)
            products.append(training_mod._contrast_matvec(A, cov, lam, w_shape)(v))
        whole = products[-1]
        for p in products:
            assert np.linalg.norm(p - whole) <= 1e-12 * np.linalg.norm(whole)


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
        hess_vec = hessian_matvec(A, probs, lam, w_shape)
        assert np.linalg.norm(hess_vec(d) + g) <= 1e-9 * np.linalg.norm(g)

    # Logits scaled by 30 or 100 saturate the probabilities, so the border of
    # the sample system carries almost no curvature and the jitter holds the
    # null coordinates nearly alone.
    @pytest.mark.parametrize("scale", [30.0, 100.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_saturated_probabilities_solve_like_the_contrast_route(self, monkeypatch, seed, scale):
        A, probs, w_shape = newton_problem(seed, (2, 4, 5), scale=scale)
        lam = 0.3
        g = newton_gradient(A, probs, w_shape, lam, seed=seed + 100)
        hess_vec = hessian_matvec(A, probs, lam, w_shape)
        residual = {route: np.linalg.norm(
            hess_vec(routed_direction(monkeypatch, route, A, probs, g, lam, w_shape)) + g)
            for route in ("sample", "contrast")}
        assert residual["sample"] <= 10.0 * residual["contrast"]

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
        hess_vec = hessian_matvec(A, probs, lam, w_shape)
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
        # 30 examples against 1200 unknowns per class at h = 1/20.  Routed to
        # CG, each inner step stops at the forcing tolerance or, short of it,
        # at 200 iterations.
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

    @staticmethod
    def recorded_cg_steps(monkeypatch, features, labels, clf, reg, steps):
        """A CG-routed Newton call, and per CG solve its ``rtol``, its
        right-hand side, the residual of its answer and its iteration count."""
        solves = []
        original = training_mod.scipy.sparse.linalg.cg

        def recording_cg(op, b, **kwargs):
            iters = []
            d, info = original(op, b, callback=iters.append, **kwargs)
            solves.append({"rtol": kwargs["rtol"], "b": np.linalg.norm(b),
                           "residual": np.linalg.norm(op.matvec(d) - b),
                           "iters": len(iters), "info": info})
            return d, info

        with monkeypatch.context() as mp:
            mp.setattr(training_mod, "_newton_route", lambda *args: "cg")
            mp.setattr(training_mod.scipy.sparse.linalg, "cg", recording_cg)
            return newton_classifier_step(features, labels, clf, reg, steps=steps), solves

    def test_cg_stops_at_the_forcing_tolerance(self, monkeypatch):
        features, labels, clf, reg = self.wide_problem()
        steps = 5
        res, solves = self.recorded_cg_steps(monkeypatch, features, labels, clf, reg, steps)
        assert len(solves) == steps

        # Each step's gradient norm, recomputed in full at the iterate the
        # same call reaches after the steps before it.
        m, L = labels.size, clf.num_classes
        h2 = clf.grid.h**2
        A = h2 * features.reshape(m, -1)
        onehot = np.eye(L)[labels]
        lam = reg.lambda_w * h2
        for k, solve in enumerate(solves):
            at = clf if k == 0 else self.recorded_cg_steps(
                monkeypatch, features, labels, clf, reg, k)[0].classifier
            f = at.weights
            z = A @ f.reshape(L, -1).T + at.mu
            p = np.exp(z - z.max(axis=1, keepdims=True))
            p /= p.sum(axis=1, keepdims=True)
            d = (p - onehot) / m
            laplacian = 2.0 * (4.0 * f
                               - np.roll(f, 1, -1) - np.roll(f, -1, -1)
                               - np.roll(f, 1, -2) - np.roll(f, -1, -2))
            g_norm = math.sqrt(((d.T @ A + lam * laplacian.reshape(L, -1))**2).sum()
                               + (d.sum(axis=0)**2).sum())
            assert solve["rtol"] == pytest.approx(min(training_mod.NEWTON_FORCING, g_norm),
                                                  rel=1e-12)
            assert (solve["residual"] <= solve["rtol"] * solve["b"]
                    or (solve["info"] > 0 and solve["iters"] == 200))

        objectives = [classifier_objective(features, labels, clf, reg)] + res.objectives
        assert all(b <= a for a, b in zip(objectives, objectives[1:]))

    def test_forcing_takes_fewer_cg_iterations_than_an_exact_solve(self, monkeypatch):
        features, labels, clf, reg = self.wide_problem()
        _, forced = self.recorded_cg_steps(monkeypatch, features, labels, clf, reg, 5)
        monkeypatch.setattr(training_mod, "NEWTON_FORCING", 1e-8)
        _, exact = self.recorded_cg_steps(monkeypatch, features, labels, clf, reg, 5)
        assert sum(s["iters"] for s in forced) < sum(s["iters"] for s in exact)

    def test_bit_identical_replay(self, monkeypatch):
        features, labels, clf, reg = self.wide_problem()
        monkeypatch.setattr(training_mod.scipy.sparse.linalg, "cg", refuse)
        first = newton_classifier_step(features, labels, clf, reg, steps=3)
        again = newton_classifier_step(features, labels, clf, reg, steps=3)
        np.testing.assert_array_equal(first.classifier.weights, again.classifier.weights)
        np.testing.assert_array_equal(first.classifier.mu, again.classifier.mu)


class TestDenseNewtonLimit:
    @pytest.mark.parametrize("m, w_shape, lam, route", [
        (540, (10, 3, 7, 7), 1e-3, "cg"),  # mnist.cfg's 7x7 level: 1332 contrast unknowns
        (540, (10, 2, 7, 7), 1e-3, "cg"),  # 891, still 10 classes
        (540, (5, 6, 7, 7), 1e-3, "contrast"),  # 1180, 5 classes
        (1473, (2, 3, 22, 22), 1e-3, "contrast"),  # 1453, 2 classes with m >= F
        (320, (2, 3, 28, 28), 0.0, "contrast"),  # 2353, no penalty
        (90, (10, 3, 28, 28), 1e-3, "sample"),  # 846 sample unknowns
        (108, (10, 3, 28, 28), 1e-3, "sample"),  # 1008
        (329, (10, 3, 28, 28), 1e-3, "sample"),  # 2997
        (329, (10, 3, 14, 14), 1e-3, "sample"),  # 2997
    ])
    def test_routes_of_measured_systems(self, m, w_shape, lam, route):
        assert training_mod._newton_route(m, w_shape, lam) == route

    @pytest.mark.parametrize("name, routes", [
        ("bars.cfg", ["contrast", "contrast"]),  # 289 and 73 contrast unknowns
        ("blobs.cfg", ["sample", "contrast"]),  # 244 sample, then 193 contrast
    ])
    def test_bundled_configs_keep_their_direct_routes(self, name, routes):
        cfg = parse_config(str(CONFIG_DIR / name))
        train, _ = _load_dataset(cfg)
        w_shapes = [(train.num_classes, cfg.channels, cfg.grid_ny >> k, cfg.grid_nx >> k)
                     for k in range(cfg.levels + 1)]
        assert [training_mod._newton_route(len(train), w, cfg.lambda_w) for w in w_shapes] == routes

    @staticmethod
    def boundary(branch, extra):
        """``(m, w_shape, lam)`` of a two-class system with
        ``DENSE_NEWTON_LIMIT + extra`` unknowns on ``branch``."""
        n = training_mod.DENSE_NEWTON_LIMIT
        if branch == "contrast":  # F + 1 unknowns; without the penalty, never the sample form
            return 6, (2, 1, 1, n - 1 + extra), 0.0
        return n - 2 + extra, (2, 1, 1, n), 0.3  # m + c + 1 unknowns, below F + 1

    @pytest.mark.parametrize("branch", ["contrast", "sample"])
    def test_the_limit_is_the_largest_direct_size(self, branch):
        assert training_mod._newton_route(*self.boundary(branch, 0)) == branch
        assert training_mod._newton_route(*self.boundary(branch, 1)) == "cg"

    @pytest.mark.parametrize("L", [3, 5, 10])
    def test_the_work_limit_bounds_the_contrast_path(self, L):
        # the widest class block F + 1 with L (L-1) (F+1) within the limit
        width = training_mod.CONTRAST_WORK_LIMIT // (L * (L - 1))
        assert training_mod._newton_route(6, (L, 1, 1, width - 1), 0.0) == "contrast"
        assert training_mod._newton_route(6, (L, 1, 1, width), 0.0) == "cg"


def blob_set(n=40, seed=0, noise=0.05):
    return make_synthetic(SyntheticKind.BLOBS, n, Grid2D(6, 6, 1.0), seed=seed,
                          noise=noise)


class TestMinibatches:
    def test_epochs_reshuffle_and_skip_the_remainder(self):
        # m = 10, size 4: each shuffle yields two batches, and the last two
        # examples of every epoch's order are never drawn.
        batches = training_mod._batches(10, 4, np.random.default_rng(5))
        got = [next(batches)[0] for _ in range(5)]
        rng = np.random.default_rng(5)
        orders = [rng.permutation(10) for _ in range(3)]
        expected = [order[i : i + 4] for order in orders for i in (0, 4)][:5]
        for g, e in zip(got, expected, strict=True):
            np.testing.assert_array_equal(g, e)

    @pytest.mark.parametrize("size", [7, 100])
    def test_full_batch_is_the_whole_set_and_an_empty_rest(self, size):
        rng = np.random.default_rng(5)
        batches = training_mod._batches(7, size, rng)
        for _ in range(4):
            batch, rest = next(batches)
            assert batch == slice(None) and rest.size == 0
        assert rng.bit_generator.state == np.random.default_rng(5).bit_generator.state

    def test_rest_is_the_complement_of_the_batch(self):
        batches = training_mod._batches(10, 3, np.random.default_rng(6))
        for _ in range(7):
            batch, rest = next(batches)
            assert batch.size == 3
            np.testing.assert_array_equal(np.sort(np.concatenate([batch, rest])), np.arange(10))
            np.testing.assert_array_equal(rest, np.sort(rest))


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

    def test_empty_validation_set_refused_before_training(self, monkeypatch):
        monkeypatch.setattr(training_mod, "loss_and_gradient", None)  # training would fail
        ds = make_synthetic(SyntheticKind.BARS, 40, Grid2D(12, 12, 1.0), seed=3)
        with pytest.raises(ValueError, match="validation set is empty"):
            bcd_train(ds, varied_params(7, num_layers=2), zero_classifier(ds.grid, 2, 2),
                      RegConfig(0.01, 0.01), BcdConfig(outer_iters=2), val=ds.subset([]))

    @pytest.mark.parametrize("case, message", [
        ("validation grid", r"validation set lives on Grid2D\(nx=16, ny=16, h=1.0\), "
                            r"the classifier on Grid2D\(nx=12, ny=12, h=1.0\)"),
        ("classifier grid", r"training set lives on Grid2D\(nx=12, ny=12, h=1.0\), "
                            r"the classifier on Grid2D\(nx=16, ny=16, h=1.0\)"),
        ("classifier channels", "the classifier reads 3 channels, the network has 2"),
    ], ids=["validation-grid", "classifier-grid", "classifier-channels"])
    def test_mismatched_grids_and_channels_refused_before_training(self, monkeypatch, case,
                                                                   message):
        for name in ("_embed", "loss_and_gradient", "propagate_final"):
            monkeypatch.setattr(training_mod, name, None)  # any pass would fail
        ds = make_synthetic(SyntheticKind.BARS, 40, Grid2D(12, 12, 1.0), seed=3)
        other = make_synthetic(SyntheticKind.BARS, 10, Grid2D(16, 16, 1.0), seed=4)
        val, clf = ds.subset(np.arange(10)), zero_classifier(ds.grid, 2, 2)
        if case == "validation grid":
            val = other
        elif case == "classifier grid":
            clf = zero_classifier(other.grid, 2, 2)
        else:
            clf = zero_classifier(ds.grid, 3, 2)
        with pytest.raises(DimensionError, match=message):
            bcd_train(ds, varied_params(7, num_layers=2), clf, RegConfig(0.01, 0.01),
                      BcdConfig(outer_iters=2), val=val)

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
        rep = evaluate(ds, res.params, res.classifier)
        last = res.history[-1]
        assert (rep.accuracy, rep.mean_loss) == (last.train_acc, last.data_term)

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


class TestFirstNewtonStart:
    """Iteration 1's Newton call starts from the zero classifier; the given
    classifier only drives that iteration's propagation step."""

    def setup_problem(self, lambda_theta):
        ds, val = blob_set(n=30, seed=16), blob_set(n=10, seed=17)
        params = varied_params(18, num_layers=2)
        reg = RegConfig(0.02, lambda_theta)
        zero = zero_classifier(ds.grid, 2, 2)
        fitted = newton_classifier_step(propagate_final(ds.images, params), ds.labels,
                                        zero, reg).classifier
        return ds, val, params, reg, zero, fitted

    def test_given_classifier_does_not_seed_the_first_fit(self, monkeypatch):
        # A propagation step that returns its input freezes the propagation
        # parameters, so the two calls can differ only through the classifier
        # their Newton call starts from.
        monkeypatch.setattr(training_mod, "_prop_step", lambda params, grads, t: params)
        ds, val, params, reg, zero, fitted = self.setup_problem(0.05)
        saturated = Classifier(ds.grid, 50.0 * fitted.weights, 50.0 * fitted.mu)
        cfg = BcdConfig(outer_iters=1, newton_steps=3, prop_step_rule=FixedStep(0.05))
        given = bcd_train(ds, params, saturated, reg, cfg, val=val)
        cold = bcd_train(ds, params, zero, reg, cfg, val=val)
        assert given.history == cold.history
        np.testing.assert_array_equal(given.classifier.weights, cold.classifier.weights)
        np.testing.assert_array_equal(given.classifier.mu, cold.classifier.mu)

    def test_given_classifier_drives_the_first_propagation_step(self):
        # Without the theta penalty, the zero classifier's propagation
        # gradient is exactly zero, so only the given classifier moves params.
        ds, val, params, reg, zero, fitted = self.setup_problem(0.0)
        cfg = BcdConfig(outer_iters=1, newton_steps=3)
        moved = bcd_train(ds, params, fitted, reg, cfg).params
        still = bcd_train(ds, params, zero, reg, cfg).params
        assert any(not np.array_equal(b0.weights, b1.weights)
                   for b0, b1 in zip(params.banks, moved.banks))
        for b0, b1 in zip(params.banks, still.banks):
            np.testing.assert_array_equal(b0.weights, b1.weights)


class SearchSpy:
    """Records every BCD iteration of ``bcd_train``: the point and loss report
    it starts from, and each propagation step tried with the trial's total
    (``None`` when no trial loss was computed).  Trial losses of the
    iterations in ``reject`` are replaced by infinity, so their searches
    accept nothing.  With ``fake``, every trial's total is replaced by
    ``fake(f0, sq, t)`` of the iteration's total, squared gradient norm and
    step."""

    def __init__(self, monkeypatch, reject=(), fake=None):
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
            it = self.iters[-1]
            if len(self.iters) in reject:
                report = dataclasses.replace(report, total=math.inf)
            elif fake is not None:
                report = dataclasses.replace(
                    report, total=fake(it["total"], it["sq"], it["trials"][-1][0]))
            it["trials"][-1][1] = report.total
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


def skip_next(t, total, f0, sq, rule):
    """The trial after a rejected trial at ``t`` with loss ``total``: the
    first point ``t * beta^k``, ``k >= 1``, at or below the limit of the
    quadratic through ``f0`` (slope ``-sq``) and ``total``, with ``beta^k``
    kept at or above 0.1."""
    limit = (1 - rule.c) * sq * t * t / (total - f0 + sq * t)
    step, k = t * rule.beta, 1
    while step > limit and rule.beta ** (k + 1) >= 0.1:
        step, k = step * rule.beta, k + 1
    return step


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
            for (a, total), b in zip(it["trials"], steps[1:]):
                assert b == skip_next(a, total, it["total"], it["sq"], rule)
            t = spy.accepted(it, rule)
            assert t is not None and t <= rule.step_size
            accepted.append(t)
            start = min(rule.step_size, t / rule.beta)
        # a rejected trial skipped grid points with beta = 0.5; with 0.3 none
        # can, since 0.3^2 < 0.1
        assert any(b < a * rule.beta for it in spy.iters
                   for (a, _), (b, _) in zip(it["trials"], it["trials"][1:])) == (beta == 0.5)
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


class TestFirstStep:
    """``first_step`` starts the first Armijo search, capped at
    ``step_size``; ``next_step`` is where the next search would start."""

    @staticmethod
    def run(monkeypatch, rule, iters=3, reject=(), **kwargs):
        spy = SearchSpy(monkeypatch, reject=reject)
        ds = blob_set(n=30, seed=3)
        res = bcd_train(ds, varied_params(10, num_layers=2), zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.02, 0.05),
                        BcdConfig(outer_iters=iters, newton_steps=2, prop_step_rule=rule),
                        **kwargs)
        return spy, res

    @pytest.mark.parametrize("first_step, start", [
        (None, 1.0), (0.25, 0.25), (2.0**-10, 2.0**-10), (1.0, 1.0), (4.0, 1.0),
    ])
    def test_first_search_starts_at_the_capped_first_step(self, monkeypatch, first_step, start):
        rule = ArmijoBacktracking(step_size=1.0)
        spy, res = self.run(monkeypatch, rule, first_step=first_step)
        assert spy.iters[0]["trials"][0][0] == start
        for it, later in zip(spy.iters, spy.iters[1:] + [None]):
            nxt = min(rule.step_size, spy.accepted(it, rule) / rule.beta)
            assert nxt == (res.next_step if later is None else later["trials"][0][0])

    def test_next_step_after_a_search_that_accepts_nothing(self, monkeypatch):
        rule = ArmijoBacktracking(step_size=1.0, max_backtracks=5)
        spy, res = self.run(monkeypatch, rule, reject={3}, first_step=0.125)
        assert spy.accepted(spy.iters[2], rule) is None
        assert res.next_step == spy.iters[2]["trials"][0][0] < 1.0

    @pytest.mark.parametrize("rule", [ArmijoBacktracking(), FixedStep(0.05)],
                             ids=["armijo", "fixed"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, -math.inf, math.nan, math.inf])
    def test_refuses_bad_values(self, monkeypatch, rule, bad):
        with pytest.raises(ValueError, match="first_step"):
            self.run(monkeypatch, rule, first_step=bad)

    def test_fixed_step_ignores_it(self, monkeypatch):
        spy, _ = self.run(monkeypatch, FixedStep(0.05), first_step=1e-3)
        assert [it["trials"] for it in spy.iters] == [[[0.05, None]]] * 3

    @pytest.mark.parametrize("first_step, start", [(None, 1.0), (0.25, 0.25), (4.0, 1.0)])
    def test_no_iteration_returns_its_start(self, monkeypatch, first_step, start):
        spy, res = self.run(monkeypatch, ArmijoBacktracking(), iters=0, first_step=first_step)
        assert spy.iters == [] and res.next_step == start


class TestArmijoSkip:
    """A rejected trial skips the grid points its quadratic model rules out."""

    @pytest.mark.parametrize("kind", [SyntheticKind.BARS, SyntheticKind.BLOBS])
    def test_skip_changes_no_byte_and_saves_trials(self, monkeypatch, kind):
        ds = make_synthetic(kind, 30, Grid2D(6, 6, 1.0), seed=3, noise=0.05)
        rule = ArmijoBacktracking()

        def run():
            spy = SearchSpy(monkeypatch)
            res = bcd_train(ds, varied_params(10, num_layers=2), zero_classifier(ds.grid, 2, 2),
                            RegConfig(0.02, 0.05),
                            BcdConfig(outer_iters=8, newton_steps=3, prop_step_rule=rule))
            monkeypatch.undo()
            return res, sum(len(it["trials"]) for it in spy.iters)

        skip, skip_trials = run()
        monkeypatch.setattr(training_mod, "ARMIJO_SKIP_FLOOR", 1.0)  # beta^k >= 1: no skip
        plain, plain_trials = run()
        assert_same_run(skip, plain)
        assert skip_trials < plain_trials

    @pytest.mark.parametrize("passing, max_backtracks, steps, plain", [
        # 1/2 passes but is skipped: the search takes the smaller grid step 1/8
        (0.5, 30, [1.0, 0.125], 0.5),
        # the skips land on the largest passing point, in 5 trials, not 13
        (2.0**-12, 30, [1.0, 2.0**-3, 2.0**-6, 2.0**-9, 2.0**-12], 2.0**-12),
        # four trials accept nothing, as plain backtracking's four do not
        (2.0**-12, 4, [1.0, 2.0**-3, 2.0**-6, 2.0**-9], None),
    ])
    def test_search_never_accepts_a_larger_step(self, monkeypatch, passing, max_backtracks,
                                                steps, plain):
        # every step up to `passing` meets the test, every larger one fails it badly
        def fake(f0, sq, t):
            return f0 - sq * t if t <= passing else f0 + 1e6 * sq * t

        rule = ArmijoBacktracking(max_backtracks=max_backtracks)
        spy = SearchSpy(monkeypatch, fake=fake)
        ds = blob_set(n=30, seed=3)
        bcd_train(ds, varied_params(10, num_layers=2), zero_classifier(ds.grid, 2, 2),
                  RegConfig(0.02, 0.05),
                  BcdConfig(outer_iters=1, newton_steps=2, prop_step_rule=rule))
        (it,) = spy.iters
        f0, sq = it["total"], it["sq"]
        assert sq > 0.0
        assert geometric_armijo(lambda t: fake(f0, sq, t), f0, sq, rule.step_size, rule.beta,
                                rule.c, rule.max_backtracks) == plain
        assert [t for t, _ in it["trials"]] == steps
        assert len(steps) <= rule.max_backtracks
        grid = [rule.step_size]  # the points plain backtracking tries, bit for bit
        while len(grid) < 100:
            grid.append(grid[-1] * rule.beta)
        assert set(steps) <= set(grid)
        accepted = spy.accepted(it, rule)
        assert accepted == (steps[-1] if plain is not None else None)
        if plain is not None:
            assert accepted <= plain


class TestStepRuleValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(beta=0.0), dict(beta=1.0), dict(beta=1.5), dict(beta=-0.5), dict(beta=math.nan),
        dict(c=0.0), dict(c=1.0), dict(c=math.nan),
        dict(step_size=0.0), dict(step_size=-1.0), dict(step_size=math.nan),
        dict(step_size=math.inf),
        dict(max_backtracks=0), dict(max_backtracks=-1),
    ])
    def test_armijo_refuses_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ArmijoBacktracking(**kwargs)

    @pytest.mark.parametrize("step_size", [0.0, -1.0, math.nan, math.inf])
    def test_fixed_step_refuses_bad_values(self, step_size):
        with pytest.raises(ValueError, match="step_size"):
            FixedStep(step_size)

    def test_defaults_and_edge_values_accepted(self):
        ArmijoBacktracking()
        ArmijoBacktracking(step_size=1e300, beta=1e-300, c=0.999, max_backtracks=1)
        FixedStep(1e-300)


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
    # trajectory are used like any other's.  With minibatches a trained
    # classifier's initial loss adds one pass over the examples outside the
    # first batch.
    @pytest.mark.parametrize("rule, batch_size, layers_per_pass, cold, fresh_passes", [
        (ArmijoBacktracking(), None, [2, 0, 0, 0], False, 0),
        (ArmijoBacktracking(), 10, [2, 2, 2, 2], False, 1 + 4),
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


class TestMinibatchFeatures:
    """Newton's features are, bit for bit, the final states of a whole fresh
    pass at the point the search kept, however they are formed: a full
    batch's accepted trial hands over its own; a minibatch trial's batch
    rows are spliced with a fresh pass over the rest; ``FixedStep``, a
    search that accepts nothing and a zero-weight minibatch trial, which
    reads no images, leave a fresh pass over the whole set."""

    @staticmethod
    def run(ds, workers=1, cold=False, batch_size=280, rule=ArmijoBacktracking()):
        # a batch of 280 spans two chunks of the trial's pass
        params, clf = TestTrajectoryReuse.start(ds)
        if cold:
            clf = zero_classifier(ds.grid, 2, 2)
        return bcd_train(ds, params, clf, RegConfig(0.02, 0.05),
                         BcdConfig(outer_iters=3, newton_steps=2, batch_size=batch_size,
                                   prop_step_rule=rule),
                         workers=workers)

    def spied_run(self, monkeypatch, **kwargs):
        """Run with every Newton call's features checked against a fresh
        pass at the kept point; return the sizes of the fresh passes."""
        ds = blob_set(n=300, seed=24)
        final, newton = training_mod.propagate_final, training_mod.newton_classifier_step
        reg_value = training_mod.reg_value_and_grad
        fresh_sizes, pending, compared = [], [], []

        def spy_final(images, *args, **kwargs):
            fresh_sizes.append(len(images))
            return final(images, *args, **kwargs)

        def spy_newton(features, *args, **kwargs):
            pending.append(features)
            return newton(features, *args, **kwargs)

        def spy_reg(params, *args):  # the history row's penalty, at the kept point
            fresh = final(ds.images, params)
            assert pending.pop().tobytes() == fresh.tobytes()
            compared.append(1)
            return reg_value(params, *args)

        monkeypatch.setattr(training_mod, "propagate_final", spy_final)
        monkeypatch.setattr(training_mod, "newton_classifier_step", spy_newton)
        monkeypatch.setattr(training_mod, "reg_value_and_grad", spy_reg)
        res = self.run(ds, **kwargs)
        assert len(res.history) == len(compared) == 3
        return fresh_sizes

    @pytest.mark.parametrize("cold, workers, sizes", [
        # the initial loss's rest; then every search accepted, so only the rest ran
        (False, 1, [20] + [20, 20, 20]),
        (True, 1, [300, 20, 20]),
        (True, 2, [300, 20, 20]),
    ])
    def test_newton_gets_the_features_of_a_fresh_pass(self, monkeypatch, cold, workers, sizes):
        assert self.spied_run(monkeypatch, workers=workers, cold=cold) == sizes

    @pytest.mark.parametrize("batch_size, rule, sizes", [
        (None, ArmijoBacktracking(), []),  # the accepted trial's own states, no pass
        (None, FixedStep(0.05), [300] * 3),
        # a first trial that diverges, and no second one
        (None, ArmijoBacktracking(1e100, max_backtracks=1), [300] * 3),
        (280, ArmijoBacktracking(1e100, max_backtracks=1), [20] + [300] * 3),
    ], ids=["full-batch-accepted", "fixed-step", "none-accepted", "minibatch-none-accepted"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_feature_source_is_a_fresh_pass(self, monkeypatch, batch_size, rule, sizes,
                                                  workers):
        assert self.spied_run(monkeypatch, workers=workers, batch_size=batch_size,
                              rule=rule) == sizes

    def test_cg_route_on_two_workers_matches_one(self, monkeypatch):
        monkeypatch.setattr(training_mod, "_newton_route", lambda *args: "cg")
        ds = blob_set(n=300, seed=25)
        runs = [self.run(ds, workers=w) for w in (1, 2)]
        assert runs[0].history == runs[1].history

        def arrays(res):
            p, c = res.params, res.classifier
            return [a.tobytes() for a in (*(b.weights for b in p.banks), p.biases,
                                          p.embed.weights, c.weights, c.mu)]

        assert arrays(runs[0]) == arrays(runs[1])


class TestDivergingTrial:
    """An Armijo trial whose forward pass diverges is rejected; a diverging
    current point still raises."""

    @staticmethod
    def start(ds, bank_scale=1.0):
        params = random_network_params(channels=2, num_layers=4, final_time=1.0, seed=28,
                                       init_scale=0.3, activation=Activation.IDENTITY)
        for b in params.banks:
            b.weights *= bank_scale
        rng = np.random.default_rng(29)
        clf = Classifier(ds.grid, rng.normal(size=(2, 2) + ds.grid.shape), rng.normal(size=2))
        return params, clf

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_trial_is_rejected(self, monkeypatch, batch_size, workers):
        # 300 examples are two chunks, so two workers run the passes on threads;
        # overflow is refused as divergence, without a numpy warning
        trial_loss, diverged = training_mod.loss, []

        def spy_loss(*args, **kwargs):
            try:
                return trial_loss(*args, **kwargs)
            except DivergenceError:
                diverged.append(1)
                raise

        monkeypatch.setattr(training_mod, "loss", spy_loss)
        ds = blob_set(n=300, seed=30)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = bcd_train(ds, *self.start(ds), RegConfig(1e-3, 1e-3),
                            BcdConfig(outer_iters=3, batch_size=batch_size,
                                      prop_step_rule=ArmijoBacktracking(step_size=1e100)),
                            workers=workers)
        assert [str(w.message) for w in caught] == []
        assert diverged
        assert len(res.history) == 3
        assert all(math.isfinite(row.loss) for row in res.history)

    def test_diverging_point_still_raises(self):
        ds = blob_set(n=30, seed=30)
        with pytest.raises(DivergenceError, match="layer"):
            bcd_train(ds, *self.start(ds, bank_scale=1e300), RegConfig(1e-3, 1e-3),
                      BcdConfig(outer_iters=1))


class TestReportLifetimes:
    """The search releases every trial's loss report as soon as it is done
    with it: a rejected one before the next trial runs, a minibatch one
    before the fresh feature pass, and a full-batch accepted one once its
    features and trajectory are taken, before Newton runs."""

    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_no_trial_report_outlives_its_use(self, monkeypatch, batch_size):
        refs, checks = [], []
        trial_loss, final = training_mod.loss, training_mod.propagate_final
        newton = training_mod.newton_classifier_step

        def assert_released(where):
            checks.append(where)
            assert all(r() is None for r in refs), where

        def spy_loss(*args, **kwargs):
            assert_released("trial")
            report = trial_loss(*args, **kwargs)
            refs.append(weakref.ref(report))
            return report

        def spy_final(*args, **kwargs):
            assert_released("propagate_final")
            return final(*args, **kwargs)

        def spy_newton(*args, **kwargs):
            assert_released("newton")
            return newton(*args, **kwargs)

        monkeypatch.setattr(training_mod, "loss", spy_loss)
        monkeypatch.setattr(training_mod, "propagate_final", spy_final)
        monkeypatch.setattr(training_mod, "newton_classifier_step", spy_newton)
        ds = blob_set(n=30, seed=3)
        outer_iters = 6
        res = bcd_train(ds, varied_params(10, num_layers=2), zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.02, 0.05),
                        BcdConfig(outer_iters=outer_iters, newton_steps=2, batch_size=batch_size,
                                  prop_step_rule=ArmijoBacktracking(step_size=4.0)),
                        val=blob_set(n=10, seed=2))
        assert len(res.history) == outer_iters
        assert len(refs) > outer_iters  # some trials were rejected
        fresh = outer_iters if batch_size else 0  # training-set feature passes
        assert checks.count("propagate_final") == outer_iters + fresh
        assert checks.count("newton") == outer_iters


class TestInitialLoss:
    """``TrainResult.initial_loss`` is the whole training set's loss at the
    given model, from the first gradient pass."""

    @staticmethod
    def start(ds, activation=Activation.TANH, seed=40):
        params = varied_params(seed, num_layers=2)
        params.activation = activation
        rng = np.random.default_rng(seed)
        clf = Classifier(ds.grid, rng.normal(size=(2, 2) + ds.grid.shape), rng.normal(size=2))
        return params, clf

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.IDENTITY])
    @pytest.mark.parametrize("m", [7, 300, 540])  # one chunk, two, three
    def test_full_batch_is_the_loss_to_the_bit(self, m, activation, workers):
        ds = blob_set(n=m, seed=41)
        params, clf = self.start(ds, activation)
        reg, cfg = RegConfig(0.02, 0.05), BcdConfig(outer_iters=2, newton_steps=2)
        res = bcd_train(ds, params, clf, reg, cfg, workers=workers)
        assert res.initial_loss == loss(ds.images, ds.labels, params, clf, reg).total

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("zero", [False, True])
    @pytest.mark.parametrize("m, batch_size", [(30, 10), (540, 500)])
    def test_minibatch_splices_the_batch_with_the_rest(self, monkeypatch, m, batch_size, zero,
                                                      workers):
        ds = blob_set(n=m, seed=42)
        params, clf = self.start(ds)
        if zero:
            clf = zero_classifier(ds.grid, 2, 2)
        reg = RegConfig(0.02, 0.05)
        cfg = BcdConfig(outer_iters=1, newton_steps=2, batch_size=batch_size)
        before_search, final, trial_loss = [], training_mod.propagate_final, training_mod.loss
        searched = []

        def spy_final(images, *args, **kwargs):
            if not searched:
                before_search.append(len(images))
            return final(images, *args, **kwargs)

        def spy_loss(*args, **kwargs):
            searched.append(1)
            return trial_loss(*args, **kwargs)

        monkeypatch.setattr(training_mod, "propagate_final", spy_final)
        monkeypatch.setattr(training_mod, "loss", spy_loss)
        res = bcd_train(ds, params, clf, reg, cfg, workers=workers)
        want = loss(ds.images, ds.labels, params, clf, reg).total
        if zero:  # the rest's rows are the offsets: no pass, and the same bits
            assert res.initial_loss == want
            assert before_search == []
        else:
            assert abs(res.initial_loss - want) <= 1e-14 * want
            assert before_search == [m - batch_size]

    def test_no_iteration_leaves_it_nan(self):
        ds = blob_set(n=7, seed=45)
        params, clf = self.start(ds)
        res = bcd_train(ds, params, clf, RegConfig(0.02, 0.05), BcdConfig(outer_iters=0))
        assert res.history == [] and math.isnan(res.initial_loss)

    @pytest.mark.parametrize("batch_size", [None, 10])
    def test_diverging_start_raises(self, monkeypatch, batch_size):
        # zero images stay zero through a linear layer without bias, and one
        # layer with a frozen embedding applies no adjoint bank, so with
        # minibatches only the pass over the rest, of images of ones, diverges
        ds = blob_set(n=30, seed=43)
        first, _ = next(training_mod._batches(30, 10, np.random.default_rng(0)))
        ds.images[:] = 1.0
        ds.images[first] = 0.0
        params = random_network_params(channels=2, num_layers=1, final_time=1.0, seed=44,
                                       activation=Activation.IDENTITY)
        params.banks[0].weights[:] = 1e308
        clf = Classifier(ds.grid, np.ones((2, 2) + ds.grid.shape), np.zeros(2))
        trials, trial_loss = [], training_mod.loss

        def spy_loss(*args, **kwargs):
            trials.append(1)
            return trial_loss(*args, **kwargs)

        monkeypatch.setattr(training_mod, "loss", spy_loss)
        with pytest.raises(DivergenceError, match="layer"):
            bcd_train(ds, params, clf, RegConfig(1e-3, 1e-3),
                      BcdConfig(outer_iters=1, batch_size=batch_size))
        assert trials == []


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
        # every prediction is class 0, so the accuracy is the share of label 0
        assert rep.accuracy == float((ds.labels == 0).mean())

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

    def test_empty_dataset_rejected(self):
        ds = blob_set().subset(np.array([], dtype=int))
        params = random_network_params(channels=2, num_layers=0, final_time=1.0)
        with pytest.raises(ValueError):
            evaluate(ds, params, zero_classifier(ds.grid, 2, 2))

    def test_dataset_off_the_classifier_grid_refused(self, monkeypatch):
        monkeypatch.setattr(training_mod, "propagate_final", None)  # a pass would fail
        ds = blob_set(n=10)
        with pytest.raises(DimensionError, match=r"dataset lives on Grid2D\(nx=6, ny=6, h=1.0\), "
                                                 r"the classifier on Grid2D\(nx=8, ny=8, h=1.0\)"):
            evaluate(ds, varied_params(3, num_layers=2), zero_classifier(Grid2D(8, 8, 1.0), 2, 2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_embedded_gives_the_same_bits(self, monkeypatch, workers):
        rng = np.random.default_rng(24)
        ds = blob_set(n=300, seed=25)  # two chunks
        params = varied_params(26, num_layers=2)
        clf = Classifier(ds.grid, rng.normal(size=(2, 2, 6, 6)), rng.normal(size=2))
        want = evaluate(ds, params, clf, workers)
        y0 = network_mod.embed_input(ds.images, params)
        monkeypatch.setattr(network_mod, "embed_input", None)  # embedding again would fail
        got = evaluate(ds, params, clf, workers, embedded=y0)
        assert (got.accuracy, got.mean_loss) == (want.accuracy, want.mean_loss)

    def test_every_validation_score_is_evaluate(self, monkeypatch):
        scores = []
        real = training_mod.evaluate

        def spy(*args, **kwargs):
            report = real(*args, **kwargs)
            scores.append(report.accuracy)
            return report

        monkeypatch.setattr(training_mod, "evaluate", spy)
        ds = blob_set(n=30, seed=27, noise=0.5)
        res = bcd_train(ds, varied_params(28, num_layers=2), zero_classifier(ds.grid, 2, 2),
                        RegConfig(0.01, 0.01), BcdConfig(outer_iters=4, newton_steps=1),
                        val=blob_set(n=25, seed=29, noise=0.5))
        assert [row.val_acc for row in res.history] == scores


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
