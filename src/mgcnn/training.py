"""Block coordinate descent training.

Each outer iteration takes one first-order step on the propagation
parameters (a fixed step size, or Armijo backtracking that starts from the
step accepted last) and then a handful of damped Newton steps on the
classifier.  With the propagation parameters frozen, the classifier
subproblem is multinomial logistic regression with a quadratic smoothness
penalty, so it is convex and Newton's method with step halving is both safe
and fast.

The Newton system uses the exact softmax Gauss-Newton Hessian, on one
``(L, F+1)`` array of rows ``[w_j | mu_j]`` for ``L`` classes and ``F``
features per class.  Softmax logits are invariant to adding the same vector
to every class, so the data term of the Hessian vanishes along
class-constant directions, and the penalty and the jitter act on each class
alike.  The class mean therefore decouples exactly: it sees only ``lambda *
Laplacian + jitter``, which the FFT diagonalises on the periodic grid.  The
``L - 1`` class contrasts, in the orthonormal basis of scipy's Helmert matrix,
form one system of ``(L-1)(F+1)`` unknowns, solved directly (the contrast
path).  With ``m`` examples and ``c`` channels that system also has an exact
sample-space form of ``(L-1)(m+c+1)`` unknowns, because the data term has
rank at most ``m(L-1)`` and the penalty is diagonal under the FFT (the
sample path).  The smaller of the two is solved directly if it has at most
``DENSE_NEWTON_LIMIT`` unknowns, the sample form only when ``lambda > 0``;
otherwise conjugate gradients solve the contrast system matrix-free.  All
three are deterministic.  A singular or non-descent system falls back to a
gradient step with Armijo search and flags the step report.

The smoothness penalties are those of :func:`mgcnn.network.loss`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .data import LabeledDataset
from .network import (
    Classifier,
    Gradients,
    LossReport,
    NetworkParams,
    RegConfig,
    RegGrads,
    loss,
    loss_and_gradient,
    propagate_final,
    reg_value_and_grad,
    softmax,
    _check_labels,
    _cross_entropy,
    _embed,
    _logits,
    _smooth_grad,
    _smooth_sq,
)

__all__ = [
    "ArmijoBacktracking",
    "BcdConfig",
    "EvalReport",
    "FixedStep",
    "HistoryRow",
    "NewtonResult",
    "RegConfig",  # re-exported from mgcnn.network, like RegGrads and reg_value_and_grad
    "RegGrads",
    "TrainResult",
    "bcd_train",
    "classifier_objective",
    "evaluate",
    "history_to_csv",
    "newton_classifier_step",
    "reg_value_and_grad",
]

# Direct Newton solve up to this many unknowns in the system solved:
# (L-1)(F+1) on the contrast path, (L-1)(m+c+1) on the sample path.  CG beyond.
DENSE_NEWTON_LIMIT = 3000
# Tikhonov jitter on the Hessian diagonal, which keeps the contrast system
# and the CG operator definite where the data term is flat.  The class-mean
# block is left at zero where the jitter would be its only curvature.
NEWTON_JITTER = 1e-10
MAX_HALVINGS = 20


@dataclass(frozen=True)
class FixedStep:
    step_size: float


@dataclass(frozen=True)
class ArmijoBacktracking:
    """Backtracking line search with the sufficient-decrease test.

    Each search tries ``t, beta * t, beta^2 * t, ...`` for at most
    ``max_backtracks`` trials.  Within one :func:`bcd_train` call the first
    search starts at ``step_size``; each later one warm-starts one expansion
    above the step accepted last, ``min(step_size, t_last / beta)``, so
    ``step_size`` also caps every step.  After a search that accepts no step,
    the next one starts where that one started.
    """

    step_size: float = 1.0
    beta: float = 0.5
    c: float = 1e-4
    max_backtracks: int = 30


StepRule = Union[FixedStep, ArmijoBacktracking]


@dataclass
class BcdConfig:
    outer_iters: int
    newton_steps: int = 5
    prop_step_rule: StepRule = field(default_factory=ArmijoBacktracking)
    batch_size: int | None = None  # None: full batch
    seed: int = 0


# --- classifier subproblem ---------------------------------------------------


def classifier_objective(
    features: np.ndarray, labels: np.ndarray, clf: Classifier, reg: RegConfig
) -> float:
    """Mean cross-entropy on fixed features plus the spatial penalty."""
    labels = _check_labels(labels, clf.num_classes)
    ce = float(_cross_entropy(_logits(features, clf), labels).mean())
    return ce + reg.lambda_w * clf.grid.h**2 * _smooth_sq(clf.weights)


@dataclass
class NewtonResult:
    classifier: Classifier
    objectives: list[float]
    used_fallback: bool = False


def _laplacian_flat(v: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return _smooth_grad(v.reshape(shape)).reshape(v.shape)


def newton_classifier_step(
    features: np.ndarray,
    labels: np.ndarray,
    clf: Classifier,
    reg: RegConfig,
    steps: int = 5,
) -> NewtonResult:
    """``steps`` damped Newton iterations on the classifier subproblem.

    ``features`` are the fixed final states, shape ``(m, c, ny, nx)``.  The
    objective is monotonically non-increasing across the inner steps; a
    singular or non-descent system triggers an Armijo gradient step instead
    and sets ``used_fallback``.
    """
    labels = _check_labels(labels, clf.num_classes)
    m = labels.size
    if m == 0:
        raise ValueError("cannot fit a classifier to an empty batch")
    L = clf.num_classes
    h2 = clf.grid.h**2
    w_shape = clf.weights.shape
    A = h2 * features.reshape(m, -1)  # logits = A @ W_flat.T + mu
    F = A.shape[1]
    lam = reg.lambda_w * h2
    onehot = np.zeros((m, L))
    onehot[np.arange(m), labels] = 1.0

    def unpack(x: np.ndarray) -> Classifier:
        return Classifier(clf.grid, x[:, :F].reshape(w_shape), x[:, F].copy())

    def grad(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        probs = softmax(A @ x[:, :F].T + x[:, F])
        d = (probs - onehot) / m
        g_w = d.T @ A + lam * _laplacian_flat(x[:, :F], w_shape)
        return np.concatenate([g_w, d.sum(axis=0)[:, None]], axis=1), probs

    direction = _newton_solver(A, lam, w_shape)
    x = np.concatenate([clf.weights.reshape(L, F), clf.mu[:, None]], axis=1)  # rows [w_j | mu_j]
    obj = classifier_objective(features, labels, unpack(x), reg)
    objectives: list[float] = []
    used_fallback = False

    for _ in range(steps):
        g, probs = grad(x)
        if float(np.abs(g).max()) < 1e-13:
            objectives.append(obj)
            continue

        d = direction(probs, g)
        accepted = False
        if d is not None and float((d * g).sum()) < 0.0:
            t = 1.0
            for _ in range(MAX_HALVINGS):
                new_obj = classifier_objective(features, labels, unpack(x + t * d), reg)
                if new_obj < obj:
                    x, obj = x + t * d, new_obj
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            # Armijo gradient fallback
            used_fallback = True
            t = 1.0
            for _ in range(MAX_HALVINGS):
                new_obj = classifier_objective(features, labels, unpack(x - t * g), reg)
                if new_obj <= obj - 1e-4 * t * float((g**2).sum()):
                    x, obj = x - t * g, new_obj
                    break
                t *= 0.5
        objectives.append(obj)

    return NewtonResult(classifier=unpack(x), objectives=objectives, used_fallback=used_fallback)


def _contrast_basis(L: int) -> np.ndarray:
    """Orthonormal ``(L, L-1)`` basis of the class contrasts: the transposed
    rows of scipy's Helmert matrix below its first, so column ``a - 1`` holds
    ``1/sqrt(a(a+1))`` on classes ``0..a-1`` and ``-a/sqrt(a(a+1))`` on class
    ``a``, and every column sums to zero.
    """
    return np.ascontiguousarray(scipy.linalg.helmert(L).T)


def _contrast_hessian(
    A: np.ndarray, probs: np.ndarray, lam: float, w_shape: tuple[int, ...]
) -> np.ndarray:
    """The Hessian restricted to class contrasts, as a dense matrix.

    Unknown layout: for each column ``q_a`` of :func:`_contrast_basis`, the
    contrast of the weights, then of the offsets (``F + 1`` entries).  Block
    ``(a, b)`` is ``Ã^T diag(s_ab) Ã`` with ``Ã = [A, 1]`` and per-sample
    weights ``s_ab = q_a^T (diag p - p p^T) q_b / m``, the covariance of the
    contrasts ``q_a`` and ``q_b`` under the class distribution ``p``.  Taken
    in that form, the diagonal weights are nonnegative sums of squares, so
    a diagonal block is one symmetric rank-``m`` product; only the blocks
    ``a <= b`` are computed, the others are their mirror.  The penalty and
    the jitter act on each class alike, so they enter every diagonal block
    unchanged.
    """
    m, L = probs.shape
    F = A.shape[1]
    n = F + 1
    Q = _contrast_basis(L)
    A1 = np.empty((m, n))
    A1[:, :F] = A
    A1[:, F] = 1.0
    dev = Q - (probs @ Q)[:, None, :]  # (m, L, L-1): contrasts minus their means
    H = np.empty(((L - 1) * n, (L - 1) * n))
    for a in range(L - 1):
        ra = slice(a * n, (a + 1) * n)
        for b in range(a, L - 1):
            rb = slice(b * n, (b + 1) * n)
            s = (probs * dev[:, :, a] * dev[:, :, b]).sum(axis=1) / m
            if b == a:
                root = A1 * np.sqrt(s)[:, None]
                np.matmul(root.T, root, out=H[ra, ra])
            else:
                np.matmul(A1.T, A1 * s[:, None], out=H[ra, rb])
                H[rb, ra] = H[ra, rb].T
    if lam > 0.0:
        # The penalty's periodic 5-point operator: 8 on the diagonal, -2 per
        # neighbour shift.  One statement per shift, so entries that coincide
        # on grids narrower than 3 add up.
        idx = np.arange(F).reshape(w_shape[1:])
        neighbours = [np.roll(idx, s, axis=ax) for ax in (-1, -2) for s in (1, -1)]
        for a in range(L - 1):
            block = H[a * n : a * n + F, a * n : a * n + F]
            block[idx, idx] += 8.0 * lam
            for cols in neighbours:
                block[idx, cols] -= 2.0 * lam
    H[np.diag_indices_from(H)] += NEWTON_JITTER
    return H


def _penalty_solve(v: np.ndarray, lam: float, field_shape: tuple[int, ...]) -> np.ndarray:
    """Apply ``(lam * Laplacian + jitter)^-1`` to the fields in the rows of
    ``v`` (shape ``(..., F)``), and zero on the penalty's null space.

    The periodic 5-point Laplacian is diagonal in Fourier space, with symbol
    ``2(4 - 2cos(2πk/nx) - 2cos(2πl/ny))`` on every channel's field.  Its
    null space is each channel's zero frequency (every frequency when
    ``lam`` is 0), where the result is 0: no solve divides by the jitter
    alone.  This is the class-mean block of the Newton system, whose
    right-hand side vanishes there in exact arithmetic because the softmax
    residual sums to zero over classes, and the penalised part of the
    sample-space solve, which treats that null space explicitly.
    """
    ny, nx = field_shape[-2:]
    symbol = 2.0 * (
        4.0
        - 2.0 * np.cos(2.0 * np.pi * np.arange(nx // 2 + 1) / nx)
        - 2.0 * np.cos(2.0 * np.pi * np.arange(ny)[:, None] / ny)
    )
    curvature = lam * symbol
    spectrum = np.fft.rfft2(v.reshape(v.shape[:-1] + tuple(field_shape)))
    spectrum = np.where(curvature > 0.0, spectrum / (curvature + NEWTON_JITTER), 0.0)
    return np.fft.irfft2(spectrum, s=(ny, nx)).reshape(v.shape)


def _sample_kernel(A: np.ndarray, lam: float, field_shape: tuple[int, ...]):
    """What the sample-space solve needs of the features alone.

    Returns ``X``, whose rows are ``D^-1 a_i`` for the penalised part ``D``
    of the contrast system (:func:`_penalty_solve`); the kernel
    ``K = A D^-1 A^T`` (``m x m``); and ``C = [A, 1] U``, the samples seen
    through the ``c + 1`` orthonormal null directions ``U`` of the penalty
    (each channel's constant field, and the offset).
    """
    m, F = A.shape
    c = field_shape[0]
    X = _penalty_solve(A, lam, field_shape)
    C = np.ones((m, c + 1))
    C[:, :c] = A.reshape(m, c, -1).sum(axis=2) / math.sqrt(F // c)
    return X, A @ X.T, C


def _sample_solve(
    A: np.ndarray,
    kernel: tuple[np.ndarray, np.ndarray, np.ndarray],
    probs: np.ndarray,
    b: np.ndarray,
    lam: float,
    field_shape: tuple[int, ...],
) -> np.ndarray:
    """Solve the contrast system of :func:`_contrast_hessian` for the
    ``(L-1, F+1)`` right-hand side ``b`` in sample space.

    Per contrast, ``x = x_p + U z``: ``x_p`` is the part the penalty ``D``
    acts on and ``z`` the ``k = c + 1`` null coordinates, where only the
    jitter acts.  With ``S_i`` the ``(L-1) x (L-1)`` contrast covariance of
    sample ``i`` and ``t = S^½ [A, 1] x``, eliminating ``x_p`` leaves the
    symmetric bordered system of ``(L-1)(m + k)`` unknowns

        [[I + S^½ (I ⊗ K) S^½, -S^½ C], [-C^T S^½, -jitter I]] [t; z]
            = [S^½ (I ⊗ A D^-1) b_w; -U^T b],

    after which ``x_p = D^-1 (b_w - A^T S^½ t)``.  The top-left block has
    every eigenvalue at least 1, and ``z`` is never divided by the jitter
    inside an inverse.
    """
    X, K, C = kernel
    m, L = probs.shape
    F = A.shape[1]
    c = field_shape[0]
    pixels = F // c
    n = (L - 1) * m
    Q = _contrast_basis(L)
    dev = Q - (probs @ Q)[:, None, :]
    cov = np.einsum("il,ila,ilb->iab", probs, dev, dev) / m
    evals, vecs = np.linalg.eigh(cov)
    root = (vecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :]) @ vecs.transpose(0, 2, 1)
    rows = root.transpose(1, 0, 2).reshape(n, L - 1)  # row (a, i): S_i^½[a, :]

    # entry ((a, i), (b, j)) of S^½ (I ⊗ K) S^½ is (S_i^½ S_j^½)[a, b] K[i, j]
    top = rows @ rows.T
    top.reshape(L - 1, m, L - 1, m)[...] *= K[:, None, :]
    top[np.diag_indices(n)] += 1.0
    border = -(rows[:, :, None] * np.tile(C, (L - 1, 1))[:, None, :]).reshape(n, -1)
    system = np.block([[top, border], [border.T, -NEWTON_JITTER * np.eye(border.shape[1])]])

    b_w = b[:, :F]
    b_null = np.empty((L - 1, c + 1))  # U^T b
    b_null[:, :c] = b_w.reshape(L - 1, c, pixels).sum(axis=2) / math.sqrt(pixels)
    b_null[:, c] = b[:, F]
    b_t = np.einsum("iab,bi->ai", root, b_w @ X.T)  # S^½ (I ⊗ A D^-1) b_w
    sol = scipy.linalg.solve(
        system, np.concatenate([b_t.reshape(-1), -b_null.reshape(-1)]), assume_a="sym"
    )
    t, z = sol[:n].reshape(L - 1, m), sol[n:].reshape(L - 1, c + 1)

    x = np.empty_like(b)
    x[:, :F] = _penalty_solve(b_w - np.einsum("iab,bi->ai", root, t) @ A, lam, field_shape)
    x[:, :F] += np.repeat(z[:, :c] / math.sqrt(pixels), pixels, axis=1)
    x[:, F] = z[:, c]
    return x


def _hessian_matvec(A: np.ndarray, probs: np.ndarray, lam: float, w_shape: tuple[int, ...]):
    """The product with the softmax Gauss-Newton Hessian plus penalty and
    jitter, without forming it.

    Unknown layout: ``(L, F+1)`` rows ``[w_j | mu_j]``, one per class, for
    both the argument and the result.
    """
    m, L = probs.shape
    F = A.shape[1]

    def hess_vec(v: np.ndarray) -> np.ndarray:
        scores = A @ v[:, :F].T + v[:, F]  # (m, L)
        t = probs * scores - probs * (probs * scores).sum(axis=1, keepdims=True)
        h_w = (t.T @ A) / m + lam * _laplacian_flat(v[:, :F], w_shape)
        return np.concatenate([h_w, t.sum(axis=0)[:, None] / m], axis=1) + NEWTON_JITTER * v

    return hess_vec


def _newton_route(m: int, w_shape: tuple[int, ...], lam: float) -> str:
    """Which solve :func:`_newton_solver` uses: ``"sample"``, ``"contrast"`` or ``"cg"``.

    The sample system has ``(L-1)(m+c+1)`` unknowns and the contrast system
    ``(L-1)(F+1)``.  The smaller one is solved directly if it fits under
    ``DENSE_NEWTON_LIMIT``, otherwise CG runs.  Without the penalty every
    unknown's only curvature outside the data term is the jitter, so
    ``lam = 0`` never takes the sample path.
    """
    L, c = w_shape[0], w_shape[1]
    contrast = (L - 1) * (math.prod(w_shape[1:]) + 1)
    sample = (L - 1) * (m + c + 1)
    if lam > 0.0 and sample < contrast and sample <= DENSE_NEWTON_LIMIT:
        return "sample"
    if contrast <= DENSE_NEWTON_LIMIT:
        return "contrast"
    return "cg"


def _newton_solver(A: np.ndarray, lam: float, w_shape: tuple[int, ...]):
    """The map ``(probs, g) -> d`` solving ``H d = -g`` for the softmax
    Gauss-Newton Hessian on the fixed features ``A``; ``g`` and ``d`` are
    ``(L, F+1)`` rows ``[w_j | mu_j]``.

    The data term of ``H`` acts on each sample through ``diag p - p p^T``,
    which annihilates the all-ones class vector, while the penalty and the
    jitter act on every class alike.  In the orthonormal class basis
    ``[1/sqrt(L), Q]`` the Hessian is therefore block diagonal: the class
    mean sees only ``lam * Laplacian + jitter``, solved by FFT
    (:func:`_penalty_solve`), and the ``L - 1`` contrasts form one system of
    ``(L-1)(F+1)`` unknowns.  The direction is ``Q d_c + 1 ⊗ d_mean``.  The
    contrast system takes one of three solves, routed by
    :func:`_newton_route` once per feature set:

    - **Contrast** (direct): the dense matrix of :func:`_contrast_hessian`.
    - **Sample** (direct): the same system in ``(L-1)(m+c+1)`` sample-space
      unknowns (:func:`_sample_solve`); its kernel depends on ``A`` alone
      and is built here, once.
    - **CG**: conjugate gradients on the matrix-free operator ``v -> Q^T
      H (Q v)`` (:func:`_hessian_matvec`).

    The map returns ``None`` when the solve fails so the caller can fall
    back.
    """
    m, F = A.shape
    L = w_shape[0]
    field_shape = w_shape[1:]
    route = _newton_route(m, w_shape, lam)
    Q = _contrast_basis(L)

    if route == "sample":
        kernel = _sample_kernel(A, lam, field_shape)

        def contrast_solve(probs: np.ndarray, b: np.ndarray) -> np.ndarray:
            return _sample_solve(A, kernel, probs, b, lam, field_shape)

    elif route == "contrast":

        def contrast_solve(probs: np.ndarray, b: np.ndarray) -> np.ndarray:
            H = _contrast_hessian(A, probs, lam, w_shape)
            return scipy.linalg.solve(H, b.reshape(-1), assume_a="sym").reshape(b.shape)

    else:

        def contrast_solve(probs: np.ndarray, b: np.ndarray) -> np.ndarray:
            hess_vec = _hessian_matvec(A, probs, lam, w_shape)
            op = scipy.sparse.linalg.LinearOperator(
                (b.size, b.size), matvec=lambda v: Q.T @ hess_vec(Q @ v.reshape(b.shape))
            )
            d, info = scipy.sparse.linalg.cg(op, b.reshape(-1), maxiter=200, atol=0.0, rtol=1e-8)
            if info < 0 or not np.all(np.isfinite(d)):
                raise np.linalg.LinAlgError(f"CG failed (info={info})")
            return d.reshape(b.shape)

    def direction(probs: np.ndarray, g: np.ndarray) -> np.ndarray | None:
        try:
            d_c = contrast_solve(probs, Q.T @ -g)
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            return None
        d = Q @ d_c
        d[:, :F] += _penalty_solve(-g[:, :F].mean(axis=0), lam, field_shape)
        return d

    return direction


# --- outer loop ---------------------------------------------------------------


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    loss: float
    data_term: float
    reg_term: float
    train_acc: float
    val_acc: float


@dataclass
class TrainResult:
    params: NetworkParams
    classifier: Classifier
    history: list[HistoryRow]


def _minibatches(m: int, size: int, rng: np.random.Generator):
    """Without-replacement minibatches of ``size`` from ``m`` examples, one
    seeded shuffle per epoch; the ``m % size`` examples left over at the end
    of an epoch are skipped."""
    while True:
        yield from np.split(rng.permutation(m)[: m - m % size], m // size)


def _prop_step(params: NetworkParams, grads: Gradients, t: float) -> NetworkParams:
    out = params.copy()
    for i, bank in enumerate(out.banks):
        bank.weights -= t * grads.banks[i]
    out.biases -= t * grads.biases
    if out.embed_learnable:
        out.embed.weights -= t * grads.embed
    return out


def _take_prop_step(
    images: np.ndarray,
    labels: np.ndarray,
    params: NetworkParams,
    clf: Classifier,
    reg: RegConfig,
    rule: StepRule,
    t0: float,
    report: LossReport,
    grads: Gradients,
    workers: int,
    keep: bool,
    embedded: np.ndarray | None,
) -> tuple[NetworkParams, LossReport | None, float | None]:
    """One step on the propagation parameters.

    Returns the next parameters; with ``keep``, the loss report of the
    accepted Armijo trial, holding the final states and the trajectories of
    ``images`` under those parameters (else ``None``); and the step taken.
    ``FixedStep`` always takes ``rule.step_size``.  Armijo backtracks from
    ``t0`` by ``rule.beta``; when no trial passes the sufficient-decrease
    test it keeps the current point and returns ``None`` as the step.  A
    zero gradient's first trial is the current point, whose loss equals
    ``report.total`` to the bit, so it is accepted at ``t0`` like any other.
    ``embedded`` is passed on to every trial's :func:`mgcnn.network.loss`.
    """
    if isinstance(rule, FixedStep):
        return _prop_step(params, grads, rule.step_size), None, rule.step_size
    sq = grads.prop_sq_norm(params.embed_learnable)
    t = t0
    for _ in range(rule.max_backtracks):
        trial = _prop_step(params, grads, t)
        trial_report = loss(images, labels, trial, clf, reg, workers=workers, keep=keep,
                            embedded=embedded)
        if trial_report.total <= report.total - rule.c * t * sq:
            return trial, trial_report if keep else None, t
        del trial_report  # a rejected trajectory goes before the next trial runs
        t *= rule.beta
    return params, None, None


def bcd_train(
    train: LabeledDataset,
    params: NetworkParams,
    clf: Classifier,
    reg: RegConfig,
    cfg: BcdConfig,
    val: LabeledDataset | None = None,
    workers: int = 1,
) -> TrainResult:
    """Run ``cfg.outer_iters`` BCD iterations; inputs are left untouched.

    Each history row reflects the full training set after that iteration's
    propagation and classifier updates.  Replays are bit-identical for a
    fixed config and seed.

    In full-batch mode each Armijo iterate is propagated once.  The
    accepted trial has already run the whole training set through the new
    parameters: its final states serve as the Newton features, and its
    trajectory, which the classifier update leaves valid, replaces the
    forward pass of the next iteration's gradient.  A frozen embedding gets
    no gradient.  With minibatches, with ``FixedStep``, and after a search
    that accepts no step, the features come from a fresh pass and the next
    gradient runs its own forward pass.

    A frozen embedding never changes, so in full-batch mode ``y_0 = L x``
    of the training and of the validation set is formed and checked once
    per call, and every gradient pass, Armijo trial and fresh pass on those
    images starts from it.  With minibatches every pass embeds its images,
    so no whole-set embedding stays in memory.

    The Armijo search of the first iteration starts at ``step_size``; every
    later one starts at ``min(step_size, t_last / beta)`` from the step
    accepted last (Nocedal and Wright, *Numerical Optimization*, section 3.5),
    so an iteration whose accepted step is below ``step_size`` does not pay
    again for the rejected trials above it.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    params = params.copy()
    clf = clf.copy()
    history: list[HistoryRow] = []
    m, size = len(train), cfg.batch_size
    full_batch = not size or size >= m
    batches = None if full_batch else _minibatches(m, size, np.random.default_rng(cfg.seed))
    rule = cfg.prop_step_rule
    t0 = rule.step_size
    states = None  # the trajectory of train.images at params, when known
    hoist = full_batch and not params.embed_learnable
    train_y0 = _embed(train.images, params) if hoist else None
    val_y0 = _embed(val.images, params) if hoist and val is not None else None

    for it in range(1, cfg.outer_iters + 1):
        if full_batch:
            images, labels, embedded = train.images, train.labels, train_y0
        else:
            idx = next(batches)
            images, labels, embedded = train.images[idx], train.labels[idx], None
        report, grads = loss_and_gradient(
            images, labels, params, clf, reg, workers=workers, states=states,
            embed_grad=params.embed_learnable, embedded=embedded,
        )
        states = None
        params, accepted, t = _take_prop_step(
            images, labels, params, clf, reg, rule, t0, report, grads, workers,
            keep=full_batch, embedded=embedded,
        )
        if t is not None and isinstance(rule, ArmijoBacktracking):
            t0 = min(rule.step_size, t / rule.beta)
        if accepted is None:
            features = propagate_final(train.images, params, workers=workers, embedded=train_y0)
        else:
            features, states = accepted.features, accepted.states
            del accepted  # only `states` carries the trajectory to the next gradient pass
        if cfg.newton_steps > 0:
            clf = newton_classifier_step(
                features, train.labels, clf, reg, cfg.newton_steps
            ).classifier

        logits = _logits(features, clf)
        del features  # freed with `states` after the next gradient pass, before the search
        data_term = float(_cross_entropy(logits, train.labels).mean())
        reg_term, _ = reg_value_and_grad(params, clf, reg)
        train_acc = float((logits.argmax(axis=1) == train.labels).mean())
        val_acc = math.nan
        if val is not None:
            val_features = propagate_final(val.images, params, workers=workers, embedded=val_y0)
            val_logits = _logits(val_features, clf)
            val_acc = float((val_logits.argmax(axis=1) == val.labels).mean())
        history.append(
            HistoryRow(
                iteration=it,
                loss=data_term + reg_term,
                data_term=data_term,
                reg_term=reg_term,
                train_acc=train_acc,
                val_acc=val_acc,
            )
        )
    return TrainResult(params, clf, history)


@dataclass
class EvalReport:
    accuracy: float
    mean_loss: float
    confusion: np.ndarray  # (L, L), rows: true class, columns: prediction


def evaluate(
    dataset: LabeledDataset, params: NetworkParams, clf: Classifier, workers: int = 1
) -> EvalReport:
    """Accuracy, mean cross-entropy and confusion matrix on a dataset.

    Predictions take the argmax; ties resolve to the lowest class index.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    labels = _check_labels(dataset.labels, clf.num_classes)
    logits = _logits(propagate_final(dataset.images, params, workers=workers), clf)
    pred = logits.argmax(axis=1)
    L = clf.num_classes
    confusion = np.zeros((L, L), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)
    return EvalReport(
        accuracy=float((pred == labels).mean()),
        mean_loss=float(_cross_entropy(logits, labels).mean()),
        confusion=confusion,
    )


HISTORY_COLUMNS = ("iter", "loss", "data_term", "reg_term", "train_acc", "val_acc")


def history_to_csv(history: list[HistoryRow], path: str) -> None:
    """RFC-4180 CSV of a training history, one row per outer iteration."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in history:
            writer.writerow(
                [row.iteration, row.loss, row.data_term, row.reg_term, row.train_acc, row.val_acc]
            )
