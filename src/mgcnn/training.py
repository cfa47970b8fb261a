"""Block coordinate descent training.

Each outer iteration takes one first-order step on the propagation
parameters (a fixed step size, or Armijo backtracking that starts from the
step accepted last and skips the trials a quadratic model rules out) and
then a handful of damped Newton steps on the classifier.  With the
propagation parameters frozen, the classifier subproblem is multinomial
logistic regression with a quadratic smoothness penalty, so it is convex and
Newton's method with step halving is both safe and fast.

The first Newton call of each :func:`bcd_train` call starts from the zero
classifier; later ones start from the previous iterate.  A classifier carried
over from another resolution or depth can be saturated on the new features,
and from it the few Newton steps taken stay orders of magnitude above what
they reach from zero.  The given classifier still drives the first
propagation step.

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
sample path).  Its ``(L-1)m`` sample block is the identity plus a positive
semidefinite kernel, so Cholesky factors it, and the ``(L-1)(c+1)``
coordinates the penalty leaves free follow from a small Schur complement
system.  The smaller of the two is solved directly if it has at most
``DENSE_NEWTON_LIMIT`` unknowns, the sample form only when ``lambda > 0``,
and the contrast form only while its dense assembly is cheap next to CG
(``CONTRAST_WORK_LIMIT``); otherwise conjugate gradients solve the contrast
system matrix-free, each product one pass over the features in cache-sized
row blocks, and each solve stopping at the relative residual ``min(0.01,
||g||)`` (the forcing term, ``NEWTON_FORCING``), which makes Newton inexact
far from the optimum and tightens as the gradient shrinks.
All three are deterministic.  A step that gets no descent direction (a
singular or non-descent system), or whose direction no halving accepts, ends
the call where it stands and flags the result.  The subproblem is convex, so
Newton with step halving needs no second search; on every measured workload
such a stop came where rounding had ended the decrease.  The contrast basis,
``[A | 1]``, the penalty block and the sample kernel are built once per
Newton call; each inner step builds only what the probabilities move.

The smoothness penalties are those of :func:`mgcnn.network.loss`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .data import LabeledDataset
from .errors import DivergenceError
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
    zero_classifier,
    _check_labels,
    _chunks,
    _cross_entropy,
    _embed,
    _logits,
    _mean_cross_entropy,
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
# The contrast path also gives way to CG where L(L-1)(F+1), its unknowns times
# the L classes, exceeds this.  That is the dense step's flops per entry of
# [A | 1]: the assembly multiplies [A | 1] with itself once per pair of class
# contrasts, while each CG iteration passes over it a fixed few times.  On a
# 2-core machine at 1 BLAS thread, replaying the calls of six-iteration
# trainings (one cold Newton call, five warm), CG took 1.2-3.1 times as long
# as the dense solve at L(L-1)(F+1) = 2050-6216 (2, 3, 5 and 7 classes) and
# 0.15-0.73 times at 7860-26550 (5, 7 and 10 classes; mnist.cfg's 10-class
# 7x7 level, 1332 unknowns, 0.30-0.37).
CONTRAST_WORK_LIMIT = 7000
# Bytes of the features A per block of the CG route's Hessian product: a
# block's scores go back through the block while it is still in a core's L2
# cache.  Fixed, so the product's summation order is too.  512 KB was the
# fastest size at both 28x28 and 14x14 on a 2-core machine at 1 BLAS thread.
_CG_BLOCK_BYTES = 512 * 1024
# Tikhonov jitter on the Hessian diagonal, which keeps the contrast system
# and the CG operator definite where the data term is flat.  The class-mean
# block is left at zero where the jitter would be its only curvature.
NEWTON_JITTER = 1e-10
# Forcing term of the CG route: each inner step's solve stops at the relative
# residual min(NEWTON_FORCING, ||g||) (Dembo, Eisenstat and Steihaug, SIAM J.
# Numer. Anal. 19, 1982).  The direct routes solve exactly.
NEWTON_FORCING = 1e-2
# Smallest factor by which one rejected Armijo trial may shrink the next:
# the quadratic-model skip moves at most to t * beta^k with beta^k >= this.
ARMIJO_SKIP_FLOOR = 0.1
MAX_HALVINGS = 20


def _check_step_size(step_size: float) -> None:
    if not (math.isfinite(step_size) and step_size > 0.0):
        raise ValueError(f"step_size must be finite and > 0, got {step_size!r}")


@dataclass(frozen=True)
class FixedStep:
    step_size: float

    def __post_init__(self) -> None:
        _check_step_size(self.step_size)


@dataclass(frozen=True)
class ArmijoBacktracking:
    """Backtracking line search with the sufficient-decrease test.

    Each search tries a decreasing subsequence of ``t, beta * t, beta^2 * t,
    ...`` for at most ``max_backtracks`` trials.  A rejected trial at ``t``
    fixes the quadratic model through the current loss ``f0``, with slope
    ``-||g||^2``, and through the trial's loss ``f(t)``.  That model passes
    the test only for steps up to ``(1 - c) ||g||^2 t^2 / (f(t) - f0 +
    ||g||^2 t)``, so the next trial is ``beta^k t`` for the smallest ``k >= 1``
    that reaches it, with ``beta^k >= ARMIJO_SKIP_FLOOR`` (0.1): at most a
    tenfold shrink per trial (safeguarded interpolation, Nocedal and Wright,
    *Numerical Optimization*, section 3.5; Dennis and Schnabel, 1983,
    A6.3.1).  Every trial is formed by repeated multiplication by ``beta``,
    so it is bit for bit a point plain backtracking would try: the search
    accepts the step plain backtracking accepts whenever the skipped points
    fail, and otherwise a smaller grid step, never a larger one.

    Within one :func:`bcd_train` call the first search starts at
    ``step_size``; each later one warm-starts one expansion above the step
    accepted last, ``min(step_size, t_last / beta)``, so ``step_size`` also
    caps every step.  After a search that accepts no step, the next one
    starts where that one started.  ``beta`` and ``c`` must lie strictly
    between 0 and 1, ``step_size`` must be finite and > 0, and
    ``max_backtracks`` at least 1.
    """

    step_size: float = 1.0
    beta: float = 0.5
    c: float = 1e-4
    max_backtracks: int = 30

    def __post_init__(self) -> None:
        _check_step_size(self.step_size)
        for name in ("beta", "c"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie strictly between 0 and 1, "
                                 f"got {getattr(self, name)!r}")
        if self.max_backtracks < 1:
            raise ValueError(f"max_backtracks must be >= 1, got {self.max_backtracks!r}")


@dataclass
class BcdConfig:
    outer_iters: int
    newton_steps: int = 5
    prop_step_rule: FixedStep | ArmijoBacktracking = field(default_factory=ArmijoBacktracking)
    batch_size: int | None = None  # None: full batch
    seed: int = 0


# --- classifier subproblem ---------------------------------------------------


@dataclass
class EvalReport:
    """Accuracy and mean cross-entropy of a classifier on a set of examples."""

    accuracy: float
    mean_loss: float


def _score(features: np.ndarray, labels: np.ndarray, clf: Classifier) -> EvalReport:
    """Score ``clf`` on fixed final states: the logits are formed once,
    predictions take the argmax (ties go to the lowest class), and the
    cross-entropy is averaged over the whole set."""
    logits = _logits(features, clf)
    return EvalReport(accuracy=float((logits.argmax(axis=1) == labels).mean()),
                      mean_loss=float(_cross_entropy(logits, labels).mean()))


def classifier_objective(
    features: np.ndarray, labels: np.ndarray, clf: Classifier, reg: RegConfig
) -> float:
    """Mean cross-entropy on fixed features plus the spatial penalty."""
    labels = _check_labels(labels, clf.num_classes)
    ce = _score(features, labels, clf).mean_loss
    return ce + reg.lambda_w * clf.grid.h**2 * _smooth_sq(clf.weights)


@dataclass
class NewtonResult:
    """The classifier after a :func:`newton_classifier_step` call, and the
    objective after each of its ``steps`` steps.

    ``used_fallback`` is set when a step got no usable direction or no
    halving of it lowered the objective; that step ended the call, and the
    objectives after it repeat the last value.  A gradient below ``1e-13``
    in every entry also ends the call, as converged, without the flag.
    """

    classifier: Classifier
    objectives: list[float]
    used_fallback: bool = False


def newton_classifier_step(
    features: np.ndarray,
    labels: np.ndarray,
    clf: Classifier,
    reg: RegConfig,
    steps: int = 5,
) -> NewtonResult:
    """At most ``steps`` damped Newton iterations on the classifier subproblem.

    ``features`` are the fixed final states, shape ``(m, c, ny, nx)``.  The
    objective is monotonically non-increasing across the inner steps.  Each
    step tries ``t = 1, 1/2, ...`` (``MAX_HALVINGS`` trials) along the Newton
    direction and takes the first that lowers the objective.  A singular or
    non-descent system, or a direction no trial accepts, ends the call at the
    current iterate and sets ``used_fallback``.  A gradient below ``1e-13``
    in every entry counts as converged and ends the call without the flag.
    ``objectives`` always has ``steps`` entries, the last value repeated
    after the call ends.

    On the CG route each step's solve is inexact: it stops once its relative
    residual is at most the forcing term ``min(NEWTON_FORCING, ||g||)``, with
    ``||g||`` the 2-norm of that step's gradient, or at 200 iterations, so
    far from the optimum it stops early.  The direct routes ignore the
    forcing term.
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

    def evaluate(x: np.ndarray) -> tuple[float, np.ndarray]:
        """:func:`classifier_objective` at rows ``[w_j | mu_j]``, and the logits."""
        logits = A @ x[:, :F].T + x[:, F]
        ce = float(_cross_entropy(logits, labels).mean())
        return ce + lam * _smooth_sq(x[:, :F].reshape(w_shape)), logits

    direction = _newton_solver(A, lam, w_shape)
    x = np.concatenate([clf.weights.reshape(L, F), clf.mu[:, None]], axis=1)  # rows [w_j | mu_j]
    obj, logits = evaluate(x)
    objectives: list[float] = []
    used_fallback = False
    trials = [0.5**i for i in range(MAX_HALVINGS)]

    for _ in range(steps):
        probs = softmax(logits)
        resid = (probs - (labels[:, None] == np.arange(L))) / m
        g_w = resid.T @ A + lam * _smooth_grad(x[:, :F].reshape(w_shape)).reshape(L, F)
        g = np.concatenate([g_w, resid.sum(axis=0)[:, None]], axis=1)
        if float(np.abs(g).max()) < 1e-13:
            break
        d = direction(probs, g, min(NEWTON_FORCING, float(np.linalg.norm(g))))
        descent = d is not None and float((d * g).sum()) < 0.0
        for t in trials if descent else ():
            trial = x + t * d
            new_obj, new_logits = evaluate(trial)
            if new_obj < obj:
                x, obj, logits = trial, new_obj, new_logits
                break
        else:
            used_fallback = True
            break
        objectives.append(obj)

    objectives += [obj] * (steps - len(objectives))
    weights = x[:, :F].reshape(w_shape)
    return NewtonResult(Classifier(clf.grid, weights, x[:, F].copy()), objectives, used_fallback)


def _contrast_basis(L: int) -> np.ndarray:
    """Orthonormal ``(L, L-1)`` basis of the class contrasts: the transposed
    rows of scipy's Helmert matrix below its first, so column ``a - 1`` holds
    ``1/sqrt(a(a+1))`` on classes ``0..a-1`` and ``-a/sqrt(a(a+1))`` on class
    ``a``, and every column sums to zero.
    """
    return np.ascontiguousarray(scipy.linalg.helmert(L).T)


def _contrast_hessian(A1: np.ndarray, cov: np.ndarray, penalty: np.ndarray | None) -> np.ndarray:
    """The Hessian restricted to class contrasts, as a dense matrix.

    Unknown layout: for each column ``q_a`` of :func:`_contrast_basis`, the
    contrast of the weights, then of the offsets (``F + 1`` entries).  Block
    ``(a, b)`` is ``A1^T diag(s_ab) A1`` with ``A1 = [A, 1]`` and per-sample
    weights ``s_ab = cov[:, a, b]``, the covariance of the contrasts ``q_a``
    and ``q_b`` under each sample's class distribution
    (:func:`_contrast_covariance`).  The diagonal weights are nonnegative
    sums of squares, so a diagonal block is one symmetric rank-``m``
    product; only the blocks ``a <= b`` are computed, the others are their
    mirror.  The penalty and the jitter act on each class alike, so they
    enter every diagonal block unchanged.  ``A1`` and the ``F x F`` penalty
    block (``None`` without a penalty) are built once per Newton call; each
    step only weights, mirrors and adds.
    """
    contrasts = cov.shape[1]
    n = A1.shape[1]
    H = np.empty((contrasts * n, contrasts * n))
    for a in range(contrasts):
        ra = slice(a * n, (a + 1) * n)
        for b in range(a, contrasts):
            rb = slice(b * n, (b + 1) * n)
            s = cov[:, a, b]
            if b == a:
                root = A1 * np.sqrt(s)[:, None]
                np.matmul(root.T, root, out=H[ra, ra])
                if penalty is not None:  # on the weights, not the offset
                    H[ra, ra][:-1, :-1] += penalty
            else:
                np.matmul(A1.T, A1 * s[:, None], out=H[ra, rb])
                H[rb, ra] = H[ra, rb].T
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
    cov: np.ndarray,
    b: np.ndarray,
    lam: float,
    field_shape: tuple[int, ...],
) -> np.ndarray:
    """Solve the contrast system of :func:`_contrast_hessian` for the
    ``(L-1, F+1)`` right-hand side ``b`` in sample space.

    Per contrast, ``x = x_p + U z``: ``x_p`` is the part the penalty ``D``
    acts on and ``z`` the ``k = c + 1`` null coordinates, where only the
    jitter acts.  With ``S_i = cov[i]`` the ``(L-1) x (L-1)`` contrast
    covariance of sample ``i`` (:func:`_contrast_covariance`) and ``t = S^½
    [A, 1] x``, eliminating ``x_p`` leaves the symmetric bordered system of
    ``(L-1)(m + k)`` unknowns

        [[I + S^½ (I ⊗ K) S^½, -S^½ C], [-C^T S^½, -jitter I]] [t; z]
            = [S^½ (I ⊗ A D^-1) b_w; -U^T b],

    after which ``x_p = D^-1 (b_w - A^T S^½ t)``.  The top-left block ``T``
    has every eigenvalue at least 1, so it is factored by Cholesky, which
    meets no indefinite pivot.  The border ``B = -S^½ C`` leaves through its
    Schur complement: with ``[Y_B, y_t] = T^-1 [B, b_t]`` for the top
    right-hand side ``b_t``, ``z`` solves the ``(L-1)k`` unknowns of

        (B^T Y_B + jitter I) z = B^T y_t + U^T b,

    whose conditioning is that of the bordered system, and ``t = y_t - Y_B z``.
    """
    X, K, C = kernel
    m, L = cov.shape[0], cov.shape[1] + 1
    F = A.shape[1]
    c = field_shape[0]
    pixels = F // c
    n = (L - 1) * m
    evals, vecs = np.linalg.eigh(cov)
    root = (vecs * np.sqrt(np.maximum(evals, 0.0))[:, None, :]) @ vecs.transpose(0, 2, 1)
    rows = root.transpose(1, 0, 2).reshape(n, L - 1)  # row (a, i): S_i^½[a, :]

    # Entry ((a, i), (b, j)) of S^½ (I ⊗ K) S^½ is (S_i^½ S_j^½)[a, b] K[i, j].
    # syrk fills only the upper triangle, in Fortran order, which is all that
    # Cholesky reads, so the factorisation runs in place; K enters through the
    # transposed, C-ordered view.
    top = scipy.linalg.blas.dsyrk(1.0, rows)
    top.T.reshape(L - 1, m, L - 1, m)[...] *= K.T[:, None, :]
    top[np.diag_indices(n)] += 1.0
    border = -(rows[:, :, None] * np.tile(C, (L - 1, 1))[:, None, :]).reshape(n, -1)

    b_w = b[:, :F]
    b_null = np.empty((L - 1, c + 1))  # U^T b
    b_null[:, :c] = b_w.reshape(L - 1, c, pixels).sum(axis=2) / math.sqrt(pixels)
    b_null[:, c] = b[:, F]
    b_t = np.einsum("iab,bi->ai", root, b_w @ X.T)  # S^½ (I ⊗ A D^-1) b_w

    factor = scipy.linalg.cho_factor(top, overwrite_a=True)
    y = scipy.linalg.cho_solve(factor, np.column_stack([border, b_t.reshape(-1)]))
    y_border, y_t = y[:, :-1], y[:, -1]
    schur = border.T @ y_border
    schur[np.diag_indices_from(schur)] += NEWTON_JITTER
    z = scipy.linalg.solve(schur, border.T @ y_t + b_null.reshape(-1), assume_a="sym")
    t = (y_t - y_border @ z).reshape(L - 1, m)
    z = z.reshape(L - 1, c + 1)

    x = np.empty_like(b)
    x[:, :F] = _penalty_solve(b_w - np.einsum("iab,bi->ai", root, t) @ A, lam, field_shape)
    x[:, :F] += np.repeat(z[:, :c] / math.sqrt(pixels), pixels, axis=1)
    x[:, F] = z[:, c]
    return x


def _contrast_covariance(probs: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Each sample's ``(L-1) x (L-1)`` contrast covariance ``S_i = Q^T (diag
    p_i - p_i p_i^T) Q / m``, as an ``(m, L-1, L-1)`` array."""
    dev = Q - (probs @ Q)[:, None, :]
    return np.einsum("il,ila,ilb->iab", probs, dev, dev) / probs.shape[0]


def _contrast_matvec(A: np.ndarray, cov: np.ndarray, lam: float, w_shape: tuple[int, ...]):
    """The product with the contrast system of :func:`_contrast_hessian`,
    without forming it: ``v -> A1^T S A1 v + lam * 2 D^T D v_w + jitter v``
    on ``(L-1, F+1)`` rows ``[w_a | mu_a]``, one per contrast.

    It sweeps ``A`` once per product, in blocks of ``_CG_BLOCK_BYTES``
    rows: each block's scores ``A_blk v_w^T + v_mu``, weighted by each
    sample's covariance ``S_i = cov[i]`` (:func:`_contrast_covariance`), go
    straight back through ``A_blk^T``, so the block is read from cache the
    second time.  The blocks, and so the summation order, depend on ``F`` alone.
    """
    m, F = A.shape
    rows = max(1, _CG_BLOCK_BYTES // A[0].nbytes)
    blocks = [slice(r, min(r + rows, m)) for r in range(0, m, rows)]
    field = (cov.shape[1],) + w_shape[1:]

    def matvec(v: np.ndarray) -> np.ndarray:
        v = v.reshape(cov.shape[1], F + 1)
        out = NEWTON_JITTER * v
        out[:, :F] += lam * _smooth_grad(v[:, :F].reshape(field)).reshape(-1, F)
        w_t, part = np.ascontiguousarray(v[:, :F].T), np.empty_like(out[:, :F])
        for blk in blocks:
            t = np.einsum("iab,ib->ia", cov[blk], A[blk] @ w_t + v[:, F])
            out[:, :F] += np.matmul(t.T, A[blk], out=part)
            out[:, F] += t.sum(axis=0)
        return out.reshape(-1)

    return matvec


def _newton_route(m: int, w_shape: tuple[int, ...], lam: float) -> str:
    """Which solve :func:`_newton_solver` uses: ``"sample"``, ``"contrast"`` or ``"cg"``.

    The sample system has ``(L-1)(m+c+1)`` unknowns and the contrast system
    ``(L-1)(F+1)``.  The smaller one is solved directly if it fits under
    ``DENSE_NEWTON_LIMIT``, the contrast one only if ``L`` times its
    unknowns also fits under ``CONTRAST_WORK_LIMIT``; otherwise CG runs.  So
    a 2-class contrast system stays direct up to 3000 unknowns and a
    10-class one up to 700: mnist.cfg's 7x7 level (1332) takes CG.  Without
    the penalty every unknown's only curvature outside the data term is the
    jitter, so ``lam = 0`` never takes the sample path.
    """
    L, c = w_shape[0], w_shape[1]
    contrast = (L - 1) * (math.prod(w_shape[1:]) + 1)
    sample = (L - 1) * (m + c + 1)
    if lam > 0.0 and sample < contrast and sample <= DENSE_NEWTON_LIMIT:
        return "sample"
    if contrast <= DENSE_NEWTON_LIMIT and L * contrast <= CONTRAST_WORK_LIMIT:
        return "contrast"
    return "cg"


def _newton_solver(A: np.ndarray, lam: float, w_shape: tuple[int, ...]):
    """The map ``(probs, g, rtol=1e-8) -> d`` solving ``H d = -g`` for the
    softmax Gauss-Newton Hessian on the fixed features ``A``; ``g`` and ``d``
    are ``(L, F+1)`` rows ``[w_j | mu_j]``.

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
      unknowns (:func:`_sample_solve`, Cholesky and a Schur complement); its
      kernel depends on ``A`` alone and is built here, once.
    - **CG**: conjugate gradients on the matrix-free contrast system
      (:func:`_contrast_matvec`, one blocked pass over ``A`` per product),
      from zero, stopping at ``||r|| <= rtol ||b||`` for the contrast
      right-hand side ``b = Q^T (-g)`` or at 200 iterations.
      :func:`newton_classifier_step` passes its forcing term as ``rtol``;
      the direct routes ignore it.

    Each call computes the per-sample contrast covariances
    (:func:`_contrast_covariance`) once and hands them to the route.  The
    map returns ``None`` when the solve fails, and
    :func:`newton_classifier_step` then ends its call.
    """
    m, F = A.shape
    L = w_shape[0]
    field_shape = w_shape[1:]
    route = _newton_route(m, w_shape, lam)
    Q = _contrast_basis(L)

    if route == "sample":
        kernel = _sample_kernel(A, lam, field_shape)

        def contrast_solve(cov: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
            return _sample_solve(A, kernel, cov, b, lam, field_shape)

    elif route == "contrast":
        A1 = np.concatenate([A, np.ones((m, 1))], axis=1)
        penalty = None
        if lam > 0.0:  # the penalty's matrix, column by column
            penalty = lam * _smooth_grad(np.eye(F).reshape((F,) + field_shape)).reshape(F, F)

        def contrast_solve(cov: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
            H = _contrast_hessian(A1, cov, penalty)
            return scipy.linalg.solve(H, b.reshape(-1), assume_a="sym").reshape(b.shape)

    else:

        def contrast_solve(cov: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
            matvec = _contrast_matvec(A, cov, lam, w_shape)
            op = scipy.sparse.linalg.LinearOperator((b.size, b.size), matvec=matvec)
            d, info = scipy.sparse.linalg.cg(op, b.reshape(-1), maxiter=200, atol=0.0, rtol=rtol)
            if info < 0 or not np.all(np.isfinite(d)):
                raise np.linalg.LinAlgError(f"CG failed (info={info})")
            return d.reshape(b.shape)

    def direction(probs: np.ndarray, g: np.ndarray, rtol: float = 1e-8) -> np.ndarray | None:
        try:
            d_c = contrast_solve(_contrast_covariance(probs, Q), Q.T @ -g, rtol)
        except (np.linalg.LinAlgError, ValueError):
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
    """The trained model and one history row per iteration.

    ``initial_loss`` is the training set's loss at the model that
    :func:`bcd_train` was given, from its first gradient pass; NaN when no
    iteration ran.
    """

    params: NetworkParams
    classifier: Classifier
    history: list[HistoryRow]
    initial_loss: float = math.nan


def _minibatches(m: int, size: int, rng: np.random.Generator):
    """Without-replacement minibatches of ``size`` from ``m`` examples, one
    seeded shuffle per epoch; the ``m % size`` examples left over at the end
    of an epoch are skipped."""
    while True:
        yield from np.split(rng.permutation(m)[: m - m % size], m // size)


def _whole_set_loss(
    train: LabeledDataset,
    idx: np.ndarray,
    report: LossReport,
    params: NetworkParams,
    clf: Classifier,
    workers: int,
) -> float:
    """The loss of all of ``train`` at the point of ``report``, a gradient
    pass over the minibatch ``train[idx]``: the batch's logit rows come from
    the report, the others' from one pass over the rest.  A classifier whose
    weights are all zero needs no pass, since its rows are its offsets."""
    m = len(train)
    logits = np.empty((m, clf.num_classes))
    logits[idx] = report.logits
    rest = np.setdiff1d(np.arange(m), idx)
    if clf.weights.any():
        logits[rest] = _logits(propagate_final(train.images[rest], params, workers=workers), clf)
    else:
        logits[rest] = clf.mu
    return _mean_cross_entropy(train.labels, (logits[s] for s in _chunks(m))) + report.reg_term


def _prop_step(params: NetworkParams, grads: Gradients, t: float) -> NetworkParams:
    out = params.copy()
    for i, bank in enumerate(out.banks):
        bank.weights -= t * grads.banks[i]
    out.biases -= t * grads.biases
    if out.embed_learnable:
        out.embed.weights -= t * grads.embed
    return out


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
    propagation and classifier updates; its ``val_acc`` is :func:`evaluate`'s
    accuracy on ``val``, NaN without one.  An empty ``train`` or ``val`` is
    refused before any training.  Replays are bit-identical for a fixed
    config and seed.

    Each iteration steps the propagation parameters along the batch's
    negative gradient.  ``FixedStep`` steps by ``step_size``.  Armijo
    tries a decreasing subsequence of ``t0, beta t0, beta^2 t0, ...`` and
    takes the first trial that passes the sufficient-decrease test; each
    rejected trial skips the grid points its quadratic model rules out, as
    :class:`ArmijoBacktracking` describes.  ``t0`` is ``step_size`` at
    first, then ``min(step_size, t_last / beta)`` from the step accepted
    last (Nocedal and Wright, *Numerical Optimization*, section 3.5), so a
    search does not pay again for the rejected trials above the last step.
    A trial whose forward pass diverges counts as an infinite loss, so it
    is rejected; the gradient pass at the current point still raises
    :class:`~mgcnn.errors.DivergenceError`.  A search that accepts nothing
    keeps the point and ``t0``.  A zero gradient's first trial is the
    current point, whose loss equals the gradient pass's total to the bit,
    so it is accepted at ``t0``.

    In full-batch mode each Armijo iterate is propagated once.  The
    accepted trial has already run the whole training set through the new
    parameters: its final states serve as the Newton features, and its
    trajectory, which the classifier update leaves valid, replaces the
    forward pass of the next iteration's gradient.  A frozen embedding gets
    no gradient.  With minibatches the accepted trial has propagated only
    the batch: its final states are spliced with a fresh pass over the other
    examples, bit for bit the features of a whole fresh pass, since each
    example propagates on its own.  With ``FixedStep``, after a search that
    accepts no step, and after a minibatch trial of a classifier whose
    weights are all zero, which :func:`~mgcnn.network.loss` forms without
    features, they come from a fresh pass over the whole set.  In these
    cases the next gradient runs its own forward pass.

    A frozen embedding never changes, so in full-batch mode ``y_0 = L x``
    of the training and of the validation set is formed and checked once
    per call, and every gradient pass, Armijo trial, fresh pass and
    validation score on those images starts from it.  With minibatches
    every pass embeds its images, so no whole-set embedding stays in memory.

    The first iteration's Newton call starts from the zero classifier,
    whatever ``clf`` is, and every later one from the previous iterate.
    ``clf`` still drives the first iteration's propagation gradient and its
    Armijo test.  A classifier carried to a new resolution or depth by
    :mod:`mgcnn.multiscale` can be saturated on the new features; from
    there the ``newton_steps`` damped steps are mostly rejected or halved
    and end far above what the same steps reach from zero.  From zero the
    classifier objective starts at ``log L`` and Newton never raises it, so
    the first history row's data term is at most ``log L``.  A cold start
    passes the zero classifier anyway.  With ``newton_steps = 0`` the given
    classifier is kept.

    The result's ``initial_loss`` is the loss of the whole training set at
    ``params`` and ``clf``, taken from the first gradient pass, which runs
    at that point.  In full batch it is that pass's total, so it costs
    nothing and equals :func:`~mgcnn.network.loss`'s total to the bit.  With
    minibatches the batch's logits come from the pass and one more pass over
    the other examples gives theirs.  A classifier whose weights are all
    zero, as a cold start's is, needs no such pass: its rows are its
    offsets.  The cross-entropy is summed as :func:`~mgcnn.network.loss`
    sums it, but the batch's logit product has other row counts than
    :func:`~mgcnn.network.loss`'s, so the value can differ from it in the
    last bits.  A point at which that pass diverges raises
    :class:`~mgcnn.errors.DivergenceError`.  Without an iteration the value
    stays NaN.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    if val is not None and len(val) == 0:
        raise ValueError("validation set is empty")
    params = params.copy()
    clf = clf.copy()
    history: list[HistoryRow] = []
    initial_loss = math.nan
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
        idx = slice(None) if full_batch else next(batches)
        images, labels = train.images[idx], train.labels[idx]
        report, grads = loss_and_gradient(
            images, labels, params, clf, reg, workers=workers, states=states,
            embed_grad=params.embed_learnable, embedded=train_y0,
        )
        if it == 1:
            initial_loss = report.total if full_batch else _whole_set_loss(
                train, idx, report, params, clf, workers)
        states = accepted = None  # accepted: the loss report of the accepted trial
        if isinstance(rule, FixedStep):
            params = _prop_step(params, grads, rule.step_size)
        else:
            t, sq = t0, grads.prop_sq_norm(params.embed_learnable)
            for _ in range(rule.max_backtracks):
                trial = _prop_step(params, grads, t)
                try:
                    accepted = loss(images, labels, trial, clf, reg, workers=workers,
                                    keep=full_batch, embedded=train_y0)
                    total = accepted.total
                except DivergenceError:  # rejected as an infinite loss
                    total = math.inf
                if total <= report.total - rule.c * t * sq:
                    params, t0 = trial, min(rule.step_size, t / rule.beta)
                    break
                # skip the grid points above the quadratic model's limit (see
                # ArmijoBacktracking) in product form, which divides by nothing:
                # s is skipped while s (f(t) - f0 + sq t) > (1 - c) sq t^2, so a
                # NaN trial loss skips nothing and an infinite one skips to the floor
                excess = total - report.total + sq * t
                bound = (1.0 - rule.c) * sq * t * t
                accepted = None  # a rejected trajectory goes before the next trial runs
                t, shrink = t * rule.beta, rule.beta
                while t * excess > bound and shrink * rule.beta >= ARMIJO_SKIP_FLOOR:
                    t, shrink = t * rule.beta, shrink * rule.beta
        if accepted is None or accepted.features is None:
            accepted = None  # a zero-weight trial's featureless report goes before the pass
            features = propagate_final(train.images, params, workers=workers, embedded=train_y0)
        elif full_batch:
            features, states = accepted.features, accepted.states
        else:  # the batch's final states from the trial, a fresh pass over the rest
            features = np.empty((m,) + accepted.features.shape[1:])
            features[idx] = accepted.features
            accepted = None  # the trial's copy goes before the fresh pass
            rest = np.setdiff1d(np.arange(m), idx)
            features[rest] = propagate_final(train.images[rest], params, workers=workers)
        del accepted  # only `states` carries the trajectory to the next gradient pass
        if cfg.newton_steps > 0:
            if it == 1:  # the first fit starts from zero, as the docstring explains
                clf = zero_classifier(clf.grid, clf.weights.shape[1], clf.num_classes)
            clf = newton_classifier_step(
                features, train.labels, clf, reg, cfg.newton_steps
            ).classifier

        score = _score(features, train.labels, clf)
        del features  # freed with `states` after the next gradient pass, before the search
        reg_term, _ = reg_value_and_grad(params, clf, reg)
        val_acc = math.nan
        if val is not None:
            val_acc = evaluate(val, params, clf, workers, embedded=val_y0).accuracy
        history.append(
            HistoryRow(
                iteration=it,
                loss=score.mean_loss + reg_term,
                data_term=score.mean_loss,
                reg_term=reg_term,
                train_acc=score.accuracy,
                val_acc=val_acc,
            )
        )
    return TrainResult(params, clf, history, initial_loss)


def evaluate(
    dataset: LabeledDataset, params: NetworkParams, clf: Classifier, workers: int = 1,
    embedded: np.ndarray | None = None,
) -> EvalReport:
    """Accuracy and mean cross-entropy on a dataset, from one forward pass.

    Predictions take the argmax; ties resolve to the lowest class index.
    The score is the one :func:`bcd_train` records for its training set, so
    at the same point both give the same bits.  ``embedded`` is as in
    :func:`~mgcnn.network.propagate_final`.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate an empty dataset")
    labels = _check_labels(dataset.labels, clf.num_classes)
    features = propagate_final(dataset.images, params, workers=workers, embedded=embedded)
    return _score(features, labels, clf)


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
