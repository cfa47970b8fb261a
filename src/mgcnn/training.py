"""Block coordinate descent training.

Each outer iteration takes one first-order step on the propagation
parameters (fixed step size or Armijo backtracking) and then a handful of
damped Newton steps on the classifier.  With the propagation parameters
frozen, the classifier subproblem is multinomial logistic regression with a
quadratic smoothness penalty, so it is convex and Newton's method with step
halving is both safe and fast.

The Newton system uses the exact softmax Gauss-Newton Hessian.  For small
problems it is solved directly in class coordinates.  Softmax logits are
invariant to adding the same vector to every class, so the data term of the
Hessian vanishes along class-constant directions, and the penalty and the
jitter act on each class alike.  The class mean therefore decouples exactly:
it sees only ``lambda * Laplacian + jitter``, which the FFT diagonalises on
the periodic grid, and the ``L - 1`` class contrasts form one dense system of
``(L-1)(F+1)`` unknowns instead of ``L(F+1)``.  Past a size threshold the full
Hessian is applied matrix-free inside conjugate gradients.  Both paths are
deterministic.  A singular or non-descent system falls back to a gradient
step with Armijo search and flags the step report.

Regularization (shared with :func:`mgcnn.network.loss`):

    lambda_w     * h^2 * sum_j ||D w_j||^2        spatial smoothness of the
                                                  classifier fields, periodic
                                                  forward differences
    lambda_theta * sum_k ||theta_{k+1}-theta_k||^2 / dt
                                                  temporal smoothness of the
                                                  layer stencils and biases
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Union

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .network import (
    Classifier,
    Gradients,
    LossReport,
    NetworkParams,
    loss,
    loss_and_gradient,
    propagate_final,
    softmax,
    _check_labels,
    _cross_entropy,
    _logits,
)

if TYPE_CHECKING:
    from .data import LabeledDataset

__all__ = [
    "ArmijoBacktracking",
    "BcdConfig",
    "EvalReport",
    "FixedStep",
    "HistoryRow",
    "NewtonResult",
    "RegConfig",
    "RegGrads",
    "TrainResult",
    "bcd_train",
    "classifier_objective",
    "evaluate",
    "history_to_csv",
    "newton_classifier_step",
    "reg_value_and_grad",
]

# Direct Newton solve up to this many unknowns, counted as L(F+1); CG beyond.
DENSE_NEWTON_LIMIT = 3000
# Tikhonov jitter that absorbs the softmax shift invariance of the Hessian;
# on the class-mean block it is all the data term leaves.
NEWTON_JITTER = 1e-10
MAX_HALVINGS = 20


@dataclass(frozen=True)
class RegConfig:
    lambda_w: float = 0.0
    lambda_theta: float = 0.0

    def __post_init__(self) -> None:
        if self.lambda_w < 0.0 or self.lambda_theta < 0.0:
            raise ValueError("regularization weights must be nonnegative")


@dataclass
class RegGrads:
    banks: np.ndarray
    biases: np.ndarray
    weights: np.ndarray


def _smooth_sq(w: np.ndarray) -> float:
    dx = np.roll(w, -1, axis=-1) - w
    dy = np.roll(w, -1, axis=-2) - w
    return float((dx * dx).sum() + (dy * dy).sum())


def _smooth_grad(w: np.ndarray) -> np.ndarray:
    # gradient of _smooth_sq: 2 * D^T D w, the periodic 5-point Laplacian
    return 2.0 * (
        4.0 * w
        - np.roll(w, 1, axis=-1)
        - np.roll(w, -1, axis=-1)
        - np.roll(w, 1, axis=-2)
        - np.roll(w, -1, axis=-2)
    )


def reg_value_and_grad(
    params: NetworkParams, clf: Classifier, reg: RegConfig
) -> tuple[float, RegGrads]:
    """Value and gradients of both smoothness penalties."""
    h2 = clf.grid.h**2
    n, c, k = params.num_layers, params.channels, params.kernel_size

    value = reg.lambda_w * h2 * _smooth_sq(clf.weights)
    g_w = reg.lambda_w * h2 * _smooth_grad(clf.weights)

    g_banks = np.zeros((n, c, c, k, k))
    g_biases = np.zeros((n, c))
    if reg.lambda_theta > 0.0 and n > 1:
        banks = np.stack([b.weights for b in params.banks])
        for theta, g in ((banks, g_banks), (params.biases, g_biases)):
            diff = theta[1:] - theta[:-1]
            value += reg.lambda_theta * float((diff * diff).sum()) / params.dt
            scale = 2.0 * reg.lambda_theta / params.dt
            g[:-1] -= scale * diff
            g[1:] += scale * diff
    return value, RegGrads(banks=g_banks, biases=g_biases, weights=g_w)


@dataclass(frozen=True)
class FixedStep:
    step_size: float


@dataclass(frozen=True)
class ArmijoBacktracking:
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


@functools.lru_cache(maxsize=16)
def _laplacian_entries(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the matrix of :func:`_laplacian_flat`.

    The periodic 5-point operator on fields of ``shape`` has at most 5
    nonzeros per row; entries that coincide on grids with a side below 3 are
    summed, so each position appears once.  Cached per shape, read-only.
    """
    size = math.prod(shape)
    idx = np.arange(size).reshape(shape)
    neighbours = [np.roll(idx, s, axis=a) for a in (-1, -2) for s in (1, -1)]
    rows = np.tile(idx.reshape(-1), 5)
    cols = np.concatenate([idx.reshape(-1)] + [n.reshape(-1) for n in neighbours])
    vals = np.repeat([8.0, -2.0, -2.0, -2.0, -2.0], size)
    keys, where = np.unique(rows * size + cols, return_inverse=True)
    summed = np.zeros(keys.size)
    np.add.at(summed, where, vals)
    entries = (keys // size, keys % size, summed)
    for a in entries:
        a.setflags(write=False)
    return entries


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
    field_shape = clf.weights.shape[1:]
    A = h2 * features.reshape(m, -1)  # logits = A @ W_flat.T + mu
    F = A.shape[1]
    lam = reg.lambda_w * h2
    onehot = np.zeros((m, L))
    onehot[np.arange(m), labels] = 1.0

    def objective(w: np.ndarray, mu: np.ndarray) -> float:
        logits = A @ w.T + mu
        ce = float(_cross_entropy(logits, labels).mean())
        return ce + lam * _smooth_sq(w.reshape((L,) + field_shape))

    def grad(w: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        probs = softmax(A @ w.T + mu)
        d = (probs - onehot) / m
        g_w = d.T @ A + lam * _laplacian_flat(w, (L,) + field_shape)
        return g_w, d.sum(axis=0), probs

    w = clf.weights.reshape(L, F).copy()
    mu = clf.mu.copy()
    obj = objective(w, mu)
    objectives: list[float] = []
    used_fallback = False

    for _ in range(steps):
        g_w, g_mu, probs = grad(w, mu)
        g_norm = max(float(np.abs(g_w).max()), float(np.abs(g_mu).max()))
        if g_norm < 1e-13:
            objectives.append(obj)
            continue

        dir_w, dir_mu = _newton_direction(A, probs, g_w, g_mu, lam, (L,) + field_shape)
        accepted = False
        if dir_w is not None and float((dir_w * g_w).sum() + (dir_mu * g_mu).sum()) < 0.0:
            t = 1.0
            for _ in range(MAX_HALVINGS):
                new_obj = objective(w + t * dir_w, mu + t * dir_mu)
                if new_obj < obj:
                    w, mu, obj = w + t * dir_w, mu + t * dir_mu, new_obj
                    accepted = True
                    break
                t *= 0.5
        if not accepted:
            # Armijo gradient fallback
            used_fallback = True
            t = 1.0
            for _ in range(MAX_HALVINGS):
                new_obj = objective(w - t * g_w, mu - t * g_mu)
                if new_obj <= obj - 1e-4 * t * (float((g_w**2).sum()) + float((g_mu**2).sum())):
                    w, mu, obj = w - t * g_w, mu - t * g_mu, new_obj
                    break
                t *= 0.5
        objectives.append(obj)

    out = Classifier(clf.grid, w.reshape((L,) + field_shape), mu)
    return NewtonResult(classifier=out, objectives=objectives, used_fallback=used_fallback)


def _contrast_basis(L: int) -> np.ndarray:
    """Orthonormal ``(L, L-1)`` basis of the class contrasts (Helmert columns).

    Column ``a`` holds ``1/sqrt(a(a+1))`` on classes ``0..a-1`` and
    ``-a/sqrt(a(a+1))`` on class ``a``, so every column sums to zero.
    """
    Q = np.zeros((L, L - 1))
    for a in range(1, L):
        Q[:a, a - 1] = 1.0 / math.sqrt(a * (a + 1))
        Q[a, a - 1] = -a / math.sqrt(a * (a + 1))
    return Q


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
        rows, cols, vals = _laplacian_entries(w_shape[1:])
        for a in range(L - 1):
            H[a * n + rows, a * n + cols] += lam * vals
    H[np.diag_indices_from(H)] += NEWTON_JITTER
    return H


def _class_mean_solve(b: np.ndarray, lam: float, field_shape: tuple[int, ...]) -> np.ndarray:
    """Solve the class-mean block ``(lam * Laplacian + jitter) x = b`` exactly.

    ``b`` is one ``[w | mu]`` row.  The periodic 5-point Laplacian is
    diagonal in Fourier space, with symbol ``2(4 - 2cos(2πk/nx) -
    2cos(2πl/ny))`` on every channel's field; the offset sees the jitter only.
    """
    ny, nx = field_shape[-2:]
    F = b.size - 1
    symbol = 2.0 * (
        4.0
        - 2.0 * np.cos(2.0 * np.pi * np.arange(nx // 2 + 1) / nx)
        - 2.0 * np.cos(2.0 * np.pi * np.arange(ny)[:, None] / ny)
    )
    spectrum = np.fft.rfft2(b[:F].reshape(field_shape)) / (lam * symbol + NEWTON_JITTER)
    x_w = np.fft.irfft2(spectrum, s=(ny, nx))
    return np.append(x_w.reshape(-1), b[F] / NEWTON_JITTER)


def _hessian_matvec(A: np.ndarray, probs: np.ndarray, lam: float, w_shape: tuple[int, ...]):
    """The product with the softmax Gauss-Newton Hessian plus penalty and
    jitter, without forming it.

    Unknown layout: per-class weight rows, then the offsets.
    """
    m, L = probs.shape
    F = A.shape[1]

    def hess_vec(v: np.ndarray) -> np.ndarray:
        vw = v[: L * F].reshape(L, F)
        vmu = v[L * F :]
        scores = A @ vw.T + vmu  # (m, L)
        t = probs * scores - probs * (probs * scores).sum(axis=1, keepdims=True)
        hw = (t.T @ A) / m + lam * _laplacian_flat(vw, w_shape)
        hmu = t.sum(axis=0) / m
        return np.concatenate([hw.reshape(-1), hmu]) + NEWTON_JITTER * v

    return hess_vec


def _newton_direction(
    A: np.ndarray,
    probs: np.ndarray,
    g_w: np.ndarray,
    g_mu: np.ndarray,
    lam: float,
    w_shape: tuple[int, ...],
):
    """Solve ``H d = -g`` for the softmax Gauss-Newton Hessian.

    Up to ``DENSE_NEWTON_LIMIT`` unknowns the system is split exactly in two.
    The data term of ``H`` acts on each sample through ``diag p - p p^T``,
    which annihilates the all-ones class vector, while the penalty and the
    jitter act on every class alike.  In the orthonormal class basis
    ``[1/sqrt(L), Q]`` the Hessian is therefore block diagonal: the class
    mean sees only ``lam * Laplacian + jitter``, solved by FFT, and the
    ``L - 1`` contrasts form one dense ``(L-1)(F+1)`` system
    (:func:`_contrast_hessian`), solved directly.  The direction is
    ``Q d_c + 1 ⊗ d_mean``.  Beyond the limit, conjugate gradients run on
    the matrix-free product of the full Hessian.  Returns ``(None, None)``
    when the solve fails so the caller can fall back.
    """
    L = probs.shape[1]
    F = A.shape[1]
    size = L * (F + 1)

    if size <= DENSE_NEWTON_LIMIT:
        rhs = -np.concatenate([g_w, g_mu[:, None]], axis=1)  # rows [w_j | mu_j]
        Q = _contrast_basis(L)
        H = _contrast_hessian(A, probs, lam, w_shape)
        try:
            d_c = scipy.linalg.solve(H, (Q.T @ rhs).reshape(-1), assume_a="sym")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            return None, None
        d = Q @ d_c.reshape(L - 1, F + 1) + _class_mean_solve(
            rhs.mean(axis=0), lam, w_shape[1:]
        )
        return d[:, :F], d[:, F]

    rhs = -np.concatenate([g_w.reshape(-1), g_mu])
    op = scipy.sparse.linalg.LinearOperator(
        (size, size), matvec=_hessian_matvec(A, probs, lam, w_shape)
    )
    d, info = scipy.sparse.linalg.cg(op, rhs, maxiter=200, atol=0.0, rtol=1e-8)
    if info < 0 or not np.all(np.isfinite(d)):
        return None, None
    return d[: L * F].reshape(L, F), d[L * F :]


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


class _Batcher:
    """Without-replacement minibatches from a seeded shuffle, reshuffled per epoch."""

    def __init__(self, m: int, batch_size: int | None, rng: np.random.Generator):
        self.m = m
        self.size = m if not batch_size or batch_size >= m else batch_size
        self.rng = rng
        self.order = np.arange(m)
        self.pos = m  # force shuffle on first draw

    def next(self) -> np.ndarray:
        if self.size == self.m:
            return self.order
        if self.pos + self.size > self.m:
            self.order = self.rng.permutation(self.m)
            self.pos = 0
        batch = self.order[self.pos : self.pos + self.size]
        self.pos += self.size
        return batch


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
    report: LossReport,
    grads: Gradients,
    workers: int,
    keep_states: bool,
) -> tuple[NetworkParams, np.ndarray | None]:
    """The next propagation parameters, and the final states of ``images``
    under them when an accepted Armijo trial computed them and
    ``keep_states`` is set."""
    if isinstance(rule, FixedStep):
        return _prop_step(params, grads, rule.step_size), None
    sq = grads.prop_sq_norm(params.embed_learnable)
    if sq == 0.0:
        return params, None
    t = rule.step_size
    for _ in range(rule.max_backtracks):
        trial = _prop_step(params, grads, t)
        trial_report = loss(images, labels, trial, clf, reg, workers=workers)
        if trial_report.total <= report.total - rule.c * t * sq:
            return trial, trial_report.features if keep_states else None
        t *= rule.beta
    return params, None  # no acceptable step; keep the current point


def bcd_train(
    train: "LabeledDataset",
    params: NetworkParams,
    clf: Classifier,
    reg: RegConfig,
    cfg: BcdConfig,
    val: "LabeledDataset | None" = None,
    workers: int = 1,
) -> TrainResult:
    """Run ``cfg.outer_iters`` BCD iterations; inputs are left untouched.

    Each history row reflects the full training set after that iteration's
    propagation and classifier updates.  Replays are bit-identical for a
    fixed config and seed.  In full-batch mode the accepted Armijo trial has
    already propagated the whole training set, and its final states serve as
    the Newton features; otherwise they come from a fresh pass.
    """
    if len(train) == 0:
        raise ValueError("training set is empty")
    params = params.copy()
    clf = clf.copy()
    history: list[HistoryRow] = []
    if cfg.outer_iters == 0:
        return TrainResult(params, clf, history)

    rng = np.random.default_rng(cfg.seed)
    batcher = _Batcher(len(train), cfg.batch_size, rng)

    for it in range(1, cfg.outer_iters + 1):
        idx = batcher.next()
        images, labels = train.images[idx], train.labels[idx]
        report, grads = loss_and_gradient(images, labels, params, clf, reg, workers=workers)
        params, features = _take_prop_step(
            images, labels, params, clf, reg, cfg.prop_step_rule, report, grads, workers,
            keep_states=len(idx) == len(train),
        )
        if features is None:
            features = propagate_final(train.images, params, workers=workers)
        if cfg.newton_steps > 0:
            clf = newton_classifier_step(
                features, train.labels, clf, reg, cfg.newton_steps
            ).classifier

        logits = _logits(features, clf)
        data_term = float(_cross_entropy(logits, train.labels).mean())
        reg_term, _ = reg_value_and_grad(params, clf, reg)
        train_acc = float((logits.argmax(axis=1) == train.labels).mean())
        val_acc = math.nan
        if val is not None:
            val_logits = _logits(propagate_final(val.images, params, workers=workers), clf)
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
    dataset: "LabeledDataset", params: NetworkParams, clf: Classifier, workers: int = 1
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
