"""Forward propagation of a convolutional residual network and its gradients.

The network is the forward-Euler discretization of

    y'(t) = act( K(s(t)) y(t) + b(t) ),   y(0) = L x,

on a fixed image grid: ``N`` layers of ``y <- y + dt * act(bank(y) + bias)``
with ``N * dt = T``.  Inputs are plain arrays of shape ``(..., ny, nx)``
and states of shape ``(..., channels, ny, nx)``; every function here takes
one image or a batch alike.

Classification reads the final state through a linear functional per class,

    logit_j = h^2 * <w_j, y_N> + mu_j,

i.e. a midpoint-rule inner product on the grid, so classifier weights keep a
resolution-independent meaning, followed by softmax.  The loss is the mean
cross-entropy plus two smoothness penalties (:func:`reg_value_and_grad`):

    lambda_w     * h^2 * sum_j ||D w_j||^2        spatial smoothness of the
                                                  classifier fields, periodic
                                                  forward differences
    lambda_theta * sum_k ||theta_{k+1}-theta_k||^2 / dt
                                                  temporal smoothness of the
                                                  layer stencils and biases

:func:`loss_and_gradient` implements reverse-mode differentiation of the
cross-entropy plus both penalties with respect to every learnable
block: layer banks, biases, classifier weights and offsets, and the
embedding bank when it is marked learnable.  Its forward pass keeps each
chunk's states and nothing else, and the reverse sweep reads them back
rather than propagating again: a layer's activation slope follows from its
increment ``(y_{k+1} - y_k) / dt``, which is the activation's output; per
layer the sweep applies the adjoint bank once and takes the stencil
gradient from the same shifted-slice kernel as the forward pass
(:func:`mgcnn.stencils.tap_gradient`).  Inputs are processed
in fixed chunks of ``CHUNK`` examples so memory stays bounded and reductions
happen in a fixed order whatever the worker count; with ``workers > 1`` the
chunks of one call run on that many threads, next to BLAS's own threads.

Training propagates each full-batch iterate once, and embeds each fixed
image set once while the embedding is frozen.  ``loss(..., keep=True)``
keeps every chunk's trajectory ``y_1 .. y_N`` on its report, and
``loss_and_gradient(..., states=...)`` runs its reverse sweep on those
instead of a forward pass of its own; with ``embed_grad=False`` it also
leaves out the embedding's gradient and the adjoint application that only
that gradient needs.  ``embedded=`` on :func:`loss`,
:func:`loss_and_gradient` and :func:`propagate_final` takes ``y_0 = L x``
of the batch, formed once by the caller, in place of embedding again.
Either way the result is the same to the bit.

A classifier whose weights are all zero reads no features: its logits are
its offsets ``mu``.  :func:`loss` then takes no forward pass unless asked to
keep the trajectory, and :func:`loss_and_gradient` skips the reverse sweep.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError
from .grid import Grid2D
from .stencils import StencilBank, bank_apply, tap_gradient

__all__ = [
    "Activation",
    "Classifier",
    "Gradients",
    "LossReport",
    "NetworkInit",
    "NetworkParams",
    "RegConfig",
    "RegGrads",
    "embed_input",
    "forward_step",
    "loss",
    "loss_and_gradient",
    "propagate_final",
    "random_network_params",
    "reg_value_and_grad",
    "softmax",
    "zero_classifier",
]

# Examples per chunk in batched passes.  Fixed so that summation order, and
# therefore the exact floating-point result, never depends on batch size or
# worker count.
CHUNK = 256


class Activation(Enum):
    TANH = "tanh"
    IDENTITY = "identity"


def _act_deriv(y: np.ndarray, y_next: np.ndarray, params: NetworkParams):
    """Activation slope of the layer ``y -> y_next``, read off its output
    ``t = (y_next - y) / dt``: ``gain * (1 - t^2)`` for tanh."""
    if params.activation is Activation.TANH:
        t = (y_next - y) / params.dt
        return params.act_gain * (1.0 - t * t)
    return params.act_gain


@dataclass
class NetworkParams:
    """All propagation parameters of one network.

    ``banks[k]`` and ``biases[k]`` drive layer ``k``; ``embed`` is the input
    map ``L`` (single input channel to ``channels`` feature channels),
    trained only when ``embed_learnable`` is set.  ``num_layers == 0`` is
    allowed and means the output state is the embedded input.
    """

    dt: float
    final_time: float
    banks: list[StencilBank]
    biases: np.ndarray  # (N, channels)
    embed: StencilBank
    embed_learnable: bool = False
    activation: Activation = Activation.TANH
    act_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.embed.c_in != 1:
            raise DimensionError("embedding bank must take a single input channel")
        c = self.embed.c_out
        self.biases = np.asarray(self.biases, dtype=np.float64).reshape(len(self.banks), c)
        for i, bank in enumerate(self.banks):
            if bank.c_in != c or bank.c_out != c:
                raise DimensionError(
                    f"layer {i} bank is {bank.c_out}x{bank.c_in}, expected {c}x{c}"
                )
            if bank.k != self.embed.k:
                raise DimensionError("all banks must share one stencil size")
        if self.dt <= 0.0 or not np.isfinite(self.dt):
            raise ValueError(f"time step must be positive and finite, got {self.dt}")
        if abs(self.num_layers * self.dt - self.final_time) > 1e-12 * max(1.0, self.final_time):
            raise ValueError(
                f"N * dt = {self.num_layers * self.dt} does not match T = {self.final_time}"
            )

    @property
    def num_layers(self) -> int:
        return len(self.banks)

    @property
    def channels(self) -> int:
        return self.embed.c_out

    @property
    def kernel_size(self) -> int:
        return self.embed.k

    def copy(self) -> "NetworkParams":
        return replace(self, banks=[b.copy() for b in self.banks], biases=self.biases.copy(),
                       embed=self.embed.copy())


@dataclass
class Classifier:
    """Per-class linear readout on the feature grid: weights ``(L, c, ny, nx)``
    and offsets ``mu`` of length ``L``."""

    grid: Grid2D
    weights: np.ndarray
    mu: np.ndarray

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.mu = np.asarray(self.mu, dtype=np.float64).reshape(-1)
        if self.weights.ndim != 4 or self.weights.shape[-2:] != self.grid.shape:
            raise DimensionError(
                f"classifier weights of shape {self.weights.shape} do not fit grid "
                f"{self.grid.shape}"
            )
        if self.weights.shape[0] != self.mu.size:
            raise DimensionError("one offset per class is required")

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    def copy(self) -> "Classifier":
        return Classifier(self.grid, self.weights.copy(), self.mu.copy())


def zero_classifier(grid: Grid2D, channels: int, num_classes: int) -> Classifier:
    if num_classes < 2:
        raise ValueError(f"need at least two classes, got {num_classes}")
    return Classifier(grid, np.zeros((num_classes, channels) + grid.shape), np.zeros(num_classes))


@dataclass(frozen=True)
class NetworkInit:
    """Hyperparameters needed to draw a fresh network at a given depth."""

    channels: int
    kernel_size: int = 3
    final_time: float = 1.0
    init_scale: float = 0.1
    activation: Activation = Activation.TANH
    act_gain: float = 1.0
    embed_learnable: bool = False

    def network_params(self, num_layers: int, seed: int) -> NetworkParams:
        """Gaussian stencils, zero biases, channel-replicating embedding.

        One bank is drawn and copied to every layer: the initial parameter
        path is constant in time, which keeps the time-coupling penalty zero
        at the start and makes depth prolongation of the init exact.
        """
        if num_layers < 0:
            raise ValueError(f"layer count must be nonnegative, got {num_layers}")
        c, k = self.channels, self.kernel_size
        shared = np.random.default_rng(seed).normal(0.0, self.init_scale, (c, c, k, k))
        return NetworkParams(
            dt=self.final_time / num_layers if num_layers else 1.0,
            final_time=self.final_time if num_layers else 0.0,
            banks=[StencilBank(shared.copy()) for _ in range(num_layers)],
            biases=np.zeros((num_layers, c)),
            embed=StencilBank.replicate(c, k),
            embed_learnable=self.embed_learnable,
            activation=self.activation,
            act_gain=self.act_gain,
        )


def random_network_params(num_layers: int, seed: int = 0, **init) -> NetworkParams:
    """A fresh network; ``init`` holds the fields of :class:`NetworkInit`."""
    return NetworkInit(**init).network_params(num_layers, seed)


def embed_input(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """Map single-channel images ``(..., ny, nx)`` to the feature channels,
    ``y_0 = L x`` of shape ``(..., c, ny, nx)``."""
    x = np.asarray(x, dtype=np.float64)
    return bank_apply(params.embed.weights, x[..., None, :, :])


def forward_step(
    y: np.ndarray,
    bank: StencilBank,
    bias: np.ndarray,
    dt: float,
    act: Activation = Activation.TANH,
    gain: float = 1.0,
) -> np.ndarray:
    """One explicit Euler layer: ``y + dt * act(bank(y) + bias)``, a new array.

    The update runs in place on the fresh output of ``bank_apply``;
    multiplication and addition commute in IEEE arithmetic, so every bit is
    that of the formula.
    """
    z = bank_apply(bank.weights, y)
    z += np.asarray(bias, dtype=np.float64).reshape(-1, 1, 1)
    z *= gain
    if act is Activation.TANH:
        np.tanh(z, out=z)
    z *= dt
    z += y
    return z


def _check_finite(y: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"state became non-finite at {where}")


def _embed(x: np.ndarray, params: NetworkParams) -> np.ndarray:
    """:func:`embed_input`, refused when the result is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused next
        y = embed_input(x, params)
    _check_finite(y, "embedding")
    return y


def _check_embedded(embedded: np.ndarray | None, images: np.ndarray, params: NetworkParams) -> None:
    """Refuse an ``embedded`` that lacks the shape of ``embed_input(images, params)``."""
    shape = images.shape[:-2] + (params.channels,) + images.shape[-2:]
    if embedded is not None and np.shape(embedded) != shape:
        raise ValueError(f"embedded must have shape {shape}, got {np.shape(embedded)}")


def _check_label_count(labels: np.ndarray, images: np.ndarray) -> None:
    """Refuse ``labels`` that do not hold one entry per image of the batch."""
    if labels.size != np.shape(images)[0]:
        raise ValueError(f"{labels.size} labels for {np.shape(images)[0]} images")


def _propagate(
    x: np.ndarray, params: NetworkParams, keep: bool, y0: np.ndarray | None = None
) -> list[np.ndarray]:
    """Run every layer from ``y_0 = L x`` (``y0`` when given, else embedded
    here): all states ``y_0 .. y_N`` with ``keep``, else only ``[y_N]``."""
    y = _embed(x, params) if y0 is None else y0
    states = [y]
    with np.errstate(over="ignore", invalid="ignore"):  # each layer's overflow is refused
        for i, bank in enumerate(params.banks):
            y = forward_step(y, bank, params.biases[i], params.dt, params.activation,
                             params.act_gain)
            _check_finite(y, f"layer {i}")
            if keep:
                states.append(y)
            else:
                states[0] = y
    return states


def _chunks(n: int) -> list[slice]:
    return [slice(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]


def _map_chunks(fn, items: Sequence, workers: int) -> list:
    """``[fn(item) for item in items]``, on ``workers`` threads if more than
    one; results come back in the order of ``items`` either way."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _propagate_batch(
    images: np.ndarray, params: NetworkParams, workers: int, keep: bool, embedded: np.ndarray | None
) -> tuple[np.ndarray, list[list[np.ndarray]] | None]:
    """Final states ``y_N`` of a batch ``(m, ny, nx)``, written chunk by chunk
    into one array; with ``keep`` also each chunk's trajectory ``y_1 .. y_N``
    (no ``y_0``), whose last entry is a view of that array.  ``embedded``
    is as in :func:`propagate_final`."""
    images = np.asarray(images, dtype=np.float64)
    _check_embedded(embedded, images, params)
    features = np.empty((images.shape[0], params.channels) + images.shape[1:])

    def run(s: slice) -> list[np.ndarray] | None:
        states = _propagate(images[s], params, keep, None if embedded is None else embedded[s])
        features[s] = states[-1]
        if not keep:
            return None
        states[-1] = features[s]
        return states[1:]

    trajectories = _map_chunks(run, _chunks(images.shape[0]), workers)
    return features, trajectories if keep else None


def propagate_final(
    images: np.ndarray,
    params: NetworkParams,
    workers: int = 1,
    embedded: np.ndarray | None = None,
) -> np.ndarray:
    """Final states ``y_N`` for a batch ``(m, ny, nx)``, no trajectory kept.

    ``embedded``, when given, is ``embed_input(images, params)`` and is used
    as ``y_0`` instead of embedding again; it is read, not changed, and not
    checked for finiteness.
    """
    return _propagate_batch(images, params, workers, keep=False, embedded=embedded)[0]


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _logits(y_out: np.ndarray, clf: Classifier) -> np.ndarray:
    """Class scores of the final states; an overflowing score is infinite,
    which :func:`_cross_entropy` charges ``+inf`` without a warning."""
    flat_w = clf.weights.reshape(clf.num_classes, -1)
    flat_y = y_out.reshape(y_out.shape[:-3] + (-1,))
    with np.errstate(over="ignore", invalid="ignore"):
        return clf.grid.h**2 * (flat_y @ flat_w.T) + clf.mu


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels.astype(np.int64)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy; a row with an infinite or NaN logit has loss
    ``+inf``, and is left out of the arithmetic, so numpy warns of nothing."""
    if not np.isfinite(logits).all():
        finite = np.isfinite(logits).all(axis=-1)
        out = np.full(labels.size, np.inf)
        out[finite] = _cross_entropy(logits[finite], labels[finite])
        return out
    with np.errstate(over="ignore"):  # logits more than the float range apart: loss +inf
        shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    return lse - shifted[np.arange(labels.size), labels]


def _mean_cross_entropy(labels: np.ndarray, chunk_logits: Iterable[np.ndarray]) -> float:
    """Mean cross-entropy of the batch from its logits, one array per chunk in
    :func:`_chunks` order: each chunk's sum against its ``labels``, the sums
    added in chunk order, divided by the count.  It is the data term of both
    :func:`loss` and :func:`loss_and_gradient`, so their totals agree to the bit.
    """
    data = 0.0
    with np.errstate(over="ignore"):  # finite row losses past the float range sum to +inf
        for s, logits in zip(_chunks(labels.size), chunk_logits):
            data += float(_cross_entropy(logits, labels[s]).sum())
    return data / labels.size if labels.size else 0.0


@dataclass(frozen=True)
class LossReport:
    """Loss value and its two parts.

    ``features`` holds the batch's final states ``y_N`` when :func:`loss`
    computed them, so a caller that accepts this point can reuse them.
    ``states`` holds, when :func:`loss` was asked to keep them, each chunk's
    trajectory ``y_1 .. y_N``, which :func:`loss_and_gradient` takes in place
    of its forward pass.  ``logits`` holds the ``(m, L)`` class scores that
    :func:`loss_and_gradient` formed, in example order.  None of the three
    takes part in comparison.
    """

    total: float
    data_term: float
    reg_term: float
    features: np.ndarray | None = field(default=None, compare=False, repr=False)
    states: list[list[np.ndarray]] | None = field(default=None, compare=False, repr=False)
    logits: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class Gradients:
    """Gradients of the total loss for every learnable block.

    ``banks`` is stacked ``(N, c, c, k, k)``.  ``embed`` is ``None`` when
    :func:`loss_and_gradient` was told to skip it (``embed_grad=False``, as
    training does for a frozen embedding), and filled otherwise; the
    optimizer reads it only when the embedding is learnable.
    """

    banks: np.ndarray
    biases: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    embed: np.ndarray | None

    def prop_sq_norm(self, embed_learnable: bool) -> float:
        total = float((self.banks**2).sum() + (self.biases**2).sum())
        if embed_learnable:
            total += float((self.embed**2).sum())
        return total


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


def loss(
    images: np.ndarray,
    labels: np.ndarray,
    params: NetworkParams,
    clf: Classifier,
    reg: RegConfig = RegConfig(),
    workers: int = 1,
    keep: bool = False,
    embedded: np.ndarray | None = None,
) -> LossReport:
    """Mean cross-entropy over the batch plus the regularization value.

    The cross-entropy is summed by :func:`_mean_cross_entropy`, as in
    :func:`loss_and_gradient`, so both report the same ``data_term`` and
    ``total`` to the bit.

    With ``keep`` the report also holds every chunk's trajectory
    (``LossReport.states``) for a gradient pass at the same point.
    ``embedded`` is as in :func:`propagate_final`.

    A classifier whose weights are all zero has the logit row ``mu`` for
    every example, whatever the features.  Without ``keep`` its loss is
    then formed from ``mu`` alone, to the same bits: no image is read, the
    report's ``features`` and ``states`` are ``None``, and no
    :class:`~mgcnn.errors.DivergenceError` can arise.

    A label count other than the image count raises ``ValueError``.
    """
    labels = _check_labels(labels, clf.num_classes)
    _check_label_count(labels, images)
    slices = _chunks(labels.size)
    if keep or clf.weights.any():
        y_out, states = _propagate_batch(images, params, workers, keep, embedded)
        logits = (_logits(y_out[s], clf) for s in slices)
    else:
        y_out = states = None
        logits = (np.broadcast_to(clf.mu, (s.stop - s.start, clf.num_classes)) for s in slices)
    data = _mean_cross_entropy(labels, logits)
    reg_value, _ = reg_value_and_grad(params, clf, reg)
    return LossReport(total=data + reg_value, data_term=data, reg_term=reg_value,
                      features=y_out, states=states)


def _adjoint_weights(weights: np.ndarray) -> np.ndarray:
    return weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def loss_and_gradient(
    images: np.ndarray,
    labels: np.ndarray,
    params: NetworkParams,
    clf: Classifier,
    reg: RegConfig = RegConfig(),
    workers: int = 1,
    states: list[list[np.ndarray]] | None = None,
    embed_grad: bool = True,
    embedded: np.ndarray | None = None,
) -> tuple[LossReport, Gradients]:
    """Reverse-mode gradient of :func:`loss` for every learnable block.

    The forward pass keeps every state of the chunk and no pre-activation;
    the reverse sweep reads the states back instead of applying the banks
    again and takes each layer's activation slope from the layer's
    increment (:func:`_act_deriv`).  So each layer costs one bank
    application forward and one adjoint application plus one
    :func:`~mgcnn.stencils.tap_gradient` backward.

    ``states``, the ``LossReport.states`` of ``loss(images, labels, params,
    ..., keep=True)`` on these same images and parameters, replaces the
    forward pass: only ``y_0 = L x`` is formed again, unless ``embedded``
    (as in :func:`propagate_final`) holds it.  Both are read, not changed.
    With ``embed_grad=False`` the sweep stops at layer 0's stencil gradient,
    without layer 0's adjoint application and the embedding's tap gradient,
    and ``grads.embed`` is ``None``.

    A classifier whose weights are all zero passes an adjoint of exactly
    +-0 into the sweep, so every tap gradient, bias sum and adjoint
    application would add only signed zeros.  The sweep is then skipped,
    and the forward pass keeps only the final states, which the classifier
    gradient reads: the bank, bias and embedding gradients are the
    penalty's (:func:`reg_value_and_grad`; zero for the embedding) to the
    bit.

    The report keeps the batch's logits (``LossReport.logits``).  A label
    count other than the image count raises ``ValueError``.  A state or
    gradient that overflows raises :class:`~mgcnn.errors.DivergenceError`
    without a numpy warning.
    """
    images = np.asarray(images, dtype=np.float64)
    _check_embedded(embedded, images, params)
    labels = _check_labels(labels, clf.num_classes)
    _check_label_count(labels, images)
    m = images.shape[0]
    n, c, k = params.num_layers, params.channels, params.kernel_size
    h2 = clf.grid.h**2
    slices = _chunks(m)
    if states is None:
        chunks = [(s, None) for s in slices]
    elif len(states) != len(slices) or any(len(kept) != n for kept in states):
        raise ValueError(f"states must hold {n} states for each of {len(slices)} chunks")
    else:
        chunks = list(zip(slices, states))
    sweep = bool(clf.weights.any())
    logits = np.empty((m, clf.num_classes))

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite gradient is refused below
    def run(chunk: tuple[slice, list[np.ndarray] | None]):
        s, kept = chunk
        x = images[s]
        y0 = None if embedded is None else embedded[s]
        if kept is None:
            trajectory = _propagate(x, params, keep=sweep, y0=y0)
        else:
            trajectory = [embed_input(x, params) if y0 is None else y0] + kept
        logits[s] = _logits(trajectory[-1], clf)
        d_logit = softmax(logits[s])
        d_logit[np.arange(labels[s].size), labels[s]] -= 1.0
        d_logit /= m

        g_mu = d_logit.sum(axis=0)
        g_w = h2 * np.einsum("ml,mcyx->lcyx", d_logit, trajectory[-1], optimize=True)
        g_banks = np.zeros((n, c, c, k, k))
        g_biases = np.zeros((n, c))
        if not sweep:  # dy is exactly +-0: the sweep would add only signed zeros
            return g_banks, g_biases, g_w, g_mu, None

        dy = h2 * np.einsum("ml,lcyx->mcyx", d_logit, clf.weights, optimize=True)
        for i in range(n - 1, -1, -1):
            y_next = trajectory.pop()
            u = params.dt * dy * _act_deriv(trajectory[i], y_next, params)
            g_biases[i] = u.sum(axis=(0, 2, 3))
            g_banks[i] = tap_gradient(u, trajectory[i], k)
            if i > 0 or embed_grad:
                dy = dy + bank_apply(_adjoint_weights(params.banks[i].weights), u)
        g_embed = tap_gradient(dy, x[:, None, :, :], k) if embed_grad else None
        return g_banks, g_biases, g_w, g_mu, g_embed

    grads = Gradients(
        banks=np.zeros((n, c, c, k, k)),
        biases=np.zeros((n, c)),
        weights=np.zeros_like(clf.weights),
        mu=np.zeros_like(clf.mu),
        embed=np.zeros((c, 1, k, k)) if embed_grad else None,
    )
    results = _map_chunks(run, chunks, workers)
    data = _mean_cross_entropy(labels, (logits[s] for s in slices))
    reg_value, reg_grads = reg_value_and_grad(params, clf, reg)
    with np.errstate(over="ignore", invalid="ignore"):
        for g_banks, g_biases, g_w, g_mu, g_embed in results:
            grads.banks += g_banks
            grads.biases += g_biases
            grads.weights += g_w
            grads.mu += g_mu
            if g_embed is not None:
                grads.embed += g_embed
        grads.banks += reg_grads.banks
        grads.biases += reg_grads.biases
        grads.weights += reg_grads.weights

    for name, g in (("banks", grads.banks), ("biases", grads.biases),
                    ("classifier weights", grads.weights), ("mu", grads.mu),
                    ("embedding", grads.embed)):
        if g is not None and not np.all(np.isfinite(g)):
            raise DivergenceError(f"gradient became non-finite in {name}")
    report = LossReport(total=data + reg_value, data_term=data, reg_term=reg_value,
                        logits=logits)
    return report, grads
