"""Forward propagation of a convolutional residual network and its gradients.

The network is the forward-Euler discretization of

    y'(t) = act( K(s(t)) y(t) + b(t) ),   y(0) = L x,

on a fixed image grid: ``N`` layers of ``y <- y + dt * act(bank(y) + bias)``
with ``N * dt = T``.  States are multi-channel images stored as plain arrays
of shape ``(channels, ny, nx)``; batched helpers accept a leading batch axis
and are what the training loop actually calls.

Classification reads the final state through a linear functional per class,

    logit_j = h^2 * <w_j, y_N> + mu_j,

i.e. a midpoint-rule inner product on the grid, so classifier weights keep a
resolution-independent meaning, followed by softmax.

:func:`loss_and_gradient` implements reverse-mode differentiation of the
cross-entropy (plus optional regularization) with respect to every learnable
block: layer banks, biases, classifier weights and offsets, and the
embedding bank when it is marked learnable.  Its forward pass caches each
chunk's states and pre-activations, and the reverse sweep reads them back
rather than propagating again: per layer it applies the adjoint bank once
and takes the stencil gradient from the same shifted-slice kernel as the
forward pass (:func:`mgcnn.stencils.tap_gradient`).  Inputs are processed
in fixed chunks so memory stays bounded and reductions happen in a fixed
order regardless of worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import DimensionError, DivergenceError
from .grid import Grid2D, Image
from .stencils import StencilBank, bank_apply, tap_gradient

if TYPE_CHECKING:
    from .training import RegConfig

__all__ = [
    "Activation",
    "Classifier",
    "Gradients",
    "LossReport",
    "NetworkInit",
    "NetworkParams",
    "Trajectory",
    "classify",
    "embed_input",
    "forward_propagate",
    "forward_step",
    "gradient",
    "loss",
    "loss_and_gradient",
    "propagate_final",
    "random_network_params",
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

    @classmethod
    def from_name(cls, name: str) -> "Activation":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown activation {name!r}") from None


def _act(z: np.ndarray, act: Activation, gain: float) -> np.ndarray:
    if act is Activation.TANH:
        return np.tanh(gain * z)
    return gain * z


def _act_deriv(z: np.ndarray, act: Activation, gain: float) -> np.ndarray:
    if act is Activation.TANH:
        t = np.tanh(gain * z)
        return gain * (1.0 - t * t)
    return np.full_like(z, gain)


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
        return NetworkParams(
            dt=self.dt,
            final_time=self.final_time,
            banks=[b.copy() for b in self.banks],
            biases=self.biases.copy(),
            embed=self.embed.copy(),
            embed_learnable=self.embed_learnable,
            activation=self.activation,
            act_gain=self.act_gain,
        )


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

    @property
    def channels(self) -> int:
        return self.weights.shape[1]

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
        return random_network_params(
            channels=self.channels,
            num_layers=num_layers,
            final_time=self.final_time,
            kernel_size=self.kernel_size,
            seed=seed,
            init_scale=self.init_scale,
            activation=self.activation,
            act_gain=self.act_gain,
            embed_learnable=self.embed_learnable,
        )


def random_network_params(
    channels: int,
    num_layers: int,
    final_time: float,
    kernel_size: int = 3,
    seed: int = 0,
    init_scale: float = 0.1,
    activation: Activation = Activation.TANH,
    act_gain: float = 1.0,
    embed_learnable: bool = False,
) -> NetworkParams:
    """Gaussian stencils, zero biases, channel-replicating embedding.

    One bank is drawn and copied to every layer: the initial parameter path
    is constant in time, which keeps the time-coupling penalty zero at the
    start and makes depth prolongation of the init exact.
    """
    if num_layers < 0:
        raise ValueError(f"layer count must be nonnegative, got {num_layers}")
    rng = np.random.default_rng(seed)
    k = kernel_size
    shared = rng.normal(0.0, init_scale, (channels, channels, k, k))
    banks = [StencilBank(shared.copy()) for _ in range(num_layers)]
    dt = final_time / num_layers if num_layers else 1.0
    return NetworkParams(
        dt=dt,
        final_time=final_time if num_layers else 0.0,
        banks=banks,
        biases=np.zeros((num_layers, channels)),
        embed=StencilBank.replicate(channels, k),
        embed_learnable=embed_learnable,
        activation=activation,
        act_gain=act_gain,
    )


@dataclass
class Trajectory:
    """All states ``y_0 .. y_N`` of one forward propagation."""

    states: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.states[-1]


def embed_input(x: Image | np.ndarray, params: NetworkParams) -> np.ndarray:
    """Map a single-channel input image to the feature channels, ``y_0 = L x``."""
    values = x.values if isinstance(x, Image) else np.asarray(x, dtype=np.float64)
    return bank_apply(params.embed.weights, values[..., None, :, :])


def forward_step(
    y: np.ndarray,
    bank: StencilBank,
    bias: np.ndarray,
    dt: float,
    act: Activation = Activation.TANH,
    gain: float = 1.0,
) -> np.ndarray:
    """One explicit Euler layer: ``y + dt * act(bank(y) + bias)``."""
    return _layer(y, bank, bias, dt, act, gain)[0]


def _layer(
    y: np.ndarray, bank: StencilBank, bias: np.ndarray, dt: float, act: Activation, gain: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`forward_step` and its pre-activation ``z = bank(y) + bias``."""
    z = bank_apply(bank.weights, y) + np.asarray(bias, dtype=np.float64).reshape(-1, 1, 1)
    return y + dt * _act(z, act, gain), z


def _check_finite(y: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(y)):
        raise DivergenceError(f"state became non-finite at {where}")


def _propagate(y0: np.ndarray, params: NetworkParams, keep: bool) -> list[np.ndarray]:
    states = [y0]
    for i, bank in enumerate(params.banks):
        y = forward_step(
            states[-1], bank, params.biases[i], params.dt, params.activation, params.act_gain
        )
        _check_finite(y, f"layer {i}")
        if keep:
            states.append(y)
        else:
            states[0] = y
    return states


def forward_propagate(
    x: Image | np.ndarray, params: NetworkParams, act: Activation | None = None
) -> Trajectory:
    """Propagate one input image through all layers, keeping every state."""
    p = params if act is None else replace(params, activation=act)
    y0 = embed_input(x, p)
    _check_finite(y0, "embedding")
    return Trajectory(_propagate(y0, p, keep=True))


def _chunks(n: int) -> list[slice]:
    return [slice(i, min(i + CHUNK, n)) for i in range(0, n, CHUNK)]


def _map_chunks(fn, slices: Sequence[slice], workers: int) -> list:
    if workers <= 1 or len(slices) <= 1:
        return [fn(s) for s in slices]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, slices))


def propagate_final(images: np.ndarray, params: NetworkParams, workers: int = 1) -> np.ndarray:
    """Final states ``y_N`` for a batch ``(m, ny, nx)``, no trajectory kept."""
    images = np.asarray(images, dtype=np.float64)

    def run(s: slice) -> np.ndarray:
        y0 = embed_input(images[s], params)
        _check_finite(y0, "embedding")
        return _propagate(y0, params, keep=False)[-1]

    outs = _map_chunks(run, _chunks(images.shape[0]), workers)
    return np.concatenate(outs, axis=0)


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _logits(y_out: np.ndarray, clf: Classifier) -> np.ndarray:
    flat_w = clf.weights.reshape(clf.num_classes, -1)
    flat_y = y_out.reshape(y_out.shape[:-3] + (-1,))
    return clf.grid.h**2 * (flat_y @ flat_w.T) + clf.mu


def classify(y_out: np.ndarray, clf: Classifier) -> np.ndarray:
    """Class probabilities for final state(s) of shape ``(..., c, ny, nx)``."""
    if y_out.shape[-3:] != (clf.channels,) + clf.grid.shape:
        raise DimensionError(
            f"state shape {y_out.shape[-3:]} does not match classifier "
            f"({clf.channels}, {clf.grid.ny}, {clf.grid.nx})"
        )
    return softmax(_logits(y_out, clf))


def _check_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels.astype(np.int64)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    return lse - shifted[np.arange(labels.size), labels]


@dataclass(frozen=True)
class LossReport:
    """Loss value and its two parts.

    ``features`` holds the batch's final states ``y_N`` when :func:`loss`
    computed them, so a caller that accepts this point can reuse them; it
    takes no part in comparison.
    """

    total: float
    data_term: float
    reg_term: float
    features: np.ndarray | None = field(default=None, compare=False, repr=False)


@dataclass
class Gradients:
    """Gradients of the total loss for every learnable block.

    ``banks`` is stacked ``(N, c, c, k, k)``; ``embed`` is always filled but
    only consumed by the optimizer when the embedding is learnable.
    """

    banks: np.ndarray
    biases: np.ndarray
    weights: np.ndarray
    mu: np.ndarray
    embed: np.ndarray

    def prop_sq_norm(self, embed_learnable: bool) -> float:
        total = float((self.banks**2).sum() + (self.biases**2).sum())
        if embed_learnable:
            total += float((self.embed**2).sum())
        return total


def _reg_parts(params: NetworkParams, clf: Classifier, reg: "RegConfig | None"):
    if reg is None:
        return 0.0, None
    from .training import reg_value_and_grad  # runtime import; training sits above this module

    return reg_value_and_grad(params, clf, reg)


def loss(
    images: np.ndarray,
    labels: np.ndarray,
    params: NetworkParams,
    clf: Classifier,
    reg: "RegConfig | None" = None,
    workers: int = 1,
) -> LossReport:
    """Mean cross-entropy over the batch plus the regularization value."""
    labels = _check_labels(labels, clf.num_classes)
    y_out = propagate_final(images, params, workers=workers)
    ce = _cross_entropy(_logits(y_out, clf), labels)
    data = float(ce.mean()) if labels.size else 0.0
    reg_value, _ = _reg_parts(params, clf, reg)
    return LossReport(total=data + reg_value, data_term=data, reg_term=reg_value, features=y_out)


def _adjoint_weights(weights: np.ndarray) -> np.ndarray:
    return weights.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def loss_and_gradient(
    images: np.ndarray,
    labels: np.ndarray,
    params: NetworkParams,
    clf: Classifier,
    reg: "RegConfig | None" = None,
    workers: int = 1,
) -> tuple[LossReport, Gradients]:
    """Reverse-mode gradient of :func:`loss` for every learnable block.

    The forward pass keeps every state and pre-activation of the chunk; the
    reverse sweep reads them back instead of applying the banks again, so
    each layer costs one bank application forward and one adjoint
    application plus one :func:`~mgcnn.stencils.tap_gradient` backward.
    """
    images = np.asarray(images, dtype=np.float64)
    labels = _check_labels(labels, clf.num_classes)
    m = images.shape[0]
    n, c, k = params.num_layers, params.channels, params.kernel_size
    h2 = clf.grid.h**2

    def run(s: slice):
        x = images[s]
        y0 = embed_input(x, params)
        _check_finite(y0, "embedding")
        states, pre = [y0], []
        for i, bank in enumerate(params.banks):
            y, z = _layer(
                states[-1], bank, params.biases[i], params.dt, params.activation, params.act_gain
            )
            _check_finite(y, f"layer {i}")
            states.append(y)
            pre.append(z)
        logits = _logits(states[-1], clf)
        ce_sum = float(_cross_entropy(logits, labels[s]).sum())

        d_logit = softmax(logits)
        d_logit[np.arange(labels[s].size), labels[s]] -= 1.0
        d_logit /= m

        g_mu = d_logit.sum(axis=0)
        g_w = h2 * np.einsum("ml,mcyx->lcyx", d_logit, states[-1], optimize=True)
        dy = h2 * np.einsum("ml,lcyx->mcyx", d_logit, clf.weights, optimize=True)

        g_banks = np.zeros((n, c, c, k, k))
        g_biases = np.zeros((n, c))
        for i in range(n - 1, -1, -1):
            u = params.dt * dy * _act_deriv(pre.pop(), params.activation, params.act_gain)
            g_biases[i] = u.sum(axis=(0, 2, 3))
            g_banks[i] = tap_gradient(u, states[i], k)
            dy = dy + bank_apply(_adjoint_weights(params.banks[i].weights), u)
        g_embed = tap_gradient(dy, x[:, None, :, :], k)
        return ce_sum, g_banks, g_biases, g_w, g_mu, g_embed

    grads = Gradients(
        banks=np.zeros((n, c, c, k, k)),
        biases=np.zeros((n, c)),
        weights=np.zeros_like(clf.weights),
        mu=np.zeros_like(clf.mu),
        embed=np.zeros((c, 1, k, k)),
    )
    data = 0.0
    for ce_sum, g_banks, g_biases, g_w, g_mu, g_embed in _map_chunks(
        run, _chunks(m), workers
    ):
        data += ce_sum
        grads.banks += g_banks
        grads.biases += g_biases
        grads.weights += g_w
        grads.mu += g_mu
        grads.embed += g_embed
    data = data / m if m else 0.0

    reg_value, reg_grads = _reg_parts(params, clf, reg)
    if reg_grads is not None:
        grads.banks += reg_grads.banks
        grads.biases += reg_grads.biases
        grads.weights += reg_grads.weights

    for name, g in (("banks", grads.banks), ("biases", grads.biases),
                    ("classifier weights", grads.weights), ("mu", grads.mu),
                    ("embedding", grads.embed)):
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"gradient became non-finite in {name}")
    report = LossReport(total=data + reg_value, data_term=data, reg_term=reg_value)
    return report, grads


def gradient(
    images: np.ndarray,
    labels: np.ndarray,
    params: NetworkParams,
    clf: Classifier,
    reg: "RegConfig | None" = None,
    workers: int = 1,
) -> Gradients:
    """Gradient record only; see :func:`loss_and_gradient`."""
    return loss_and_gradient(images, labels, params, clf, reg, workers)[1]
