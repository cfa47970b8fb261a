"""Periodic convolution stencils, their Fourier symbols, and the Galerkin
coarsening map that moves them between grid resolutions.

A stencil is a small ``k x k`` window of weights (``k`` odd) applied by
periodic cross-correlation:

    out(i, j) = sum_{p,q} weights(p, q) * img(i + p - c, j + q - c),  c = k // 2

with all indices wrapping around.  On a periodic grid this operator is
circulant, so its eigenvalues are the 2D DFT of the zero-padded,
center-shifted weights; :func:`stencil_symbol` returns exactly that.  A
bank's operator couples the channels, so its spectrum is that of the
``c x c`` block symbol at each frequency (:func:`stability_report`).

A bank of stencils (``c_out x c_in`` windows) is applied by one kernel,
shared with its weight gradient :func:`tap_gradient`: the batch is copied
once, channel-major, into periodically padded frames built from slice
copies, so that for every output cell at once a tap ``(p, q)`` is the same
contiguous column slice shifted by a fixed offset.  Each tap is then a
single ``(c_out, c_in)`` matrix product on that slice, in the manner of the
unfolded convolutions of Chellapilla, Puri and Simard (2006), without
materialising the ``k^2`` times larger unfolded input.  A bank with one
input channel (the embedding) takes an elementwise broadcast product per
tap instead: a matrix product with inner dimension 1 is an outer product,
which BLAS runs several times slower, and each of its entries is the same
single rounded product, so every value is unchanged except possibly the
sign of an exact zero.

Changing resolution composes the operator with a restriction ``R`` and a
prolongation ``P``: the coarse-grid operator is ``R K(s) P``.  Because R, K
and P are all translation equivariant (by one coarse cell), the composition
is again a stencil operator, and the map from fine weights to coarse weights
is linear.  :func:`build_coarsen_map` materializes that ``k^2 x k^2`` matrix
once by probing with unit stencils on a small reference grid; refinement
applies its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, IllPosedError
from .grid import Grid2D, TransferPair, TransferKind, prolong_values, restrict_values

__all__ = [
    "COND_LIMIT",
    "CoarsenMap",
    "StabilityReport",
    "StencilBank",
    "bank_apply",
    "build_coarsen_map",
    "coarsen_bank",
    "refine_bank",
    "stability_report",
    "stencil_symbol",
    "tap_gradient",
]

# Coarsening maps with condition numbers beyond this are refused outright:
# refinement would amplify rounding noise past any useful tolerance.
COND_LIMIT = 1e12

# Columns per block in the convolution kernel: a block's shifted input
# slices, its sums and one partial product stay in a core's L2 cache across
# all k^2 taps.  Fixed, so the summation order of the tap gradient is too.
_BLOCK = 8192


@dataclass
class StencilBank:
    """All stencils of one layer: ``weights[c_out, c_in]`` is one window.

    Output-major storage, shape ``(c_out, c_in, k, k)``.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 4 or w.shape[2] != w.shape[3]:
            raise DimensionError(f"bank weights must have shape (c_out, c_in, k, k), got {w.shape}")
        if w.shape[2] % 2 == 0:
            raise DimensionError(f"stencil size must be odd, got {w.shape[2]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("bank weights must be finite")
        self.weights = w

    @property
    def c_out(self) -> int:
        return self.weights.shape[0]

    @property
    def c_in(self) -> int:
        return self.weights.shape[1]

    @property
    def k(self) -> int:
        return self.weights.shape[2]

    def copy(self) -> "StencilBank":
        return StencilBank(self.weights.copy())

    @classmethod
    def replicate(cls, c_out: int, k: int = 3) -> "StencilBank":
        """Copy a single input channel into ``c_out`` output channels."""
        w = np.zeros((c_out, 1, k, k))
        w[:, 0, k // 2, k // 2] = 1.0
        return cls(w)


def _check_fits(grid_shape: tuple[int, ...], k: int) -> None:
    ny, nx = grid_shape
    if ny < k or nx < k:
        raise DimensionError(f"grid {ny}x{nx} is smaller than the {k}x{k} stencil")


def _frame(a: np.ndarray, k: int, wrap: bool) -> np.ndarray:
    """Lay ``a`` of shape ``(..., c, ny, nx)`` out channel-major as ``(c, B * H * W)``.

    ``B`` is the product of the leading axes, ``H = ny + 2r``, ``W = nx + 2r``
    and ``r = k // 2``.  With ``wrap`` every image is periodically padded by
    ``r`` on all four sides, which needs ``r <= ny, nx``; otherwise it sits
    in the top-left corner of a zero-filled ``H x W`` frame.  Cell ``(b, i,
    j)`` of the frames is column ``(b * H + i) * W + j``.  Both are slice
    copies into one new array: with ``wrap`` the interior, the left and
    right columns, then the top and bottom rows, which fill the corners.
    """
    r = k // 2
    flat = np.moveaxis(a.reshape((-1,) + a.shape[-3:]), 1, 0)
    c, b, ny, nx = flat.shape
    shape = (c, b, ny + 2 * r, nx + 2 * r)
    if not wrap:
        frame = np.zeros(shape, dtype=a.dtype)
        frame[:, :, :ny, :nx] = flat
        return frame.reshape(c, -1)
    frame = np.empty(shape, dtype=a.dtype)
    frame[:, :, r : r + ny, r : r + nx] = flat
    frame[:, :, r : r + ny, :r] = flat[..., nx - r :]
    frame[:, :, r : r + ny, r + nx :] = flat[..., :r]
    frame[:, :, :r] = frame[:, :, ny : ny + r]
    frame[:, :, r + ny :] = frame[:, :, r : 2 * r]
    return frame.reshape(c, -1)


def _tap_slices(y: np.ndarray, k: int) -> tuple[np.ndarray, int, list[int]]:
    """The wrap-padded frames of ``y``, the column span of every tap, and the
    column offset of each tap in row-major order.

    Tap ``(p, q)`` of output cell ``(b, i, j)`` reads the frame column of
    that cell plus ``p * W + q``.  So for all output cells at once, a tap is
    the contiguous slice ``cols[:, off : off + span]``, where ``span`` ends
    at the last output cell; the columns that fall in the padding of the
    output are computed too and discarded by the caller.
    """
    width = y.shape[-1] + k - 1
    cols = _frame(y, k, wrap=True)
    span = max(cols.shape[1] - (k - 1) * (width + 1), 0)
    return cols, span, [p * width + q for p in range(k) for q in range(k)]


def bank_apply(weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Apply a stencil bank to ``y`` with shape ``(..., c_in, ny, nx)``.

    Returns ``(..., c_out, ny, nx)``.  Leading axes (a batch, say) pass
    through untouched.  The batch is copied once into wrap-padded frames,
    channel-major (see :func:`_tap_slices`); each of the ``k^2`` taps is then one
    ``(c_out, c_in) @ (c_in, columns)`` product on a shifted contiguous
    slice, accumulated in row-major tap order.  Columns are taken in blocks
    of ``_BLOCK`` so that a block's slices and sums stay in cache across the
    taps.  No unfolded copy, no FFT.

    With ``c_in == 1`` each tap is the elementwise product of the ``(c_out,
    1)`` weights and the ``(1, columns)`` slice instead, several times
    faster than a matrix product with inner dimension 1.  Both round each
    entry once, so the result is the same but for the sign of an exact zero
    (BLAS returns ``+0`` where the product is ``-0``).
    """
    weights = np.asarray(weights, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[2] != weights.shape[3]:
        raise DimensionError(
            f"bank weights must have shape (c_out, c_in, k, k), got {weights.shape}"
        )
    if y.ndim < 3:
        raise DimensionError(f"input must have shape (..., c_in, ny, nx), got {y.shape}")
    c_out, c_in, k, _ = weights.shape
    ny, nx = y.shape[-2:]
    _check_fits((ny, nx), k)
    if y.shape[-3] != c_in:
        raise DimensionError(f"bank expects {c_in} input channels, got {y.shape[-3]}")
    cols, span, offsets = _tap_slices(y, k)
    by_tap = weights.transpose(2, 3, 0, 1).reshape(k * k, c_out, c_in)
    product = np.multiply if c_in == 1 else np.matmul
    acc = np.empty((c_out, cols.shape[1]))
    part = np.empty((c_out, min(span, _BLOCK)))
    for a in range(0, span, _BLOCK):
        b = min(a + _BLOCK, span)
        block, block_part = acc[:, a:b], part[:, : b - a]
        product(by_tap[0], cols[:, a:b], out=block)
        for w, off in zip(by_tap[1:], offsets[1:]):
            product(w, cols[:, a + off : b + off], out=block_part)
            block += block_part
    out = acc.reshape(c_out, -1, ny + k - 1, nx + k - 1)[:, :, :ny, :nx]
    return np.ascontiguousarray(np.moveaxis(out, 0, 1)).reshape(y.shape[:-3] + (c_out, ny, nx))


def tap_gradient(u: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Gradient of ``<u, bank_apply(W, y)>`` with respect to ``W``.

    ``u`` has shape ``(..., c_out, ny, nx)`` and ``y`` ``(..., c_in, ny, nx)``
    with the same leading axes; the result has shape ``(c_out, c_in, k, k)``.
    With ``u`` placed at the output columns of the frames and zeros in the
    padding, tap ``(p, q)`` is ``u_cols @ cols[:, off : off + span].T`` on the
    slices of :func:`bank_apply`, summed over the same column blocks in
    order.
    """
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim < 3 or u.ndim != y.ndim or u.shape[:-3] + u.shape[-2:] != y.shape[:-3] + y.shape[-2:]:
        raise DimensionError(
            f"u {u.shape} and y {y.shape} must share leading axes and grid, "
            "as (..., c_out, ny, nx) and (..., c_in, ny, nx)"
        )
    _check_fits(y.shape[-2:], k)
    cols, span, offsets = _tap_slices(y, k)
    u_cols = _frame(u, k, wrap=False)
    g = np.zeros((k * k, u.shape[-3], y.shape[-3]))
    for a in range(0, span, _BLOCK):
        b = min(a + _BLOCK, span)
        block = u_cols[:, a:b]
        for t, off in enumerate(offsets):
            g[t] += block @ cols[:, a + off : b + off].T
    return np.ascontiguousarray(g.reshape((k, k) + g.shape[1:]).transpose(2, 3, 0, 1))


def stencil_symbol(weights: np.ndarray, grid: Grid2D) -> np.ndarray:
    """Eigenvalues of the stencil operators on ``grid``: the 2D DFT of each
    embedded stencil.

    ``weights`` has shape ``(..., k, k)``; the result is complex with shape
    ``(..., ny, nx)``.  Each window is zero-padded to the grid and shifted so
    its center lands at the origin; ``fft2`` of that array enumerates the
    eigenvalues of the circulant operator, one per spatial frequency.
    """
    weights = np.asarray(weights, dtype=np.float64)
    k = weights.shape[-1]
    _check_fits(grid.shape, k)
    embedded = np.zeros(weights.shape[:-2] + grid.shape)
    embedded[..., :k, :k] = weights
    embedded = np.roll(embedded, (-(k // 2), -(k // 2)), axis=(-2, -1))
    return np.fft.fft2(embedded)


@dataclass(frozen=True)
class StabilityReport:
    """Spectral diagnostics of one forward-Euler step ``y + dt * K y``."""

    max_real: float
    spectral_radius_step: float


def stability_report(weights: np.ndarray, grid: Grid2D, dt: float) -> StabilityReport:
    """Largest eigenvalue real part and step growth factor ``max |1 + dt*lam|``
    of the channel-coupled operator of a ``(c, c, k, k)`` bank.

    Every block of the operator is circulant, so one spatial frequency
    couples only the ``c`` channels: the spectrum is the union over
    frequencies of the eigenvalues of the ``c x c`` block symbol (local
    Fourier analysis).
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 4 or weights.shape[0] != weights.shape[1]:
        raise DimensionError(f"expected a square (c, c, k, k) bank, got shape {weights.shape}")
    blocks = np.moveaxis(stencil_symbol(weights, grid), (0, 1), (-2, -1))
    lam = np.linalg.eigvals(blocks)
    return StabilityReport(
        max_real=float(lam.real.max()),
        spectral_radius_step=float(np.abs(1.0 + dt * lam).max()),
    )


@dataclass
class CoarsenMap:
    """Linear map from fine ``k x k`` stencils to coarse ones under ``R K P``.

    ``matrix`` acts on row-major flattened weights.  ``cond`` is its 2-norm
    condition number, fixed at construction.  ``truncation_mass`` is the
    total absolute weight of the exact coarse operator that fell outside the
    retained ``k x k`` window, accumulated over all unit-stencil probes
    (zero for CONSTANT_AVERAGE, whose coarse support is exactly ``k x k``).
    """

    k: int
    kind: TransferKind
    matrix: np.ndarray
    cond: float
    truncation_mass: float

    def inverse(self) -> np.ndarray:
        """The inverse matrix; refused when ill-posed."""
        if self.cond > COND_LIMIT or not np.isfinite(self.cond):
            raise IllPosedError(
                f"coarsening map is too ill-conditioned to invert (cond={self.cond:.3e})"
            )
        try:
            return np.linalg.inv(self.matrix)
        except np.linalg.LinAlgError as exc:
            raise IllPosedError(f"coarsening map is singular: {exc}") from exc


def build_coarsen_map(k: int, pair: TransferPair) -> CoarsenMap:
    """Materialize the stencil coarsening map for window size ``k``.

    Column ``j`` is produced operationally: place unit stencil ``e_j`` on a
    periodic reference grid of ``4k x 4k`` fine cells, apply prolongation,
    the stencil, then restriction to a coarse delta image, and read the
    resulting coarse stencil off around the delta.  The reference grid is
    large enough that the coarse operator's support never aliases, so the
    extracted columns are grid-independent.
    """
    if k < 1 or k % 2 == 0:
        raise DimensionError(f"stencil size must be odd and positive, got {k}")
    n_fine = 4 * k
    n_coarse = n_fine // 2
    c = k // 2
    mid = n_coarse // 2

    delta = np.zeros((n_coarse, n_coarse))
    delta[mid, mid] = 1.0
    fine_delta = prolong_values(delta, pair.kind)

    # Output channel j of one bank is the unit stencil e_j: all probes in one pass.
    probes = np.eye(k * k).reshape(k * k, 1, k, k)
    coarse_ops = restrict_values(bank_apply(probes, fine_delta[None]), pair.kind)
    # (R K P) delta_m has entry a_d at position m - d: gather the window.
    window = (mid + c - np.arange(k)) % n_coarse
    kept = np.zeros((n_coarse, n_coarse), dtype=bool)
    kept[window[:, None], window] = True
    matrix = np.ascontiguousarray(coarse_ops[:, window[:, None], window].reshape(k * k, -1).T)
    truncation = 0.0
    for mass in np.abs(coarse_ops[:, ~kept]).sum(axis=1):
        truncation += float(mass)

    cond = float(np.linalg.cond(matrix))
    if cond > COND_LIMIT or not np.isfinite(cond):
        raise IllPosedError(f"coarsening map for k={k} is ill-posed (cond={cond:.3e})")
    return CoarsenMap(k=k, kind=pair.kind, matrix=matrix, cond=cond, truncation_mass=truncation)


def _map_bank(bank: StencilBank, m: CoarsenMap, refine: bool) -> StencilBank:
    """Map every stencil of a bank through ``m``, or through its inverse."""
    if m.k != bank.k:
        raise DimensionError(f"coarsening map is for k={m.k}, stencil has k={bank.k}")
    matrix = m.inverse() if refine else m.matrix
    flat = bank.weights.reshape(bank.c_out * bank.c_in, -1)
    return StencilBank((flat @ matrix.T).reshape(bank.weights.shape))


def coarsen_bank(bank: StencilBank, m: CoarsenMap) -> StencilBank:
    """Coarsen every stencil of a bank, preserving channel structure."""
    return _map_bank(bank, m, refine=False)


def refine_bank(bank: StencilBank, m: CoarsenMap) -> StencilBank:
    """Refine every stencil of a bank, preserving channel structure."""
    return _map_bank(bank, m, refine=True)
