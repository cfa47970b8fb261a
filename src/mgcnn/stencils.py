"""Periodic convolution stencils, their Fourier symbols, and the Galerkin
coarsening map that moves them between grid resolutions.

A stencil is a small ``k x k`` window of weights (``k`` odd) applied by
periodic cross-correlation:

    out(i, j) = sum_{p,q} weights(p, q) * img(i + p - c, j + q - c),  c = k // 2

with all indices wrapping around.  On a periodic grid this operator is
circulant, so its eigenvalues are the 2D DFT of the zero-padded,
center-shifted weights; :func:`stencil_symbol` returns exactly that.

A bank of stencils (``c_out x c_in`` windows) is applied by one kernel,
shared with its weight gradient :func:`tap_gradient`: the batch is
wrap-padded once and laid out channel-major, so that for every output cell
at once a tap ``(p, q)`` is the same contiguous column slice shifted by a
fixed offset.  Each tap is then a single ``(c_out, c_in)`` matrix product
on that slice, in the manner of the unfolded convolutions of Chellapilla,
Puri and Simard (2006), without materialising the ``k^2`` times larger
unfolded input.

Changing resolution composes the operator with a restriction ``R`` and a
prolongation ``P``: the coarse-grid operator is ``R K(s) P``.  Because R, K
and P are all translation equivariant (by one coarse cell), the composition
is again a stencil operator, and the map from fine weights to coarse weights
is linear.  :func:`build_coarsen_map` materializes that ``k^2 x k^2`` matrix
once by probing with unit stencils on a small reference grid; refinement
applies its inverse, computed once per map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, IllPosedError
from .grid import Grid2D, Image, TransferPair, TransferKind, prolong_values, restrict_values

__all__ = [
    "COND_LIMIT",
    "CoarsenMap",
    "StabilityReport",
    "Stencil",
    "StencilBank",
    "Symbol",
    "bank_apply",
    "build_coarsen_map",
    "coarsen_bank",
    "coarsen_stencil",
    "conv_apply",
    "refine_bank",
    "refine_stencil",
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
class Stencil:
    """A ``k x k`` convolution window, ``k`` odd, indexed row-major."""

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"stencil weights must be square, got shape {w.shape}")
        if w.shape[0] % 2 == 0:
            raise DimensionError(f"stencil size must be odd, got {w.shape[0]}")
        if not np.all(np.isfinite(w)):
            raise ValueError("stencil weights must be finite")
        self.weights = w

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @classmethod
    def identity(cls, k: int = 3) -> "Stencil":
        w = np.zeros((k, k))
        w[k // 2, k // 2] = 1.0
        return cls(w)

    @classmethod
    def zeros(cls, k: int = 3) -> "Stencil":
        return cls(np.zeros((k, k)))


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

    def stencil(self, co: int, ci: int) -> Stencil:
        return Stencil(self.weights[co, ci].copy())

    def copy(self) -> "StencilBank":
        return StencilBank(self.weights.copy())

    @classmethod
    def identity(cls, channels: int, k: int = 3) -> "StencilBank":
        """Channel-wise identity: out = in."""
        w = np.zeros((channels, channels, k, k))
        w[np.arange(channels), np.arange(channels), k // 2, k // 2] = 1.0
        return cls(w)

    @classmethod
    def replicate(cls, c_out: int, k: int = 3) -> "StencilBank":
        """Copy a single input channel into ``c_out`` output channels."""
        w = np.zeros((c_out, 1, k, k))
        w[:, 0, k // 2, k // 2] = 1.0
        return cls(w)

    @classmethod
    def zeros(cls, c_out: int, c_in: int, k: int = 3) -> "StencilBank":
        return cls(np.zeros((c_out, c_in, k, k)))


def _frame(a: np.ndarray, k: int, wrap: bool) -> np.ndarray:
    """Lay ``a`` of shape ``(..., c, ny, nx)`` out channel-major as ``(c, B * H * W)``.

    ``B`` is the product of the leading axes, ``H = ny + 2r``, ``W = nx + 2r``
    and ``r = k // 2``.  With ``wrap`` every image is periodically padded by
    ``r`` on all four sides; otherwise it sits in the top-left corner of a
    zero-filled ``H x W`` frame.  Cell ``(b, i, j)`` of the frames is column
    ``(b * H + i) * W + j``.
    """
    r = k // 2
    flat = np.moveaxis(a.reshape((-1,) + a.shape[-3:]), 1, 0)
    pad = [(r, r), (r, r)] if wrap else [(0, 2 * r), (0, 2 * r)]
    return np.pad(flat, [(0, 0), (0, 0)] + pad, mode="wrap" if wrap else "constant").reshape(
        flat.shape[0], -1
    )


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
    through untouched.  The batch is wrap-padded once, channel-major (see
    :func:`_tap_slices`); each of the ``k^2`` taps is then one
    ``(c_out, c_in) @ (c_in, columns)`` product on a shifted contiguous
    slice, accumulated in row-major tap order.  Columns are taken in blocks
    of ``_BLOCK`` so that a block's slices and sums stay in cache across the
    taps.  No unfolded copy, no FFT.
    """
    weights = np.asarray(weights, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    c_out, c_in, k, _ = weights.shape
    ny, nx = y.shape[-2:]
    if ny < k or nx < k:
        raise DimensionError(f"grid {ny}x{nx} is smaller than the {k}x{k} stencil")
    if y.shape[-3] != c_in:
        raise DimensionError(f"bank expects {c_in} input channels, got {y.shape[-3]}")
    cols, span, offsets = _tap_slices(y, k)
    by_tap = weights.transpose(2, 3, 0, 1).reshape(k * k, c_out, c_in)
    acc = np.empty((c_out, cols.shape[1]))
    part = np.empty((c_out, min(span, _BLOCK)))
    for a in range(0, span, _BLOCK):
        b = min(a + _BLOCK, span)
        block, block_part = acc[:, a:b], part[:, : b - a]
        np.matmul(by_tap[0], cols[:, a:b], out=block)
        for w, off in zip(by_tap[1:], offsets[1:]):
            np.matmul(w, cols[:, a + off : b + off], out=block_part)
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
    cols, span, offsets = _tap_slices(y, k)
    u_cols = _frame(u, k, wrap=False)
    g = np.zeros((k * k, u.shape[-3], y.shape[-3]))
    for a in range(0, span, _BLOCK):
        b = min(a + _BLOCK, span)
        block = u_cols[:, a:b]
        for t, off in enumerate(offsets):
            g[t] += block @ cols[:, a + off : b + off].T
    return np.ascontiguousarray(g.reshape((k, k) + g.shape[1:]).transpose(2, 3, 0, 1))


def conv_apply(s: Stencil, img: Image) -> Image:
    """Periodic cross-correlation of an image with one stencil."""
    out = bank_apply(s.weights[None, None], img.values[None])
    return Image(img.grid, out[0])


@dataclass
class Symbol:
    """Circulant eigenvalues of a stencil operator on a fixed grid."""

    grid: Grid2D
    values: np.ndarray  # complex, shape (ny, nx)


def stencil_symbol(s: Stencil, grid: Grid2D) -> Symbol:
    """Eigenvalues of ``K(s)`` on ``grid``: the 2D DFT of the embedded stencil.

    The weights are zero-padded to the grid and shifted so the stencil center
    lands at the origin; ``fft2`` of that array enumerates the eigenvalues of
    the circulant operator, one per spatial frequency.
    """
    k, c = s.k, s.k // 2
    if grid.ny < k or grid.nx < k:
        raise DimensionError(f"grid {grid.ny}x{grid.nx} is smaller than the {k}x{k} stencil")
    embedded = np.zeros(grid.shape)
    embedded[:k, :k] = s.weights
    embedded = np.roll(embedded, (-c, -c), axis=(0, 1))
    return Symbol(grid, np.fft.fft2(embedded))


@dataclass(frozen=True)
class StabilityReport:
    """Spectral diagnostics of one forward-Euler step ``y + dt * K y``."""

    max_real: float
    spectral_radius_step: float


def stability_report(s: Stencil, grid: Grid2D, dt: float) -> StabilityReport:
    """Largest eigenvalue real part and step growth factor ``max |1 + dt*lam|``."""
    lam = stencil_symbol(s, grid).values
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
    _inverse: np.ndarray | None = field(default=None, repr=False)

    def apply(self, weights: np.ndarray) -> np.ndarray:
        return (self.matrix @ weights.reshape(-1)).reshape(self.k, self.k)

    def inverse(self) -> np.ndarray:
        """The inverse matrix, computed once; refused when ill-posed."""
        if self.cond > COND_LIMIT or not np.isfinite(self.cond):
            raise IllPosedError(
                f"coarsening map is too ill-conditioned to invert (cond={self.cond:.3e})"
            )
        if self._inverse is None:
            try:
                self._inverse = np.linalg.inv(self.matrix)
            except np.linalg.LinAlgError as exc:
                raise IllPosedError(f"coarsening map is singular: {exc}") from exc
        return self._inverse

    def solve(self, coarse_weights: np.ndarray) -> np.ndarray:
        return (self.inverse() @ coarse_weights.reshape(-1)).reshape(self.k, self.k)


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

    matrix = np.empty((k * k, k * k))
    truncation = 0.0
    probe = np.zeros((1, 1, k, k))
    for j in range(k * k):
        probe[0, 0].flat[j] = 1.0
        coarse_op = restrict_values(bank_apply(probe, fine_delta[None])[0], pair.kind)
        probe[0, 0].flat[j] = 0.0
        # (R K P) delta_m has entry a_d at position m - d: gather the window.
        col = np.empty((k, k))
        kept = np.zeros_like(coarse_op, dtype=bool)
        for p in range(k):
            for q in range(k):
                r, s_ = (mid - (p - c)) % n_coarse, (mid - (q - c)) % n_coarse
                col[p, q] = coarse_op[r, s_]
                kept[r, s_] = True
        truncation += float(np.abs(coarse_op[~kept]).sum())
        matrix[:, j] = col.reshape(-1)

    cond = float(np.linalg.cond(matrix))
    if cond > COND_LIMIT or not np.isfinite(cond):
        raise IllPosedError(f"coarsening map for k={k} is ill-posed (cond={cond:.3e})")
    return CoarsenMap(k=k, kind=pair.kind, matrix=matrix, cond=cond, truncation_mass=truncation)


def _check_k(m: CoarsenMap, k: int) -> None:
    if m.k != k:
        raise DimensionError(f"coarsening map is for k={m.k}, stencil has k={k}")


def coarsen_stencil(s: Stencil, m: CoarsenMap) -> Stencil:
    """Coarse-grid stencil of ``R K(s) P``."""
    _check_k(m, s.k)
    return Stencil(m.apply(s.weights))


def refine_stencil(s_coarse: Stencil, m: CoarsenMap) -> Stencil:
    """Fine-grid stencil whose Galerkin coarsening is ``s_coarse``."""
    _check_k(m, s_coarse.k)
    return Stencil(m.solve(s_coarse.weights))


def coarsen_bank(bank: StencilBank, m: CoarsenMap) -> StencilBank:
    """Coarsen every stencil of a bank, preserving channel structure."""
    _check_k(m, bank.k)
    flat = bank.weights.reshape(bank.c_out * bank.c_in, -1)
    coarse = flat @ m.matrix.T
    return StencilBank(coarse.reshape(bank.weights.shape))


def refine_bank(bank: StencilBank, m: CoarsenMap) -> StencilBank:
    """Refine every stencil of a bank, preserving channel structure."""
    _check_k(m, bank.k)
    flat = bank.weights.reshape(bank.c_out * bank.c_in, -1)
    fine = flat @ m.inverse().T
    return StencilBank(fine.reshape(bank.weights.shape))
