"""Cell-centered 2D grids and transfer operators between resolutions.

An image lives at the cell centers of a uniform periodic grid with pixel
size ``h``.  Coarsening merges 2x2 blocks of cells (``h -> 2h``), refinement
splits each cell in four.  Two matched restriction/prolongation pairs are
provided:

``CONSTANT_AVERAGE``
    Restriction takes the mean of each 2x2 block; prolongation injects the
    coarse value into all four fine cells.  ``R P = I`` exactly.

``BILINEAR_FULL_WEIGHTING``
    Prolongation interpolates bilinearly between the four nearest coarse
    cell centers (weights 9/16, 3/16, 3/16, 1/16); restriction is the
    adjoint scaled so constant images map to equal constants (classical
    full weighting).  ``R P = I`` holds exactly on constants and only
    approximately elsewhere.

All boundaries are periodic.  That keeps every operator here translation
equivariant, which is what makes the Galerkin stencil algebra in
:mod:`mgcnn.stencils` exact rather than approximate.

Images are plain arrays of shape ``(..., ny, nx)``.  The transfers
(:func:`restrict_values`, :func:`prolong_values`) and the blur
(:func:`gaussian_blur_values`) act on the trailing two axes, so stacks of
images or multi-channel fields move in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DimensionError

__all__ = [
    "Grid2D",
    "TransferKind",
    "TransferPair",
    "gaussian_blur_values",
    "gaussian_kernel_1d",
    "prolong_values",
    "restrict_values",
]


@dataclass(frozen=True)
class Grid2D:
    """Uniform periodic cell-centered grid: ``nx`` by ``ny`` cells of size ``h``."""

    nx: int
    ny: int
    h: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise DimensionError(f"grid needs at least one cell per axis, got {self.nx}x{self.ny}")
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise DimensionError(f"pixel size must be positive and finite, got {self.h}")

    @property
    def shape(self) -> tuple[int, int]:
        """Array shape ``(ny, nx)`` of an image on this grid."""
        return (self.ny, self.nx)

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    def coarsened(self) -> "Grid2D":
        if self.nx % 2 or self.ny % 2:
            raise DimensionError(f"cannot halve an odd grid ({self.nx}x{self.ny})")
        return Grid2D(self.nx // 2, self.ny // 2, 2.0 * self.h)

    def refined(self) -> "Grid2D":
        return Grid2D(2 * self.nx, 2 * self.ny, 0.5 * self.h)


class TransferKind(Enum):
    CONSTANT_AVERAGE = "constant_average"
    BILINEAR_FULL_WEIGHTING = "bilinear_full_weighting"


@dataclass(frozen=True)
class TransferPair:
    """A matched restriction/prolongation pair.

    ``R P = I`` on the subspace where the identity holds (everywhere for
    CONSTANT_AVERAGE, constants for BILINEAR_FULL_WEIGHTING): restrictions
    here are normalized to preserve constants, so no correction is needed
    when moving classifier weights between grids.
    """

    kind: TransferKind

    @classmethod
    def constant_average(cls) -> "TransferPair":
        return cls(TransferKind.CONSTANT_AVERAGE)

    @classmethod
    def bilinear_full_weighting(cls) -> "TransferPair":
        return cls(TransferKind.BILINEAR_FULL_WEIGHTING)


def _samples(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim < 2:
        raise DimensionError("expected at least a 2D array of samples")
    return values


def _restrict_fw_axis(v: np.ndarray, axis: int) -> np.ndarray:
    # 1D full weighting: out[i] = (f[2i-1] + 3 f[2i] + 3 f[2i+1] + f[2i+2]) / 8
    v = np.moveaxis(v, axis, -1)
    left = np.roll(v, 1, axis=-1)
    right = np.roll(v, -1, axis=-1)
    out = (left[..., 0::2] + 3.0 * v[..., 0::2] + 3.0 * v[..., 1::2] + right[..., 1::2]) / 8.0
    return np.moveaxis(out, -1, axis)


def _prolong_linear_axis(v: np.ndarray, axis: int) -> np.ndarray:
    # Fine centers sit at 1/4 and 3/4 of a coarse cell: weights 3/4 and 1/4.
    v = np.moveaxis(v, axis, -1)
    left = np.roll(v, 1, axis=-1)
    right = np.roll(v, -1, axis=-1)
    out = np.empty(v.shape[:-1] + (2 * v.shape[-1],), dtype=v.dtype)
    out[..., 0::2] = 0.75 * v + 0.25 * left
    out[..., 1::2] = 0.75 * v + 0.25 * right
    return np.moveaxis(out, -1, axis)


def restrict_values(values: np.ndarray, kind: TransferKind) -> np.ndarray:
    """Restrict the trailing two axes to the next coarser grid."""
    values = _samples(values)
    ny, nx = values.shape[-2:]
    if ny % 2 or nx % 2:
        raise DimensionError(f"restriction needs even dimensions, got {ny}x{nx}")
    if kind is TransferKind.CONSTANT_AVERAGE:
        blocks = values.reshape(values.shape[:-2] + (ny // 2, 2, nx // 2, 2))
        return blocks.mean(axis=(-3, -1))
    out = _restrict_fw_axis(values, -2)
    return _restrict_fw_axis(out, -1)


def prolong_values(values: np.ndarray, kind: TransferKind) -> np.ndarray:
    """Prolong the trailing two axes to the next finer grid."""
    values = _samples(values)
    if kind is TransferKind.CONSTANT_AVERAGE:
        return values.repeat(2, axis=-2).repeat(2, axis=-1)
    out = _prolong_linear_axis(values, -2)
    return _prolong_linear_axis(out, -1)


def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Normalized discrete Gaussian, truncated at radius ``ceil(3 sigma)``."""
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise ValueError(f"blur width must be positive and finite, got {sigma}")
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=np.float64)
    w = np.exp(-0.5 * (x / sigma) ** 2)
    return w / w.sum()


def gaussian_blur_values(values: np.ndarray, sigma: float) -> np.ndarray:
    """Periodic separable Gaussian blur of the trailing two axes.

    Implemented as shifted accumulation so any truncation radius, including
    radii beyond the grid size, wraps around exactly.
    """
    values = _samples(values)
    kernel = gaussian_kernel_1d(sigma)
    radius = kernel.size // 2
    out = values
    for axis in (-2, -1):
        acc = np.zeros_like(out)
        for tap, weight in enumerate(kernel):
            acc += weight * np.roll(out, tap - radius, axis=axis)
        out = acc
    return out

