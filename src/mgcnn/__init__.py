"""Multiscale training toolkit for convolutional residual networks.

The package treats a convolutional ResNet as a forward-Euler discretization
of an ODE in artificial time and exposes the two discretization axes as
first-class operations:

* image resolution: convolution stencils are moved between grids with a
  Galerkin coarsening map built from restriction/prolongation pairs, so a
  network trained at one resolution can classify data at another;
* network depth: layer parameters are treated as samples of a function of
  time and prolonged to finer time grids, so shallow solutions warm-start
  deeper ones.

Training uses block coordinate descent: a first-order step on the
propagation parameters alternated with damped Newton steps on the convex
classifier subproblem.
"""

__version__ = "0.1.0"

from .errors import (
    BadMagicError,
    ConfigError,
    CountMismatchError,
    DimensionError,
    DivergenceError,
    IllPosedError,
    MgcnnError,
    TruncatedFileError,
    VersionMismatchError,
)
from .grid import Grid2D, TransferKind, TransferPair

__all__ = [
    "BadMagicError",
    "ConfigError",
    "CountMismatchError",
    "DimensionError",
    "DivergenceError",
    "Grid2D",
    "IllPosedError",
    "MgcnnError",
    "TransferKind",
    "TransferPair",
    "TruncatedFileError",
    "VersionMismatchError",
    "__version__",
]
