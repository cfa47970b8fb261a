"""Moving trained models across resolutions and depths.

Resolution: :func:`adapt_model_resolution` rewrites every stencil bank
through the Galerkin coarsening map (or its inverse for refinement) and
moves the classifier fields with the matching image transfer.  Biases, time
step and class offsets are resolution independent and stay put.  The
midpoint-rule ``h^2`` factor inside the classifier keeps the transferred
weights on a comparable scale, so no further correction is applied.

Depth: :func:`prolong_depth` reads the layer parameters as samples of a
function of time at ``t_k = k * dt`` and resamples them on a grid ``factor``
times finer by piecewise-linear interpolation (constant beyond the last
node), keeping the final time fixed.  A network trained shallow therefore
initializes a deeper one; :func:`shallow_to_deep_train` chains that across a
depth sequence with cold-start controls, and :func:`multilevel_train` runs
the analogous coarse-to-fine sweep across a resolution pyramid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from enum import Enum
from math import nan
from typing import Callable

import numpy as np

from .data import LabeledDataset
from .grid import TransferPair, gaussian_blur_values, prolong_values, restrict_values
from .network import Classifier, NetworkParams, loss
from .stencils import (
    CoarsenMap,
    StencilBank,
    build_coarsen_map,
    coarsen_bank,
    refine_bank,
    _check_fits,
)
from .training import BcdConfig, HistoryRow, RegConfig, TrainResult, bcd_train, evaluate

__all__ = [
    "Direction",
    "DepthResult",
    "LevelResult",
    "LevelSchedule",
    "MultilevelResult",
    "ResolutionPyramid",
    "ShallowToDeepResult",
    "adapt_model_resolution",
    "multilevel_train",
    "prolong_depth",
    "shallow_to_deep_train",
]


class Direction(Enum):
    COARSEN = "coarsen"
    REFINE = "refine"


def adapt_model_resolution(
    params: NetworkParams,
    clf: Classifier,
    direction: Direction,
    cmap: CoarsenMap,
    pair: TransferPair,
) -> tuple[NetworkParams, Classifier]:
    """Re-express a trained model on the 2x coarser or finer grid.

    Coarsening an odd grid, or to a grid smaller than the stencil, raises
    :class:`~mgcnn.errors.DimensionError`.
    """
    if cmap.kind is not pair.kind:
        raise ValueError(f"coarsening map was built for {cmap.kind}, pair is {pair.kind}")
    if direction is Direction.COARSEN:
        move_bank = coarsen_bank
        new_grid = clf.grid.coarsened()
        _check_fits(new_grid.shape, params.kernel_size)
        w = restrict_values(clf.weights, pair.kind)
    else:
        move_bank = refine_bank
        new_grid = clf.grid.refined()
        w = prolong_values(clf.weights, pair.kind)
    out = replace(params, banks=[move_bank(b, cmap) for b in params.banks],
                  biases=params.biases.copy(), embed=move_bank(params.embed, cmap))
    return out, Classifier(new_grid, w, clf.mu.copy())


@dataclass
class ResolutionPyramid:
    """Per-level datasets, finest first; level i+1 is blur + restrict of level i."""

    pair: TransferPair
    datasets: list[LabeledDataset]

    @classmethod
    def build(
        cls,
        dataset: LabeledDataset,
        levels: int,
        pair: TransferPair,
        blur_sigma: float = 1.0,
    ) -> "ResolutionPyramid":
        """``levels`` coarsenings below the given finest-level dataset."""
        if levels < 0:
            raise ValueError(f"level count must be nonnegative, got {levels}")
        datasets = [dataset]
        for _ in range(levels):
            prev = datasets[-1]
            images = prev.images
            if blur_sigma > 0.0:
                images = gaussian_blur_values(images, blur_sigma)
            images = np.clip(restrict_values(images, pair.kind), 0.0, 1.0)
            datasets.append(
                LabeledDataset(prev.grid.coarsened(), images, prev.labels, prev.num_classes)
            )
        return cls(pair=pair, datasets=datasets)

    @property
    def levels(self) -> int:
        return len(self.datasets)


@dataclass
class LevelSchedule:
    """One BcdConfig per pyramid level, indexed like the pyramid (0 = finest)."""

    configs: list[BcdConfig]

    @classmethod
    def uniform(cls, cfg: BcdConfig, levels: int) -> "LevelSchedule":
        return cls([cfg] * levels)


def _train_stage(
    ds: LabeledDataset,
    params: NetworkParams,
    clf: Classifier,
    reg: RegConfig,
    cfg: BcdConfig,
    val: LabeledDataset | None,
    workers: int,
    first_step: float | None = None,
) -> tuple[TrainResult, float, float, float]:
    """One stage of a warm-started chain: the trained result, the initial
    loss of the model it was given on ``ds``, its accuracy on ``val`` (on
    ``ds`` without one) and the seconds :func:`bcd_train` took, which starts
    its first Armijo search at ``first_step`` when given.

    The initial loss is the result's (``TrainResult.initial_loss``), from
    the first gradient pass of :func:`bcd_train`, and the accuracy is the
    last history row's, which scored the result's model.  Only a stage of no
    iteration calls :func:`~mgcnn.network.loss` and :func:`evaluate` itself.
    """
    start = time.perf_counter()
    res = bcd_train(ds, params, clf, reg, cfg, val=val, workers=workers, first_step=first_step)
    wall = time.perf_counter() - start
    if not res.history:
        init_loss = loss(ds.images, ds.labels, params, clf, reg, workers=workers).total
        scored = val if val is not None else ds
        acc = evaluate(scored, res.params, res.classifier, workers=workers).accuracy
        return res, init_loss, acc, wall
    last = res.history[-1]
    return res, res.initial_loss, last.val_acc if val is not None else last.train_acc, wall


@dataclass
class LevelResult:
    level: int
    history: list[HistoryRow]
    init_loss_warm: float
    init_loss_cold: float
    final_acc: float
    wall_seconds: float


@dataclass
class MultilevelResult:
    levels: list[LevelResult]
    params: NetworkParams
    classifier: Classifier


def multilevel_train(
    pyramid: ResolutionPyramid,
    schedule: LevelSchedule,
    init: tuple[NetworkParams, Classifier],
    reg: RegConfig,
    val_pyramid: ResolutionPyramid | None = None,
    cold_init: Callable[[int], tuple[NetworkParams, Classifier]] | None = None,
    workers: int = 1,
) -> MultilevelResult:
    """Train coarsest to finest, refining the model between levels.

    ``init`` must live on the coarsest grid, and each level of
    ``val_pyramid`` on the grid of the same training level.
    ``cold_init(level)`` supplies a fresh model for the reference initial
    loss recorded per level; without it that column is NaN.  With zero
    coarse levels this reduces exactly to one :func:`bcd_train` call.

    The refined classifier sets each finer level's recorded warm initial
    loss and the first propagation step of its :func:`bcd_train` call.  That
    call's first Newton fit starts from the zero classifier, since the
    refined one can be saturated on the level's features.

    Each level's warm initial loss comes from its :func:`bcd_train` call's
    first gradient pass (``TrainResult.initial_loss``), which runs at the
    model the level starts from, so no level propagates its training images
    before training.  In full batch it is the bits of
    :func:`~mgcnn.network.loss`; a minibatch level's can differ from them in
    the last bits.  A level of zero iterations takes it from
    :func:`~mgcnn.network.loss`.  A cold initial loss is a
    :func:`~mgcnn.network.loss` pass, which for a classifier whose weights
    are all zero, as every cold model's is, propagates nothing.

    A level's ``final_acc`` is its last history row's accuracy, on the
    validation level (``val_acc``) or without one on the training level
    (``train_acc``), so no level propagates its validation images once
    more.  A level of zero iterations has no row and calls
    :func:`~mgcnn.training.evaluate` on the model it was given.
    """
    if len(schedule.configs) != pyramid.levels:
        raise ValueError(
            f"schedule covers {len(schedule.configs)} levels, pyramid has {pyramid.levels}"
        )
    if val_pyramid is not None:
        if val_pyramid.levels != pyramid.levels:
            raise ValueError("validation pyramid depth does not match")
        for level, (ds, val) in enumerate(zip(pyramid.datasets, val_pyramid.datasets)):
            if val.grid != ds.grid:
                raise ValueError(f"validation level {level} lives on {val.grid}, not on {ds.grid}")
    if init[1].grid != pyramid.datasets[-1].grid:
        raise ValueError(
            f"init lives on {init[1].grid}, not on the coarsest grid {pyramid.datasets[-1].grid}"
        )
    cmap = build_coarsen_map(init[0].kernel_size, pyramid.pair)
    params, clf = init[0].copy(), init[1].copy()
    results: list[LevelResult] = []

    for level in range(pyramid.levels - 1, -1, -1):
        ds = pyramid.datasets[level]
        cfg = schedule.configs[level]
        val = val_pyramid.datasets[level] if val_pyramid is not None else None

        init_cold = nan
        if cold_init is not None:
            init_cold = loss(ds.images, ds.labels, *cold_init(level), reg, workers=workers).total

        res, init_warm, final_acc, wall = _train_stage(ds, params, clf, reg, cfg, val, workers)
        params, clf = res.params, res.classifier
        results.append(LevelResult(level, res.history, init_warm, init_cold, final_acc, wall))
        if level > 0:
            params, clf = adapt_model_resolution(
                params, clf, Direction.REFINE, cmap, pyramid.pair
            )
    return MultilevelResult(levels=results, params=params, classifier=clf)


def prolong_depth(params: NetworkParams, factor: int) -> NetworkParams:
    """Resample layer parameters on a ``factor`` times finer time grid.

    New nodes at ``j * dt / factor`` interpolate linearly between the old
    nodes ``k * dt`` and hold the last value beyond ``(N-1) * dt``; the
    final time is unchanged.
    """
    if factor < 1:
        raise ValueError(f"depth factor must be at least 1, got {factor}")
    n = params.num_layers
    out = params.copy()
    if factor == 1 or n == 0:
        out.dt = params.dt / factor
        return out

    tau = np.arange(factor * n) / factor
    i0 = tau.astype(np.intp)
    beyond = i0 >= n - 1
    i1 = np.minimum(i0 + 1, n - 1)

    def resample(v: np.ndarray) -> np.ndarray:
        """Values ``v[k]`` at the old nodes, shape ``(n, ...)``, at every new node."""
        frac = (tau - i0).reshape((-1,) + (1,) * (v.ndim - 1))
        return np.where(beyond.reshape(frac.shape), v[n - 1], (1.0 - frac) * v[i0] + frac * v[i1])

    out.banks = [StencilBank(w) for w in resample(np.stack([b.weights for b in params.banks]))]
    out.biases = resample(params.biases)
    out.dt = params.dt / factor
    return out


@dataclass
class DepthResult:
    depth: int
    history: list[HistoryRow]
    init_loss_warm: float  # NaN at the first depth: nothing to warm-start from
    init_loss_cold: float
    cold_history: list[HistoryRow] | None
    final_acc: float
    wall_seconds: float


@dataclass
class ShallowToDeepResult:
    depths: list[DepthResult]
    params: NetworkParams
    classifier: Classifier


def shallow_to_deep_train(
    train: LabeledDataset,
    depths: list[int],
    cfg: BcdConfig,
    reg: RegConfig,
    make_model: Callable[[int, int], tuple[NetworkParams, Classifier]],
    val: LabeledDataset | None = None,
    workers: int = 1,
) -> ShallowToDeepResult:
    """Train a chain of networks of increasing depth with warm starts.

    ``depths`` must be increasing with each entry a multiple of the last, so
    every depth that another follows is at least 1.
    ``make_model(depth, seed)`` draws a cold model at a given depth; the
    chain's first depth starts cold, every later depth starts from the
    previous solution prolonged in time.  Later depths also train a cold
    control for comparison; its history is recorded but does not feed the
    chain.

    The carried classifier sets each later depth's recorded warm initial
    loss and the first propagation step of its :func:`bcd_train` call.  That
    call's first Newton fit starts from the zero classifier.

    The Armijo search carries on along the chain too: a later depth's first
    search starts at the previous depth's ``TrainResult.next_step``, one
    expansion above the step accepted there, rather than at ``step_size``.
    Halving ``dt`` about halves each layer's gradient, so the deeper
    network's natural step is about twice the one accepted last, where the
    carried start lies for ``beta = 1/2``.  Every start is a point
    ``step_size * beta^k`` of the plain search, which therefore accepts the
    same step whenever it rejects every trial above the carried start.  The
    first depth, the cold controls and ``FixedStep`` start at
    ``step_size``; so does every level of :func:`multilevel_train`, where
    a carried step changed outputs and saved no trial.

    A later depth's warm initial loss comes from its :func:`bcd_train`
    call's first gradient pass, as in :func:`multilevel_train`, and from
    :func:`~mgcnn.network.loss` when ``cfg.outer_iters = 0``.  A cold
    initial loss is a :func:`~mgcnn.network.loss` pass, which takes no
    forward pass for a classifier whose weights are all zero, as a cold
    model's from ``make_model`` usually is.

    A depth's ``final_acc`` is its last history row's accuracy: ``val_acc``,
    or ``train_acc`` without ``val``.  With ``cfg.outer_iters = 0`` it is
    :func:`~mgcnn.training.evaluate`'s accuracy of the untrained model.
    """
    if not depths:
        raise ValueError("need at least one depth")
    for a, b in zip(depths, depths[1:]):
        if a < 1 or b <= a or b % a:
            raise ValueError(f"depths must increase by integer factors, got {a} -> {b}")

    results: list[DepthResult] = []
    params: NetworkParams | None = None
    clf: Classifier | None = None
    first_step: float | None = None  # where the previous depth's search left off
    for pos, depth in enumerate(depths):
        cold_p, cold_c = make_model(depth, cfg.seed + pos)
        init_cold = loss(train.images, train.labels, cold_p, cold_c, reg, workers=workers).total
        cold_history: list[HistoryRow] | None = None
        if pos == 0:
            params, clf = cold_p, cold_c
        else:
            params = prolong_depth(params, depth // depths[pos - 1])
            cold_history = bcd_train(train, cold_p, cold_c, reg, cfg, val=val, workers=workers).history

        res, init_loss, final_acc, wall = _train_stage(train, params, clf, reg, cfg, val, workers,
                                                       first_step)
        init_warm = init_loss if pos > 0 else nan
        params, clf, first_step = res.params, res.classifier, res.next_step
        results.append(
            DepthResult(depth, res.history, init_warm, init_cold, cold_history, final_acc, wall)
        )
    return ShallowToDeepResult(depths=results, params=params, classifier=clf)
