"""Command line front end.

One experiment reads one key-value config file and writes into one output
directory.  Subcommands:

    train       fit a model, write model.bin and history.csv
    adapt       move a saved model to the 2x coarser or finer grid
    multilevel  coarse-to-fine training across a resolution pyramid
    deepen      shallow-to-deep training across a depth sequence
    inspect     print per-layer spectral diagnostics of a saved model

Config files contain ``key = value`` lines, ``#`` comments, and nothing
else; every key has a default (see ``--help``), unknown keys are an error.
Given the same config and seed, every command is deterministic; at a fixed
BLAS thread count, every ``--workers`` value writes byte-identical outputs
(summary wall-clock columns aside).

Exit codes: 0 success, 2 configuration error, 3 data or I/O error,
4 numerical failure (divergence, ill-posed maps), 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (
    LabeledDataset,
    ModelFile,
    SyntheticKind,
    load_idx,
    load_model,
    make_synthetic,
    save_model,
    split,
)
from .errors import ConfigError, DataFormatError, DivergenceError, IllPosedError, MgcnnError
from .grid import Grid2D, TransferPair
from .multiscale import (
    Direction,
    LevelSchedule,
    ResolutionPyramid,
    adapt_model_resolution,
    multilevel_train,
    shallow_to_deep_train,
)
from .network import Activation, NetworkInit, RegConfig, zero_classifier
from .stencils import build_coarsen_map, stability_report
from .training import (
    ArmijoBacktracking,
    BcdConfig,
    FixedStep,
    bcd_train,
    history_to_csv,
)

__all__ = ["RunConfig", "main", "parse_config"]


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _key(default, help: str):
    """A config key's field: its default and its ``--help`` text."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one run; field defaults are the documented ones.

    Out-of-range values raise ``ConfigError`` on construction.
    """

    dataset: str = _key("bars", "data source: bars, blobs, or idx")
    idx_images: str = _key("", "path to IDX image file (dataset = idx)")
    idx_labels: str = _key("", "path to IDX label file (dataset = idx)")
    limit: int = _key(0, "keep only the first N loaded examples, 0 = all")
    num_examples: int = _key(400, "synthetic dataset size")
    grid_nx: int = _key(12, "synthetic grid cells in x")
    grid_ny: int = _key(12, "synthetic grid cells in y")
    grid_h: float = _key(1.0, "pixel size")
    noise: float = _key(0.05, "synthetic additive noise level")
    train_fraction: float = _key(0.8, "train share of the seeded split")
    layers: int = _key(2, "network depth N")
    final_time: float = _key(1.0, "total integration time T (dt = T / N)")
    channels: int = _key(2, "feature channels")
    kernel: int = _key(3, "stencil window size (odd)")
    activation: str = _key("tanh", "tanh or identity")
    act_gain: float = _key(1.0, "scalar gain inside the activation")
    init_scale: float = _key(0.3, "std of the random initial stencils")
    embed_learnable: bool = _key(False, "train the embedding bank too")
    lambda_w: float = _key(1e-3, "spatial smoothness weight (classifier fields)")
    lambda_theta: float = _key(1e-3, "temporal smoothness weight (layer parameters)")
    outer_iters: int = _key(20, "BCD outer iterations")
    newton_steps: int = _key(5, "Newton steps on the classifier per iteration")
    step_rule: str = _key("armijo", "propagation step rule: armijo or fixed")
    step_size: float = _key(1.0, "step size (fixed), or the first iteration's trial step "
                                 "and the cap on later ones (armijo; a deeper depth of deepen "
                                 "starts where the previous depth's search left off)")
    armijo_beta: float = _key(0.5, "backtracking shrink factor; a rejected trial skips the "
                                   "grid points a quadratic model rules out, up to a 10x "
                                   "shrink")
    armijo_c: float = _key(1e-4, "Armijo sufficient-decrease constant")
    batch_size: int = _key(0, "propagation-step batch size, 0 = full batch")
    levels: int = _key(1, "resolution coarsenings below the finest grid")
    blur_sigma: float = _key(1.0, "Gaussian blur width before each restriction")
    transfer: str = _key("constant", "transfer pair: constant or bilinear")
    level_iters: tuple[int, ...] = _key((), "comma list of per-level outer_iters, finest first")
    depths: tuple[int, ...] = _key((2, 4), "comma list of depths for deepen")
    seed: int = _key(0, "master seed")

    def __post_init__(self) -> None:
        def check(ok: bool, name: str, rule: str) -> None:
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")

        for name in ("limit", "outer_iters", "newton_steps", "batch_size", "levels", "seed"):
            check(getattr(self, name) >= 0, name, ">= 0")
        for name in ("grid_nx", "grid_ny", "layers", "channels"):
            check(getattr(self, name) >= 1, name, ">= 1")
        check(self.num_examples >= 2, "num_examples", ">= 2")
        check(self.kernel >= 1 and self.kernel % 2 == 1, "kernel", "odd and >= 1")
        for name in ("grid_h", "final_time", "step_size"):
            value = getattr(self, name)
            check(math.isfinite(value) and value > 0.0, name, "finite and > 0")
        for name in ("noise", "init_scale", "lambda_w", "lambda_theta", "blur_sigma"):
            value = getattr(self, name)
            check(math.isfinite(value) and value >= 0.0, name, "finite and >= 0")
        check(math.isfinite(self.act_gain), "act_gain", "finite")
        for name in ("train_fraction", "armijo_beta", "armijo_c"):
            check(0.0 < getattr(self, name) < 1.0, name, "strictly between 0 and 1")
        check(self.activation.strip().lower() in {a.value for a in Activation},
              "activation", "tanh or identity")
        check(self.dataset in ("bars", "blobs", "idx"), "dataset", "bars, blobs or idx")
        check(self.transfer in ("constant", "bilinear"), "transfer", "constant or bilinear")
        check(self.step_rule in ("armijo", "fixed"), "step_rule", "armijo or fixed")
        check(all(n >= 0 for n in self.level_iters), "level_iters", "a list of counts >= 0")
        check(all(d >= 1 for d in self.depths)
              and all(b > a and b % a == 0 for a, b in zip(self.depths, self.depths[1:])),
              "depths", "positive and increasing by integer factors")


# dataclass field annotations are strings under deferred annotation evaluation
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
}

def parse_config(path: str | None, overrides: dict | None = None) -> RunConfig:
    """Read a config file on top of the defaults; unknown keys and values
    that ``RunConfig`` rejects raise ``ConfigError``."""
    values: dict = {}
    fields = RunConfig.__dataclass_fields__
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in fields:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _PARSERS[fields[key].type](value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    if overrides:
        values.update(overrides)
    try:
        return RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _transfer_pair(cfg: RunConfig) -> TransferPair:
    if cfg.transfer == "constant":
        return TransferPair.constant_average()
    return TransferPair.bilinear_full_weighting()


def _bcd_config(cfg: RunConfig) -> BcdConfig:
    if cfg.step_rule == "fixed":
        rule = FixedStep(cfg.step_size)
    else:
        rule = ArmijoBacktracking(cfg.step_size, cfg.armijo_beta, cfg.armijo_c)
    return BcdConfig(
        outer_iters=cfg.outer_iters,
        newton_steps=cfg.newton_steps,
        prop_step_rule=rule,
        batch_size=cfg.batch_size or None,
        seed=cfg.seed,
    )


def _network_init(cfg: RunConfig) -> NetworkInit:
    return NetworkInit(
        channels=cfg.channels,
        kernel_size=cfg.kernel,
        final_time=cfg.final_time,
        init_scale=cfg.init_scale,
        activation=Activation(cfg.activation.strip().lower()),
        act_gain=cfg.act_gain,
        embed_learnable=cfg.embed_learnable,
    )


def _load_dataset(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if cfg.dataset == "idx":
        if not cfg.idx_images or not cfg.idx_labels:
            raise ConfigError("dataset = idx requires idx_images and idx_labels paths")
        full = load_idx(cfg.idx_images, cfg.idx_labels, h=cfg.grid_h)
        if full.num_classes < 2:
            raise DataFormatError(
                f"idx_labels {cfg.idx_labels} holds {full.num_classes} class(es), need at least 2"
            )
    else:
        grid = Grid2D(cfg.grid_nx, cfg.grid_ny, cfg.grid_h)
        full = make_synthetic(
            SyntheticKind(cfg.dataset), cfg.num_examples, grid, seed=cfg.seed, noise=cfg.noise
        )
    if cfg.limit:
        full = full.subset(np.arange(min(cfg.limit, len(full))))
    try:
        return split(full, cfg.train_fraction, seed=cfg.seed)
    except ValueError as exc:
        raise ConfigError(f"train_fraction = {cfg.train_fraction}: {exc}") from exc


def _check_grid(cfg: RunConfig, grid: Grid2D, levels: int) -> None:
    """Refuse a grid that cannot be halved ``levels`` times while staying at
    least ``kernel`` cells wide, or whose pixel area ``h^2`` over- or
    underflows on the finest or the coarsest grid."""
    nx, ny = grid.nx, grid.ny
    for _ in range(levels):
        if nx % 2 or ny % 2:
            raise ConfigError(
                f"levels = {levels} cannot halve the {grid.nx}x{grid.ny} grid: "
                f"it reaches an odd {nx}x{ny} grid"
            )
        nx, ny = nx // 2, ny // 2
    if min(nx, ny) < cfg.kernel:
        cause = f"levels = {levels} leaves a" if levels else "the data has a"
        raise ConfigError(f"{cause} {nx}x{ny} grid, narrower than kernel = {cfg.kernel}")
    for h in (grid.h, grid.h * 2**levels):
        if not (math.isfinite(h * h) and h * h > 0.0):
            raise ConfigError(f"grid_h = {cfg.grid_h} gives a pixel area h^2 = {h * h} "
                              f"at h = {h}; it must be finite and > 0")


def _save(out: Path, params, clf, provenance: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    save_model(str(out / "model.bin"), ModelFile(params=params, classifier=clf, provenance=provenance))


def _write_stages(out: Path, cfg: RunConfig, label: str, result, stages) -> None:
    """Per ``(index, stage, cold history or None)`` triple write
    ``history_{label}{index}.csv`` and its ``_cold`` twin; then ``summary.csv``
    and ``model.bin``, whose provenance schedule lists each stage's iterations."""
    out.mkdir(parents=True, exist_ok=True)
    rows = [(label, "init_loss_warm", "init_loss_cold", "final_acc", "iterations", "wall_seconds")]
    schedule = []
    for index, stage, cold_history in stages:
        history_to_csv(stage.history, str(out / f"history_{label}{index}.csv"))
        if cold_history is not None:
            history_to_csv(cold_history, str(out / f"history_{label}{index}_cold.csv"))
        iterations = len(stage.history)
        rows.append((index, stage.init_loss_warm, stage.init_loss_cold, stage.final_acc,
                     iterations, stage.wall_seconds))
        schedule.append({label: index, "iterations": iterations})
    with open(out / "summary.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    _save(out, result.params, result.classifier, _provenance(cfg, schedule))


def cmd_train(cfg: RunConfig, out: Path, workers: int) -> int:
    train, val = _load_dataset(cfg)
    _check_grid(cfg, train.grid, 0)
    init = _network_init(cfg)
    params = init.network_params(cfg.layers, cfg.seed)
    clf = zero_classifier(train.grid, cfg.channels, train.num_classes)
    result = bcd_train(train, params, clf, _reg(cfg), _bcd_config(cfg), val=val, workers=workers)
    schedule = [{"level": 0, "iterations": cfg.outer_iters}]
    _save(out, result.params, result.classifier, _provenance(cfg, schedule))
    history_to_csv(result.history, str(out / "history.csv"))
    return 0


def _reg(cfg: RunConfig) -> RegConfig:
    return RegConfig(lambda_w=cfg.lambda_w, lambda_theta=cfg.lambda_theta)


def _provenance(cfg: RunConfig, schedule: list) -> dict:
    return {"config_sha256": config_hash(cfg), "seed": cfg.seed, "schedule": schedule}


def cmd_adapt(model_path: str, direction: Direction, cfg: RunConfig, out: Path) -> int:
    model = load_model(model_path)
    pair = _transfer_pair(cfg)
    cmap = build_coarsen_map(model.params.kernel_size, pair)
    params, clf = adapt_model_resolution(model.params, model.classifier, direction, cmap, pair)
    provenance = dict(model.provenance)
    provenance["adapted"] = {"direction": direction.value, "transfer": cfg.transfer}
    _save(out, params, clf, provenance)
    return 0


def cmd_multilevel(cfg: RunConfig, out: Path, workers: int) -> int:
    train, val = _load_dataset(cfg)
    _check_grid(cfg, train.grid, cfg.levels)
    pair = _transfer_pair(cfg)
    pyr = ResolutionPyramid.build(train, cfg.levels, pair, cfg.blur_sigma)
    val_pyr = ResolutionPyramid.build(val, cfg.levels, pair, cfg.blur_sigma)
    iters = cfg.level_iters or (cfg.outer_iters,) * pyr.levels
    if len(iters) != pyr.levels:
        raise ConfigError(f"level_iters has {len(iters)} entries, pyramid has {pyr.levels} levels")
    base = _bcd_config(cfg)
    schedule = LevelSchedule([replace(base, outer_iters=n) for n in iters])

    init = _network_init(cfg)

    def cold(level: int):
        return (
            init.network_params(cfg.layers, cfg.seed),
            zero_classifier(pyr.datasets[level].grid, cfg.channels, train.num_classes),
        )

    result = multilevel_train(
        pyr, schedule, cold(pyr.levels - 1), _reg(cfg), val_pyramid=val_pyr, cold_init=cold,
        workers=workers,
    )
    _write_stages(out, cfg, "level", result, [(lev.level, lev, None) for lev in result.levels])
    return 0


def cmd_deepen(cfg: RunConfig, out: Path, workers: int) -> int:
    train, val = _load_dataset(cfg)
    if not cfg.depths:
        raise ConfigError("deepen needs a nonempty depths list")
    _check_grid(cfg, train.grid, 0)
    init = _network_init(cfg)

    def make_model(depth: int, seed: int):
        return (
            init.network_params(depth, seed),
            zero_classifier(train.grid, cfg.channels, train.num_classes),
        )

    result = shallow_to_deep_train(
        train, list(cfg.depths), _bcd_config(cfg), _reg(cfg), make_model, val=val, workers=workers
    )
    stages = [(dep.depth, dep, dep.cold_history) for dep in result.depths]
    _write_stages(out, cfg, "depth", result, stages)
    return 0


def cmd_inspect(model_path: str) -> int:
    model = load_model(model_path)
    params, grid = model.params, model.classifier.grid
    print(f"model: {model_path}")
    print(
        f"layers={params.num_layers} dt={params.dt:g} T={params.final_time:g} "
        f"channels={params.channels} kernel={params.kernel_size} grid={grid.nx}x{grid.ny}"
    )
    print(f"{'layer':>5}  {'max_real':>12}  {'step_growth':>12}  {'bank_norm':>12}")
    for i, bank in enumerate(params.banks):
        rep = stability_report(bank.weights, grid, params.dt)
        norm = float(np.sqrt((bank.weights**2).sum()))
        print(f"{i:>5}  {rep.max_real:>12.6g}  {rep.spectral_radius_step:>12.6g}  {norm:>12.6g}")
    return 0


def _config_epilog() -> str:
    lines = ["config keys (key = value per line, # comments):"]
    for name, f in RunConfig.__dataclass_fields__.items():
        default = f.default
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"  {name:<16} default {default!r:<12} {f.metadata['help']}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgcnn",
        description=__doc__.splitlines()[0] if __doc__ else "",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="batch-level worker threads")
        p.add_argument("--sequential", action="store_true", help="one worker thread (same as --workers 1)")
        p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("train", help="fit a model"))
    p_adapt = sub.add_parser("adapt", help="move a model across one resolution step")
    common(p_adapt)
    p_adapt.add_argument("--model", required=True, help="saved model to adapt")
    p_adapt.add_argument(
        "--direction", required=True, choices=[d.value for d in Direction]
    )
    common(sub.add_parser("multilevel", help="coarse-to-fine training"))
    common(sub.add_parser("deepen", help="shallow-to-deep training"))
    p_inspect = sub.add_parser("inspect", help="print model diagnostics")
    p_inspect.add_argument("--model", required=True, help="saved model to inspect")
    return parser


def _failing_module(exc: BaseException) -> str:
    module = "mgcnn"
    for frame in traceback.extract_tb(exc.__traceback__):
        path = Path(frame.filename)
        if path.suffix == ".py" and "mgcnn" in path.parts:
            module = f"mgcnn.{path.stem}"
    return module


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "inspect":
            return cmd_inspect(args.model)
        overrides = {} if args.seed is None else {"seed": args.seed}
        cfg = parse_config(args.config, overrides)
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        workers = 1 if args.sequential else args.workers
        out = Path(args.out)
        if args.command == "train":
            return cmd_train(cfg, out, workers)
        if args.command == "adapt":
            return cmd_adapt(args.model, Direction(args.direction), cfg, out)
        if args.command == "multilevel":
            return cmd_multilevel(cfg, out, workers)
        return cmd_deepen(cfg, out, workers)
    except ConfigError as exc:
        print(f"{_failing_module(exc)}: configuration error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        print(f"{_failing_module(exc)}: data error: {exc}", file=sys.stderr)
        return 3
    except (DivergenceError, IllPosedError, FloatingPointError) as exc:
        print(f"{_failing_module(exc)}: numerical failure: {exc}", file=sys.stderr)
        return 4
    except MgcnnError as exc:
        print(f"{_failing_module(exc)}: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary, map to exit code
        print(f"{_failing_module(exc)}: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
