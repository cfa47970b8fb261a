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
Given the same config and seed, every command is deterministic; in
sequential mode, byte-identical outputs (summary wall-clock columns aside).

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
from dataclasses import asdict, dataclass, replace
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
from .network import Activation, NetworkInit, zero_classifier
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


@dataclass(frozen=True)
class RunConfig:
    """Effective settings of one run; field defaults are the documented ones.

    Out-of-range values raise ``ConfigError`` on construction.
    """

    dataset: str = "bars"  # bars | blobs | idx
    idx_images: str = ""
    idx_labels: str = ""
    limit: int = 0  # cap on loaded examples, 0 = all
    num_examples: int = 400
    grid_nx: int = 12
    grid_ny: int = 12
    grid_h: float = 1.0
    noise: float = 0.05
    train_fraction: float = 0.8
    layers: int = 2
    final_time: float = 1.0
    channels: int = 2
    kernel: int = 3
    activation: str = "tanh"  # tanh | identity
    act_gain: float = 1.0
    init_scale: float = 0.3
    embed_learnable: bool = False
    lambda_w: float = 1e-3
    lambda_theta: float = 1e-3
    outer_iters: int = 20
    newton_steps: int = 5
    step_rule: str = "armijo"  # armijo | fixed
    step_size: float = 1.0
    armijo_beta: float = 0.5
    armijo_c: float = 1e-4
    batch_size: int = 0  # 0 = full batch
    levels: int = 1  # coarsenings below the finest grid (multilevel)
    blur_sigma: float = 1.0
    transfer: str = "constant"  # constant | bilinear
    level_iters: tuple[int, ...] = ()  # per-level outer_iters, finest first
    depths: tuple[int, ...] = (2, 4)  # depth sequence (deepen)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("outer_iters", "newton_steps", "batch_size"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("layers", "channels"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ConfigError(f"step_size must be finite and > 0, got {self.step_size}")


# dataclass field annotations are strings under deferred annotation evaluation
_PARSERS = {
    "int": int,
    "float": float,
    "str": str,
    "bool": _parse_bool,
    "tuple[int, ...]": _parse_int_list,
}

_HELP = {
    "dataset": "data source: bars, blobs, or idx",
    "idx_images": "path to IDX image file (dataset = idx)",
    "idx_labels": "path to IDX label file (dataset = idx)",
    "limit": "keep only the first N loaded examples, 0 = all",
    "num_examples": "synthetic dataset size",
    "grid_nx": "synthetic grid cells in x",
    "grid_ny": "synthetic grid cells in y",
    "grid_h": "pixel size",
    "noise": "synthetic additive noise level",
    "train_fraction": "train share of the seeded split",
    "layers": "network depth N",
    "final_time": "total integration time T (dt = T / N)",
    "channels": "feature channels",
    "kernel": "stencil window size (odd)",
    "activation": "tanh or identity",
    "act_gain": "scalar gain inside the activation",
    "init_scale": "std of the random initial stencils",
    "embed_learnable": "train the embedding bank too",
    "lambda_w": "spatial smoothness weight (classifier fields)",
    "lambda_theta": "temporal smoothness weight (layer parameters)",
    "outer_iters": "BCD outer iterations",
    "newton_steps": "Newton steps on the classifier per iteration",
    "step_rule": "propagation step rule: armijo or fixed",
    "step_size": "step size (fixed) or initial step (armijo)",
    "armijo_beta": "backtracking shrink factor",
    "armijo_c": "Armijo sufficient-decrease constant",
    "batch_size": "propagation-step batch size, 0 = full batch",
    "levels": "resolution coarsenings below the finest grid",
    "blur_sigma": "Gaussian blur width before each restriction",
    "transfer": "transfer pair: constant or bilinear",
    "level_iters": "comma list of per-level outer_iters, finest first",
    "depths": "comma list of depths for deepen",
    "seed": "master seed",
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
    if cfg.transfer == "bilinear":
        return TransferPair.bilinear_full_weighting()
    raise ConfigError(f"unknown transfer pair {cfg.transfer!r}")


def _step_rule(cfg: RunConfig):
    if cfg.step_rule == "fixed":
        return FixedStep(cfg.step_size)
    if cfg.step_rule == "armijo":
        return ArmijoBacktracking(cfg.step_size, cfg.armijo_beta, cfg.armijo_c)
    raise ConfigError(f"unknown step rule {cfg.step_rule!r}")


def _bcd_config(cfg: RunConfig) -> BcdConfig:
    return BcdConfig(
        outer_iters=cfg.outer_iters,
        newton_steps=cfg.newton_steps,
        prop_step_rule=_step_rule(cfg),
        batch_size=cfg.batch_size or None,
        seed=cfg.seed,
    )


def _network_init(cfg: RunConfig) -> NetworkInit:
    return NetworkInit(
        channels=cfg.channels,
        kernel_size=cfg.kernel,
        final_time=cfg.final_time,
        init_scale=cfg.init_scale,
        activation=Activation.from_name(cfg.activation),
        act_gain=cfg.act_gain,
        embed_learnable=cfg.embed_learnable,
    )


def _load_dataset(cfg: RunConfig) -> tuple[LabeledDataset, LabeledDataset]:
    if cfg.dataset in ("bars", "blobs"):
        grid = Grid2D(cfg.grid_nx, cfg.grid_ny, cfg.grid_h)
        full = make_synthetic(
            SyntheticKind(cfg.dataset), cfg.num_examples, grid, seed=cfg.seed, noise=cfg.noise
        )
    elif cfg.dataset == "idx":
        if not cfg.idx_images or not cfg.idx_labels:
            raise ConfigError("dataset = idx requires idx_images and idx_labels paths")
        full = load_idx(cfg.idx_images, cfg.idx_labels, h=cfg.grid_h)
    else:
        raise ConfigError(f"unknown dataset kind {cfg.dataset!r}")
    if cfg.limit:
        full = full.subset(np.arange(min(cfg.limit, len(full))))
    return split(full, cfg.train_fraction, seed=cfg.seed)


def _write_summary(path: Path, label: str, rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            (label, "init_loss_warm", "init_loss_cold", "final_acc", "iterations", "wall_seconds")
        )
        writer.writerows(rows)


def cmd_train(cfg: RunConfig, out: Path, workers: int) -> int:
    train, val = _load_dataset(cfg)
    init = _network_init(cfg)
    params = init.network_params(cfg.layers, cfg.seed)
    clf = zero_classifier(train.grid, cfg.channels, train.num_classes)
    reg = _reg(cfg)
    result = bcd_train(train, params, clf, reg, _bcd_config(cfg), val=val, workers=workers)
    out.mkdir(parents=True, exist_ok=True)
    history_to_csv(result.history, str(out / "history.csv"))
    save_model(
        str(out / "model.bin"),
        ModelFile(
            params=result.params,
            classifier=result.classifier,
            provenance=_provenance(cfg, [{"level": 0, "iterations": cfg.outer_iters}]),
        ),
    )
    return 0


def _reg(cfg: RunConfig):
    from .training import RegConfig

    return RegConfig(lambda_w=cfg.lambda_w, lambda_theta=cfg.lambda_theta)


def _provenance(cfg: RunConfig, schedule: list) -> dict:
    return {"config_sha256": config_hash(cfg), "seed": cfg.seed, "schedule": schedule}


def cmd_adapt(model_path: str, direction: Direction, cfg: RunConfig, out: Path, workers: int) -> int:
    model = load_model(model_path)
    pair = _transfer_pair(cfg)
    cmap = build_coarsen_map(model.params.kernel_size, pair)
    params, clf = adapt_model_resolution(model.params, model.classifier, direction, cmap, pair)
    out.mkdir(parents=True, exist_ok=True)
    provenance = dict(model.provenance)
    provenance["adapted"] = {"direction": direction.value, "transfer": cfg.transfer}
    save_model(str(out / "model.bin"), ModelFile(params=params, classifier=clf, provenance=provenance))
    return 0


def cmd_multilevel(cfg: RunConfig, out: Path, workers: int) -> int:
    train, val = _load_dataset(cfg)
    pair = _transfer_pair(cfg)
    pyr = ResolutionPyramid.build(train, cfg.levels, pair, cfg.blur_sigma)
    val_pyr = ResolutionPyramid.build(val, cfg.levels, pair, cfg.blur_sigma)
    base = _bcd_config(cfg)
    if cfg.level_iters:
        if len(cfg.level_iters) != pyr.levels:
            raise ConfigError(
                f"level_iters has {len(cfg.level_iters)} entries, pyramid has {pyr.levels} levels"
            )
        schedule = LevelSchedule([replace(base, outer_iters=n) for n in cfg.level_iters])
    else:
        schedule = LevelSchedule.uniform(base, pyr.levels)

    init = _network_init(cfg)
    coarse_grid = pyr.datasets[-1].grid
    start = (
        init.network_params(cfg.layers, cfg.seed),
        zero_classifier(coarse_grid, cfg.channels, train.num_classes),
    )

    def cold(level: int):
        return (
            init.network_params(cfg.layers, cfg.seed),
            zero_classifier(pyr.datasets[level].grid, cfg.channels, train.num_classes),
        )

    result = multilevel_train(
        pyr, schedule, start, _reg(cfg), val_pyramid=val_pyr, cold_init=cold, workers=workers
    )
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    schedule_record = []
    for lev in result.levels:
        history_to_csv(lev.history, str(out / f"history_level{lev.level}.csv"))
        rows.append(
            (lev.level, lev.init_loss_warm, lev.init_loss_cold, lev.final_acc,
             len(lev.history), lev.wall_seconds)
        )
        schedule_record.append({"level": lev.level, "iterations": len(lev.history)})
    _write_summary(out / "summary.csv", "level", rows)
    save_model(
        str(out / "model.bin"),
        ModelFile(
            params=result.params,
            classifier=result.classifier,
            provenance=_provenance(cfg, schedule_record),
        ),
    )
    return 0


def cmd_deepen(cfg: RunConfig, out: Path, workers: int) -> int:
    train, val = _load_dataset(cfg)
    if not cfg.depths:
        raise ConfigError("deepen needs a nonempty depths list")
    init = _network_init(cfg)

    def make_model(depth: int, seed: int):
        return (
            init.network_params(depth, seed),
            zero_classifier(train.grid, cfg.channels, train.num_classes),
        )

    result = shallow_to_deep_train(
        train, list(cfg.depths), _bcd_config(cfg), _reg(cfg), make_model, val=val, workers=workers
    )
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    schedule_record = []
    for dep in result.depths:
        history_to_csv(dep.history, str(out / f"history_depth{dep.depth}.csv"))
        if dep.cold_history is not None:
            history_to_csv(dep.cold_history, str(out / f"history_depth{dep.depth}_cold.csv"))
        rows.append(
            (dep.depth, dep.init_loss_warm, dep.init_loss_cold, dep.final_acc,
             len(dep.history), dep.wall_seconds)
        )
        schedule_record.append({"depth": dep.depth, "iterations": len(dep.history)})
    _write_summary(out / "summary.csv", "depth", rows)
    save_model(
        str(out / "model.bin"),
        ModelFile(
            params=result.params,
            classifier=result.classifier,
            provenance=_provenance(cfg, schedule_record),
        ),
    )
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
        max_real = -np.inf
        growth = 0.0
        for co in range(bank.c_out):
            for ci in range(bank.c_in):
                rep = stability_report(bank.stencil(co, ci), grid, params.dt)
                max_real = max(max_real, rep.max_real)
                growth = max(growth, rep.spectral_radius_step)
        norm = float(np.sqrt((bank.weights**2).sum()))
        print(f"{i:>5}  {max_real:>12.6g}  {growth:>12.6g}  {norm:>12.6g}")
    return 0


def _config_epilog() -> str:
    lines = ["config keys (key = value per line, # comments):"]
    for name, f in RunConfig.__dataclass_fields__.items():
        default = getattr(RunConfig(), name)
        if isinstance(default, tuple):
            default = ",".join(str(v) for v in default)
        lines.append(f"  {name:<16} default {default!r:<12} {_HELP[name]}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgcnn",
        description=__doc__.splitlines()[0] if __doc__ else "",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--workers", type=int, default=1, help="batch-level worker threads")
        p.add_argument("--sequential", action="store_true", help="force single-threaded execution")
        if needs_out:
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
        workers = 1 if args.sequential else max(1, args.workers)
        out = Path(args.out)
        if args.command == "train":
            return cmd_train(cfg, out, workers)
        if args.command == "adapt":
            return cmd_adapt(args.model, Direction(args.direction), cfg, out, workers)
        if args.command == "multilevel":
            return cmd_multilevel(cfg, out, workers)
        if args.command == "deepen":
            return cmd_deepen(cfg, out, workers)
        raise ConfigError(f"unknown command {args.command!r}")
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
