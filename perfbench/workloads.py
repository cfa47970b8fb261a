"""The benchmark workloads: seeded set-up, one timed round, and its checks.

A round is a fixed list of operations.  Each program call and each check is
one operation; a call that raises or exits non-zero, or a check that does
not hold, is a failed operation.  Checks compare the program's outputs with
the scalar-loop and dense-matrix references in ``tests/oracles.py`` or with
a property the method guarantees; none compares with stored output.  Time
spent in checks is never part of a timed call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import struct
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracles
from mgcnn import cli, data, multiscale, network, stencils, training
from mgcnn.grid import Grid2D, TransferPair

# Checks that fail on every input because of faults the program still has:
# ``inspect`` maximises per-stencil symbols and ignores channel coupling, and
# the model container has no checksum and accepts unknown trailing blocks.
EXPECTED_FAILURES = frozenset(
    {"inspect-spectrum-matches-block-operator", "load-rejects-flipped-bank-bit", "load-rejects-appended-block"}
)

MONOTONE_TOL = 1e-12  # full-batch history loss may not rise by more than this
# The reference model for the failing checks is the same on every seed.
REFERENCE_SEED = 7


class Probes:
    """Hooks every run installs: ``bcd_train`` timing and the Newton property.

    Work done inside :meth:`checking` and the speed probe's own kernel runs
    are excluded from every timed call, and every timed call is rescaled to
    the reference speed by ``clock``.
    """

    def __init__(self, clock, tracer=None) -> None:
        self.clock = clock
        self.tracer = tracer
        self.check_s = 0.0
        self.bcd: list[tuple[int, float, object, object]] = []  # examples*iters, s, params, clf
        self.newton_calls = 0
        self.newton_bad = 0
        self._undo: list = []

    @contextlib.contextmanager
    def checking(self):
        start, busy = perf_counter(), self.clock.busy
        paused = self.tracer.paused() if self.tracer is not None else contextlib.nullcontext()
        try:
            with paused:
                yield
        finally:
            self.check_s += perf_counter() - start - (self.clock.busy - busy)

    def excluded(self) -> float:
        """Seconds so far that timed calls leave out: checks and probe kernels."""
        return self.check_s + self.clock.busy

    def install(self) -> None:
        bcd = training.bcd_train
        newton = training.newton_classifier_step

        def timed_bcd(train, params, clf, reg, cfg, *args, **kwargs):
            excluded, start = self.excluded(), perf_counter()
            result = bcd(train, params, clf, reg, cfg, *args, **kwargs)
            seconds = self.elapsed(start, excluded)
            self.bcd.append((len(train) * cfg.outer_iters, seconds, params, clf))
            return result

        def checked_newton(features, labels, clf, reg, steps=5):
            result = newton(features, labels, clf, reg, steps)
            with self.checking():
                objs = [training.classifier_objective(features, labels, clf, reg)] + result.objectives
                rises = any(b > a + 1e-12 * max(1.0, abs(a)) for a, b in zip(objs, objs[1:]))
                self.newton_calls += 1
                self.newton_bad += int(rises or not np.all(np.isfinite(objs)))
            return result

        for mod in (cli, multiscale, training):
            if vars(mod).get("bcd_train") is bcd:
                self._undo.append((mod, "bcd_train", bcd))
                mod.bcd_train = timed_bcd
        self._undo.append((training, "newton_classifier_step", newton))
        training.newton_classifier_step = checked_newton

    def uninstall(self) -> None:
        while self._undo:
            mod, name, value = self._undo.pop()
            setattr(mod, name, value)

    def elapsed(self, start: float, excluded: float) -> float:
        """Reference-speed seconds since ``start``; ``excluded`` is :meth:`excluded` at ``start``."""
        end = perf_counter()
        return (end - start - (self.excluded() - excluded)) * self.clock.speed(start, end)


class Round:
    """Operation ledger and timers of one round."""

    def __init__(self, probes: Probes, workers: int) -> None:
        self.probes = probes
        self.workers = workers
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: dict[str, float] = defaultdict(float)
        self.info: list[str] = []
        self.digest = hashlib.sha256()
        self._newton_mark = (probes.newton_calls, probes.newton_bad)
        probes.bcd.clear()

    def call(self, phase: str | None, name: str, fn, *args, **kwargs):
        """One program call; ``phase`` names the timer it adds to (None: untimed)."""
        self.attempted += 1
        excluded, start = self.probes.excluded(), perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - a raising call is a failed operation
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = self.probes.elapsed(start, excluded)
            if phase is not None:
                self.seconds[phase] += elapsed
                self.seconds["wall_s"] += elapsed
        if isinstance(result, int) and result != 0:
            self.failures.append(f"{name}: exit code {result}")
        return result

    def cli(self, phase: str | None, name: str, *argv: str):
        """Run ``mgcnn`` in-process with its standard output captured."""
        argv = list(argv)
        if argv[0] != "inspect":
            argv += ["--sequential"] if self.workers <= 1 else ["--workers", str(self.workers)]
        out = io.StringIO()

        def run():
            with contextlib.redirect_stdout(out):
                return cli.main(argv)

        rc = self.call(phase, name, run)
        return rc, out.getvalue()

    def check(self, name: str, fn) -> None:
        """One check; ``fn`` returns ``(ok, detail)``."""
        self.attempted += 1
        with self.probes.checking():
            try:
                ok, detail = fn()
            except Exception as exc:  # noqa: BLE001 - a check that cannot run has failed
                ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def check_newton(self, name: str) -> None:
        """Every Newton step since the last such check was monotone."""
        calls0, bad0 = self._newton_mark
        calls, bad = self.probes.newton_calls, self.probes.newton_bad
        self._newton_mark = (calls, bad)
        self.check(
            f"newton-monotone-{name}",
            lambda: (calls > calls0 and bad == bad0, f"{bad - bad0} of {calls - calls0} steps rose"),
        )

    def hash_files(self, root: Path) -> None:
        for path in sorted(root.rglob("*")):
            if path.name == "model.bin" or (path.name.startswith("history") and path.suffix == ".csv"):
                self.digest.update(str(path.relative_to(root)).encode())
                self.digest.update(path.read_bytes())

    def metrics(self) -> dict[str, float]:
        examples = sum(rec[0] for rec in self.probes.bcd)
        seconds = sum(rec[1] for rec in self.probes.bcd)
        out = dict(self.seconds)
        out["train_examples_per_s"] = examples / seconds if seconds > 0 else 0.0
        return out


# --- shared checks -------------------------------------------------------------


def read_csv(path: Path) -> list[dict[str, float]]:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def losses_ok(losses, rows: int, monotone: bool):
    """A history's losses: ``rows`` of them, finite, and if ``monotone`` never rising."""
    losses = np.asarray(losses, dtype=float)
    if len(losses) != rows:
        return False, f"{len(losses)} rows, expected {rows}"
    if not np.all(np.isfinite(losses)):
        return False, "non-finite loss"
    if monotone:
        rise = float(np.max(np.diff(losses), initial=0.0))
        if rise > MONOTONE_TOL:
            return False, f"loss rose by {rise:.3e}"
    return True, ""


def history_ok(path: Path, rows: int, monotone: bool):
    return losses_ok([row["loss"] for row in read_csv(path)], rows, monotone)


def history_rows_ok(history, rows: int):
    """A full-batch history returned by the library: finite and monotone."""
    return losses_ok([r.loss for r in history], rows, True)


def files_ok(root: Path, names: list[str]):
    missing = [n for n in names if not (root / n).is_file()]
    return not missing, f"missing {missing}"


def warm_below_cold(summary: Path, label: str, key: int):
    rows = {int(r[label]): r for r in read_csv(summary)}
    warm, cold = rows[key]["init_loss_warm"], rows[key]["init_loss_cold"]
    return warm < cold, f"warm {warm:.6g} >= cold {cold:.6g}"


def val_indices(m: int, train_fraction: float, seed: int) -> np.ndarray:
    """Validation rows of the CLI's split: a seeded shuffle cut at the fraction."""
    n_train = int(round(train_fraction * m))
    return np.random.default_rng(seed).permutation(m)[n_train:]


def logits_match(model_path: Path, images: np.ndarray):
    """Saved model's logits against the scalar-loop forward pass."""
    model = data.load_model(str(model_path))
    p, clf = model.params, model.classifier
    final = network.propagate_final(images, p)
    got = clf.grid.h**2 * np.tensordot(final, clf.weights, axes=([1, 2, 3], [1, 2, 3])) + clf.mu
    worst = 0.0
    for x, row in zip(images, got):
        states = oracles.naive_forward(
            x, p.embed.weights, [b.weights for b in p.banks], p.biases, p.dt, p.activation.value, p.act_gain
        )
        want = oracles.naive_logits(states[-1], clf.weights, clf.mu, clf.grid.h)
        worst = max(worst, float(np.abs(row - want).max() / max(1.0, np.abs(want).max())))
    return worst <= 1e-10, f"relative logit deviation {worst:.3e}"


def block_spectrum(weights: np.ndarray, grid: Grid2D, dt: float) -> tuple[float, float]:
    """Max real part and max |1 + dt*lambda| of the full c*n x c*n operator."""
    c, n = weights.shape[0], grid.ncells
    op = np.zeros((c * n, c * n))
    for co in range(c):
        for ci in range(c):
            op[co * n : (co + 1) * n, ci * n : (ci + 1) * n] = oracles.dense_circulant(
                weights[co, ci], grid.ny, grid.nx
            )
    lam = np.linalg.eigvals(op)
    return float(lam.real.max()), float(np.abs(1.0 + dt * lam).max())


def inspect_rows(text: str) -> list[tuple[float, float, float]]:
    rows = []
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            rows.append(tuple(float(v) for v in parts[1:]))
    return rows


def payload_offset(blob: bytes, tag: bytes) -> int:
    offset = 8
    while offset < len(blob):
        (length,) = struct.unpack("<Q", blob[offset + 4 : offset + 12])
        if blob[offset : offset + 4] == tag:
            return offset + 12
        offset += 12 + length
    raise ValueError(f"no {tag!r} block")


def rejects(path: Path):
    try:
        data.load_model(str(path))
    except data.DataFormatError:
        return True, ""
    return False, "edited model file loaded without error"


def reference_model(path: Path) -> None:
    """A fixed two-layer, channel-coupled model on 12x12, the same for every seed."""
    rng = np.random.default_rng(REFERENCE_SEED)
    params = network.random_network_params(channels=2, num_layers=2, final_time=1.0, seed=REFERENCE_SEED)
    for bank in params.banks:
        bank.weights[:] = rng.normal(0.0, 0.4, bank.weights.shape)
    clf = network.zero_classifier(Grid2D(12, 12, 1.0), 2, 2)
    data.save_model(str(path), data.ModelFile(params, clf, provenance={"reference": REFERENCE_SEED}))


def known_fault_checks(rnd: Round, work: Path, model: Path) -> None:
    """The three checks that fail until the program's faults are mended."""
    rc, text = rnd.cli(None, "inspect-reference", "inspect", "--model", str(model))

    def spectrum():
        m = data.load_model(str(model))
        rows = inspect_rows(text)
        if len(rows) != m.params.num_layers:
            return False, f"{len(rows)} rows for {m.params.num_layers} layers"
        worst = 0.0
        for (max_real, growth, _), bank in zip(rows, m.params.banks):
            true_real, true_growth = block_spectrum(bank.weights, m.classifier.grid, m.params.dt)
            worst = max(worst, abs(max_real - true_real) / abs(true_real), abs(growth - true_growth) / true_growth)
        return worst <= 1e-5, f"inspect deviates from the block operator spectrum by {worst:.3e} relative"

    rnd.check("inspect-spectrum-matches-block-operator", spectrum)
    blob = model.read_bytes()
    flipped = bytearray(blob)
    flipped[payload_offset(blob, b"BANK")] ^= 1  # lowest mantissa bit of the first weight
    (work / "flipped.bin").write_bytes(bytes(flipped))
    rnd.check("load-rejects-flipped-bank-bit", lambda: rejects(work / "flipped.bin"))
    (work / "appended.bin").write_bytes(blob + b"JUNK" + struct.pack("<Q", 4) + bytes(4))
    rnd.check("load-rejects-appended-block", lambda: rejects(work / "appended.bin"))


# --- cli-bundled -----------------------------------------------------------------

# configs/bars.cfg and configs/blobs.cfg, pinned here; bars runs 10 iterations
# per depth instead of 20 so that one round fits the benchmark's time budget,
# blobs keeps its own (fewer made the Armijo and Newton work vary by 50%
# between seeds).  The data
# keys name the seeded IDX pair instead of the built-in generator, so init,
# split and batch order keep seed 0 and only the images change with the
# workload seed; that keeps the amount of work per round the same on every
# seed (a new init seed moves train time by 2x through Armijo backtracking).
BARS = {
    "layers": 2, "final_time": 1.0, "channels": 2, "kernel": 3, "activation": "tanh",
    "init_scale": 0.3, "train_fraction": 0.8, "lambda_w": 1e-3, "lambda_theta": 1e-3,
    "outer_iters": 10, "newton_steps": 5, "step_rule": "armijo", "step_size": 1.0,
    "depths": "2,4", "seed": 0,
}
BLOBS = {
    "layers": 3, "final_time": 1.5, "channels": 3, "kernel": 3, "activation": "tanh",
    "init_scale": 0.2, "train_fraction": 0.8, "lambda_w": 1e-3, "lambda_theta": 1e-2,
    "outer_iters": 15, "newton_steps": 5, "step_rule": "armijo", "levels": 1,
    "blur_sigma": 1.0, "transfer": "constant", "level_iters": "10,15", "seed": 0,
}
BARS_DATA = dict(kind=data.SyntheticKind.BARS, n=400, grid=Grid2D(12, 12, 1.0), noise=0.05)
BLOBS_DATA = dict(kind=data.SyntheticKind.BLOBS, n=300, grid=Grid2D(16, 16, 1.0), noise=0.08)


@dataclass
class CliBundled:
    bars_cfg: Path
    blobs_cfg: Path
    bars_images: np.ndarray  # [0, 1] values as the program loads them
    blobs_images: np.ndarray
    reference: Path


def _synthetic_idx(spec: dict, seed: int, stem: Path, settings: dict) -> tuple[Path, np.ndarray]:
    ds = data.make_synthetic(spec["kind"], spec["n"], spec["grid"], seed=seed, noise=spec["noise"])
    raw = inputs.to_bytes(ds.images)
    images, labels = inputs.write_idx(raw, ds.labels, stem)
    cfg = dict(dataset="idx", idx_images=images, idx_labels=labels, **settings)
    return inputs.write_config(stem.with_suffix(".cfg"), cfg), raw / 255.0


def setup_cli_bundled(seed: int, work: Path) -> CliBundled:
    bars_cfg, bars_images = _synthetic_idx(BARS_DATA, seed, work / "bars", BARS)
    blobs_cfg, blobs_images = _synthetic_idx(BLOBS_DATA, seed, work / "blobs", BLOBS)
    (work / "reference").mkdir()
    reference_model(work / "reference" / "model.bin")
    return CliBundled(bars_cfg, blobs_cfg, bars_images, blobs_images, work / "reference" / "model.bin")


def round_cli_bundled(state: CliBundled, rnd: Round, out: Path) -> None:
    bars, blobs = str(state.bars_cfg), str(state.blobs_cfg)
    train, coarse, refined, ml, deep = (out / d for d in ("train", "coarse", "refined", "ml", "deep"))

    rnd.cli("train_s", "train", "train", "--config", bars, "--out", str(train))
    rc, text = rnd.cli("inspect_s", "inspect", "inspect", "--model", str(train / "model.bin"))
    rnd.cli("adapt_s", "adapt-coarsen", "adapt", "--config", bars, "--model", str(train / "model.bin"),
            "--direction", "coarsen", "--out", str(coarse))
    rnd.cli("adapt_s", "adapt-refine", "adapt", "--config", bars, "--model", str(coarse / "model.bin"),
            "--direction", "refine", "--out", str(refined))
    rnd.cli("multilevel_s", "multilevel", "multilevel", "--config", blobs, "--out", str(ml))
    rnd.check_newton("train-multilevel")  # newton steps of train and multilevel
    rnd.cli("deepen_s", "deepen", "deepen", "--config", bars, "--out", str(deep))
    rnd.check_newton("deepen")

    iters = BARS["outer_iters"]
    fine_iters, coarse_iters = (int(v) for v in BLOBS["level_iters"].split(","))
    rnd.check("train-files", lambda: files_ok(train, ["history.csv", "model.bin"]))
    rnd.check("train-history", lambda: history_ok(train / "history.csv", iters, True))
    rnd.check("inspect-rows", lambda: (len(inspect_rows(text)) == BARS["layers"], text))
    rnd.check("adapt-files", lambda: files_ok(coarse, ["model.bin"]) if files_ok(refined, ["model.bin"])[0] else (False, "refine wrote nothing"))

    def galerkin():
        fine, coarse_model = data.load_model(str(train / "model.bin")), data.load_model(str(coarse / "model.bin"))
        g = fine.classifier.grid
        worst = 0.0
        pairs = list(zip(fine.params.banks, coarse_model.params.banks)) + [(fine.params.embed, coarse_model.params.embed)]
        for fb, cb in pairs:
            for co in range(fb.c_out):
                for ci in range(fb.c_in):
                    want = oracles.galerkin_coarse_stencil(fb.weights[co, ci], g.ny, g.nx, "constant_average")
                    worst = max(worst, float(np.abs(cb.weights[co, ci] - want).max()))
        return worst <= 1e-12, f"coarse stencil deviates from dense R K P by {worst:.3e}"

    def roundtrip():
        fine, back = data.load_model(str(train / "model.bin")), data.load_model(str(refined / "model.bin"))
        dev = max(float(np.abs(a.weights - b.weights).max())
                  for a, b in zip(fine.params.banks + [fine.params.embed], back.params.banks + [back.params.embed]))
        return dev <= 1e-10, f"refine(coarsen) deviates by {dev:.3e}"

    rnd.check("adapt-coarsen-galerkin-oracle", galerkin)
    rnd.check("adapt-roundtrip", roundtrip)

    ml_files = ["history_level0.csv", "history_level1.csv", "summary.csv", "model.bin"]
    rnd.check("multilevel-files", lambda: files_ok(ml, ml_files))
    rnd.check("multilevel-history-level0", lambda: history_ok(ml / "history_level0.csv", fine_iters, True))
    rnd.check("multilevel-history-level1", lambda: history_ok(ml / "history_level1.csv", coarse_iters, True))
    rnd.check("multilevel-warm-below-cold", lambda: warm_below_cold(ml / "summary.csv", "level", 0))

    deep_files = ["history_depth2.csv", "history_depth4.csv", "history_depth4_cold.csv", "summary.csv", "model.bin"]
    rnd.check("deepen-files", lambda: files_ok(deep, deep_files))
    for name in deep_files[:3]:
        rnd.check(f"deepen-{name}", lambda name=name: history_ok(deep / name, iters, True))
    rnd.check("deepen-warm-below-cold", lambda: warm_below_cold(deep / "summary.csv", "depth", 4))

    bars_val = state.bars_images[val_indices(len(state.bars_images), BARS["train_fraction"], BARS["seed"])[:3]]
    blobs_val = state.blobs_images[val_indices(len(state.blobs_images), BLOBS["train_fraction"], BLOBS["seed"])[:3]]
    rnd.check("train-logits-oracle", lambda: logits_match(train / "model.bin", bars_val))
    rnd.check("multilevel-logits-oracle", lambda: logits_match(ml / "model.bin", blobs_val))
    rnd.check("deepen-logits-oracle", lambda: logits_match(deep / "model.bin", bars_val))

    known_fault_checks(rnd, out, state.reference)
    rnd.hash_files(out)


# --- accept-bars12 ---------------------------------------------------------------

# Criterion 8 of tests/test_acceptance.py at one seed: the images and the
# split come from the workload seed, the model seeds are criterion 8's seed-0
# values.  Iterations per level come down from 40 to 12 to fit the budget.
ACCEPT_ITERS = 12
CA = TransferPair.constant_average()
# Criterion 7's shallow-to-deep chain on the same training images, cut from
# depths 2,4,8 at 10 iterations to 2,4 at 4.
DEEPEN_DEPTHS = (2, 4)
DEEPEN_ITERS = 4


@dataclass
class AcceptBars12:
    train: data.LabeledDataset
    val: data.LabeledDataset


def setup_accept(seed: int, work: Path) -> AcceptBars12:
    ds = data.make_synthetic(data.SyntheticKind.BARS, 600, Grid2D(12, 12, 1.0), seed=seed, noise=0.4)
    train, val = data.split(ds, 0.8, seed=seed)
    return AcceptBars12(train, val)


def round_accept(state: AcceptBars12, rnd: Round, out: Path) -> None:
    tr, va = state.train, state.val
    workers = max(1, rnd.workers)
    init = network.NetworkInit(channels=2, final_time=0.5, init_scale=0.3, activation=network.Activation.IDENTITY)
    reg = training.RegConfig(lambda_w=0.7, lambda_theta=1e-3)
    cfg = training.BcdConfig(outer_iters=ACCEPT_ITERS, newton_steps=3,
                             prop_step_rule=training.ArmijoBacktracking(1.0, 0.5, 1e-4, 8), batch_size=0, seed=0)

    def two_level():
        pyr = multiscale.ResolutionPyramid.build(tr, 1, CA, blur_sigma=0.0)
        vpyr = multiscale.ResolutionPyramid.build(va, 1, CA, blur_sigma=0.0)
        start = (init.network_params(4, 100), network.zero_classifier(pyr.datasets[1].grid, 2, 2))

        def cold(level):
            return init.network_params(4, 1000 + level), network.zero_classifier(pyr.datasets[level].grid, 2, 2)

        sched = multiscale.LevelSchedule.uniform(cfg, 2)
        return multiscale.multilevel_train(pyr, sched, start, reg, val_pyramid=vpyr, cold_init=cold, workers=workers), vpyr

    ml, vpyr = rnd.call("multilevel_s", "multilevel_train", two_level)
    starts = [(rec[2], rec[3]) for rec in rnd.probes.bcd]
    rnd.check_newton("multilevel")
    ctrl = rnd.call("train_s", "bcd_train-control", lambda: training.bcd_train(
        tr, init.network_params(4, 0), network.zero_classifier(tr.grid, 2, 2), reg, cfg, val=va, workers=workers))
    rnd.check_newton("control")
    cmap = rnd.call("adapt_s", "build_coarsen_map", stencils.build_coarsen_map, 3, CA)
    pa, ca = rnd.call("adapt_s", "adapt-coarsen", multiscale.adapt_model_resolution,
                      ctrl.params, ctrl.classifier, multiscale.Direction.COARSEN, cmap, CA)
    vac = vpyr.datasets[1]
    adapted = rnd.call("adapt_s", "evaluate-adapted", training.evaluate, vac, pa, ca, workers)
    naive = rnd.call("adapt_s", "evaluate-naive", training.evaluate, vac, replace(ctrl.params), ca, workers)
    rnd.info.append(f"fine->coarse accuracy adapted {adapted.accuracy:.4f} naive {naive.accuracy:.4f}")

    deep_init = network.NetworkInit(channels=2, final_time=0.25, init_scale=0.3, activation=network.Activation.TANH)

    def deep_model(depth, seed):
        return deep_init.network_params(depth, seed), network.zero_classifier(tr.grid, 2, tr.num_classes)

    deep = rnd.call("deepen_s", "shallow_to_deep_train", multiscale.shallow_to_deep_train,
                    tr, list(DEEPEN_DEPTHS), training.BcdConfig(outer_iters=DEEPEN_ITERS, newton_steps=3, seed=0),
                    training.RegConfig(0.01, 0.03), deep_model, val=va, workers=workers)
    rnd.check_newton("deepen")

    for lev in ml.levels:
        rnd.check(f"multilevel-history-level{lev.level}",
                  lambda lev=lev: history_rows_ok(lev.history, ACCEPT_ITERS))
    rnd.check("control-history", lambda: history_rows_ok(ctrl.history, ACCEPT_ITERS))
    for dep in deep.depths:
        rnd.check(f"deepen-history-depth{dep.depth}", lambda dep=dep: history_rows_ok(dep.history, DEEPEN_ITERS))
    last = deep.depths[-1]
    rnd.check("deepen-cold-history", lambda: history_rows_ok(last.cold_history, DEEPEN_ITERS))
    rnd.check("deepen-warm-below-cold",
              lambda: (last.init_loss_warm < last.init_loss_cold, f"{last.init_loss_warm} >= {last.init_loss_cold}"))
    rnd.info.append(f"depth {last.depth} initial loss warm {last.init_loss_warm:.6g} cold {last.init_loss_cold:.6g}")
    fine = ml.levels[-1]
    rnd.check("multilevel-warm-below-cold",
              lambda: (fine.init_loss_warm < fine.init_loss_cold, f"{fine.init_loss_warm} >= {fine.init_loss_cold}"))
    rnd.info.append(f"fine level initial loss warm {fine.init_loss_warm:.6g} cold {fine.init_loss_cold:.6g}")

    def bank_oracle():
        p = ctrl.params
        worst = 0.0
        for x in tr.images[:3]:
            y0 = oracles.naive_bank_apply(p.embed.weights, x[None])
            got = stencils.bank_apply(p.banks[0].weights, y0)
            worst = max(worst, float(np.abs(got - oracles.naive_bank_apply(p.banks[0].weights, y0)).max()))
        return worst <= 1e-12, f"bank_apply deviates from the scalar loop by {worst:.3e}"

    def gradient_fd():
        params, clf = starts[1]  # the fine level's warm start
        images, labels = tr.images[:2], tr.labels[:2]
        _, grads = network.loss_and_gradient(images, labels, params, clf, reg)
        worst = {}

        def fd(buf, build):
            return oracles.fd_gradient(lambda: network.loss(images, labels, *build(buf), reg).total, buf)

        def with_banks(buf):
            q = params.copy()
            for i, bank in enumerate(q.banks):
                bank.weights[:] = buf[i]
            return q, clf

        def with_biases(buf):
            q = params.copy()
            q.biases[:] = buf
            return q, clf

        def with_embed(buf):
            q = params.copy()
            q.embed.weights[:] = buf
            return q, clf

        blocks = {
            "banks": (np.stack([b.weights for b in params.banks]), with_banks, grads.banks),
            "biases": (params.biases.copy(), with_biases, grads.biases),
            "weights": (clf.weights.copy(), lambda buf: (params, network.Classifier(clf.grid, buf, clf.mu)), grads.weights),
            "mu": (clf.mu.copy(), lambda buf: (params, network.Classifier(clf.grid, clf.weights, buf)), grads.mu),
            "embed": (params.embed.weights.copy(), with_embed, grads.embed),
        }
        for name, (buf, build, got) in blocks.items():
            worst[name] = oracles.rel_err(got, fd(buf, build))
        return max(worst.values()) <= 1e-6, f"relative error per block {worst}"

    rnd.check("bank_apply-oracle", bank_oracle)
    rnd.check("gradient-finite-differences", gradient_fd)

    histories = [lev.history for lev in ml.levels] + [ctrl.history] + [dep.history for dep in deep.depths]
    for history in histories + [last.cold_history]:
        rnd.digest.update(np.asarray([r.loss for r in history], dtype="<f8").tobytes())
    for model in ((ml.params, ml.classifier), (ctrl.params, ctrl.classifier), (deep.params, deep.classifier)):
        p, clf = model
        for arr in [b.weights for b in p.banks] + [p.biases, clf.weights, clf.mu]:
            rnd.digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


# --- mnist28-standin -------------------------------------------------------------

# configs/mnist.cfg with the seeded stand-in in place of the absent MNIST
# files.  Examples and per-level iterations come down from 2000 and 10,10,10
# so a round fits the budget; 600 examples still leave 540 training images,
# more than one 500-image minibatch.
STANDIN_N = 600
MNIST = {
    "limit": STANDIN_N, "train_fraction": 0.9, "layers": 4, "final_time": 2.0, "channels": 3,
    "kernel": 3, "activation": "tanh", "init_scale": 0.1, "lambda_w": 1e-3, "lambda_theta": 1e-2,
    "outer_iters": 1, "newton_steps": 5, "step_rule": "armijo", "batch_size": 500, "levels": 2,
    "blur_sigma": 1.0, "transfer": "bilinear", "level_iters": "1,1,1", "seed": 0,
}
MIN_LEVEL_ACCURACY = 0.3  # three times the 1/10 chance level
# Levels whose final accuracy is gated: the cold-started 7x7 level and the
# 28x28 level the CLI saves.  The 14x14 level is only reported: its warm start
# from 7x7 begins hundreds of times above the cold loss, and after its one
# iteration its accuracy fell below chance on some seeds (2024, 275102095).
ACCURACY_LEVELS = (0, 2)
# train and deepen (depths 2,4 of mnist.cfg's 2,4,8) at the finest grid, on
# the first 100 examples of the same files, two iterations per depth.
SMALL = dict(MNIST, limit=100, depths="2,4", outer_iters=2)


@dataclass
class Standin:
    cfg: Path
    small_cfg: Path
    image_path: Path
    label_path: Path
    raw: np.ndarray
    labels: np.ndarray


def setup_standin(seed: int, work: Path) -> Standin:
    raw, labels = inputs.standin_images(STANDIN_N, seed)
    image_path, label_path = inputs.write_idx(raw, labels, work / "standin")
    files = dict(dataset="idx", idx_images=image_path, idx_labels=label_path)
    cfg = inputs.write_config(work / "standin.cfg", dict(files, **MNIST))
    small_cfg = inputs.write_config(work / "standin-small.cfg", dict(files, **SMALL))
    return Standin(cfg, small_cfg, image_path, label_path, raw, labels)


def round_standin(state: Standin, rnd: Round, out: Path) -> None:
    cfg, small = str(state.cfg), str(state.small_cfg)
    ml, train, deep = out / "ml", out / "train", out / "deep"
    rnd.cli("multilevel_s", "multilevel", "multilevel", "--config", cfg, "--out", str(ml))
    rnd.check_newton("multilevel")
    rnd.cli("train_s", "train", "train", "--config", small, "--out", str(train))
    rnd.cli("deepen_s", "deepen", "deepen", "--config", small, "--out", str(deep))
    rnd.check_newton("train-deepen")

    loaded = rnd.call(None, "load_idx", data.load_idx, str(state.image_path), str(state.label_path))
    rnd.check("load_idx-matches-generated", lambda: (
        np.array_equal(loaded.images, state.raw.astype(np.float64) / 255.0)
        and np.array_equal(loaded.labels, state.labels.astype(np.int64)), "loaded values differ"))

    iters = [int(v) for v in MNIST["level_iters"].split(",")]
    files = [f"history_level{i}.csv" for i in range(len(iters))] + ["summary.csv", "model.bin"]
    rnd.check("multilevel-files", lambda: files_ok(ml, files))
    for level, n in enumerate(iters):
        rnd.check(f"multilevel-history-level{level}",
                  lambda level=level, n=n: history_ok(ml / f"history_level{level}.csv", n, False))
    rnd.check("train-history", lambda: history_ok(train / "history.csv", SMALL["outer_iters"], False))
    deep_files = ["history_depth2.csv", "history_depth4.csv", "history_depth4_cold.csv", "summary.csv", "model.bin"]
    rnd.check("deepen-files", lambda: files_ok(deep, deep_files))
    for name in deep_files[:3]:
        rnd.check(f"deepen-{name}", lambda name=name: history_ok(deep / name, SMALL["outer_iters"], False))

    def accuracies():
        rows = read_csv(ml / "summary.csv")
        for r in rows:
            rnd.info.append(f"level {int(r['level'])}: initial loss warm {r['init_loss_warm']:.6g} "
                            f"cold {r['init_loss_cold']:.6g}, final accuracy {r['final_acc']:.4f}")
        gated = [r for r in rows if int(r["level"]) in ACCURACY_LEVELS]
        worst = min(r["final_acc"] for r in gated)
        return len(rows) == len(iters) and worst >= MIN_LEVEL_ACCURACY, f"lowest gated level accuracy {worst:.3f}"

    rnd.check("multilevel-accuracy-above-chance", accuracies)
    if (deep / "summary.csv").is_file():
        depth4 = {int(r["depth"]): r for r in read_csv(deep / "summary.csv")}[4]
        rnd.info.append(f"deepen depth 4: initial loss warm {depth4['init_loss_warm']:.6g} "
                        f"cold {depth4['init_loss_cold']:.6g}")
    val = val_indices(STANDIN_N, MNIST["train_fraction"], MNIST["seed"])[:2]
    images = state.raw[val].astype(np.float64) / 255.0
    rnd.check("multilevel-logits-oracle", lambda: logits_match(ml / "model.bin", images))
    small_val = val_indices(SMALL["limit"], SMALL["train_fraction"], SMALL["seed"])[:2]
    small_images = state.raw[small_val].astype(np.float64) / 255.0
    rnd.check("train-logits-oracle", lambda: logits_match(train / "model.bin", small_images))
    rnd.check("deepen-logits-oracle", lambda: logits_match(deep / "model.bin", small_images))
    rnd.hash_files(out)


WORKLOADS = {
    "cli-bundled": (setup_cli_bundled, round_cli_bundled),
    "accept-bars12": (setup_accept, round_accept),
    "mnist28-standin": (setup_standin, round_standin),
}
