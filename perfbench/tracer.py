"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the ``mgcnn`` modules by wrappers
that record one span (name, start, end, parent, run id) per call.  Every
namespace that binds a function is patched, because ``from .stencils import
bank_apply`` copies the name at import and a call through ``network`` would
otherwise bypass a wrapper installed on ``stencils`` only.  Spans stay in
memory and are written out when the run ends; self time and totals are
derived from them afterwards.
"""

from __future__ import annotations

import csv
import functools
import inspect
import os
import resource
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MODULES = ("grid", "stencils", "network", "training", "multiscale", "data", "cli")

# The same function reached through a given namespace gets a span name of its
# own where the layer it stands for is defined by its caller.
RENAMES = {
    ("training", "loss"): "training.armijo",  # trial passes of the line search
    ("multiscale", "loss"): "multiscale.init_loss",  # warm and cold initial losses
    ("training", "newton_classifier_step"): "training.newton",
}
CLI_COMMANDS = ("train", "adapt", "multilevel", "deepen", "inspect")


class _Namespace:
    """Attribute view of a module with some names replaced."""

    def __init__(self, base, **overrides):
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, run id)
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self.run_id = ""
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.run_id)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def paused(self):
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions of every module in ``MODULES``."""
        mods = {m: sys.modules[f"mgcnn.{m}"] for m in MODULES}
        for short, mod in mods.items():
            names = list(getattr(mod, "__all__", ()))
            if short == "cli":
                names += [f"cmd_{c}" for c in CLI_COMMANDS]
            for fname in names:
                fn = mod.__dict__.get(fname)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                label = f"cli.{fname[4:]}" if short == "cli" and fname.startswith("cmd_") else f"{short}.{fname}"
                shared = self.wrap(label, fn, COUNTERS.get(label))
                for where, other in mods.items():
                    if other.__dict__.get(fname) is fn:
                        renamed = RENAMES.get((where, fname))
                        wrapper = shared if renamed is None else self.wrap(renamed, fn, COUNTERS.get(renamed))
                        self._set(other, fname, wrapper)

        pyramid = mods["multiscale"].ResolutionPyramid
        build = pyramid.__dict__["build"].__func__
        self._set(pyramid, "build", classmethod(self.wrap("multiscale.pyramid_build", build)))

        # training calls scipy.linalg.solve and scipy.sparse.linalg.cg through
        # its module global ``scipy``; give it a view with both wrapped.
        training = mods["training"]
        scipy = training.scipy
        solve = self.wrap("training.newton.dense_solve", scipy.linalg.solve)
        cg = self.wrap("training.newton.cg", self._counted_cg(scipy.sparse.linalg.cg))
        view = _Namespace(
            scipy,
            linalg=_Namespace(scipy.linalg, solve=solve),
            sparse=_Namespace(scipy.sparse, linalg=_Namespace(scipy.sparse.linalg, cg=cg)),
        )
        self._set(training, "scipy", view)

    def _counted_cg(self, cg):
        counts = self.counts

        def counted(A, b, *args, callback=None, **kwargs):
            if not self.enabled:
                return cg(A, b, *args, callback=callback, **kwargs)

            def step(xk):
                counts["training.newton.cg.iters"] += 1
                if callback is not None:
                    callback(xk)

            x, info = cg(A, b, *args, callback=step, **kwargs)
            if info > 0:
                counts["training.newton.cg.maxiter_hits"] += 1
            return x, info

        return counted

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("name", "start", "end", "parent", "run"))
            for name, start, end, parent, run in self.spans:
                writer.writerow((name, f"{start:.9f}", f"{end:.9f}", parent, run))

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: total seconds, self seconds and call count.

        A span nested in a span of the same name adds to calls and self time
        but not again to the total.
        """
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - children[i]
            up = parent
            while up >= 0 and self.spans[up][0] != name:
                up = self.spans[up][3]
            if up < 0:
                total[name] += end - start
        return total, self_s, calls


def _bank_apply_count(counts, args, kwargs, result) -> None:
    weights, y = args[0], args[1]
    c_out, c_in, k, _ = np.shape(weights)
    batch = int(np.prod(np.shape(y)[:-3], dtype=np.int64))
    counts["stencils.bank_apply.gflop"] += 2.0 * c_out * c_in * k * k * np.shape(y)[-1] * np.shape(y)[-2] * batch / 1e9


def _propagate_count(counts, args, kwargs, result) -> None:
    counts["network.propagate_final.examples"] += np.shape(args[0])[0]


def _bcd_count(counts, args, kwargs, result) -> None:
    cfg = args[4] if len(args) > 4 else kwargs["cfg"]
    counts["training.bcd_train.iters"] += cfg.outer_iters


def _newton_count(counts, args, kwargs, result) -> None:
    counts["training.newton.fallbacks"] += int(result.used_fallback)


def _save_count(counts, args, kwargs, result) -> None:
    counts["data.model_bytes"] += os.path.getsize(args[0])


def _rss_count(counts, args, kwargs, result) -> None:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    key = "network.loss_and_gradient.peak_rss_mb"
    counts[key] = max(counts[key], peak)


COUNTERS = {
    "stencils.bank_apply": _bank_apply_count,
    "network.propagate_final": _propagate_count,
    "training.bcd_train": _bcd_count,
    "training.newton": _newton_count,
    "data.save_model": _save_count,
    "network.loss_and_gradient": _rss_count,
}


def layer_metrics(tracer: Tracer, untraced_wall: float, traced_wall: float, speed: float) -> dict:
    """The per-layer metrics of BENCHMARK.json, as ``{name: (value, unit)}``.

    Span seconds are rescaled by ``speed``, the traced round's mean speed
    relative to the reference, like the end-to-end timings.
    """
    total, raw_self, calls = tracer.totals()
    self_s = {name: value * speed for name, value in raw_self.items()}
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}

    def seconds(name: str) -> float:
        return total.get(name, 0.0) * speed

    bank_s = seconds("stencils.bank_apply")
    gflop = counts["stencils.bank_apply.gflop"]
    out["stencils.bank_apply.s"] = (bank_s, "s")
    out["stencils.bank_apply.calls"] = (calls["stencils.bank_apply"], "count")
    out["stencils.bank_apply.gflop"] = (gflop, "gflop")
    out["stencils.bank_apply.gflop_per_s"] = (gflop / bank_s if bank_s else 0.0, "gflop/s")
    out["network.forward_step.self_s"] = (self_s.get("network.forward_step", 0.0), "s")
    out["network.embed_input.s"] = (seconds("network.embed_input"), "s")
    out["network.loss_and_gradient.s"] = (seconds("network.loss_and_gradient"), "s")
    out["network.loss_and_gradient.self_s"] = (self_s.get("network.loss_and_gradient", 0.0), "s")
    out["network.loss_and_gradient.calls"] = (calls["network.loss_and_gradient"], "count")
    out["network.loss_and_gradient.peak_rss_mb"] = (counts["network.loss_and_gradient.peak_rss_mb"], "MB")
    out["network.propagate_final.s"] = (seconds("network.propagate_final"), "s")
    out["network.propagate_final.calls"] = (calls["network.propagate_final"], "count")
    out["network.propagate_final.examples"] = (counts["network.propagate_final.examples"], "count")
    iters = counts["training.bcd_train.iters"]
    trials = calls["training.armijo"]
    out["training.armijo.s"] = (seconds("training.armijo"), "s")
    out["training.armijo.trials"] = (trials, "count")
    out["training.armijo.trials_per_iter"] = (trials / iters if iters else 0.0, "trials/iter")
    newton_s = seconds("training.newton")
    solve_s = seconds("training.newton.dense_solve")
    cg_s = seconds("training.newton.cg")
    out["training.newton.s"] = (newton_s, "s")
    out["training.newton.calls"] = (calls["training.newton"], "count")
    out["training.newton.fallbacks"] = (counts["training.newton.fallbacks"], "count")
    out["training.newton.assembly_s"] = (newton_s - solve_s - cg_s, "s")
    out["training.newton.dense_solve.s"] = (solve_s, "s")
    out["training.newton.dense_solve.calls"] = (calls["training.newton.dense_solve"], "count")
    out["training.newton.cg.s"] = (cg_s, "s")
    out["training.newton.cg.calls"] = (calls["training.newton.cg"], "count")
    out["training.newton.cg.iters"] = (counts["training.newton.cg.iters"], "count")
    out["training.newton.cg.maxiter_hits"] = (counts["training.newton.cg.maxiter_hits"], "count")
    out["training.bcd_train.s"] = (seconds("training.bcd_train"), "s")
    out["training.bcd_train.iters"] = (iters, "count")
    out["training.evaluate.s"] = (seconds("training.evaluate"), "s")
    for name in (
        "multiscale.pyramid_build",
        "grid.gaussian_blur_values",
        "grid.restrict_values",
        "grid.prolong_values",
        "multiscale.adapt_model_resolution",
        "multiscale.prolong_depth",
        "multiscale.init_loss",
        "stencils.build_coarsen_map",
        "data.load_idx",
        "data.save_model",
        "data.load_model",
        "data.make_synthetic",
        "cli.inspect",
        "cli.adapt",
        "cli.train",
        "cli.multilevel",
        "cli.deepen",
    ):
        out[f"{name}.s"] = (seconds(name), "s")
    out["data.model_bytes"] = (counts["data.model_bytes"], "bytes")
    out["trace.spans"] = (len(tracer.spans), "count")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out
