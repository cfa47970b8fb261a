"""The benchmark's own test: every per-layer metric reads non-zero where it should.

    python3 perfbench/check_trace.py [--seed 1]

Runs each workload once with ``--trace 1`` and fails (exit 1) when a run is
not correct or when a per-layer metric that ``LAYER_MAP`` maps to that
workload reads zero on it.  ``LAYER_MAP`` is the layer-to-metric table of
the README: the workloads on which each metric should move.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALL = ("cli-bundled", "accept-bars12", "mnist28-standin")

LAYER_MAP = {
    "stencils.bank_apply.s": ALL,
    "stencils.bank_apply.calls": ALL,
    "stencils.bank_apply.gflop": ALL,
    "stencils.bank_apply.gflop_per_s": ALL,
    "network.forward_step.self_s": ALL,
    "network.embed_input.s": ALL,
    "network.loss_and_gradient.s": ("accept-bars12",),
    "network.loss_and_gradient.self_s": ("accept-bars12",),
    "network.loss_and_gradient.calls": ("accept-bars12",),
    "network.propagate_final.s": ("accept-bars12",),
    "network.propagate_final.calls": ("accept-bars12",),
    "network.propagate_final.examples": ("accept-bars12",),
    "training.armijo.s": ("mnist28-standin",),
    "training.armijo.trials": ("mnist28-standin",),
    "training.armijo.trials_per_iter": ("mnist28-standin",),
    "training.newton.s": ("cli-bundled",),
    "training.newton.calls": ("cli-bundled",),
    "training.newton.fallbacks": ("cli-bundled",),
    "training.newton.assembly_s": ("cli-bundled",),
    "training.newton.dense_solve.s": ("cli-bundled",),
    "training.newton.dense_solve.calls": ("cli-bundled",),
    "training.newton.cg.s": ("mnist28-standin",),
    "training.newton.cg.calls": ("mnist28-standin",),
    "training.newton.cg.iters": ("mnist28-standin",),
    "training.newton.cg.maxiter_hits": ("mnist28-standin",),
    "training.bcd_train.s": ALL,
    "training.bcd_train.iters": ALL,
    "training.evaluate.s": ALL,
    "multiscale.pyramid_build.s": ("mnist28-standin", "cli-bundled"),
    "grid.gaussian_blur_values.s": ("mnist28-standin", "cli-bundled"),
    "grid.restrict_values.s": ("mnist28-standin", "cli-bundled"),
    "grid.prolong_values.s": ("mnist28-standin", "cli-bundled"),
    "multiscale.adapt_model_resolution.s": ("cli-bundled",),
    "multiscale.prolong_depth.s": ("cli-bundled",),
    "multiscale.init_loss.s": ("cli-bundled",),
    "stencils.build_coarsen_map.s": ("cli-bundled",),
    "data.load_idx.s": ("mnist28-standin",),
    "data.save_model.s": ("cli-bundled",),
    "data.load_model.s": ("cli-bundled",),
    "data.model_bytes": ("cli-bundled",),
    "data.make_synthetic.s": ("cli-bundled",),
    "cli.inspect.s": ("cli-bundled",),
    "cli.adapt.s": ("cli-bundled",),
    "network.loss_and_gradient.peak_rss_mb": ("accept-bars12", "mnist28-standin"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    problems = []
    for workload in ALL:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", "1", "--trace", "1"]
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            problems.append(f"{workload}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        if not result["correct"]:
            problems.append(f"{workload}: run not correct")
        for name, where in LAYER_MAP.items():
            if workload in where and not metrics[name]["value"]:
                problems.append(f"{workload}: {name} reads zero")
        overhead = metrics["trace.overhead_s"]["value"]
        print(f"{workload}: {len(metrics)} per-layer metrics, tracing overhead {overhead:.3f} s")
    for problem in problems:
        print(f"FAIL {problem}")
    print("PASS" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
