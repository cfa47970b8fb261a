"""mgcnn benchmark: run one workload for a while and print its metrics.

    python3 perfbench/run.py --workload cli-bundled --seed 1 --seconds 10 --trace 0

Run from the repository root.  The library is imported from ``src/`` and the
reference implementations from ``tests/oracles.py``; nothing is installed.
Each run times whole rounds of the workload until ``--seconds`` have passed,
checks every round's outputs, and prints as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (medians over rounds);
with ``--trace 1`` the run makes one untraced and one traced round and
reports the per-layer metrics of the traced one.

The BLAS thread count is set for this process and its children before numpy
loads, capped at the number of cores, and printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("cli-bundled", "accept-bars12", "mnist28-standin")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    parser.add_argument("--seconds", type=float, required=True, help="keep starting rounds until this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--blas-threads", type=int, default=1, help="BLAS threads, capped at nproc")
    parser.add_argument("--workers", type=int, default=1, help="1 runs --sequential; more passes --workers")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_blas_threads(requested: int) -> int:
    threads = max(1, min(requested, os.cpu_count() or 1))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def import_program() -> None:
    src, tests = ROOT / "src", ROOT / "tests"
    if not (src / "mgcnn" / "__init__.py").is_file() or not (tests / "oracles.py").is_file():
        raise SystemExit(f"perfbench: run from a checkout holding src/mgcnn and tests/oracles.py (looked in {ROOT})")
    sys.path[:0] = [str(src), str(tests)]


def setup_seconds(args: argparse.Namespace, scratch: Path, clock) -> float:
    """Median time of fresh processes that import the program and make the inputs.

    Each is rescaled to the reference speed by the probe speed measured just
    before and just after it.
    """
    times = []
    for i in range(SETUP_REPEATS):
        target = scratch / f"setup-{i}"
        target.mkdir()
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", str(target)]
        before = clock.spot_speed()
        start = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        seconds = perf_counter() - start
        times.append(seconds * (before + clock.spot_speed()) / 2.0)
        shutil.rmtree(target)
    return statistics.median(times)


def environment_line(threads: int) -> str:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return (f"# nproc={os.cpu_count()} blas_threads={threads} python={sys.version.split()[0]} "
            f"numpy={np.__version__} scipy={scipy.__version__} blas={blas.get('name')}-{blas.get('version')}")


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted(set().union(*rounds))
    return {k: statistics.median(r.get(k, 0.0) for r in rounds) for k in keys}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    threads = set_blas_threads(args.blas_threads)
    import_program()
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    # Inputs and outputs are named relative to the scratch directory, so the
    # config paths, and with them the config hash inside model.bin, are the
    # same in every run of a seed.
    os.chdir(scratch)
    try:
        return run(args, threads, scratch)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)


def run(args: argparse.Namespace, threads: int, scratch: Path) -> int:
    import resource

    import tracer as tracing
    import workloads
    from speed import SpeedProbe

    setup, run_round = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        setup(args.seed, Path(args.setup_only))
        return 0

    clock = SpeedProbe()
    setup_s = setup_seconds(args, scratch, clock)
    print(environment_line(threads), flush=True)

    work = Path("inputs")
    work.mkdir()
    state = setup(args.seed, work)
    tracer, probes = None, workloads.Probes(clock)
    probes.install()

    rounds, attempted, failures, digests, spans = [], 0, [], [], []
    clock.start()
    started = perf_counter()
    while not rounds or (args.trace and len(rounds) < 2) or (not args.trace and perf_counter() - started < args.seconds):
        index = len(rounds)
        if args.trace and index == 1:
            # The traced round repeats the set-up under the tracer so that
            # input generation shows in the spans too.
            probes.uninstall()
            tracer = tracing.Tracer()
            tracer.install()
            tracer.enabled, tracer.run_id = True, "setup"
            shutil.rmtree(work)
            work.mkdir()
            state = setup(args.seed, work)
            tracer.run_id = f"round-{index}"
            probes = workloads.Probes(clock, tracer)
            probes.install()
        out = Path("round")
        out.mkdir()
        rnd = workloads.Round(probes, args.workers)
        check0, begin = probes.check_s, perf_counter()
        run_round(state, rnd, out)
        spans.append((begin, perf_counter()))
        if tracer is not None:
            tracer.enabled = False
        rounds.append(rnd.metrics())
        attempted += rnd.attempted
        failures += rnd.failures
        digests.append(rnd.digest.hexdigest())
        for line in rnd.info:
            print(f"# round {index}: {line}")
        speed = clock.speed(*spans[-1])
        print(f"# round {index}: mean speed {speed:.3f} of the reference; checks took {probes.check_s - check0:.2f} s")
        print(f"# round {index}: sha256 of histories and models {digests[-1]}")
        print(f"# round {index}: " + " ".join(f"{k}={v:.4f}" for k, v in sorted(rounds[-1].items())), flush=True)
        shutil.rmtree(out, ignore_errors=True)
    clock.stop()
    probes.uninstall()

    for failure in failures:
        print(f"# failed: {failure}")
    unexpected = [f for f in failures if f.split(":", 1)[0] not in workloads.EXPECTED_FAILURES]
    correct = not unexpected and len(set(digests)) == 1

    if args.trace:
        layer = tracing.layer_metrics(tracer, rounds[0]["wall_s"], rounds[1]["wall_s"], clock.speed(*spans[1]))
        tracer.write(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.csv")
        tracer.uninstall()
        print(f"# tracing overhead {layer['trace.overhead_s'][0]:.3f} s on an untraced wall_s of {rounds[0]['wall_s']:.3f} s")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        med = median_metrics(rounds)
        print(f"# rounds={len(rounds)}")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": med["wall_s"], "unit": "s"},
            "train_s": {"value": med["train_s"], "unit": "s"},
            "multilevel_s": {"value": med["multilevel_s"], "unit": "s"},
            "deepen_s": {"value": med["deepen_s"], "unit": "s"},
            "train_examples_per_s": {"value": med["train_examples_per_s"], "unit": "examples/s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
