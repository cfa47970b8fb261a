"""The benchmark's checks on one seed-1 round of a workload, in process.

The round runs through ``perfbench/workloads.py`` with ``perfbench/tracer.py``
installed, as ``perfbench/run.py --trace 1`` runs it, so a change that breaks
one of the workload's checks or a name the tracer wraps fails here and not
only in the benchmark.  Every workload of ``BENCHMARK.json`` runs:
``accept-bars12`` checks the finite-difference gradient, Newton
monotonicity and warm start below cold; ``cli-bundled`` the logits oracle,
monotone histories, Newton monotonicity and the Galerkin round trip;
``mnist28-standin`` IDX loading, the accuracy gate and the logits oracles
on the CG Newton and minibatch paths.
"""

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class StubClock:
    """Stands in for ``speed.SpeedProbe``: no kernel runs, no ``SIGALRM``."""

    busy = 0.0

    def speed(self, start, end):
        return 1.0


@pytest.mark.parametrize("workload", ["accept-bars12", "cli-bundled", "mnist28-standin"])
def test_round_passes_its_checks_and_every_layer_metric_moves(tmp_path, monkeypatch, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    import check_trace
    import tracer as tracing
    import workloads

    setup, run_round = workloads.WORKLOADS[workload]
    tracer = tracing.Tracer()
    probes = workloads.Probes(StubClock(), tracer)
    try:
        # the set-up runs traced too, as in run.py's traced round, so that
        # input generation shows in the spans
        tracer.install()
        tracer.enabled = True
        state = setup(1, tmp_path)
        out = tmp_path / "round"
        out.mkdir()
        probes.install()
        rnd = workloads.Round(probes, 1)
        run_round(state, rnd, out)
        tracer.enabled = False
    finally:
        probes.uninstall()
        tracer.uninstall()

    assert rnd.failures == []
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0, 1.0)
    zero = [name for name, where in check_trace.LAYER_MAP.items()
            if workload in where and not metrics[name][0]]
    assert zero == []
