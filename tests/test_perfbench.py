"""The benchmark's checks on one seed-1 ``accept-bars12`` round, in process.

The round runs through ``perfbench/workloads.py`` with ``perfbench/tracer.py``
installed, as ``perfbench/run.py --trace 1`` runs it, so a change that breaks
one of the workload's checks (finite-difference gradient, Newton
monotonicity, warm start below cold) or a name the tracer wraps fails here
and not only in the benchmark.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOAD = "accept-bars12"


class StubClock:
    """Stands in for ``speed.SpeedProbe``: no kernel runs, no ``SIGALRM``."""

    busy = 0.0

    def speed(self, start, end):
        return 1.0


def test_accept_bars12_round_passes_its_checks_and_every_layer_metric_moves(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    import check_trace
    import tracer as tracing
    import workloads

    setup, run_round = workloads.WORKLOADS[WORKLOAD]
    state = setup(1, tmp_path)
    out = tmp_path / "round"
    out.mkdir()
    tracer = tracing.Tracer()
    probes = workloads.Probes(StubClock(), tracer)
    try:
        tracer.install()
        probes.install()
        rnd = workloads.Round(probes, 1)
        tracer.enabled = True
        run_round(state, rnd, out)
        tracer.enabled = False
    finally:
        probes.uninstall()
        tracer.uninstall()

    assert rnd.failures == []
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0, 1.0)
    zero = [name for name, where in check_trace.LAYER_MAP.items()
            if WORKLOAD in where and not metrics[name][0]]
    assert zero == []
