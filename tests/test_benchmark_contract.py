"""The benchmark in ``perfbench/`` names library functions by their module
paths; a rename or deletion in ``src/`` must not leave one of its per-layer
metrics without a span."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_span_group_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its imports of the library must resolve)

    tracer = tracing.Tracer()
    try:
        tracer.install()
        registered = set(tracer._ids)
    finally:
        tracer.uninstall()
    missing = [name for names in tracing._SPAN_GROUPS.values() for name in names if name not in registered]
    assert not missing


def test_solve_bundle_shape_read_by_the_tracer(monkeypatch):
    # tracing.py sums continuation_trace[i][1] into the accepted Newton
    # iterations and divides by the linearize calls (newton_accept_ratio)
    import numpy as np

    from conftest import cosine_problem
    from dhym import ConstantCurvature2, Regime, ode_solver

    calls = []
    linearize = ode_solver.linearize
    monkeypatch.setattr(ode_solver, "linearize", lambda *args: calls.append(1) or linearize(*args))
    bundle = ode_solver.solve(cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=64, amplitude=2.0))
    assert isinstance(bundle.continuation_trace, list) and len(bundle.continuation_trace) == 1
    t, iterations, res = bundle.continuation_trace[0]
    assert t == 1.0 and isinstance(iterations, int) and iterations >= 1
    assert res == bundle.residual_sup == float(np.abs(bundle.residual.samples).max())
    assert len(calls) == iterations


def test_workload_ops_pass_their_claims(monkeypatch, tmp_path):
    # the benchmark ops call the library directly (spectral_derivative with
    # stabilized=True, residual, project_datum, max_principle_verify,
    # lift_to_2d, complex_datum, the linearized-operator battery): a changed
    # signature or a wrong answer there fails here, not in the benchmark
    from conftest import count_columns

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    sweep = workloads.OdeSweep(0, tmp_path)
    for regime, f0 in workloads.CLASSES:
        _, problem, target = sweep._manufactured(regime, f0, 64, 0.5)
        checks = workloads.verified_solve(problem, target=target)
        assert {"cone", "max_principle", "manufactured"} <= set(checks)
        assert all(passed for passed, claim in checks.values() if claim), (regime, checks)
    field = workloads.Field2d(0, tmp_path)
    u, b = field._background(32)
    trials = [workloads.band_limited(field.rng, 32, 3) for _ in range(20)]
    widths = count_columns(monkeypatch)
    checks = workloads.field_battery(u, b, trials)
    assert len(checks) == 6 and all(passed for passed, claim in checks.values() if claim), checks
    # the negativity check reads the Rayleigh quotients of the trials the
    # self-adjointness pass applied L to: 20 columns per battery, not 40
    assert sum(widths) == 20


def test_field_battery_makes_no_lapack_eigen_call(monkeypatch, tmp_path):
    # the 2x2 pencil is closed form and the symmetry test is one pass, so
    # the field-2d battery runs with eigh, eigvalsh and allclose unavailable
    import numpy as np

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    field = workloads.Field2d(0, tmp_path)
    u, b = field._background(32)
    trials = [workloads.band_limited(field.rng, 32, 3) for _ in range(20)]

    def unavailable(*args, **kwargs):
        raise AssertionError("called in a field-2d battery")

    for module, name in ((np.linalg, "eigh"), (np.linalg, "eigvalsh"), (np, "allclose")):
        monkeypatch.setattr(module, name, unavailable)
    checks = workloads.field_battery(u, b, trials)
    assert len(checks) == 6 and all(passed for passed, claim in checks.values() if claim), checks
