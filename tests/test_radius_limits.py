import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import dhym
from dhym import (
    CohomologyData,
    ConstantCurvature2,
    Regime,
    exact_z,
    large_radius_phase_check,
    limit_convergence_study,
    scaled_coupled_problem,
    small_radius_phase_check,
)
from dhym.errors import DegenerateTopPower, InvalidConfig
from dhym.radius_limits import fit_loglog_slope
from dhym.spectral import PeriodicProfile

from conftest import cosine_problem, one_error_line, random_sym


def elementary_symmetric_oracle(eigs: np.ndarray) -> np.ndarray:
    """e_0 .. e_n of the eigenvalues, by the coefficient recursion
    e_k += lambda e_(k-1)."""
    e = np.zeros(eigs.shape[0] + 1)
    e[0] = 1.0
    for lam in eigs:
        e[1:] = e[1:] + lam * e[:-1].copy()
    return e


class TestExactZ:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_symmetric_functions_equal_the_recursion(self, n):
        # bitwise, signed zeros, overflow and underflow included
        rng = np.random.default_rng(n)
        classes = [random_sym(rng, n, bound=scale) for scale in 10.0 ** np.arange(-300, 301, 25) for _ in range(8)]
        classes += [np.diag(rng.choice([-2.0, -0.0, 0.0, 1.0], n)) for _ in range(20)]
        for f0 in classes:
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                e = CohomologyData.from_matrix(f0).e
                ref = elementary_symmetric_oracle(np.linalg.eigvalsh(f0))
            assert e.tobytes() == ref.tobytes(), f0

    def test_trivial(self):
        data = CohomologyData.from_matrix(np.zeros((3, 3)))
        assert exact_z(2.0, data) == 8.0 + 0j

    def test_surface_identity_class(self):
        data = CohomologyData.from_matrix(np.eye(2))
        for t in (0.5, 1.0, 3.0):
            assert abs(exact_z(t, data) - ((t - 1j) ** 2)) < 1e-14
            assert abs(exact_z(t, data) - (t**2 - 1.0 - 2j * t)) < 1e-14

    def test_coefficients_are_symmetric_functions(self, rng):
        for _ in range(50):
            f0 = random_sym(rng, rng.choice([2, 3, 4]), bound=3.0)
            data = CohomologyData.from_matrix(f0)
            eigs = np.linalg.eigvalsh(f0)
            coeff = data.z_coefficients()
            for k in range(data.n + 1):
                from itertools import combinations

                e_k = sum(np.prod(c) for c in combinations(eigs, k)) if k else 1.0
                assert abs(coeff[k] - (-1j) ** k * e_k) < 1e-12 * max(1.0, abs(e_k))

    def test_eigenvalue_product_oracle(self, rng):
        for _ in range(100):
            f0 = random_sym(rng, 3, bound=3.0)
            data = CohomologyData.from_matrix(f0)
            eigs = np.linalg.eigvalsh(f0)
            t = rng.uniform(0.1, 10.0)
            ref = np.prod(t - 1j * eigs)
            assert abs(exact_z(t, data) - ref) < 1e-12 * abs(ref)

    def test_degree_constants(self):
        data = CohomologyData.from_matrix(np.diag([1.0, 2.0, 3.0]))
        assert abs(data.c_large - 6.0) < 1e-14  # trace
        assert abs(data.c_small - 11.0 / 6.0) < 1e-14  # e2/e3

    def test_surface_degree_ratio(self):
        # for surfaces the small-radius constant is tr/det
        f0 = ConstantCurvature2(2.0, 0.5, 1.0)
        data = CohomologyData.from_matrix(f0.matrix)
        assert abs(data.c_small - f0.tr / f0.det) < 1e-13


class TestLargeRadiusExpansion:
    def test_trivial_class_exact(self):
        data = CohomologyData.from_matrix(np.zeros((2, 2)))
        report = large_radius_phase_check(data, [10, 20, 40, 80])
        assert np.abs(report.errors).max() == 0.0
        assert np.isnan(report.slope)  # no slope can be fitted to exact zeros

    def test_threefold_slope(self):
        data = CohomologyData.from_matrix(np.diag([1.0, 2.0, 3.0]))
        report = large_radius_phase_check(data, [10, 20, 40, 80])
        assert -3.3 < report.slope < -2.7

    def test_degree_recovered_from_phase_drift(self):
        data = CohomologyData.from_matrix(np.diag([1.0, 2.0, 3.0]))
        t = 100.0
        phase = np.conj(exact_z(t, data)) / abs(exact_z(t, data))
        assert abs(t * phase.imag - data.c_large) / data.c_large < 0.01

    def test_random_classes(self, rng):
        for _ in range(5):
            f0 = random_sym(rng, 3, bound=2.0)
            data = CohomologyData.from_matrix(f0)
            report = large_radius_phase_check(data, [10, 20, 40, 80, 160])
            if (report.errors > 0).all():
                assert -3.4 < report.slope < -2.6

    def test_monotone_decrease(self, rng):
        for _ in range(10):
            f0 = random_sym(rng, 3, bound=3.0)
            data = CohomologyData.from_matrix(f0)
            report = large_radius_phase_check(data, [10, 20, 40, 80])
            if (report.errors > 0).all():
                assert (np.diff(report.errors) < 0).all()

    def test_needs_a_decade(self):
        data = CohomologyData.from_matrix(np.eye(2))
        with pytest.raises(InvalidConfig):
            large_radius_phase_check(data, [10, 12, 14, 16])


class TestSmallRadiusExpansion:
    def test_identity_class(self):
        data = CohomologyData.from_matrix(np.eye(2))
        assert abs(data.c_small - 2.0) < 1e-14  # e1/e2 = 2, checked by the fit below
        report = small_radius_phase_check(data, [1 / 10, 1 / 20, 1 / 40, 1 / 80])
        assert 1.7 < report.slope < 2.3
        # the first-order coefficient is recovered from the phase drift
        t = 1e-3
        phase = np.conj(exact_z(t, data)) / abs(exact_z(t, data))
        lead = (1j) ** 2 * np.sign(data.e[-1])
        drift = (phase / lead - 1.0) / (-1j * t)
        assert abs(drift.real - data.c_small) < 0.01 * abs(data.c_small)

    def test_indefinite_class_valid(self):
        # det < 0 is fine as long as the top power does not vanish
        data = CohomologyData.from_matrix(np.diag([2.0, -1.0]))
        report = small_radius_phase_check(data, [1 / 10, 1 / 20, 1 / 40, 1 / 80])
        assert 1.7 < report.slope < 2.3

    def test_degenerate_top_power(self):
        data = CohomologyData.from_matrix(np.diag([1.0, 0.0]))
        with pytest.raises(DegenerateTopPower):
            small_radius_phase_check(data, [0.1, 0.05])

    def test_phase_limits(self, rng):
        # arg z(t) -> 0 at large t; arg z(t) -> arg((-i)^n e_n) at small t
        for _ in range(20):
            f0 = random_sym(rng, 3, bound=2.0)
            data = CohomologyData.from_matrix(f0)
            if abs(data.e[-1]) < 1e-6:
                continue
            z_large = exact_z(1e6, data)
            assert abs(np.angle(z_large / abs(z_large))) < 1e-4
            z_small = exact_z(1e-8, data)
            target = np.angle((-1j) ** data.n * data.e[-1])
            assert abs(np.angle(z_small) - target) % (2 * np.pi) < 1e-4


class TestSlopeFit:
    def test_exact_power(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        assert abs(fit_loglog_slope(x, x**-3) + 3.0) < 1e-12

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidConfig):
            fit_loglog_slope(np.array([1.0, 2.0]), np.array([1.0, 0.0]))


class TestLimitConvergence:
    def test_scaled_problem_mapping(self):
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.4, 1.0, 0.3), amplitude=0.05)
        scaled = scaled_coupled_problem(base, 8.0)
        assert scaled.regime is Regime.DHYM
        assert scaled.f0.b == base.f0.b / 8.0
        assert scaled.alpha == 4.0 * base.alpha * 64.0

    def test_uncoupled_class_coincides(self):
        # b = 0: the scaled problems and the limit problem are the same equation
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(1.0, 0.0, 0.5), n=128, amplitude=0.05)
        report = limit_convergence_study(base, [4.0, 8.0])
        assert report.errors.max() < 1e-9
        assert report.exact

    def test_trace_free_class_coincides(self):
        # tr F0 = 0: phase (1, 0) at every t, so the rescaled K1 is the limit K1
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.3, 1.0, -0.3), amplitude=0.05)
        report = limit_convergence_study(base, [3.0, 5.0, 7.0, 11.0])
        assert report.exact
        assert np.isnan(report.order)

    def test_large_radius_order(self):
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.4, 1.0, 0.3), amplitude=0.05)
        report = limit_convergence_study(base, [4.0, 8.0, 16.0, 32.0])
        assert (np.diff(report.errors) < 0).all()
        assert -2.5 < report.order < -1.5
        assert not report.exact

    def test_large_radius_order_at_large_radii(self):
        # the residual scale has no K0 ~ alpha t^2 in it, so radii where the
        # difference falls to 1e-14 still converge, on the t^-2 line
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.4, 1.0, 0.3), n=64, amplitude=0.05)
        report = limit_convergence_study(base, [128.0, 362.0, 512.0, 2048.0, 8192.0])
        assert abs(report.order + 2.0) < 0.05
        assert not report.exact

    def test_small_radius_order(self):
        base = cosine_problem(Regime.SMALL_RADIUS, ConstantCurvature2(2.0, 0.5, 1.0), amplitude=0.05)
        report = limit_convergence_study(base, [1 / 4, 1 / 8, 1 / 16, 1 / 32])
        assert 1.5 < report.order < 2.5

    def test_needs_two_positive_radii(self):
        # an empty study is not exact, one radius has no order (nor has one radius
        # given twice), and t <= 0 is no radius
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.0, 1.0, 0.0), n=32)
        for radii in ([], [4.0], [4.0, 4.0], [0.0, 4.0], [-4.0, 4.0]):
            with pytest.raises(InvalidConfig):
                limit_convergence_study(base, radii)

    def test_coupled_regime_rejected(self):
        base = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        with pytest.raises(InvalidConfig):
            scaled_coupled_problem(base, 4.0)

    def test_one_zero_difference_has_no_order(self, tmp_path, monkeypatch):
        # differences [0, 1e-6, 1.1e-7] from the limit: not exact, and log 0
        # leaves no slope, so the order is nan, written as null
        from dhym import radius_limits
        from dhym.cli import main

        n = 32
        wave = np.cos(2 * np.pi * np.arange(n) / n)
        differences = {8.0: 1e-6, 16.0: 1.1e-7}  # the limit and t = 4 solve to phi = 0

        def fake_solve(problem):
            # the scaled problem at radius t has alpha = 4 t^2 (base alpha 1)
            t = np.sqrt(problem.alpha / 4.0) if problem.regime is Regime.DHYM else 0.0
            return SimpleNamespace(phi=PeriodicProfile(differences.get(t, 0.0) * wave), residual_scale=1.0)

        monkeypatch.setattr(radius_limits, "solve", fake_solve)
        base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.4, 1.0, 0.3), n=n, amplitude=0.05)
        report = limit_convergence_study(base, [4.0, 8.0, 16.0])
        assert report.errors.tolist() == [0.0, 1e-6, 1.1e-7]
        assert np.isnan(report.order)
        assert not report.exact

        cfg = {"regime": "large_radius", "f0": [0.4, 1.0, 0.3], "alpha": 1.0,
               "datum": {"kind": "fourier", "cos": [0.05]}, "grid": n, "t_list": [4, 8, 16]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        assert main(["limits", "--config", str(path), "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "manifest.json").read_text())["results"]
        assert results["order"] is None and results["exact"] is False


@pytest.mark.parametrize(
    "f0",
    [
        [[1e300, 0, 0], [0, -1e300, 0], [0, 0, 1e300]],  # e_2 and e_3 overflow to -inf
        [[1e308, 1e308], [1e308, 1e308]],  # F0 + F0^T overflows, so e_1 and e_2 are nan
    ],
)
def test_expand_refuses_overflowing_class(tmp_path, f0):
    # a subprocess: the overflow warns, and in-process RuntimeWarnings are errors here
    src = str(Path(dhym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"f0_matrix": f0}))
    argv = [sys.executable, "-m", "dhym.cli", "expand", "--config", str(cfg), "--out", str(tmp_path)]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert out.returncode == 2, out.stderr
    assert "the phase expansion overflows" in out.stderr


#: radii whose t^2 underflows to 0 (z(t) = t^2 of the zero class reads 0)
_TINY_RADII = [1e-200, 2e-200, 4e-200, 1e-199]


@pytest.mark.parametrize(
    "cfg",
    [
        {"f0_matrix": [[1e300, 0, 0], [0, -1e300, 0], [0, 0, 1e300]]},
        {"f0_matrix": [[1e308, 1e308], [1e308, 1e308]]},
        {"f0_matrix": [[0, 0], [0, 0]], "t_large": _TINY_RADII},
        {"f0_matrix": [[1, 0], [0, 2]], "t_large": _TINY_RADII},
    ],
    ids=["e_n-overflows", "sum-overflows", "zero-class-tiny-radii", "tiny-radii"],
)
def test_expand_overflow_prints_one_error_line(tmp_path, capsys, cfg):
    # z(t) = prod (t - i lambda_j) has no zero at a real t > 0: a zero read
    # there is underflow, refused like an overflow (exit 2), not an
    # obstruction (exit 3)
    err = one_error_line(tmp_path, capsys, "expand", cfg)
    assert err == "error: the phase expansion overflows for this class and these radii\n"


@pytest.mark.parametrize(
    "regime, f0, t_list, text",
    [
        ("large_radius", [0.4, 1.0, 0.3], [1e200, 2e200], "the ODE coefficients overflow"),
        ("small_radius", [2.0, 0.5, 1.0], [1e-200, 2e-200], "the defining integral overflows"),
    ],
    ids=["large-radius", "small-radius"],
)
def test_limits_extreme_radii_print_one_error_line(tmp_path, capsys, regime, f0, t_list, text):
    # the rescaled coupling 4 alpha t^2 overflows at large t, and det(F0/t)
    # at small t: inf or nan the study refuses, with no numpy warning first
    cfg = {"regime": regime, "f0": f0, "alpha": 1.0, "datum": {"kind": "fourier", "cos": [0.05]},
           "grid": 32, "t_list": t_list}
    assert one_error_line(tmp_path, capsys, "limits", cfg).startswith("error: " + text)
