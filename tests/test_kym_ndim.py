import numpy as np
import pytest

from dhym import ConstantCurvature2, Regime, lift_to_2d, solve
from dhym.errors import InvalidConfig, NonPositiveMetric, NotConvex
from dhym.kym_ndim import (
    KymData,
    abreu_operator,
    abreu_operator_divergence_form,
    apriori_verify,
    as_field2d,
    det_bound_verify,
    j_equation_residual,
    residual_complex,
)
from dhym.spectral import grid, grid2, hessian2, spectral_derivative

from conftest import cosine_problem


def band_limited_field(n, seed, amplitude=0.01, kmax=2):
    rng = np.random.default_rng(seed)
    x, y = grid2(n)
    f = np.zeros((n, n))
    for kx in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            f += rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y))
            f += rng.normal() * np.sin(2 * np.pi * (kx * x + ky * y))
    return amplitude * f / max(1.0, np.abs(hessian2(f)).max() * amplitude / 0.3)


class TestAbreuOperator:
    def test_flat(self):
        assert np.abs(abreu_operator(np.zeros((32, 32)))).max() == 0.0

    def test_separable_matches_1d(self):
        n = 64
        x1 = grid(n)
        phi_1d = 0.003 * np.cos(2 * np.pi * x1)
        phi = np.repeat(phi_1d[:, None], n, axis=1)
        out = abreu_operator(phi)
        w = 1.0 + spectral_derivative(phi_1d, 2)
        ref = spectral_derivative(1.0 / w, 2)
        assert np.abs(out - ref[:, None]).max() < 1e-8

    def test_two_forms_agree_spectrally(self):
        # the raw and divergence forms differ only by aliasing, which dies
        # at a spectral rate under refinement for band-limited data
        from dhym.spectral import resample2

        base = band_limited_field(24, seed=5, amplitude=0.01)
        errs = []
        for n in (24, 32, 48, 64):
            phi_n = resample2(base, n)
            d = abreu_operator(phi_n) - abreu_operator_divergence_form(phi_n)
            errs.append(np.abs(d).max())
        assert (np.diff(errs) < 0).all()
        assert errs[-1] < 1e-3 * errs[0]  # far faster than any algebraic rate
        assert errs[-1] < 1e-6

    def test_zero_mean(self, rng):
        phi = band_limited_field(32, seed=11, amplitude=0.02)
        assert abs(abreu_operator(phi).mean()) < 1e-10

    def test_rejects_nonconvex(self):
        x, y = grid2(32)
        phi = 0.05 * np.cos(2 * np.pi * x)  # Hessian entry -0.05*(2pi)^2 < -1
        with pytest.raises(NotConvex):
            abreu_operator(phi)


class TestResidualComplex:
    def test_flat_solution(self):
        n = 32
        b = np.array([[0.5, 0.3], [0.3, 0.4]])
        data = KymData.from_constant_curvature(b, alpha=1.0)
        v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
        f = np.broadcast_to(b, (n, n, 2, 2)).copy()
        # the constant datum balancing the flat background
        f_const = 2 * data.alpha * data.mu**2 - 2 * data.alpha * np.trace(b @ b)
        r1, r2 = residual_complex(v, f, data, np.full((n, n), f_const))
        assert np.abs(r1).max() < 1e-14
        assert np.abs(r2).max() < 1e-12

    def test_solved_bundle(self):
        from dhym.ode_solver import complex_datum

        f0 = ConstantCurvature2(0.5, 0.3, 0.4)
        problem = cosine_problem(Regime.LARGE_RADIUS, f0, amplitude=0.05)
        bundle = solve(problem)
        v, f = lift_to_2d(bundle, problem)
        data = KymData.from_constant_curvature(f0.matrix, problem.alpha)
        fy = complex_datum(bundle, problem)
        r1, r2 = residual_complex(v, f, data, fy.samples)
        assert np.abs(r1).max() < 1e-7
        assert np.abs(r2).max() < 1e-7

    def test_perturbation_scales_linearly(self):
        n = 32
        b = np.array([[0.5, 0.0], [0.0, 0.4]])
        data = KymData.from_constant_curvature(b, alpha=1.0)
        f_const = 2 * data.alpha * data.mu**2 - 2 * data.alpha * np.trace(b @ b)
        x, _ = grid2(n)
        results = []
        for eps in (1e-4, 1e-5):
            f = np.broadcast_to(b, (n, n, 2, 2)).copy()
            f[..., 0, 0] += eps * np.cos(2 * np.pi * x)
            v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
            r1, _ = residual_complex(v, f, data, np.full((n, n), f_const))
            results.append(np.abs(r1).max())
        assert abs(results[0] / results[1] - 10.0) < 0.01

    def test_degree_pairing_grid_independent(self):
        # mean of v^{ij} F_ij det(v) is a class quantity for constant F
        from dhym.spectral import resample2

        b = np.array([[0.5, 0.3], [0.3, 0.4]])
        values = []
        base = band_limited_field(24, seed=9, amplitude=0.01)
        for n in (24, 32, 48):
            pert = resample2(base, n)
            v = np.eye(2) + hessian2(pert)
            det = v[..., 0, 0] * v[..., 1, 1] - v[..., 0, 1] ** 2
            vinv_f = np.einsum("...ij,jk->...ik", np.linalg.inv(v), b)
            pairing = np.einsum("...ii->...", vinv_f) * det
            values.append(pairing.mean())
        assert np.abs(np.diff(values)).max() < 1e-8

    def test_rejects_indefinite_metric(self):
        n = 16
        v = np.broadcast_to(np.diag([1.0, -1.0]), (n, n, 2, 2)).copy()
        data = KymData.from_constant_curvature(np.eye(2), alpha=1.0)
        with pytest.raises(NonPositiveMetric):
            residual_complex(v, v, data, np.zeros((n, n)))

    def test_huge_degree_does_not_raise(self):
        # mu = 1e200: mu squared overflows to inf, which a float power raises on
        n = 16
        b = np.diag([1e200, 0.0])
        v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
        f = np.broadcast_to(b, (n, n, 2, 2)).copy()
        with np.errstate(over="ignore", invalid="ignore"):
            r1, r2 = residual_complex(v, f, KymData.from_constant_curvature(b, 1.0), np.zeros((n, n)))
        assert r1.shape == r2.shape == (n, n)


class TestJEquationResidual:
    def test_flat_solution(self):
        n = 32
        f0 = ConstantCurvature2(2.0, 0.5, 1.0)
        kappa = f0.tr / f0.det
        v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
        f = np.broadcast_to(f0.matrix, (n, n, 2, 2)).copy()
        f_const = -1.0 * f0.det
        r1, r2 = j_equation_residual(v, f, kappa, 1.0, np.full((n, n), f_const))
        assert np.abs(r1).max() < 1e-14
        assert np.abs(r2).max() < 1e-14

    def test_solved_bundle(self):
        from dhym.ode_solver import complex_datum

        f0 = ConstantCurvature2(2.0, 0.5, 1.0)
        problem = cosine_problem(Regime.SMALL_RADIUS, f0, amplitude=0.05)
        bundle = solve(problem)
        v, f = lift_to_2d(bundle, problem)
        fy = complex_datum(bundle, problem)
        r1, r2 = j_equation_residual(v, f, f0.tr / f0.det, problem.alpha, fy.samples)
        assert np.abs(r1).max() < 1e-8
        assert np.abs(r2).max() < 1e-7


class TestAprioriVerify:
    def test_zero_curvature(self):
        n = 16
        v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
        report = apriori_verify(v, np.zeros((n, n, 2, 2)), mu=1.0)
        assert report.passed
        assert report.max_lambda == 0.0

    def test_proportional_case(self):
        n = 16
        mu = 0.9
        v = np.broadcast_to(np.diag([1.3, 0.8]), (n, n, 2, 2)).copy()
        f = 0.5 * mu * v
        report = apriori_verify(v, f, mu=mu)
        assert report.passed
        assert abs(report.min_lambda - mu / 2) < 1e-12
        assert abs(report.max_lambda_sq_sum - mu**2 / 2) < 1e-12
        assert report.max_lambda_sq_sum < 2 * mu**2

    def test_solved_bundle(self):
        f0 = ConstantCurvature2(0.5, 0.3, 0.4)
        problem = cosine_problem(Regime.LARGE_RADIUS, f0, amplitude=0.05)
        bundle = solve(problem)
        v, f = lift_to_2d(bundle, problem)
        report = apriori_verify(v, f, mu=f0.tr, tol=1e-8)
        assert report.curvature_nonneg
        assert report.passed
        assert report.max_lambda_sq_sum < 2 * f0.tr**2

    def test_flags_out_of_range(self):
        n = 16
        v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
        f = np.broadcast_to(np.diag([2.0, 0.1]), (n, n, 2, 2)).copy()
        report = apriori_verify(v, f, mu=1.0)
        assert not report.in_range  # an eigenvalue exceeds the degree


class TestDetBound:
    def test_flat(self):
        n = 16
        v = np.broadcast_to(np.eye(2), (n, n, 2, 2)).copy()
        report = det_bound_verify(v, bounds=(0.5, 2.0))
        assert report.min_det == 1.0 and report.max_det == 1.0
        assert report.passed

    def test_solved_bundle(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        v, _ = lift_to_2d(solve(problem), problem)
        report = det_bound_verify(v)
        assert report.min_det > 0.0
        assert report.passed

    def test_synthetic_degenerate(self):
        n = 16
        v = np.broadcast_to(np.diag([3.0, 1.0]), (n, n, 2, 2)).copy()
        report = det_bound_verify(v, bounds=(0.5, 2.0))
        assert not report.passed


class TestFieldHelpers:
    def test_broadcast_1d(self):
        m = np.zeros((32, 2, 2))
        m[:, 0, 0] = np.linspace(1, 2, 32)
        full = as_field2d(m)
        assert full.shape == (32, 32, 2, 2)
        assert (full[:, 5] == m).all()

    def test_kym_data_degree_consistency(self):
        with pytest.raises(InvalidConfig):
            KymData(mu=5.0, alpha=1.0, b_matrix=np.eye(2))
