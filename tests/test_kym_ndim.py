import numpy as np
import pytest

from dhym import ConstantCurvature2, Regime, lift_to_2d, solve
from dhym.errors import DimensionMismatch, InvalidConfig, NonPositiveMetric, NotConvex
from dhym.kym_ndim import (
    KymData,
    abreu_operator,
    abreu_operator_divergence_form,
    apriori_verify,
    det_bound_verify,
    j_equation_residual,
    residual_complex,
)
from dhym.ode_solver import complex_datum
from dhym.spectral import _DENSE_MAX_N, grid, grid2, hessian2, spectral_derivative

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

    @pytest.mark.parametrize("n", [16, 64, 128, 256])
    def test_flat_on_both_derivative_paths(self, n):
        # dense products below the crossover, FFTs above: u^{ij} - delta^{ij}
        # is differentiated, so the flat potential gives exact zeros on both
        assert not abreu_operator(np.zeros((n, n))).any()

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

    @pytest.mark.parametrize("operator", [abreu_operator, abreu_operator_divergence_form])
    def test_rejects_negative_definite_points(self, operator):
        # I + Hess phi = -I at every other point: det 1 > 0, but tr -2 < 0
        n = 32
        x, y = grid2(n)
        phi = 2.0 / (np.pi * n) ** 2 * np.cos(np.pi * n * x) * np.cos(np.pi * n * y)
        with pytest.raises(NotConvex, match=r"nonpositive eigenvalue \(-1\)"):
            operator(phi)


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

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 0, 2, 2)])
    def test_refuses_empty_field(self, shape):
        # a sup over no points has no value
        with pytest.raises(DimensionMismatch, match="empty"):
            apriori_verify(np.zeros(shape), np.zeros(shape), mu=1.0)


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

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 0, 2, 2)])
    def test_refuses_empty_field(self, shape):
        with pytest.raises(DimensionMismatch, match="empty"):
            det_bound_verify(np.zeros(shape))


def repeated(m):
    """The test-only oracle: a field with a length-1 second axis, copied
    along that axis onto the square grid."""
    return np.repeat(m, m.shape[0], axis=1)


def identity_field(shape):
    return np.broadcast_to(np.eye(2), shape + (2, 2)).copy()


#: The limit residuals, each called as site(v, F, datum).
RESIDUALS = {
    "residual_complex": lambda v, f, datum: residual_complex(v, f, KymData(alpha=1.0, b_matrix=np.eye(2)), datum),
    "j_equation_residual": lambda v, f, datum: j_equation_residual(v, f, 1.0, 1.0, datum),
}

#: Refusals of this module: (call, error, message).
REFUSALS = {
    "abreu-nan": (lambda: abreu_operator(np.full((16, 16), np.nan)), InvalidConfig, "phi must be finite"),
    "abreu-not-square": (lambda: abreu_operator(np.zeros((16, 8))), DimensionMismatch, "N x N field"),
    "j-singular-curvature": (
        lambda: j_equation_residual(identity_field((16, 1)), np.zeros((16, 1, 2, 2)), 1.0, 1.0, 0.0),
        InvalidConfig,
        "curvature field is singular",
    ),
    **{
        f"{site}-{case}": (
            lambda call=call, fields=fields, datum=datum: call(fields, fields, datum),
            DimensionMismatch,
            match,
        )
        for site, call in RESIDUALS.items()
        for case, fields, datum, match in [
            ("rank-3", identity_field((16,)), 0.0, r"\(N, M, 2, 2\) fields"),
            ("datum-8-on-16x16", identity_field((16, 16)), np.zeros(8), r"does not match the \(16, 16\) grid"),
            ("datum-16x16-on-16x1", identity_field((16, 1)), np.zeros((16, 16)), "does not match"),
        ]
    },
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refusals(case):
    call, error, match = REFUSALS[case]
    with pytest.raises(error, match=match):
        call()


class TestYIndependentLayout:
    """A field constant in y has a length-1 second axis, checked against the
    same field repeated onto the square grid."""

    @pytest.mark.parametrize("n", [64, 256])  # dense partial2, then FFT
    def test_hessian_of_a_column(self, n):
        x1 = grid(n)[:, None]
        col = 0.01 * np.cos(2 * np.pi * x1) + 0.003 * np.sin(6 * np.pi * x1)
        h = hessian2(col)
        assert h.shape == (n, 1, 2, 2)
        assert not h[..., 0, 1].any() and not h[..., 1, 0].any() and not h[..., 1, 1].any()
        full = hessian2(repeated(col))[:, :1, 0, 0]
        if n > _DENSE_MAX_N:
            assert np.array_equal(h[..., 0, 0], full)
        else:
            assert np.abs(h[..., 0, 0] - full).max() <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("n, tol", [(64, 1e-13), (256, 0.0)])
    @pytest.mark.parametrize("regime", [Regime.LARGE_RADIUS, Regime.SMALL_RADIUS])
    def test_lifted_residuals_match_repeated_fields(self, regime, n, tol):
        # bit for bit on the FFT path; at N = 64 the dense y-derivative of
        # the repeated constant rows is roundoff, not zero
        f0 = ConstantCurvature2(0.5, 0.3, 0.4) if regime is Regime.LARGE_RADIUS else ConstantCurvature2(2.0, 0.5, 1.0)
        problem = cosine_problem(regime, f0, n=n, amplitude=0.05)
        bundle = solve(problem)
        v, f = lift_to_2d(bundle, problem)
        datum = complex_datum(bundle, problem).samples
        if regime is Regime.LARGE_RADIUS:
            data = KymData.from_constant_curvature(f0.matrix, problem.alpha)
            site = lambda v, f, datum: residual_complex(v, f, data, datum)
        else:
            site = lambda v, f, datum: j_equation_residual(v, f, f0.tr / f0.det, problem.alpha, datum)
        assert v.shape == f.shape == (n, 1, 2, 2)
        for r, r_full in zip(site(v, f, datum), site(repeated(v), repeated(f), repeated(datum[:, None]))):
            assert r.shape == (n, 1)
            assert np.abs(r - r_full[:, :1]).max() <= tol


class TestFieldHelpers:
    def test_kym_data_degree_consistency(self):
        b = np.array([[0.5, 0.3], [0.3, 0.4]])
        data = KymData(alpha=1.0, b_matrix=b)
        assert data.mu == np.trace(b)
