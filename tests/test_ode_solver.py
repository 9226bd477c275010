import dataclasses

import numpy as np
import pytest

from dhym import (
    ConstantCurvature2,
    ODEProblem,
    PeriodicProfile,
    Regime,
    compatibility_constant,
    dhym_residual_surface,
    lift_to_2d,
    linearize,
    max_principle_verify,
    project_datum,
    reconstruct_bundle_potential,
    residual,
    solve,
    surface_ma_check,
)
from dhym.core_geometry import Phase, torus_constant_phase
from dhym.errors import (
    ContinuationStalled,
    ConvexityLost,
    InvalidConfig,
    NotConvex,
    SmallRadiusObstruction,
)
from dhym import ode_solver
from dhym.ode_solver import LinearizedOde
from dhym.spectral import grid, second_antiderivative, spectral_derivative

from conftest import REGIME_CASES, cosine_problem, flat_problem, manufactured_problem

# regression anchor for the off-diagonal coupled instance
# (alpha = 1, datum -2 + 0.1 cos(2 pi x), N = 256); frozen from the first run
REFERENCE_SUP = 2.332950617298219e-04
REFERENCE_AT_ZERO = 2.327723360069351e-04


class TestCompatibilityConstant:
    def test_uncoupled(self):
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.4, 0.8, 0.1), alpha=0.0)
        assert compatibility_constant(problem) == 0.0

    def test_trivial_class(self):
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 0.0, 0.0), alpha=1.3)
        assert abs(compatibility_constant(problem) + 1.3) < 1e-15  # -alpha * N, N = 1

    def test_closed_forms(self):
        f0 = ConstantCurvature2(0.5, 0.3, 0.4)
        alpha = 0.7
        dhym = flat_problem(Regime.DHYM, f0, alpha=alpha)
        assert abs(compatibility_constant(dhym) + alpha * dhym.phase.magnitude) < 1e-13
        large = flat_problem(Regime.LARGE_RADIUS, f0, alpha=alpha)
        assert abs(compatibility_constant(large) - 4.0 * alpha * f0.det) < 1e-13
        small = flat_problem(Regime.SMALL_RADIUS, f0, alpha=alpha)
        assert abs(compatibility_constant(small) + alpha * f0.det) < 1e-13

    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_quadrature_oracle(self, regime, f0):
        # with A equal to the constant, the residual at phi = 0 integrates to zero
        problem = flat_problem(regime, f0, n=64)
        c_a = compatibility_constant(problem)
        datum = np.full(64, c_a)
        r = residual(PeriodicProfile.zeros(64), problem, datum)
        assert abs(r.mean()) < 1e-12


class TestProjectDatum:
    def test_already_compatible(self):
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        c_a = compatibility_constant(problem)
        a = PeriodicProfile.from_fourier(problem.n, cos=[0.3], constant=c_a)
        _, shift = project_datum(a, problem)
        assert abs(shift) < 1e-14

    def test_zero_datum(self):
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        a_proj, _ = project_datum(PeriodicProfile.zeros(problem.n), problem)
        assert np.allclose(a_proj.samples, compatibility_constant(problem))

    def test_random_mean(self, rng):
        problem = flat_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.5, 0.3, 0.4), n=64)
        a = PeriodicProfile.from_samples(rng.uniform(-1, 1, 64))
        a_proj, _ = project_datum(a, problem)
        assert abs(a_proj.mean() - compatibility_constant(problem)) < 1e-13


class TestResidual:
    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_flat_zero(self, regime, f0):
        problem = flat_problem(regime, f0)
        a_proj, _ = project_datum(problem.datum_a, problem)
        r = residual(PeriodicProfile.zeros(problem.n), problem, a_proj.samples)
        assert np.abs(r.samples).max() < 1e-12

    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_manufactured_zero(self, regime, f0):
        problem, target = manufactured_problem(regime, f0)
        r = residual(target, problem)
        assert np.abs(r.samples).max() < 1e-12

    def test_mean_invariant(self, rng):
        # for a compatible datum the residual mean vanishes for EVERY phi
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        for _ in range(20):
            psi_dd = 0.3 * rng.uniform(-1, 1) * np.cos(2 * np.pi * grid(128))
            psi_dd += 0.1 * rng.uniform(-1, 1) * np.sin(4 * np.pi * grid(128))
            phi = PeriodicProfile.from_samples(second_antiderivative(psi_dd), demean=True)
            r = residual(phi, problem)
            assert abs(r.mean()) < 1e-12

    def test_rejects_nonconvex(self):
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=64)
        phi_dd = -2.0 * np.cos(2 * np.pi * grid(64))
        phi = PeriodicProfile.from_samples(second_antiderivative(phi_dd), demean=True)
        with pytest.raises(NotConvex):
            residual(phi, problem)


class TestLinearize:
    def test_flat_symbol(self):
        # at phi = 0 the operator is diagonal with symbol (2 pi k)^4/4 + K (2 pi k)^2
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        k1, _ = problem.coefficients()
        lin = linearize(PeriodicProfile.zeros(128), problem)
        x = grid(128)
        for k in (1, 2, 5, 17):
            mode = np.cos(2 * np.pi * k * x)
            symbol = 0.25 * (2 * np.pi * k) ** 4 + k1 * (2 * np.pi * k) ** 2
            assert np.abs(lin.apply(mode) - symbol * mode).max() < 1e-9 * symbol

    def test_kills_constants(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=64)
        bundle = solve(problem)
        lin = linearize(bundle.phi, problem)
        assert np.abs(lin.apply(np.ones(64))).max() < 1e-9

    def test_beta_form_selfadjoint(self):
        # the symmetry the beta form beta -> beta''/4 - K beta makes manifest,
        # checked on the operator itself: <u, L v> = <v, L u>
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        bundle = solve(problem)
        lin = linearize(bundle.phi, problem)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u, v = rng.standard_normal((2, 128))
            u -= u.mean()
            v -= v.mean()
            lu, lv = lin.apply(u), lin.apply(v)
            scale = np.abs(lv).max() * np.abs(u).max() + np.abs(lu).max() * np.abs(v).max()
            assert abs(np.mean(u * lv) - np.mean(v * lu)) <= 1e-9 * scale

    def test_matches_finite_differences(self):
        # directional derivative of the residual against the assembled operator
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        bundle = solve(problem)
        lin = linearize(bundle.phi, problem)
        delta = PeriodicProfile.from_fourier(128, cos=[0.7], sin=[0.0, 0.2]).samples
        applied = lin.apply(delta)
        errs = []
        eps_list = [1e-4, 1e-5]
        for eps in eps_list:
            plus = residual(PeriodicProfile.from_samples(bundle.phi.samples + eps * delta), problem)
            minus = residual(PeriodicProfile.from_samples(bundle.phi.samples - eps * delta), problem)
            fd = (plus.samples - minus.samples) / (2 * eps)
            errs.append(np.abs(fd - applied).max())
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_bordered_solvable_without_coupling(self):
        # b = 0 reduces to the bare fourth-order operator (K1 = 0); it stays
        # positive definite on mean-zero fields, so the CG step solves it
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.5, 0.0, -0.2), n=64)
        lin = linearize(PeriodicProfile.zeros(64), problem)
        rhs = np.cos(2 * np.pi * grid(64))
        delta = lin.solve(rhs)
        assert np.abs(lin.apply(delta) - rhs).max() < 1e-9
        assert abs(delta.mean()) < 1e-13

    @pytest.mark.parametrize("n", [32, 64])
    def test_dense_oracle(self, n):
        # the gauge-bordered dense system, assembled from the spectral second
        # derivative of the identity, against the matrix-free step
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=n)
        bundle = solve(problem)
        lin = linearize(bundle.phi, problem)
        k1, _ = problem.coefficients()
        d2 = spectral_derivative(np.eye(n), 2).T
        bordered = np.zeros((n + 1, n + 1))
        bordered[:n, :n] = 0.25 * d2 @ (d2 / lin.w[:, None] ** 2) - k1 * d2
        bordered[:n, n] = 1.0
        bordered[n, :n] = 1.0 / n
        rhs = PeriodicProfile.from_fourier(n, cos=[0.3, 0.0, -0.1], sin=[0.2], constant=0.05).samples
        dense = np.linalg.solve(bordered, np.concatenate([rhs, [0.0]]))[:n]
        delta = lin.solve(rhs)
        assert np.abs(delta - dense).max() <= 1e-9 * np.abs(dense).max()

    @pytest.mark.parametrize("n", [256, 1024])
    def test_applications_per_solve(self, n, monkeypatch):
        # README problem: the preconditioned step needs a handful of operator
        # applications at every N
        counts = []
        apply, lin_solve = LinearizedOde.apply, LinearizedOde.solve

        def counted_apply(self, delta_phi):
            counts[-1] += 1
            return apply(self, delta_phi)

        def counted_solve(self, rhs):
            counts.append(0)
            return lin_solve(self, rhs)

        monkeypatch.setattr(LinearizedOde, "apply", counted_apply)
        monkeypatch.setattr(LinearizedOde, "solve", counted_solve)
        bundle = solve(cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=n))
        assert bundle.residual_sup <= 1e-10
        assert len(counts) == 3
        assert max(counts) <= 20


class TestSolve:
    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_flat_datum_immediate(self, regime, f0):
        bundle = solve(flat_problem(regime, f0))
        assert np.abs(bundle.phi.samples).max() == 0.0
        assert bundle.residual_sup == 0.0
        assert bundle.continuation_trace[0][1] == 0  # zero Newton iterations

    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_manufactured_recovery(self, regime, f0):
        problem, target = manufactured_problem(regime, f0)
        bundle = solve(problem)
        assert np.abs(bundle.phi.samples - target.samples).max() < 1e-8
        assert bundle.continuation_trace[-1][0] == 1.0
        assert sum(t[1] for t in bundle.continuation_trace) <= 8
        assert bundle.residual_sup <= problem.residual_tol

    def test_reference_instance_regression(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        bundle = solve(problem)
        assert bundle.residual_sup <= 1e-10
        assert abs(np.abs(bundle.phi.samples).max() - REFERENCE_SUP) < 1e-12
        assert abs(bundle.phi.samples[0] - REFERENCE_AT_ZERO) < 1e-12

    def test_quadratic_tail(self, monkeypatch):
        histories = []
        newton = ode_solver._newton

        def recorded(*args):
            phi, history = newton(*args)
            histories.append(history)
            return phi, history

        monkeypatch.setattr(ode_solver, "_newton", recorded)
        problem, _ = manufactured_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        solve(problem)
        hist = histories[-1]
        tail = [r for r in hist if r > 5e-14]
        ratios = [tail[i + 1] / tail[i] ** 2 for i in range(len(tail) - 1)]
        assert len(ratios) >= 2
        assert max(ratios[-2:]) < 1e3

    def test_admissibility_cone(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), amplitude=0.4)
        bundle = solve(problem)
        w = 1.0 + spectral_derivative(bundle.phi.samples, 2, stabilized=True)
        assert w.min() > 0.0

    def test_regimes_coincide_without_coupling(self):
        # b = 0: all three regimes reduce to the same fourth-order equation
        f0 = ConstantCurvature2(1.0, 0.0, 0.5)
        a = PeriodicProfile.from_fourier(256, cos=[0.05])
        phis = []
        for regime in Regime:
            problem = ODEProblem(regime=regime, alpha=1.0, f0=f0, datum_a=a)
            phis.append(solve(problem).phi.samples)
        assert np.abs(phis[0] - phis[1]).max() < 1e-9
        assert np.abs(phis[0] - phis[2]).max() < 1e-9

    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_near_cone_edge_exit_code(self, regime, f0):
        # min w = 0.05: Newton either solves or reports non-convergence
        # (exit 4); an inexact step is never a singular linearization
        problem, _ = manufactured_problem(regime, f0, n=128, eps=0.95 / (2 * np.pi) ** 2)
        try:
            bundle = solve(problem)
        except (ContinuationStalled, ConvexityLost):
            return
        assert bundle.residual_sup <= problem.residual_tol

    def test_antipodal_phase_rejected(self):
        # the antipodal phase makes cos - c sin negative, hence K1 < 0
        f0 = ConstantCurvature2(0.5, 0.3, 0.4)
        ph = torus_constant_phase(f0)
        with pytest.raises(InvalidConfig):
            ODEProblem(
                regime=Regime.DHYM,
                alpha=1.0,
                f0=f0,
                datum_a=PeriodicProfile.zeros(64),
                phase=Phase(-ph.cos, -ph.sin, ph.magnitude),
            )

    def test_small_radius_obstruction(self):
        problem = flat_problem(Regime.SMALL_RADIUS, ConstantCurvature2(1.0, 0.5, -1.0))
        with pytest.raises(SmallRadiusObstruction):
            solve(problem)

    def test_small_radius_degenerate_class(self):
        with pytest.raises(SmallRadiusObstruction):
            flat_problem(Regime.SMALL_RADIUS, ConstantCurvature2(1.0, 0.0, 0.0))

    def test_small_radius_uncoupled_indefinite_allowed(self):
        # b = 0 with det < 0 is the plain fourth-order equation; solvable
        problem = cosine_problem(Regime.SMALL_RADIUS, ConstantCurvature2(1.0, 0.0, -0.5), n=128, amplitude=0.05)
        bundle = solve(problem)
        assert bundle.residual_sup <= problem.residual_tol

    def test_deterministic(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        b1 = solve(problem)
        b2 = solve(problem)
        assert (b1.phi.samples == b2.phi.samples).all()


class TestBundlePotential:
    def test_flat_vanishes(self):
        bundle = solve(flat_problem(Regime.DHYM, ConstantCurvature2(0.3, 0.7, -0.1)))
        assert np.abs(bundle.phi_f.samples).max() < 1e-14

    def test_large_radius_ratio(self):
        f0 = ConstantCurvature2(0.5, 0.3, 0.4)
        problem = cosine_problem(Regime.LARGE_RADIUS, f0, amplitude=0.05)
        bundle = solve(problem)
        psi_dd = spectral_derivative(bundle.psi.samples, 2, stabilized=True)
        phif_dd = spectral_derivative(bundle.phi_f.samples, 2, stabilized=True)
        mask = np.abs(psi_dd) > 1e-8
        assert mask.any()
        assert np.abs(phif_dd[mask] / psi_dd[mask] - f0.a).max() < 1e-7

    def test_small_radius_ratio(self):
        f0 = ConstantCurvature2(2.0, 0.5, 1.0)
        problem = cosine_problem(Regime.SMALL_RADIUS, f0, amplitude=0.05)
        bundle = solve(problem)
        psi_dd = spectral_derivative(bundle.psi.samples, 2, stabilized=True)
        phif_dd = spectral_derivative(bundle.phi_f.samples, 2, stabilized=True)
        mask = np.abs(psi_dd) > 1e-8
        ratio = f0.c * f0.det / (f0.b**2 + f0.c**2)
        assert np.abs(phif_dd[mask] / psi_dd[mask] - ratio).max() < 1e-7

    def test_reconstruct_matches_bundle(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.3))
        bundle = solve(problem)
        again = reconstruct_bundle_potential(bundle.psi, problem)
        assert np.abs(again.samples - bundle.phi_f.samples).max() < 1e-15


class TestMaxPrinciple:
    def test_flat_margin_zero(self):
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        report = max_principle_verify(solve(problem), problem)
        assert abs(report.margin) < 1e-10
        assert report.holds

    def test_solved_holds(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0))
        report = max_principle_verify(solve(problem), problem)
        assert report.holds
        assert report.margin > 0.0

    def test_synthetic_violation(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=64, amplitude=0.01)
        bundle = solve(problem)
        big = PeriodicProfile.from_samples(
            second_antiderivative(30.0 * np.cos(2 * np.pi * grid(64))), demean=True
        )
        fake = dataclasses.replace(bundle, phi=big)
        report = max_principle_verify(fake, problem)
        assert not report.holds


class TestLift:
    def test_flat(self):
        f0 = ConstantCurvature2(0.3, 0.7, -0.1)
        problem = flat_problem(Regime.DHYM, f0)
        v, f = lift_to_2d(solve(problem), problem)
        assert np.allclose(v, np.eye(2))
        assert np.allclose(f, f0.matrix)

    def test_dhym_bundle_solves_surface_equation(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.3))
        bundle = solve(problem)
        v, f = lift_to_2d(bundle, problem)
        im, _ = dhym_residual_surface(v, f, problem.phase)
        assert np.abs(im).max() < 1e-8
        assert surface_ma_check(v, f, problem.phase) < 1e-8

    def test_large_radius_bundle_solves_limit_system(self):
        from dhym.kym_ndim import KymData, residual_complex
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
