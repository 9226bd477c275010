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
from dhym.errors import InvalidConfig, NotConverged, NotConvex, SmallRadiusObstruction
from dhym import ode_solver, spectral
from dhym.ode_solver import LinearizedOde, curvature_residual
from dhym.spectral import grid, second_antiderivative, spectral_derivative

from conftest import REGIME_CASES, cosine_problem, flat_problem, manufactured_problem

# regression anchor for the off-diagonal coupled instance
# (alpha = 1, datum -2 + 0.1 cos(2 pi x), N = 256); frozen from the first run
REFERENCE_SUP = 2.332950617298219e-04
REFERENCE_AT_ZERO = 2.327723360069351e-04
# relative sup error of the b = 0 solutions against the closed form
UNCOUPLED_BOUND = 1e-14  # measured: at most 4.0e-15


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

    @pytest.mark.parametrize("a", [10.0, 1e2, 1e3, 1e4, 1e5, 1e6])
    def test_coupled_coefficients_against_mpmath(self, a):
        # the defining expressions at the class phase, in 50 digits
        import mpmath

        f0 = ConstantCurvature2(a, 0.5, 0.3)
        problem = flat_problem(Regime.DHYM, f0, n=16)
        got = (*problem.coefficients(), ode_solver._bundle_curvature_ratio(problem))
        with mpmath.workdps(50):
            ma, mb, mc = (mpmath.mpf(v) for v in (f0.a, f0.b, f0.c))
            det, tr = ma * mc - mb * mb, ma + mc
            n = mpmath.sqrt((1 - det) ** 2 + tr**2)
            cos, sin = (1 - det) / n, -tr / n
            den = cos - mc * sin
            exact = (mb * mb / den, -(mc * mc + 1) / den, -(mc * cos + sin) / den)
            for value, ref in zip(got, exact):
                assert abs(mpmath.mpf(value) - ref) <= 1e-15 * abs(ref)

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


def uncoupled_oracle(n, cos, sin):
    """Closed-form phi for b = 0 (K1 = 0) and the datum cos*cos(2 pi x) +
    sin*sin(2 pi x) = R cos(theta), theta = 2 pi x - theta0.

    rho'' = -4 A gives rho = s + Q cos(theta) with Q = R / pi^2, and
    mean(1/rho) = 1 gives s = sqrt(1 + Q^2); then
    1/rho = 1 + 2 sum_k r^k cos(k theta) with r = (1 - s) / Q = -Q / (1 + s), so
    phi = -2 sum_k r^k cos(k theta) / (2 pi k)^2.
    """
    amp, theta0 = np.hypot(cos, sin), np.arctan2(sin, cos)
    q = amp / np.pi**2
    s = np.sqrt(1.0 + q * q)
    r = -q / (1.0 + s)  # (1 - s) / q without the cancellation
    theta = 2 * np.pi * grid(n) - theta0
    k = np.arange(1, 400)[:, None]
    return -2.0 * (r**k * np.cos(k * theta) / (2 * np.pi * k) ** 2).sum(axis=0)


class TestLinearize:
    def test_flat_symbol(self):
        # at rho = 1 the Jacobian is diagonal with symbol (2 pi k)^2/4 + K1
        problem = flat_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        k1, _ = problem.coefficients()
        lin = linearize(np.ones(128), problem)
        x = grid(128)
        for k in (1, 2, 5, 17):
            mode = np.cos(2 * np.pi * k * x)
            symbol = 0.25 * (2 * np.pi * k) ** 2 + k1
            assert np.abs(lin.apply(mode) - symbol * mode).max() < 1e-12 * symbol

    def test_kills_constants(self):
        # on the slice mean(1/rho) = 1 a constant is no direction, at any K1:
        # the mean of rho is fixed by a scalar root, not by Newton
        for b in (0.0, 1.0):
            problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.5, b, 0.4), n=64)
            lin = linearize(solve(problem).rho.samples, problem)
            assert np.abs(lin.apply(np.ones(64))).max() == 0.0

    def test_beta_form_selfadjoint(self):
        # <u, J v> = <v, J u> at a solved rho
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        lin = linearize(solve(problem).rho.samples, problem)
        rng = np.random.default_rng(7)
        for _ in range(10):
            u, v = rng.standard_normal((2, 128))
            lu, lv = lin.apply(u), lin.apply(v)
            scale = np.abs(lv).max() * np.abs(u).max() + np.abs(lu).max() * np.abs(v).max()
            assert abs(np.mean(u * lv) - np.mean(v * lu)) <= 1e-12 * scale

    def test_matches_finite_differences(self):
        # central differences of F along the slice, rho + eps delta shifted
        # to mean(1/rho) = 1, against the Jacobian: error O(eps^2)
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128, amplitude=2.0)
        rho = solve(problem).rho.samples
        lin = linearize(rho, problem)
        delta = PeriodicProfile.from_fourier(128, cos=[0.7], sin=[0.0, 0.2], constant=0.3).samples
        applied = lin.apply(delta)
        errs = []
        eps_list = [1e-2, 1e-3]
        for eps in eps_list:
            plus = curvature_residual(1.0 / ode_solver._normalized(rho + eps * delta), problem)
            minus = curvature_residual(1.0 / ode_solver._normalized(rho - eps * delta), problem)
            fd = (plus.samples - minus.samples) / (2 * eps)
            errs.append(np.abs(fd - applied).max())
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        assert abs(slope - 2.0) < 0.2

    def test_bordered_solvable_without_coupling(self):
        # b = 0 reduces the Jacobian to -D^2/4 (K1 = 0); the preconditioner
        # drops the mean, so the CG step solves it on mean-zero fields
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.5, 0.0, -0.2), n=64)
        lin = linearize(np.ones(64), problem)
        rhs = np.cos(2 * np.pi * grid(64))
        delta = lin.solve(rhs)
        assert np.abs(lin.apply(delta) - rhs).max() < 1e-12
        assert abs(delta.mean()) < 1e-15

    @pytest.mark.parametrize("n", [32, 64])
    def test_dense_oracle(self, n):
        # -D^2/4 + K1 diag(rho^-2), assembled from the spectral second
        # derivative of the identity, against the matrix-free step: the
        # dense step on the mean-free rhs keeps the slice, and the PCG step
        # is its mean-zero part
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=n, amplitude=2.0)
        rho = solve(problem).rho.samples
        lin = linearize(rho, problem)
        k1, _ = problem.coefficients()
        d2 = spectral_derivative(np.eye(n), 2).T
        rhs = PeriodicProfile.from_fourier(n, cos=[0.3, 0.0, -0.1], sin=[0.2], constant=0.05).samples
        dense = np.linalg.solve(-0.25 * d2 + np.diag(k1 / rho**2), rhs - rhs.mean())
        assert abs(np.mean(dense / rho**2)) <= 1e-12 * np.abs(dense / rho**2).max()
        dense -= dense.mean()
        delta = lin.solve(rhs)
        assert np.abs(delta - dense).max() <= 1e-11 * np.abs(dense).max()

    @pytest.mark.parametrize("n", [256, 1024])
    def test_applications_per_solve(self, n, monkeypatch):
        # README problem: the preconditioned step needs a handful of operator
        # applications at every N
        counts = []
        apply, lin_solve = LinearizedOde.apply, LinearizedOde.solve

        def counted_apply(self, delta):
            counts[-1] += 1
            return apply(self, delta)

        def counted_solve(self, rhs):
            counts.append(0)
            return lin_solve(self, rhs)

        monkeypatch.setattr(LinearizedOde, "apply", counted_apply)
        monkeypatch.setattr(LinearizedOde, "solve", counted_solve)
        bundle = solve(cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=n))
        assert bundle.residual_sup <= 1e-10
        assert len(counts) == 2
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
            out = newton(*args)
            histories.append(out[-1])
            return out

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
        # b = 0: all three regimes reduce to the same equation, -rho''/4 = A~
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
        # min w = 0.05: Newton from rho = 1 solves, to the effective tolerance
        problem, target = manufactured_problem(regime, f0, n=128, eps=0.95 / (2 * np.pi) ** 2)
        bundle = solve(problem)
        assert bundle.residual_sup <= ode_solver.effective_tolerance(problem, bundle.residual_scale)
        assert np.abs(bundle.phi.samples - target.samples).max() < 1e-9

    def test_near_edge_battery(self):
        # 45 manufactured problems with min w = 0.03 .. 0.2: each solves to its
        # effective tolerance, and so does the datum moved up by one ulp
        for regime, f0 in REGIME_CASES:
            for n in (64, 128, 256):
                for min_w in (0.03, 0.05, 0.08, 0.12, 0.2):
                    problem, target = manufactured_problem(regime, f0, n=n, eps=(1.0 - min_w) / (2 * np.pi) ** 2)
                    nudged = dataclasses.replace(
                        problem, datum_a=PeriodicProfile(np.nextafter(problem.datum_a.samples, np.inf))
                    )
                    for p in (problem, nudged):
                        bundle = solve(p)
                        assert bundle.residual_sup <= ode_solver.effective_tolerance(p, bundle.residual_scale), (regime, n, min_w)
                        assert np.abs(bundle.phi.samples - target.samples).max() < 1e-10, (regime, n, min_w)

    @pytest.mark.parametrize("n", [64, 256])
    def test_amplitude_sweep(self, n):
        # 12 amplitudes in [0.1, 20], each split over three modes with random
        # phases, in every regime and at b = 0: Newton never stalls
        classes = REGIME_CASES + [(Regime.DHYM, ConstantCurvature2(0.5, 0.0, 0.4))]
        rng = np.random.default_rng(11)
        x = grid(n)
        for amplitude in np.geomspace(0.1, 20.0, 12):
            phases = rng.uniform(0.0, 2 * np.pi, 3)
            datum = sum(amplitude / 3 * np.cos(2 * np.pi * (j + 1) * x + phases[j]) for j in range(3))
            for regime, f0 in classes:
                problem = ODEProblem(regime=regime, alpha=1.0, f0=f0, datum_a=PeriodicProfile(datum))
                bundle = solve(problem)
                assert bundle.residual_sup <= ode_solver.effective_tolerance(problem, bundle.residual_scale)
                assert bundle.continuation_trace[0][1] <= 8

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("amplitude", [0.1, 2.0, 5.0, 20.0])
    def test_uncoupled_closed_form(self, regime, amplitude):
        # b = 0 (K1 = 0) in every regime, against the closed form
        n = 256
        datum = PeriodicProfile.from_fourier(n, cos=[amplitude], sin=[0.3 * amplitude])
        problem = ODEProblem(regime=regime, alpha=1.0, f0=ConstantCurvature2(0.5, 0.0, 0.4), datum_a=datum)
        exact = uncoupled_oracle(n, amplitude, 0.3 * amplitude)
        bundle = solve(problem)
        assert np.abs(bundle.phi.samples - exact).max() <= UNCOUPLED_BOUND * np.abs(exact).max()
        assert bundle.residual_sup <= 1e-13 * amplitude

    @pytest.mark.parametrize(
        "regime, f0", [(Regime.DHYM, (1e13, 0.0, 0.0)), (Regime.LARGE_RADIUS, (1e10, 0.0, 0.3))]
    )
    def test_large_entry_class_closed_form(self, regime, f0):
        # K0 of 1e13: the solver works with the datum's deviation, so phi
        # keeps the accuracy of the closed form
        datum = PeriodicProfile.from_fourier(64, cos=[0.1])
        problem = ODEProblem(regime=regime, alpha=1.0, f0=ConstantCurvature2(*f0), datum_a=datum)
        exact = uncoupled_oracle(64, 0.1, 0.0)
        bundle = solve(problem)
        assert np.abs(bundle.phi.samples - exact).max() <= UNCOUPLED_BOUND * np.abs(exact).max()

    @pytest.mark.parametrize("regime", list(Regime))
    @pytest.mark.parametrize("alpha, b", [(1e-15, 1.0), (1.0, 1e-8), (1e-300, 1.0)])
    def test_weak_coupling_closed_form(self, regime, alpha, b):
        # K1 of 1e-15 .. 1e-300: F at the first iterate is far below tol, so
        # only the slice mean(1/rho) = 1 fixes the mean of w; phi then agrees
        # with the b = 0 closed form to O(K1)
        datum = PeriodicProfile.from_fourier(256, cos=[2.0])
        f0 = ConstantCurvature2(2.0, b, 1.0) if regime is Regime.SMALL_RADIUS else ConstantCurvature2(0.5, b, 0.4)
        bundle = solve(ODEProblem(regime=regime, alpha=alpha, f0=f0, datum_a=datum))
        exact = uncoupled_oracle(256, 2.0, 0.0)
        assert abs(np.mean(1.0 / bundle.rho.samples) - 1.0) <= 1e-15
        assert np.abs(bundle.phi.samples - exact).max() <= UNCOUPLED_BOUND * np.abs(exact).max()

    @pytest.mark.parametrize("b", [0.0, 1.0])
    def test_small_high_mode_solved(self, b):
        # a datum mode at the roundoff level of rho (rho_100 ~ 1e-14): rho''
        # keeps it, so F sees it and Newton solves it in both classes
        x = grid(256)
        datum = PeriodicProfile(0.1 * np.cos(2 * np.pi * x) + 1e-9 * np.cos(2 * np.pi * 100 * x))
        f0 = ConstantCurvature2(0.5, 0.0, 0.4) if b == 0.0 else ConstantCurvature2(0.0, 1.0, 0.0)
        bundle = solve(ODEProblem(regime=Regime.DHYM, alpha=1.0, f0=f0, datum_a=datum))
        mode = np.abs(np.fft.rfft(bundle.residual.samples)[100]) * 2 / 256
        assert mode <= 1e-11  # measured: 2.5e-12 and 2.7e-12, against 1e-9 unsolved

    def test_stall_carries_floor(self, monkeypatch):
        # a line search that cannot step stalls at the flat start: the error
        # carries the residual there (F = -A~), the floor c eps S' and S'
        monkeypatch.setattr(ode_solver, "_STEP_FLOOR", 2.0)
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=64)
        with pytest.raises(NotConverged) as info:
            solve(problem)
        err = info.value
        a_dev = problem.datum_a.samples - problem.datum_a.mean()
        assert err.residual == np.abs(a_dev).max()
        assert err.scale == pytest.approx(np.pi**2, rel=1e-14)  # (1/4) (2 pi K)^2 max|rho_k|, K = 1
        assert err.floor == ode_solver._TOL_FACTOR * np.finfo(float).eps * err.scale
        assert err.exit_code == 4
        assert "floor 2" in str(err) and "t =" not in str(err)

    def test_newton_converges_with_capped_cg(self, monkeypatch):
        # one CG step per Newton step is an inexact Newton step: more steps, same tolerance
        datum = PeriodicProfile.from_fourier(64, cos=[2.0], sin=[0.5])
        problem = ODEProblem(regime=Regime.DHYM, alpha=1.0, f0=ConstantCurvature2(0.0, 1.0, 0.3), datum_a=datum)
        exact_steps = solve(problem).continuation_trace[0][1]
        monkeypatch.setattr(spectral, "_CG_MAXITER", 1)
        bundle = solve(problem)
        assert bundle.continuation_trace[0][1] > exact_steps  # measured: 6 against 3
        assert bundle.residual_sup <= ode_solver.effective_tolerance(problem, bundle.residual_scale)

    def test_line_search_halves_the_step(self, monkeypatch):
        # a large datum at strong coupling: some full Newton step does not cut ||F||
        candidates, normalized = [], ode_solver._normalized
        monkeypatch.setattr(ode_solver, "_normalized", lambda rho: candidates.append(1) or normalized(rho))
        datum = PeriodicProfile.from_fourier(64, cos=[1000.0])
        problem = ODEProblem(regime=Regime.DHYM, alpha=30.0, f0=ConstantCurvature2(0.5, 3.0, 0.4), datum_a=datum)
        bundle = solve(problem)
        steps = bundle.continuation_trace[0][1]
        assert len(candidates) > steps  # measured: 11 candidates for 9 steps
        assert bundle.residual_sup <= ode_solver.effective_tolerance(problem, bundle.residual_scale)

    def test_antipodal_phase_rejected(self):
        # the phase is the class phase of f0, derived; no other phase (such as
        # the antipodal one, which would make K1 < 0) can be passed
        f0 = ConstantCurvature2(0.5, 0.3, 0.4)
        ph = torus_constant_phase(f0)
        with pytest.raises(TypeError):
            ODEProblem(
                regime=Regime.DHYM,
                alpha=1.0,
                f0=f0,
                datum_a=PeriodicProfile.zeros(64),
                phase=Phase(-ph.cos, -ph.sin, ph.magnitude),
            )
        assert flat_problem(Regime.DHYM, f0, n=64).phase == ph
        assert flat_problem(Regime.LARGE_RADIUS, f0, n=64).phase is None
        assert flat_problem(Regime.SMALL_RADIUS, f0, n=64).phase is None

    def test_small_radius_obstruction(self):
        problem = flat_problem(Regime.SMALL_RADIUS, ConstantCurvature2(1.0, 0.5, -1.0))
        with pytest.raises(SmallRadiusObstruction):
            solve(problem)

    @pytest.mark.parametrize("regime,f0", REGIME_CASES)
    def test_negative_coupling_rejected(self, regime, f0):
        with pytest.raises(InvalidConfig, match="coupling constant must be nonnegative"):
            flat_problem(regime, f0, alpha=-1.0)

    def test_small_radius_degenerate_class(self):
        with pytest.raises(SmallRadiusObstruction):
            flat_problem(Regime.SMALL_RADIUS, ConstantCurvature2(1.0, 0.0, 0.0))

    def test_small_radius_uncoupled_indefinite_allowed(self):
        # b = 0 with det < 0 is the plain equation -rho''/4 = A~; solvable
        problem = cosine_problem(Regime.SMALL_RADIUS, ConstantCurvature2(1.0, 0.0, -0.5), n=128, amplitude=0.05)
        bundle = solve(problem)
        assert bundle.residual_sup <= problem.residual_tol

    def test_deterministic(self):
        problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=128)
        b1 = solve(problem)
        b2 = solve(problem)
        assert (b1.phi.samples == b2.phi.samples).all()

    def test_one_datum_chop_per_solve(self, monkeypatch):
        # the datum's kept bin count is fixed: one chop, not one per residual
        chops, residuals = [], []
        chop, residual_at = ode_solver._chop, ode_solver._residual_at
        monkeypatch.setattr(ode_solver, "_chop", lambda *args: chops.append(1) or chop(*args))
        monkeypatch.setattr(ode_solver, "_residual_at", lambda *args: residuals.append(1) or residual_at(*args))
        solve(cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0), n=64, amplitude=2.0))
        assert len(chops) == 1 and len(residuals) > 2


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

    def test_complex_datum_reuses_node_preimages(self, monkeypatch):
        # solve inverts the gradient map at the grid nodes once, and
        # complex_datum reads those preimages instead of inverting again
        from dhym.legendre import MonotoneMap
        from dhym.ode_solver import complex_datum

        calls = []
        inverse = MonotoneMap.inverse

        def counted(self, points):
            calls.append(np.size(points))
            return inverse(self, points)

        monkeypatch.setattr(MonotoneMap, "inverse", counted)
        problem = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.5, 0.3, 0.4), n=64, amplitude=0.05)
        complex_datum(solve(problem), problem)
        assert calls == [64]
