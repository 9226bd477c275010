import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dhym
from dhym import linearized_ops, spectral
from dhym.errors import DimensionMismatch, InvalidConfig, SingularElliptic
from dhym.linearized_ops import (
    LinearizedContext,
    apply_L,
    flat_symbol,
    make_consistent_context,
    negativity_check,
    selfadjointness_defect,
)
from dhym.spectral import _pcg, grid2, hessian2, inner, partial2, second_antiderivative

from conftest import count_columns, dense_operator, selfadjointness_refinement, solve_lincond

B_REF = np.array([[2.0, 0.7], [0.7, 1.0]])


def flat_context(n, b=B_REF):
    return LinearizedContext(u_pert=np.zeros((n, n)), b_matrix=b)


def perturbed_background(n, amplitude=0.004):
    x, y = grid2(n)
    return amplitude * (np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.sin(2 * np.pi * (x + y)))


def band_limited(n, seed, kmax=3):
    rng = np.random.default_rng(seed)
    x, y = grid2(n)
    f = np.zeros((n, n))
    for kx in range(0, kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            f += rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y))
            f += rng.normal() * np.sin(2 * np.pi * (kx * x + ky * y))
    return f


class TestSolveLincond:
    def test_zero_direction(self):
        ctx = flat_context(32)
        assert np.abs(solve_lincond(ctx, np.zeros((32, 32)))).max() == 0.0

    def test_flat_fourier_oracle(self):
        # at the flat background the solution is a single mode with
        # coefficient -(k.Bk)/|k|^2
        ctx = flat_context(32)
        x, y = grid2(32)
        for k, eta in [((2, 1), 0.7), ((1, 0), 1.3), ((3, -2), 0.4)]:
            kv = np.array(k)
            gamma = eta * np.cos(2 * np.pi * (k[0] * x + k[1] * y))
            out = solve_lincond(ctx, gamma)
            pred = -(kv @ B_REF @ kv) / (kv @ kv) * gamma
            assert np.abs(out - pred).max() < 1e-12

    def test_mean_free(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        out = solve_lincond(ctx, band_limited(32, seed=1))
        assert abs(out.mean()) < 1e-13

    def test_equation_residual(self):
        # the defining elliptic equation holds pointwise
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        gamma = band_limited(32, seed=2)
        gdot = hessian2(gamma)
        phidot = solve_lincond(ctx, gamma)
        from dhym.spectral import partial2

        m = ctx.u_inv @ gdot @ ctx.u_inv
        vec0 = m[..., 0, 0] * partial2(ctx.phi, 1, 0) + m[..., 0, 1] * partial2(ctx.phi, 0, 1)
        vec1 = m[..., 1, 0] * partial2(ctx.phi, 1, 0) + m[..., 1, 1] * partial2(ctx.phi, 0, 1)
        transport = partial2(vec0, 1, 0) + partial2(vec1, 0, 1)
        resid = np.einsum("...ij,ij->...", gdot, ctx.b_matrix) + ctx.laplacian(phidot) - transport
        assert np.abs(resid).max() < 1e-9

    def test_matrix_field_rejected(self):
        # the operator takes potentials only; a Hessian field is not one
        ctx = flat_context(32)
        hess = hessian2(band_limited(32, seed=3))
        with pytest.raises(DimensionMismatch):
            solve_lincond(ctx, hess)
        with pytest.raises(DimensionMismatch):
            apply_L(ctx, hess)

    def test_spectral_residual_decrease(self):
        # accuracy of the elliptic solve improves spectrally with N
        from dhym.spectral import resample2

        base = perturbed_background(16, amplitude=0.006)
        gamma16 = band_limited(16, seed=4, kmax=2)
        sups = []
        for n in (16, 24, 32):
            ctx = make_consistent_context(resample2(base, n), B_REF)
            gamma = resample2(gamma16, n)
            phidot_c = solve_lincond(ctx, gamma)
            sups.append(phidot_c)
        # compare coarse solutions upsampled against the finest
        fine = sups[-1]
        e16 = np.abs(resample2(sups[0], 32) - fine).max()
        e24 = np.abs(resample2(sups[1], 32) - fine).max()
        assert e24 < e16
        assert e24 < 1e-6


def lincond_rhs(ctx, gamma):
    """Right-hand side of the linearized degree equation, written out."""
    gdot = hessian2(gamma)
    p0, p1 = partial2(ctx.phi, 1, 0), partial2(ctx.phi, 0, 1)
    m = ctx.u_inv @ gdot @ ctx.u_inv
    transport = partial2(m[..., 0, 0] * p0 + m[..., 0, 1] * p1, 1, 0) + partial2(
        m[..., 1, 0] * p0 + m[..., 1, 1] * p1, 0, 1
    )
    return transport - np.einsum("...ij,ij->...", gdot, ctx.b_matrix)


def nyquist_projection(f):
    """The FFT projection of an (N, N) field, N even, onto the modes with a
    Nyquist index in either axis."""
    n = f.shape[-1]
    coeff = np.fft.fft2(f)
    keep = np.zeros_like(coeff)
    keep[n // 2, :] = coeff[n // 2, :]
    keep[:, n // 2] = coeff[:, n // 2]
    return np.real(np.fft.ifft2(keep))


def dense_elliptic_oracle(ctx, rhs):
    """Solve (Delta + sigma P) f = rhs, mean(f) = 0, by dense LU of the
    bordered matrix: sigma = -(pi N)^2, P the FFT projector onto the modes
    with a Nyquist index in either axis."""
    n = ctx.n
    size = n * n
    sigma = -((np.pi * n) ** 2)
    mat = np.zeros((size + 1, size + 1))
    basis = np.zeros((n, n))
    for j in range(size):
        basis.flat[j] = 1.0
        mat[:size, j] = (ctx.laplacian(basis) + sigma * nyquist_projection(basis)).ravel()
        basis.flat[j] = 0.0
    mat[:size, size] = 1.0
    mat[size, :size] = 1.0 / size
    sol = np.linalg.solve(mat, np.concatenate([(rhs - rhs.mean()).ravel(), [0.0]]))
    return sol[:-1].reshape(n, n)


def white_noise(n, seed, scale=10.0):
    f = scale * np.random.default_rng(seed).standard_normal((n, n))
    return f - f.mean()


def delta(n):
    f = np.zeros((n, n))
    f[n // 3, n // 5] = 1.0
    return f


class TestEllipticSolve:
    """The matrix-free elliptic solve behind solve_lincond, at every N."""

    def test_zero_input_on_large_grid(self):
        ctx = make_consistent_context(perturbed_background(64), B_REF)
        zero = np.zeros((64, 64))
        assert not solve_lincond(ctx, zero).any()
        assert not apply_L(ctx, zero).any()

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_empty_stack(self, n):
        # dense, nested and FFT paths: no columns in, none out
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        empty = np.zeros((0, n, n))
        assert solve_lincond(ctx, empty).shape == (0, n, n)
        assert apply_L(ctx, empty).shape == (0, n, n)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_white_noise_direction(self, n):
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        out = solve_lincond(ctx, white_noise(n, seed=n))
        assert np.isfinite(out).all()
        assert abs(out.mean()) <= 1e-13 * np.abs(out).max()

    @pytest.mark.parametrize("n", [16, 24])
    def test_dense_oracle(self, n):
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        for gamma in (white_noise(n, seed=7), band_limited(n, seed=8)):
            ref = dense_elliptic_oracle(ctx, lincond_rhs(ctx, gamma))
            out = solve_lincond(ctx, gamma)
            assert np.abs(out - ref).max() <= 1e-11 * np.abs(ref).max()

    #: Per N, the cost of the solve of the delta and of the band-limited
    #: direction below when the nested start took one level only (its
    #: half-grid solve started from zeros): operator applications on each
    #: grid m of the solve weighted by (m / N)^2, the cost of one on grid m
    #: against one on grid N.
    ONE_LEVEL_COST = {16: (12.0, 13.0), 32: (12.0, 14.0), 64: (12.0, 7.5), 128: (12.0, 6.5)}

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_laplacian_applications_per_solve(self, n, monkeypatch):
        # the CG applies -(Delta + sigma P), ``_operator``, on every grid of
        # the nested solve; a start from coarser grids costs no more work
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        grids = count_operator_columns(monkeypatch)
        for gamma, cost in zip((delta(n), band_limited(n, seed=9)), self.ONE_LEVEL_COST[n]):
            grids.clear()
            solve_lincond(ctx, gamma)
            assert 0 < grids.count(n) <= 20
            assert sum((m / n) ** 2 for m in grids) <= cost


def assert_symmetric_positive(fields, images):
    """<f, A g> = <g, A f> to roundoff and <f, A f> > 0 over the fields."""
    for f, af in zip(fields, images):
        assert inner(f, af) > 0.0
        for g, ag in zip(fields, images):
            assert abs(inner(f, ag) - inner(g, af)) <= 1e-14 * np.sqrt(inner(f, af) * inner(g, ag))


def hessian_scaled_background(n, seed, sup_hessian):
    """Band-limited (k <= 1) metric potential with sup |Hess u_pert| given."""
    u = band_limited(n, seed=seed, kmax=1)
    return u * (sup_hessian / np.abs(hessian2(u)).max())


def constant_symbol(n, coef):
    """The fft2 symbol of -(div(coef grad) + sigma P) for a constant 2x2
    matrix ``coef``, sigma = -(pi N)^2 and P the projector onto the modes
    with a Nyquist index: first derivatives drop the Nyquist index, and the
    mean mode is infinite, so dividing by the symbol zeroes it."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    nyq = np.zeros(n, dtype=bool)
    if n % 2 == 0:
        k[n // 2] = 0.0
        nyq[n // 2] = True
    kx, ky = k[:, None], k[None, :]
    sym = (2.0 * np.pi) ** 2 * (coef[0, 0] * kx**2 + 2.0 * coef[0, 1] * kx * ky + coef[1, 1] * ky**2)
    sym += (np.pi * n) ** 2 * (nyq[:, None] | nyq[None, :])
    sym[0, 0] = np.inf
    return sym


class TestFusedOperator:
    """The CG operator -(Delta + sigma P) and the scaled preconditioner."""

    @pytest.mark.parametrize("n", [16, 24])
    def test_penalty_term_is_the_fft_projector(self, n):
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        penalty = linearized_ops._nyquist_penalty(n)
        f = white_noise(n, seed=n)
        term = ctx._operator(f) + ctx.laplacian(f)
        ref = penalty * nyquist_projection(f)
        assert np.abs(term - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [16, 24, 25])
    def test_operator_symmetric_positive(self, n):
        ctx = make_consistent_context(perturbed_background(n, amplitude=0.006), B_REF)
        fields = [white_noise(n, seed=30 + i) for i in range(3)] + [band_limited(n, seed=33)]
        assert_symmetric_positive(fields, [ctx._operator(f) for f in fields])

    @pytest.mark.parametrize("n", [16, 25, 32])
    def test_laplacian_matches_partial2_composition(self, n):
        # the fused path does the arithmetic of grad / divergence by partial2
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        f = np.array([white_noise(n, seed=50), band_limited(n, seed=51)])
        u = ctx.u_inv
        g0, g1 = partial2(f, 1, 0), partial2(f, 0, 1)
        flux0, flux1 = u[..., 0, 0] * g0 + u[..., 0, 1] * g1, u[..., 1, 0] * g0 + u[..., 1, 1] * g1
        ref = partial2(flux0, 1, 0) + partial2(flux1, 0, 1)
        assert np.array_equal(ctx.laplacian(f), ref)

    @pytest.mark.parametrize("n", [16, 17, 32, 64, 128])
    @pytest.mark.parametrize("sup_hessian", [0.1, 0.3])
    def test_preconditioner_symmetric_positive_mean_free(self, n, sup_hessian):
        ctx = make_consistent_context(hessian_scaled_background(n, 1, sup_hessian), B_REF)
        fields = [white_noise(n, seed=40 + i) for i in range(3)] + [band_limited(n, seed=43)]
        images = [ctx._precondition(f) for f in fields]
        assert_symmetric_positive(fields, images)
        assert all(abs(mf.mean()) <= 1e-15 * np.abs(mf).max() for mf in images)

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("sup_hessian, saved", [(0.1, 1), (0.3, 2)])
    def test_scaling_saves_operator_applications(self, n, sup_hessian, saved):
        # against the constant-symbol preconditioner, mean(u^{ij}), through
        # the same CG; at 0.1 the scaling saves 1 to 3 applications of 11 or 12
        for seed in range(4):
            ctx = make_consistent_context(hessian_scaled_background(n, seed, sup_hessian), B_REF)
            symbol = constant_symbol(n, ctx.u_inv.mean(axis=(0, 1)))[:, : n // 2 + 1]
            constant = lambda r: np.fft.irfft2(np.fft.rfft2(r) / symbol, s=r.shape[-2:])
            rhs = lincond_rhs(ctx, band_limited(n, seed=100 + seed))
            counts = []
            for precondition in (constant, ctx._precondition):
                calls = []
                _, converged = _pcg(
                    lambda p: calls.append(1) or ctx._operator(p),
                    precondition,
                    -(rhs - rhs.mean())[None],
                    SingularElliptic,
                )
                assert converged.all()
                counts.append(len(calls))
            assert counts[1] <= counts[0] - saved, counts

    @pytest.mark.parametrize("n", [16, 17, 32, 64, 65, 128, 130])
    def test_preconditioner_is_the_flat_symbol_between_weights(self, n):
        # Pi W S^-1 W by fft2, S the symbol of the flat -(Delta + sigma P)
        # and W = det(I + Hess u_pert)^(1/4), on both paths
        u = hessian_scaled_background(n, 3, 0.2)
        ctx = LinearizedContext(u, B_REF)
        w = np.linalg.det(np.eye(2) + hessian2(u)) ** 0.25
        r = np.array([white_noise(n, seed=70), band_limited(n, seed=71)])
        z = w * np.fft.ifft2(np.fft.fft2(w * r) / constant_symbol(n, np.eye(2))).real
        ref = z - z.mean(axis=(-2, -1), keepdims=True)
        assert np.abs(ctx._precondition(r) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [16, 17, 32, 33, 64])
    @pytest.mark.parametrize("k", [1, 3])
    def test_hartley_preconditioner_agrees_with_fft(self, n, k, monkeypatch):
        # the FFT path forced by a crossover below every grid
        u = hessian_scaled_background(n, 2, 0.2)
        stacks = [
            np.array([white_noise(n, seed=60 + i) for i in range(k)]),
            np.array([band_limited(n, seed=65 + i) for i in range(k)]),
        ]
        hartley = LinearizedContext(u, B_REF)
        images = [hartley._precondition(r) for r in stacks]
        monkeypatch.setattr(linearized_ops, "_HARTLEY_MAX_N", 0)
        fft = LinearizedContext(u, B_REF)
        calls = count_fft_calls(monkeypatch)
        for r, image in zip(stacks, images):
            ref = fft._precondition(r)
            assert np.abs(image - ref).max() <= 1e-14 * np.abs(ref).max()
        assert calls == ["rfft2", "irfft2"] * len(stacks)  # the FFT path ran

    @pytest.mark.parametrize("n", [32, 64, 65, 256])
    def test_operator_bits_of_the_stacked_formula(self, n):
        # the negated partial2 composition plus the rank-2 product of
        # np.stack'ed factors, with temporaries throughout
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        penalty = linearized_ops._nyquist_penalty(n)
        u = ctx.u_inv
        for f in (white_noise(n, seed=52), np.array([band_limited(n, seed=53), white_noise(n, seed=54)])):
            g0, g1 = partial2(f, 1, 0), partial2(f, 0, 1)
            flux0, flux1 = u[..., 0, 0] * g0 + u[..., 0, 1] * g1, u[..., 1, 0] * g0 + u[..., 1, 1] * g1
            ref = -(partial2(flux0, 1, 0) + partial2(flux1, 0, 1))
            if n % 2 == 0:
                a = ctx._alternating
                rows = a @ f
                cols = f @ a - ((rows @ a) / n)[..., None] * a
                rows *= penalty / n
                cols *= penalty / n
                a = np.broadcast_to(a, rows.shape)
                ref += np.stack((a, cols), axis=-1) @ np.stack((rows, a), axis=-2)
            assert np.array_equal(ctx._operator(f), ref)


FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def count_fft_calls(monkeypatch):
    """Count the calls of the numpy.fft transforms; returns the list of the
    names called."""
    calls = []
    for name in FFT_FUNCTIONS:
        transform = getattr(np.fft, name)

        def counted(*args, _name=name, _transform=transform, **kwargs):
            calls.append(_name)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


class TestFftCounts:
    """Up to ``_DENSE_MAX_N`` the CG operator and apply_L differentiate by
    dense products.  Up to ``_HARTLEY_MAX_N`` the preconditioner is dense
    products too, so a CG step makes no FFT call; above it the
    preconditioner's ``rfft2`` / ``irfft2`` pair (four per-axis transforms
    inside numpy) is the only FFT call of a step."""

    @pytest.mark.parametrize("n", [32, 64])
    def test_operator_and_apply_L_make_no_fft_call(self, n, monkeypatch):
        ctx = make_consistent_context(hessian_scaled_background(n, 3, 0.1), B_REF)
        trials = np.array([band_limited(n, seed=70), band_limited(n, seed=71)])
        calls = count_fft_calls(monkeypatch)
        ctx._operator(trials)
        assert calls == []
        apply_L(ctx, trials)  # its elliptic solve included; builds the cached coefficients too
        assert calls == []

    @staticmethod
    def solve_counted(n, monkeypatch):
        """The FFT calls of one nested elliptic solve on a stack of two, and
        the grid of each preconditioning it makes."""
        ctx = make_consistent_context(hessian_scaled_background(n, 4, 0.1), B_REF)
        rhs = np.array([lincond_rhs(ctx, band_limited(n, seed=72 + i)) for i in range(2)])
        calls = count_fft_calls(monkeypatch)
        steps = []
        precondition = LinearizedContext._precondition

        def counted(self, r):
            steps.append(self.n)
            return precondition(self, r)

        monkeypatch.setattr(LinearizedContext, "_precondition", counted)
        linearized_ops._solve_elliptic(ctx, rhs)
        return calls, steps

    @pytest.mark.parametrize("n", [32, 64])
    def test_no_fft_call_in_a_nested_solve(self, n, monkeypatch):
        # over both levels of the nested solve at N = 64
        calls, steps = self.solve_counted(n, monkeypatch)
        assert n in steps
        assert calls == []

    def test_one_rfft2_pair_per_cg_step_above_the_crossover(self, monkeypatch):
        # N = 128 takes the FFT, its coarser grids (N = 64, 32) the Hartley
        # products; the residual of the fine start is an operator
        # application with no preconditioning
        n = 128
        calls, steps = self.solve_counted(n, monkeypatch)
        assert n in steps and n // 2 in steps
        assert calls == ["rfft2", "irfft2"] * steps.count(n)


class TestPcgStart:
    """The initial iterate ``x0`` of ``_pcg``."""

    def elliptic(self, n=32):
        ctx = make_consistent_context(hessian_scaled_background(n, 5, 0.2), B_REF)
        rhs = np.array([lincond_rhs(ctx, band_limited(n, seed=80)), delta(n), np.zeros((n, n))])
        rhs -= rhs.mean(axis=(-2, -1), keepdims=True)
        return ctx._operator, ctx._precondition, rhs

    def test_zero_start_is_no_start(self):
        operator, precondition, rhs = self.elliptic()
        x, converged = _pcg(operator, precondition, rhs, SingularElliptic)
        x_zero, converged_zero = _pcg(operator, precondition, rhs, SingularElliptic, np.zeros_like(rhs))
        assert converged.all()
        assert np.array_equal(x, x_zero) and np.array_equal(converged, converged_zero)

    def test_exact_start_takes_one_application(self):
        d = 1.0 + np.arange(12.0).reshape(3, 4)
        x0 = np.random.default_rng(3).standard_normal((2, 3, 4))
        calls = []
        x, converged = _pcg(lambda p: calls.append(1) or d * p, lambda r: r / d, d * x0, ValueError, x0)
        assert converged.all() and len(calls) == 1
        assert np.array_equal(x, x0)

    def test_start_is_not_written(self):
        operator, precondition, rhs = self.elliptic()
        x0 = read_only(0.5 * _pcg(operator, precondition, rhs, SingularElliptic)[0])
        kept = x0.copy()
        x, converged = _pcg(operator, precondition, rhs, SingularElliptic, x0)
        assert converged.all()
        assert np.array_equal(x0, kept)
        assert not np.array_equal(x, x0)


class TestCgCap:
    """``_pcg`` and ``_cg`` at the iteration cap ``spectral._CG_MAXITER``,
    and ``_pcg`` on an operator that is not positive definite."""

    def test_negative_operator_raises(self):
        # on -I the first p . Ap is negative
        with pytest.raises(SingularElliptic, match="lost definiteness"):
            _pcg(lambda p: -p, lambda r: r.copy(), np.ones((1, 16, 16)), SingularElliptic)

    def test_capped_pcg_returns_its_last_iterate(self, monkeypatch):
        monkeypatch.setattr(spectral, "_CG_MAXITER", 1)
        d = 1.0 + np.arange(12.0).reshape(3, 4)
        rhs = np.random.default_rng(5).standard_normal((2, 3, 4))
        x, converged = _pcg(lambda p: d * p, lambda r: r.copy(), rhs, ValueError)
        assert not converged.any()
        # one CG step from zero with no preconditioning: x = (r.r / r.Ar) r
        step = (rhs * rhs).sum(axis=(1, 2)) / (rhs * d * rhs).sum(axis=(1, 2))
        assert np.allclose(x, step[:, None, None] * rhs, rtol=1e-14, atol=0.0)

    def test_capped_degree_solve_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "_CG_MAXITER", 1)
        with pytest.raises(SingularElliptic, match="failed to converge"):
            make_consistent_context(perturbed_background(32), B_REF)


def count_operator_columns(monkeypatch):
    """Wrap ``LinearizedContext._operator`` so that it records the grid of
    every column it is applied to; returns that list."""
    grids, operator = [], LinearizedContext._operator

    def counted(self, f):
        grids.extend([self.n] * (len(f) if f.ndim == 3 else 1))
        return operator(self, f)

    monkeypatch.setattr(LinearizedContext, "_operator", counted)
    return grids


def coarse_indefinite_background(n):
    """A u_pert whose Hessian is positive definite (u_xx >= -1/2) while the
    half-grid Hessian of u_pert[::2, ::2] has u_xx down to -3.1 at N = 64:
    u_xx = (n delta_0 - 1) / 2 in x, constant in y."""
    spike = -np.ones(n)
    spike[0] += n
    return np.repeat(0.5 * second_antiderivative(spike)[:, None], n, axis=1)


class TestNestedSolve:
    """From N = ``_NESTED_MIN_N`` a resolved rhs is first solved on the half grid."""

    def plain(self, ctx, rhs, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(linearized_ops, "_NESTED_MIN_N", 2 * ctx.n)
            return linearized_ops._solve_elliptic(ctx, rhs)

    @pytest.mark.parametrize("n", [64, 66, 128, 256])
    def test_agrees_with_the_plain_solve(self, n, monkeypatch):
        # the half grid of N = 66 is odd; from N = 128 on the half-grid
        # solve starts from its own half grid
        ctx = make_consistent_context(hessian_scaled_background(n, 6, 0.15), B_REF)
        rhs = np.array([lincond_rhs(ctx, band_limited(n, seed=90 + i)) for i in range(3)])
        grids = count_operator_columns(monkeypatch)
        nested = linearized_ops._solve_elliptic(ctx, rhs)
        assert n // 2 in grids
        assert (n // 4 in grids) == (n >= 2 * linearized_ops._NESTED_MIN_N)
        ref = self.plain(ctx, rhs, monkeypatch)
        assert np.abs(nested - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [64, 66, 96, 128])
    def test_mixed_stack_starts_its_resolved_columns(self, n, monkeypatch):
        # the start is decided per column: the noise column starts from
        # zeros and does not hold the others back
        ctx = make_consistent_context(hessian_scaled_background(n, 6, 0.15), B_REF)
        resolved = [lincond_rhs(ctx, band_limited(n, seed=98 + i)) for i in range(2)]
        rhs = np.array([resolved[0], white_noise(n, seed=99), resolved[1]])
        columns, cg = [], linearized_ops._cg

        def counted(level, b):
            columns.append((level.n, len(b)))
            return cg(level, b)

        monkeypatch.setattr(linearized_ops, "_cg", counted)
        out = linearized_ops._solve_elliptic(ctx, rhs)
        assert [c for c in columns if c[0] == n // 2] == [(n // 2, 2)]
        alone = [linearized_ops._solve_elliptic(ctx, column) for column in rhs]
        assert np.array_equal(out[0], alone[0]) and np.array_equal(out[2], alone[2])
        assert np.abs(out[1] - alone[1]).max() <= 1e-14 * np.abs(alone[1]).max()

    def test_odd_grid_makes_no_half_grid_call(self, monkeypatch):
        # every other point of an odd grid is not a uniform grid
        n = 65
        ctx = make_consistent_context(hessian_scaled_background(n, 6, 0.15), B_REF)
        rhs = np.array([lincond_rhs(ctx, band_limited(n, seed=90 + i)) for i in range(2)])
        grids = count_operator_columns(monkeypatch)
        out = linearized_ops._solve_elliptic(ctx, rhs)
        assert set(grids) == {n} and "_half_grid" not in ctx.__dict__
        assert np.array_equal(out, self.plain(ctx, rhs, monkeypatch))

    def test_few_fine_applications_on_resolved_data(self, monkeypatch):
        n = 64
        ctx = make_consistent_context(hessian_scaled_background(n, 7, 0.1), B_REF)
        rhs = lincond_rhs(ctx, band_limited(n, seed=95))
        grids = count_operator_columns(monkeypatch)
        linearized_ops._solve_elliptic(ctx, rhs)
        assert 0 < grids.count(n) <= 4
        assert grids.count(n // 2) > 0

    @pytest.mark.parametrize("tail, nested", [(1e-11, True), (1e-7, False)])
    def test_resolution_threshold(self, tail, nested, monkeypatch):
        # a mode aliased on the half grid sets the resolution defect, about 2 tail
        n = 64
        ctx = make_consistent_context(hessian_scaled_background(n, 7, 0.1), B_REF)
        x, y = grid2(n)
        rhs = lincond_rhs(ctx, band_limited(n, seed=95))
        rhs += tail * np.abs(rhs).max() * np.cos(2 * np.pi * (n // 2 - 3) * (x + y))
        grids = count_operator_columns(monkeypatch)
        linearized_ops._solve_elliptic(ctx, rhs)
        assert (n // 2 in grids) == nested

    @pytest.mark.parametrize("kind", ["delta", "noise", "zero"])
    def test_unresolved_rhs_makes_no_half_grid_call(self, kind, monkeypatch):
        # a fresh context: the consistent one holds the half grid of its degree solve
        n = 64
        consistent = make_consistent_context(perturbed_background(n), B_REF)
        ctx = LinearizedContext(consistent.u_pert, consistent.b_matrix)
        rhs = {"delta": delta(n), "noise": white_noise(n, seed=96), "zero": np.zeros((n, n))}[kind]
        grids = count_operator_columns(monkeypatch)
        out = linearized_ops._solve_elliptic(ctx, rhs)
        assert n // 2 not in grids and "_half_grid" not in ctx.__dict__
        assert np.array_equal(out, self.plain(ctx, rhs, monkeypatch))

    def test_indefinite_half_grid_falls_back(self, monkeypatch):
        n = 64
        u_pert = coarse_indefinite_background(n)
        with pytest.raises(InvalidConfig):
            LinearizedContext(u_pert[::2, ::2], B_REF)
        ctx = make_consistent_context(u_pert, B_REF)
        rhs = band_limited(n, seed=97)  # resolved on the half grid
        grids = count_operator_columns(monkeypatch)
        out = linearized_ops._solve_elliptic(ctx, rhs)
        assert ctx.__dict__["_half_grid"] is None and n // 2 not in grids
        assert np.array_equal(out, self.plain(ctx, rhs, monkeypatch))


def read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


class TestPcgOwnership:
    """``_pcg`` updates only the arrays it owns: a read-only rhs, and an
    operator and a preconditioner that return read-only arrays, give the
    same bits as writable ones."""

    def test_elliptic_stack(self):
        n = 32
        ctx = make_consistent_context(hessian_scaled_background(n, 2, 0.3), B_REF)
        # a zero column never enters the active set, and the others leave it
        # after 15, 13 and 14 steps, so the loop compacts its stacks twice
        gx, _ = grid2(n)
        rhs = np.array([np.cos(2 * np.pi * gx), delta(n), lincond_rhs(ctx, band_limited(n, seed=60)), np.zeros((n, n))])
        rhs -= rhs.mean(axis=(-2, -1), keepdims=True)
        runs = [
            _pcg(ctx._operator, ctx._precondition, rhs.copy(), SingularElliptic),
            _pcg(
                lambda p: read_only(ctx._operator(p)),
                lambda r: read_only(ctx._precondition(r)),
                read_only(rhs),
                SingularElliptic,
            ),
        ]
        (x, converged), (x_ro, converged_ro) = runs
        assert converged.all() and converged_ro.all()
        assert np.array_equal(x, x_ro)

    def test_newton_step(self):
        # the ode_solver Newton step shares the loop and its contract
        from dhym.ode_solver import LinearizedOde
        from dhym.spectral import grid

        x = grid(128)
        jac = LinearizedOde(k1=0.7, inv2=(1.0 + 0.3 * np.cos(2 * np.pi * x)) ** -2.0)
        diag = 0.25 * (2.0 * np.pi * np.arange(65)) ** 2 + jac.k1 * jac.inv2.mean()
        diag[0] = np.inf
        precondition = lambda r: np.fft.irfft(np.fft.rfft(r) / diag, n=128)
        raw = np.sin(2 * np.pi * x) + 0.2 * np.cos(6 * np.pi * x)
        rhs = raw - raw.mean()  # as LinearizedOde.solve hands it to the loop
        writable, _ = _pcg(jac.apply, precondition, rhs[None].copy(), SingularElliptic)
        frozen, _ = _pcg(
            lambda p: read_only(jac.apply(p)), lambda r: read_only(precondition(r)), read_only(rhs[None]), SingularElliptic
        )
        assert np.array_equal(writable, frozen)
        assert np.array_equal(writable[0], jac.solve(raw))


class TestApplyL:
    def test_zero(self):
        ctx = flat_context(32)
        assert np.abs(apply_L(ctx, np.zeros((32, 32)))).max() == 0.0

    def test_flat_biharmonic(self):
        ctx = flat_context(32, b=np.zeros((2, 2)))
        x, y = grid2(32)
        for k in [(1, 0), (1, 2), (3, 1)]:
            gamma = np.cos(2 * np.pi * (k[0] * x + k[1] * y))
            k2 = k[0] ** 2 + k[1] ** 2
            sym = -((2 * np.pi) ** 4) * k2**2
            out = apply_L(ctx, gamma)
            assert np.abs(out - sym * gamma).max() < 1e-9 * abs(sym)

    def test_flat_symbol(self):
        ctx = flat_context(32)
        x, y = grid2(32)
        for k in [(1, 0), (0, 2), (2, 3), (5, 1), (1, -4)]:
            kv = np.array(k)
            gamma = np.cos(2 * np.pi * (k[0] * x + k[1] * y))
            sym = flat_symbol(kv, B_REF)
            out = apply_L(ctx, gamma)
            assert np.abs(out - sym * gamma).max() < 1e-9 * abs(sym)

    def test_symbol_closed_form(self):
        tp = 2.0 * np.pi
        k = np.array([2.0, 3.0])
        expected = (
            -(tp**4) * (k @ k) ** 2
            - 2.0 * tp**2 * (k @ (B_REF @ B_REF) @ k)
            + 2.0 * tp**2 * (k @ B_REF @ k) ** 2 / (k @ k)
        )
        assert abs(flat_symbol(k, B_REF) - expected) < 1e-9 * abs(expected)

    def test_symbol_nonpositive(self, rng):
        # Cauchy-Schwarz: (k.Bk)^2 <= |k|^2 (k.B^2 k), so the symbol is <= 0
        for _ in range(1000):
            k = rng.integers(-8, 9, size=2)
            if not k.any():
                continue
            b = rng.uniform(-3, 3, (2, 2))
            b = 0.5 * (b + b.T)
            kbk = k @ b @ k
            kb2k = k @ (b @ b) @ k
            assert kbk**2 <= (k @ k) * kb2k + 1e-12
            assert flat_symbol(k, b) <= 1e-9

    @pytest.mark.parametrize(
        "k, b, match",
        [((0, 0), B_REF, "nonzero modes"), ((1, 0), np.diag([1e154, 1.0]), "overflows")],
        ids=["zero-mode", "overflow"],
    )
    def test_symbol_refusals(self, k, b, match):
        with pytest.raises(InvalidConfig, match=match):
            flat_symbol(np.array(k), b)


class TestSelfAdjointness:
    def test_flat(self):
        ctx = flat_context(32)
        pairs = [(band_limited(32, seed=i), band_limited(32, seed=50 + i)) for i in range(4)]
        assert max(selfadjointness_defect(ctx, pairs)) < 1e-10

    def test_perturbed_consistent(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        pairs = [(band_limited(32, seed=i), band_limited(32, seed=50 + i)) for i in range(4)]
        assert max(selfadjointness_defect(ctx, pairs)) < 1e-6

    def test_antisymmetric_in_arguments(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        gamma = band_limited(32, seed=8)
        assert selfadjointness_defect(ctx, [(gamma, gamma)])[0] == 0.0

    def test_refinement_stays_at_roundoff(self):
        # the discrete assembly is exactly self-adjoint at consistent
        # backgrounds, so refinement keeps the defect at roundoff level
        pairs = [(band_limited(16, seed=1, kmax=2), band_limited(16, seed=2, kmax=2))]
        defects = selfadjointness_refinement(
            perturbed_background(16, amplitude=0.006), B_REF, pairs, [16, 24, 32]
        )
        assert max(defects) < 1e-12
        assert defects[-1] <= max(defects[0], 1e-14)

    def test_inconsistent_background_breaks_symmetry(self):
        # the cancellation uses the background degree equation; an arbitrary
        # bundle potential must show a macroscopic defect
        n = 24
        x, y = grid2(n)
        ctx = LinearizedContext(u_pert=perturbed_background(n), b_matrix=B_REF)
        ctx.phi = 0.01 * np.cos(2 * np.pi * (x + 2 * y))  # a fake, set before its first read
        pairs = [(band_limited(n, seed=3, kmax=2), band_limited(n, seed=4, kmax=2))]
        assert max(selfadjointness_defect(ctx, pairs)) > 1e-8

    def test_dense_transpose_agreement(self):
        # <xi, L gamma> via direct application against the dense transpose
        for n in (16, 24):
            ctx = make_consistent_context(perturbed_background(n), B_REF)
            mat = dense_operator(ctx)
            xi = band_limited(n, seed=21, kmax=2)
            gamma = band_limited(n, seed=22, kmax=2)
            lg = apply_L(ctx, gamma)
            via_matrix = (mat.T @ xi.ravel())  # acts as L^T xi
            lhs = inner(xi, lg)
            rhs = float(via_matrix @ gamma.ravel()) / n**2
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) < 1e-10 * scale


class TestNegativity:
    def test_single_mode_matches_symbol(self):
        ctx = flat_context(32)
        x, y = grid2(32)
        k = (2, 1)
        gamma = np.cos(2 * np.pi * (k[0] * x + k[1] * y))
        quotient = negativity_check(ctx, [gamma])
        assert abs(quotient - flat_symbol(np.array(k), B_REF)) < 1e-6
        assert quotient < 0.0

    def test_hundred_band_limited_trials(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        trials = [band_limited(32, seed=100 + i) for i in range(100)]
        assert negativity_check(ctx, trials) <= 1e-8

    def test_rejects_constant(self):
        ctx = flat_context(32)
        with pytest.raises(InvalidConfig):
            negativity_check(ctx, [np.ones((32, 32))])

    @pytest.mark.parametrize("amplitude", [0.0, 0.006, 0.012])
    def test_top_of_spectrum(self, amplitude):
        # the top eigenvalue of L on mean-zero fields, from the dense matrix
        # at N = 16: on the flat background the largest flat symbol over the
        # grid modes, and negative on perturbed ones (measured -1642.70 and
        # -1762.55, where c (udot - mean udot) with c = 1e8 max|u_pert|^2,
        # zero when flat, lifts it to +3602.9 and +19219.8)
        n = 16
        ctx = make_consistent_context(perturbed_background(n, amplitude), B_REF)
        q = np.linalg.qr(np.hstack([np.ones((n * n, 1)), np.eye(n * n)[:, 1:]]))[0][:, 1:]  # mean-zero basis
        mat = dense_operator(ctx)
        top = np.linalg.eigvalsh(q.T @ (0.5 * (mat + mat.T)) @ q).max()
        if amplitude == 0.0:
            modes = np.fft.fftfreq(n, 1.0 / n).astype(int)
            symbol = max(flat_symbol(np.array([kx, ky]), B_REF) for kx in modes for ky in modes if kx or ky)
            assert abs(top - symbol) <= 1e-8 * abs(symbol)
        else:
            assert top < 0.0

    def test_rejects_no_trials(self):
        # a max over no trials has no value, as a sup over no points has none
        ctx = flat_context(32)
        for trials in ([], iter(())):
            with pytest.raises(DimensionMismatch):
                negativity_check(ctx, trials)


class TestContext:
    def test_degree_defect_flat(self):
        assert flat_context(32).degree_defect() < 1e-14

    def test_consistent_construction(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        assert ctx.degree_defect() < 1e-12

    def test_rejects_nonconvex_background(self):
        x, y = grid2(32)
        with pytest.raises(InvalidConfig):
            LinearizedContext(u_pert=0.05 * np.cos(2 * np.pi * x), b_matrix=B_REF)

    def test_rejects_coarse_background(self):
        with pytest.raises(InvalidConfig, match="too coarse"):
            LinearizedContext(u_pert=np.zeros((8, 8)), b_matrix=B_REF)

    @pytest.mark.parametrize("shape", [(32, 48), (64, 96), (32,), (2, 32, 32)])
    def test_rejects_non_square_background(self, shape):
        # a perturbation that varies along the last axis, so no zero field slips through
        u_pert = 0.004 * np.cos(2 * np.pi * np.arange(shape[-1]) / shape[-1]) * np.ones(shape)
        with pytest.raises(DimensionMismatch, match="N x N"):
            make_consistent_context(u_pert, B_REF)

    def test_one_build_per_consistent_background(self, monkeypatch):
        # the degree solve and apply_L share one fine and one half-grid context
        grids, init = [], LinearizedContext.__init__

        def counted(self, u_pert, b_matrix):
            grids.append(np.shape(u_pert)[0])
            init(self, u_pert, b_matrix)

        monkeypatch.setattr(LinearizedContext, "__init__", counted)
        n = 64
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        apply_L(ctx, band_limited(n, seed=230))
        assert grids == [n, n // 2]

    @pytest.mark.parametrize("n", [32, 64, 65])
    def test_consistent_context_equals_a_fresh_one(self, n):
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        fresh = LinearizedContext(ctx.u_pert, ctx.b_matrix)
        for name in ("u_hess", "_u_inv_fields", "_weight"):
            assert np.array_equal(getattr(ctx, name), getattr(fresh, name)), name
        stack = np.array([band_limited(n, seed=231 + i) for i in range(2)])
        assert np.array_equal(apply_L(ctx, stack), apply_L(fresh, stack))


class TestStackedTrials:
    """apply_L and solve_lincond on a (K, N, N) stack, and the chunked checks."""

    @pytest.mark.parametrize("n", [16, 32, 64])
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_stack_agrees_with_loop(self, n, k):
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        stack = np.array([band_limited(n, seed=200 + i) for i in range(k)])
        for fn in (apply_L, solve_lincond):
            looped = np.array([fn(ctx, f) for f in stack])
            batched = fn(ctx, stack)
            assert batched.shape == (k, n, n)
            assert np.abs(batched - looped).max() <= 1e-14 * np.abs(looped).max()

    def test_zero_slot_gives_exact_zeros(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        stack = np.array([band_limited(32, seed=220), np.zeros((32, 32)), white_noise(32, seed=221)])
        for fn in (apply_L, solve_lincond):
            out = fn(ctx, stack)
            assert not out[1].any()
            assert np.abs(out[0]).max() > 0.0 and np.abs(out[2]).max() > 0.0

    def test_early_column_keeps_its_unbatched_iterate(self):
        # a diagonal SPD operator: one column is an eigenvector (one CG step),
        # the other spreads over 40 eigenvalues and needs many more
        d = np.linspace(1.0, 50.0, 40)
        easy = np.zeros(40)
        easy[7] = 3.0
        hard = np.random.default_rng(5).standard_normal(40)
        widths = []

        def operator(p):
            widths.append(len(p))
            return d * p

        x, converged = _pcg(operator, lambda r: r.copy(), np.array([easy, hard]), ValueError)
        assert converged.all()
        assert widths[0] == 2 and widths[1:] and set(widths[1:]) == {1}
        for col, rhs in enumerate((easy, hard)):
            alone, _ = _pcg(lambda p: d * p, lambda r: r.copy(), rhs[None], ValueError)
            assert np.array_equal(x[col], alone[0])

    def test_constant_trial_mid_chunk_is_rejected(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        assert linearized_ops._CHUNK_POINTS // 32**2 >= 5  # the constant sits inside one chunk
        trials = [band_limited(32, seed=230 + i) for i in range(4)]
        trials.insert(2, np.ones((32, 32)))
        with pytest.raises(InvalidConfig):
            negativity_check(ctx, trials)

    def test_chunked_checks_match_per_trial(self, monkeypatch):
        # chunks of 3 trials, so pairs straddle chunks; the inconsistent
        # background gives defects far above roundoff, which pin the pairing
        n = 24
        x, y = grid2(n)
        ctx = LinearizedContext(u_pert=perturbed_background(n), b_matrix=B_REF)
        ctx.phi = 0.01 * np.cos(2 * np.pi * (x + 2 * y))  # a fake, set before its first read
        monkeypatch.setattr(linearized_ops, "_CHUNK_POINTS", 3 * n * n)
        trials = [band_limited(n, seed=240 + i, kmax=2) for i in range(10)]
        images = [apply_L(ctx, t) for t in trials]
        worst = max(inner(t, lt) / inner(t, t) for t, lt in zip(trials, images))
        assert abs(negativity_check(ctx, trials) - worst) <= 1e-13 * abs(worst)
        expected = []
        for (xi, lx), (gamma, lg) in zip(zip(trials[::2], images[::2]), zip(trials[1::2], images[1::2])):
            scale = np.abs(lg).max() * np.abs(xi).max() + np.abs(lx).max() * np.abs(gamma).max()
            expected.append(abs(inner(xi, lg) - inner(gamma, lx)) / scale)
        defects = selfadjointness_defect(ctx, zip(trials[::2], trials[1::2]))
        assert min(expected) > 1e-8
        assert np.allclose(defects, expected, rtol=1e-6, atol=0.0)

    def test_selfadjointness_solves_per_chunk(self, monkeypatch):
        ctx = make_consistent_context(perturbed_background(16), B_REF)
        solve = linearized_ops._solve_elliptic
        calls = []

        def counted(ctx, rhs):
            calls.append(rhs.shape)
            return solve(ctx, rhs)

        monkeypatch.setattr(linearized_ops, "_solve_elliptic", counted)
        pairs = [(band_limited(16, seed=250 + i), band_limited(16, seed=270 + i)) for i in range(10)]
        selfadjointness_defect(ctx, pairs)
        k = max(1, linearized_ops._CHUNK_POINTS // 16**2)
        assert 0 < len(calls) <= math.ceil(20 / k)

    def test_rejects_misshapen_trial(self):
        ctx = flat_context(16)
        with pytest.raises(DimensionMismatch):
            negativity_check(ctx, [band_limited(16, seed=1), band_limited(32, seed=2)])
        # the shape is read first: a zero trial of the wrong shape is misshapen
        with pytest.raises(DimensionMismatch):
            negativity_check(ctx, [np.zeros((32, 32))])

    @pytest.mark.skipif(
        sys.platform != "linux" or platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds"
    )
    def test_battery_makes_no_page_faults(self):
        # a fresh process, so that nothing freed before sets glibc's mmap and
        # trim thresholds but the context's own heap prime; the minor faults
        # of the last three of four N = 64 batteries
        code = """
import resource
import numpy as np
from dhym import linearized_ops as lo
from dhym.spectral import grid2

n = 64
x, y = grid2(n)
rng = np.random.default_rng(7)
u = 0.004 * (np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.sin(2 * np.pi * (x + y)))
modes = [(kx, ky) for kx in range(4) for ky in range(-3, 4) if kx > 0 or ky > 0]
trials = [
    sum(rng.normal() * np.sin(2 * np.pi * (kx * x + ky * y) + rng.uniform(0.0, 6.0)) for kx, ky in modes)
    for _ in range(20)
]
ctx = lo.make_consistent_context(u, np.array([[2.0, 0.7], [0.7, 1.0]]))
for run in range(4):
    if run == 1:
        start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    lo.selfadjointness_defect(ctx, list(zip(trials[::2], trials[1::2])))
    lo.negativity_check(ctx, trials)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 3)
"""
        src = str(Path(dhym.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert float(out.stdout) < 100.0


class TestRayleighMemo:
    """negativity_check reads the Rayleigh quotients the context already has."""

    n = 32

    def setup_method(self):
        self.trials = [band_limited(self.n, seed=300 + i) for i in range(20)]

    def context(self):
        return make_consistent_context(perturbed_background(self.n), B_REF)

    def test_hits_apply_no_columns_and_match_a_fresh_context(self, monkeypatch):
        fresh = negativity_check(self.context(), self.trials)
        ctx = self.context()
        widths = count_columns(monkeypatch)
        selfadjointness_defect(ctx, zip(self.trials[::2], self.trials[1::2]))
        assert sum(widths) == 20
        widths.clear()
        assert negativity_check(ctx, self.trials) == fresh
        assert widths == []
        assert len(ctx._rayleigh) == 20
        assert all(isinstance(q, float) for q in ctx._rayleigh.values())

    def test_one_ulp_change_misses(self, monkeypatch):
        ctx = self.context()
        selfadjointness_defect(ctx, zip(self.trials[::2], self.trials[1::2]))
        changed = self.trials[3].copy()
        changed[5, 7] = np.nextafter(changed[5, 7], np.inf)
        widths = count_columns(monkeypatch)
        negativity_check(ctx, self.trials[:3] + [changed])
        assert widths == [1]

    def test_checks_run_on_hits(self, monkeypatch):
        ctx = self.context()
        constant = np.ones((self.n, self.n))
        selfadjointness_defect(ctx, [(self.trials[0], constant)])  # caches both quotients
        widths = count_columns(monkeypatch)
        with pytest.raises(DimensionMismatch):
            negativity_check(ctx, [self.trials[0].reshape(16, 64)])
        with pytest.raises(InvalidConfig):
            negativity_check(ctx, [self.trials[0], constant])
        assert widths == []

    def test_order_does_not_change_the_value(self):
        ctx = self.context()
        before = negativity_check(ctx, self.trials)
        selfadjointness_defect(ctx, zip(self.trials[::2], self.trials[1::2]))
        after_ctx = self.context()
        selfadjointness_defect(after_ctx, zip(self.trials[::2], self.trials[1::2]))
        assert negativity_check(after_ctx, self.trials) == before == negativity_check(ctx, self.trials)
