import math

import numpy as np
import pytest

from dhym import linearized_ops
from dhym.errors import DimensionMismatch, InvalidConfig
from dhym.linearized_ops import (
    LinearizedContext,
    apply_L,
    flat_symbol,
    make_consistent_context,
    negativity_check,
    selfadjointness_defect,
    selfadjointness_refinement,
    solve_lincond,
)
from dhym.spectral import _pcg, grid2, hessian2, inner, partial2

from conftest import dense_operator

B_REF = np.array([[2.0, 0.7], [0.7, 1.0]])


def flat_context(n, b=B_REF):
    return LinearizedContext(u_pert=np.zeros((n, n)), b_matrix=b, phi=np.zeros((n, n)))


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
        coeff = np.fft.fft2(basis)
        keep = np.zeros_like(coeff)
        keep[n // 2, :] = coeff[n // 2, :]
        keep[:, n // 2] = coeff[:, n // 2]
        mat[:size, j] = (ctx.laplacian(basis) + sigma * np.real(np.fft.ifft2(keep))).ravel()
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

    @pytest.mark.parametrize("n", [16, 32, 64, 128])
    def test_laplacian_applications_per_solve(self, n, monkeypatch):
        ctx = make_consistent_context(perturbed_background(n), B_REF)
        calls = []
        laplacian = LinearizedContext.laplacian

        def counted(self, f):
            calls.append(1)
            return laplacian(self, f)

        monkeypatch.setattr(LinearizedContext, "laplacian", counted)
        for gamma in (delta(n), band_limited(n, seed=9)):
            calls.clear()
            solve_lincond(ctx, gamma)
            assert 0 < len(calls) <= 20


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
        defects, _ = selfadjointness_refinement(
            perturbed_background(16, amplitude=0.006), B_REF, pairs, [16, 24, 32]
        )
        assert max(defects) < 1e-12
        assert defects[-1] <= max(defects[0], 1e-14)

    def test_inconsistent_background_breaks_symmetry(self):
        # the cancellation uses the background degree equation; an arbitrary
        # bundle potential must show a macroscopic defect
        n = 24
        x, y = grid2(n)
        ctx = LinearizedContext(
            u_pert=perturbed_background(n),
            b_matrix=B_REF,
            phi=0.01 * np.cos(2 * np.pi * (x + 2 * y)),
        )
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


class TestContext:
    def test_degree_defect_flat(self):
        assert flat_context(32).degree_defect() < 1e-14

    def test_consistent_construction(self):
        ctx = make_consistent_context(perturbed_background(32), B_REF)
        assert ctx.degree_defect() < 1e-12

    def test_rejects_nonconvex_background(self):
        x, y = grid2(32)
        with pytest.raises(InvalidConfig):
            LinearizedContext(
                u_pert=0.05 * np.cos(2 * np.pi * x), b_matrix=B_REF, phi=np.zeros((32, 32))
            )


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
        ctx = LinearizedContext(
            u_pert=perturbed_background(n), b_matrix=B_REF, phi=0.01 * np.cos(2 * np.pi * (x + 2 * y))
        )
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
