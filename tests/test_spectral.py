import warnings

import numpy as np
import pytest

from dhym.errors import DimensionMismatch, InvalidConfig
from dhym.spectral import (
    _DENSE_MAX_N,
    PeriodicProfile,
    _diff_matrix,
    _prolong2,
    _prolongation,
    _tail_chopped_second_derivative,
    grid,
    hessian2,
    partial2,
    resample,
    resample2,
    second_antiderivative,
    spectral_chop,
    spectral_derivative,
    trig_interpolate,
)


class TestDerivatives:
    def test_band_limited_exact(self):
        n = 64
        x = grid(n)
        f = np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
        d = spectral_derivative(f, 1)
        exact = 2 * np.pi * np.cos(2 * np.pi * x) - 1.8 * np.pi * np.sin(6 * np.pi * x)
        assert np.abs(d - exact).max() < 1e-12

    def test_second_antiderivative_inverts(self):
        n = 64
        x = grid(n)
        f = np.cos(2 * np.pi * x) + 0.2 * np.sin(8 * np.pi * x)
        assert np.abs(second_antiderivative(spectral_derivative(f, 2)) - f).max() < 1e-13

    def test_derivative_of_constant(self):
        assert np.abs(spectral_derivative(np.full(32, 4.2), 2)).max() == 0.0

    def test_chop_removes_noise_keeps_signal(self, rng):
        n = 256
        x = grid(n)
        f = np.cos(2 * np.pi * x)
        noisy = f + 1e-15 * rng.standard_normal(n)
        cleaned = spectral_chop(noisy)
        assert np.abs(cleaned - f).max() < 5e-15  # noise gone, signal kept

    def test_stabilized_high_order_derivative(self, rng):
        # sample-level noise would be amplified by (2 pi k)^4 without the chop
        n = 256
        x = grid(n)
        f = np.cos(2 * np.pi * x)
        noisy = f + 1e-15 * rng.standard_normal(n)
        d4 = spectral_derivative(noisy, 4, stabilized=True)
        scale = (2 * np.pi) ** 4
        assert np.abs(d4 - scale * f).max() < 1e-12 * scale
        plain = spectral_derivative(noisy, 4)
        assert np.abs(plain - scale * f).max() > 1e-7 * scale  # the raw path is noisy

    def test_chop_zero_input(self):
        assert np.abs(spectral_chop(np.zeros(32))).max() == 0.0

    @pytest.mark.parametrize("path", ["chop", "stabilized-d2"])
    def test_chop_keeps_small_interior_bin(self, path):
        # the mode-3 bin is 5e-14 of the largest, above the 64 eps (1.4e-14)
        # roundoff tail: it is signal, and only the trailing tail is chopped
        n = 256
        x = grid(n)
        f = np.cos(2 * np.pi * x) + 1e-3 * np.cos(2 * np.pi * 5 * x) + 5e-14 * np.cos(2 * np.pi * 3 * x)
        if path == "chop":
            bin3 = abs(np.fft.rfft(spectral_chop(f))[3])
        else:
            bin3 = abs(np.fft.rfft(spectral_derivative(f, 2, stabilized=True))[3]) / (2 * np.pi * 3) ** 2
        assert abs(bin3 - 5e-14 * n / 2) <= 0.01 * 5e-14 * n / 2

    def test_one_chop_rule_for_rho_and_stabilized_paths(self, rng):
        # the rho'' of the ODE residual and the stabilized second derivative
        # zero the same bins of the same samples
        n = 256
        x = grid(n)
        f = 1.0 / (1.5 + np.cos(2 * np.pi * x)) + 1e-15 * rng.standard_normal(n)
        rho_dd, _ = _tail_chopped_second_derivative(f)
        stabilized = spectral_derivative(f, 2, stabilized=True)
        assert not np.array_equal(stabilized, spectral_derivative(f, 2))  # a tail was chopped
        np.testing.assert_array_equal(rho_dd, stabilized)


class TestInterpolation:
    def test_rejects_odd_grid(self):
        with pytest.raises(InvalidConfig, match="even grid"):
            trig_interpolate(np.zeros(15), np.array([0.1]))

    def test_exact_on_band_limited(self, rng):
        n = 64
        x = grid(n)
        f = np.sin(2 * np.pi * x) + 0.3 * np.cos(6 * np.pi * x)
        pts = rng.uniform(-1, 2, 100)
        ref = np.sin(2 * np.pi * pts) + 0.3 * np.cos(6 * np.pi * pts)
        assert np.abs(trig_interpolate(f, pts) - ref).max() < 1e-13

    def test_node_values(self):
        n = 32
        f = np.arange(n, dtype=float)
        assert np.allclose(trig_interpolate(f, grid(n)), f)

    def test_point_next_to_node_no_warning(self):
        # 1/tan(pi d) overflows at d = 1e-310; np.where masks that entry
        f = np.arange(32, dtype=float) + 5.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert trig_interpolate(f, np.array([1e-310]))[0] == f[0]

    def test_resample_band_limited(self):
        n = 32
        f = np.cos(2 * np.pi * grid(n)) + 0.4 * np.sin(6 * np.pi * grid(n))
        up = resample(f, 128)
        ref = np.cos(2 * np.pi * grid(128)) + 0.4 * np.sin(6 * np.pi * grid(128))
        assert np.abs(up - ref).max() < 1e-13

    def test_resample2(self):
        n = 16
        x, y = np.meshgrid(grid(n), grid(n), indexing="ij")
        f = np.cos(2 * np.pi * (x + 2 * y))
        up = resample2(f, 48)
        X, Y = np.meshgrid(grid(48), grid(48), indexing="ij")
        assert np.abs(up - np.cos(2 * np.pi * (X + 2 * Y))).max() < 1e-13


    def test_resample2_stack(self, rng):
        # the last two axes are the field, leading axes a stack
        stack = rng.standard_normal((3, 2, 16, 16))
        for n_new in (8, 16, 32):
            out = resample2(stack, n_new)
            assert out.shape == (3, 2, n_new, n_new)
            for idx in np.ndindex(stack.shape[:2]):
                assert np.array_equal(out[idx], resample2(stack[idx], n_new))


class TestProlongation:
    @pytest.mark.parametrize("n", [32, 66, _DENSE_MAX_N, 2 * _DENSE_MAX_N])
    def test_band_limited_exact(self, n):
        # the half grid of N = 66 is odd, with no Nyquist mode
        x, y = np.meshgrid(grid(n), grid(n), indexing="ij")
        f = np.cos(2 * np.pi * (3 * x - 2 * y)) + 0.5 * np.sin(2 * np.pi * (x + 5 * y))
        out = _prolong2(np.array([f[::2, ::2], 2.0 * f[::2, ::2]]), n)
        assert np.abs(out - [f, 2.0 * f]).max() <= 1e-13

    @pytest.mark.parametrize("n", [16, 34, 64, 66, _DENSE_MAX_N])
    def test_dense_matrix_is_fourier_padding(self, n):
        f = np.random.default_rng(n).standard_normal((2, n // 2, n // 2))
        ref = resample2(f, n)
        assert np.abs(_prolong2(f, n) - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_cached_matrices_are_read_only_and_contiguous(self):
        p, pt = _prolongation(32)
        assert _prolongation(32)[0] is p
        assert p.shape == (32, 16) and np.array_equal(pt, p.T)
        assert p.flags.c_contiguous and pt.flags.c_contiguous
        assert not p.flags.writeable and not pt.flags.writeable


class TestFields2d:
    def test_partial_orders(self):
        n = 32
        x, y = np.meshgrid(grid(n), grid(n), indexing="ij")
        f = np.sin(2 * np.pi * x) * np.cos(4 * np.pi * y)
        fx = partial2(f, 1, 0)
        assert np.abs(fx - 2 * np.pi * np.cos(2 * np.pi * x) * np.cos(4 * np.pi * y)).max() < 1e-11
        fxy = partial2(f, 1, 1)
        ref = -8 * np.pi**2 * np.cos(2 * np.pi * x) * np.sin(4 * np.pi * y)
        assert np.abs(fxy - ref).max() < 1e-10

    def test_stack_of_fields(self, rng):
        # leading axes are a stack: each field is differentiated on its own
        stack = rng.standard_normal((3, 2, 16, 16))
        for dx, dy in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
            out = partial2(stack, dx, dy)
            for idx in np.ndindex(stack.shape[:2]):
                assert np.allclose(out[idx], partial2(stack[idx], dx, dy), rtol=0.0, atol=1e-12)
        h = hessian2(stack)
        assert h.shape == (3, 2, 16, 16, 2, 2)
        assert np.allclose(h[1, 0], hessian2(stack[1, 0]), rtol=0.0, atol=1e-10)

    def test_hessian_symmetry(self, rng):
        f = rng.standard_normal((32, 32))
        h = hessian2(f)
        assert (h[..., 0, 1] == h[..., 1, 0]).all()


def fft_partial2(f, dx, dy):
    """partial2 by the FFT along each axis: the oracle of the dense path."""
    if dx:
        f = spectral_derivative(f, dx, axis=-2)
    if dy:
        f = spectral_derivative(f, dy, axis=-1)
    return f


ORDERS = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
# largest relative gap between the dense and the FFT derivative, measured
# over 20 seeds of white-noise fields and stacks and the five orders
DENSE_FLOOR = {16: 6.5e-16, 25: 9.5e-16, 32: 7.6e-16, 64: 1.3e-15, _DENSE_MAX_N: 2.0e-15}


class TestDenseDerivatives:
    @pytest.mark.parametrize("n", sorted(DENSE_FLOOR))
    @pytest.mark.parametrize("shape", [(), (3,), (2, 2)])
    def test_agrees_with_fft(self, n, shape):
        f = np.random.default_rng(n).standard_normal(shape + (n, n))
        for dx, dy in ORDERS:
            ref = fft_partial2(f, dx, dy)
            out = partial2(f, dx, dy)
            assert out.shape == f.shape
            assert np.abs(out - ref).max() <= 4.0 * DENSE_FLOOR[n] * np.abs(ref).max(), (dx, dy)

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_fft_above_the_crossover(self, shape):
        n = 2 * _DENSE_MAX_N
        f = np.random.default_rng(n).standard_normal(shape + (n, n))
        for dx, dy in ORDERS:
            assert np.array_equal(partial2(f, dx, dy), fft_partial2(f, dx, dy))

    @pytest.mark.parametrize("n", [16, 25, 32, 64, _DENSE_MAX_N])
    def test_matrix_exactly_skew_or_symmetric(self, n):
        for order in (1, 2, 3, 4):
            d, _ = _diff_matrix(n, order)
            assert d.shape == (n, n)
            if order % 2:
                assert np.array_equal(d, -d.T)
            else:
                assert np.array_equal(d, d.T)

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_transposed_matrix_is_exact_and_contiguous(self, n):
        for order in (1, 2):
            d, t = _diff_matrix(n, order)
            assert np.array_equal(t, d.T)
            assert t.flags.c_contiguous and not t.flags.writeable
            assert t is _diff_matrix(n, order)[1]

    def test_cached_matrix_is_read_only(self):
        d, _ = _diff_matrix(32, 1)
        assert d is _diff_matrix(32, 1)[0]
        assert not d.flags.writeable
        with pytest.raises(ValueError):
            d[0, 1] = 0.0


class TestPeriodicProfile:
    def test_grid_size_validation(self):
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.zeros(12))
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.zeros(48))  # not a power of two

    def test_from_fourier_refuses_aliased_modes(self):
        # mode 8 is the Nyquist index of a 16-point grid, mode 10 aliases to 6
        for cos, sin in (([0.0] * 7 + [0.1], ()), ([0.0] * 9 + [0.1], ()), ((), [0.0] * 15 + [0.1])):
            with pytest.raises(InvalidConfig):
                PeriodicProfile.from_fourier(16, cos=cos, sin=sin)
        p = PeriodicProfile.from_fourier(16, cos=[0.1] * 7 + [0.0] * 9)  # zeros past the limit are fine
        assert np.abs(p.samples).max() > 0.0

    def test_from_fourier(self):
        p = PeriodicProfile.from_fourier(32, cos=[1.0], sin=[0.0, 0.5])
        x = grid(32)
        assert np.abs(p.samples - np.cos(2 * np.pi * x) - 0.5 * np.sin(4 * np.pi * x)).max() < 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.array([np.nan] * 16))

    def test_rejects_2d_samples(self):
        with pytest.raises(DimensionMismatch, match="1-d array"):
            PeriodicProfile(np.zeros((16, 16)))
