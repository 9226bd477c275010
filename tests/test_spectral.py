import warnings

import numpy as np
import pytest

from dhym.errors import InvalidConfig
from dhym.spectral import (
    PeriodicProfile,
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


class TestInterpolation:
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


class TestPeriodicProfile:
    def test_grid_size_validation(self):
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.zeros(12))
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.zeros(48))  # not a power of two

    def test_mean_zero_enforced(self):
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.ones(16), mean_zero=True)

    def test_from_fourier(self):
        p = PeriodicProfile.from_fourier(32, cos=[1.0], sin=[0.0, 0.5])
        x = grid(32)
        assert np.abs(p.samples - np.cos(2 * np.pi * x) - 0.5 * np.sin(4 * np.pi * x)).max() < 1e-14
        assert p.mean_zero

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidConfig):
            PeriodicProfile(np.array([np.nan] * 16))
