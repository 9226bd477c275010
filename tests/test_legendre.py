import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import dhym.legendre
from dhym import PeriodicProfile, datum_pushforward, legendre_forward
from dhym.errors import DimensionMismatch, NotConvex, NotMonotone
from dhym.legendre import MonotoneMap
from dhym.spectral import grid, spectral_derivative, trig_interpolate

from conftest import datum_pullback


def transform_pair(psi):
    phi, m = legendre_forward(psi)
    return phi, m


def drawn_curvature(n, amps, phases):
    """psi'' = sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x), scaled to sup|psi''| <= 0.9."""
    x = grid(n)
    psi_dd = np.zeros(n)
    for k, (a, b) in enumerate(zip(amps, phases), start=1):
        psi_dd += a * np.cos(2 * np.pi * k * x) + b * np.sin(2 * np.pi * k * x)
    scale = np.abs(psi_dd).max()
    if scale > 0.9:
        psi_dd *= 0.9 / scale
    return psi_dd


class TestForward:
    def test_trivial(self):
        psi = PeriodicProfile.zeros(64)
        phi, m = legendre_forward(psi)
        assert np.abs(phi.samples).max() == 0.0
        assert np.allclose(m.values, grid(64))

    def test_conjugation_identity_up_to_constant(self):
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[0.01])
        phi, m = legendre_forward(psi)
        x = grid(n)
        y_at = m.inverse(x)
        u = 0.5 * x**2 + phi.samples
        v_at = 0.5 * y_at**2 + trig_interpolate(psi.samples, y_at)
        ident = u + v_at - x * y_at
        # potentials are stored mean-zero, so the conjugation holds up to
        # the single constant fixed by that normalization
        assert np.abs(ident - ident.mean()).max() < 1e-9

    def test_node_inversion_against_brentq(self):
        n = 128
        psi = PeriodicProfile.from_fourier(n, cos=[0.01], sin=[0.0, 0.004])
        _, m = legendre_forward(psi)
        d1 = spectral_derivative(psi.samples, 1)
        x = grid(n)
        y_at = m.inverse(x)
        for k in range(0, n, 7):
            f = lambda y: y + trig_interpolate(d1, np.array([y]))[0] - x[k]
            ref = brentq(f, x[k] - 0.6, x[k] + 0.6, xtol=1e-14)
            assert abs(y_at[k] - ref) < 1e-12

    def test_duality_identity(self):
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[0.01])
        phi, m = legendre_forward(psi)
        x = grid(n)
        y_at = m.inverse(x)
        phi_dd = spectral_derivative(phi.samples, 2, stabilized=True)
        psi_dd_at = trig_interpolate(spectral_derivative(psi.samples, 2), y_at)
        assert np.abs((1.0 + phi_dd) * (1.0 + psi_dd_at) - 1.0).max() < 1e-8

    @pytest.mark.parametrize("amp, bound", [(0.005, 1.2e-12), (0.0113, 1.7e-11)])
    def test_duality_floor(self, amp, bound):
        # the defect `dhym legendre` reports, at about twice its measured
        # floor (6.0e-13 / 8.5e-12): zeroing only the roundoff tail of
        # the spectra keeps their small interior bins
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[amp])
        phi, m = legendre_forward(psi)
        phi_dd = spectral_derivative(phi.samples, 2, stabilized=True)
        psi_dd = spectral_derivative(psi.samples, 2, stabilized=True)
        assert np.abs((1.0 + phi_dd) * (1.0 + trig_interpolate(psi_dd, m.preimages)) - 1.0).max() <= bound

    def test_involution_simple(self):
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[0.01])
        phi, _ = legendre_forward(psi)
        psi_back, _ = legendre_forward(phi)
        assert np.abs(psi_back.samples - psi.samples).max() < 1e-8

    @given(
        amps=st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=3),
        phases=st.lists(st.floats(-0.25, 0.25), min_size=1, max_size=3),
    )
    @settings(max_examples=25, deadline=None)
    def test_involution_property(self, amps, phases):
        # near the cone edge N = 512 under-resolves the conjugate: on the
        # worst boundary draw (min(1 + psi'') = 0.1) the round trip misses by
        # 3.6e-8 / 2.2e-10 / 3.4e-14 at N = 512 / 1024 / 2048, while every
        # boundary draw with min(1 + psi'') >= 0.15 stays within 2.2e-10 at 512
        from dhym.spectral import second_antiderivative

        psi_dd = drawn_curvature(512, amps, phases)
        if 1.0 + psi_dd.min() < 0.15:
            psi_dd = drawn_curvature(1024, amps, phases)
        psi = PeriodicProfile.from_samples(second_antiderivative(psi_dd), demean=True)
        phi, _ = legendre_forward(psi)
        psi_back, _ = legendre_forward(phi)
        assert np.abs(psi_back.samples - psi.samples).max() < 1e-8

    def test_abreu_formula_consistency(self):
        # the fourth-order operator agrees through the coordinate change
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[0.01])
        phi, m = legendre_forward(psi)
        x = grid(n)
        y_at = m.inverse(x)
        w_psi = 1.0 + spectral_derivative(psi.samples, 2, stabilized=True)
        lhs = -0.25 * spectral_derivative(np.log(w_psi), 2, stabilized=True) / w_psi
        lhs_at = trig_interpolate(lhs, y_at)
        w_phi = 1.0 + spectral_derivative(phi.samples, 2, stabilized=True)
        rhs = -0.25 * spectral_derivative(1.0 / w_phi, 2, stabilized=True)
        assert np.abs(lhs_at - rhs).max() < 1e-6

    def test_rejects_nonconvex(self):
        n = 64
        x = grid(n)
        psi_dd = -1.5 * np.cos(2 * np.pi * x)
        from dhym.spectral import second_antiderivative

        psi = PeriodicProfile.from_samples(second_antiderivative(psi_dd), demean=True)
        with pytest.raises(NotConvex):
            legendre_forward(psi)


class TestMonotoneMap:
    def test_degree_one(self):
        n = 128
        psi = PeriodicProfile.from_fourier(n, cos=[0.02], sin=[0.01])
        _, m = legendre_forward(psi)
        pts = np.linspace(0.0, 1.0, 17)
        assert np.allclose(m.forward(pts + 1.0), m.forward(pts) + 1.0, atol=1e-12)

    def test_forward_inverse_roundtrip(self, rng):
        n = 128
        psi = PeriodicProfile.from_fourier(n, cos=[0.02], sin=[0.01])
        _, m = legendre_forward(psi)
        pts = rng.uniform(-1.0, 2.0, 200)
        assert np.abs(m.forward(m.inverse(pts)) - pts).max() < 1e-12

    @pytest.mark.parametrize("n", [256, 1024])
    @pytest.mark.parametrize("amp", [0.005, 0.02])
    def test_inverse_needs_few_map_evaluations(self, monkeypatch, n, amp):
        # from the chord start a converged point must stay put on its
        # closed bracket, so a call takes only a few Newton steps
        _, m = legendre_forward(PeriodicProfile.from_fourier(n, cos=[amp]))
        evals = 0

        def counting(samples, points):
            nonlocal evals
            evals += samples is m.d1
            return trig_interpolate(samples, points)

        monkeypatch.setattr(dhym.legendre, "trig_interpolate", counting)
        y = m.inverse(grid(n))
        monkeypatch.undo()
        assert evals <= 4
        assert np.abs(m.forward(y) - grid(n)).max() < 1e-14

    def test_rejects_nonmonotone(self):
        with pytest.raises(NotMonotone):
            # values = grid(4) + d1 = [0, 0.6, 0.4, 0.9]
            MonotoneMap(d1=np.array([0.0, 0.35, -0.1, 0.15]), d2=np.zeros(4))


class TestDatumTransport:
    def test_constant(self):
        n = 64
        psi = PeriodicProfile.from_fourier(n, cos=[0.02])
        _, m = legendre_forward(psi)
        a = PeriodicProfile.from_samples(np.full(n, 3.7))
        f = datum_pushforward(a, m)
        assert np.abs(f.samples - 3.7).max() < 1e-12

    def test_identity_map(self):
        n = 64
        psi = PeriodicProfile.zeros(n)
        _, m = legendre_forward(psi)
        a = PeriodicProfile.from_fourier(n, cos=[1.0], constant=0.5)
        f = datum_pushforward(a, m)
        assert np.abs(f.samples - a.samples).max() < 1e-13

    def test_roundtrip(self):
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[0.01])
        _, m = legendre_forward(psi)
        a = PeriodicProfile.from_fourier(n, cos=[1.0])
        back = datum_pullback(datum_pushforward(a, m), m)
        assert np.abs(back.samples - a.samples).max() < 1e-8

    def test_grid_mismatch_refused(self):
        # the map keeps the preimages of its own grid nodes only
        _, m = legendre_forward(PeriodicProfile.from_fourier(64, cos=[0.01]))
        with pytest.raises(DimensionMismatch):
            datum_pushforward(PeriodicProfile.from_fourier(128, cos=[1.0]), m)

    def test_transport_relation(self):
        # f(y(x)) = a(x) at the source nodes
        n = 256
        psi = PeriodicProfile.from_fourier(n, cos=[0.01])
        _, m = legendre_forward(psi)
        a = PeriodicProfile.from_fourier(n, cos=[1.0], sin=[0.3])
        f = datum_pushforward(a, m)
        at_nodes = trig_interpolate(f.samples, m.values)
        assert np.abs(at_nodes - a.samples).max() < 1e-9
