import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhym import (
    CohomologyData,
    ConstantCurvature2,
    Phase,
    dhym_residual_surface,
    exact_z,
    pencil_eigenvalues,
    phase_positivity_constant,
    surface_apriori_check,
    surface_ma_check,
    torus_constant_phase,
)
from dhym import core_geometry, kym_ndim
from dhym.core_geometry import _as_sym
from dhym.errors import (
    DegeneratePhase,
    DimensionMismatch,
    NonPositiveMetric,
    PhasePreconditionViolated,
)
from dhym.kym_ndim import KymData, apriori_verify, j_equation_residual, residual_complex

from conftest import average_radius, phase_radius, random_spd, random_sym


def reduced_field(m):
    """A matrix or a stack of them as a field (K, 1, 2, 2) of ``kym_ndim``, constant in y."""
    return np.reshape(m, (-1, 1, 2, 2))


#: The functions that refuse a metric v which is not positive definite,
#: each called as site(v, F).
METRIC_SITES = {
    "pencil_eigenvalues": pencil_eigenvalues,
    "dhym_residual_surface": lambda v, f: dhym_residual_surface(v, f, Phase(cos=1.0, sin=0.0)),
    "surface_ma_check": lambda v, f: surface_ma_check(v, f, Phase(cos=0.8, sin=-0.6)),
    "residual_complex": lambda v, f: residual_complex(
        reduced_field(v), reduced_field(f), KymData(alpha=1.0, b_matrix=np.eye(2)), 0.0
    ),
    "j_equation_residual": lambda v, f: j_equation_residual(reduced_field(v), reduced_field(f), 1.0, 1.0, 0.0),
}

#: The functions that take a pair (v, F) of matrix fields, each called as
#: site(v, F); the ``kym_ndim`` ones take the fields as given, (N, M, 2, 2)
#: for the residuals and any stack for ``apriori_verify``.
PAIR_SITES = dict(
    METRIC_SITES,
    surface_apriori_check=lambda v, f: surface_apriori_check(v, f, Phase(cos=0.8, sin=-0.6)),
    residual_complex=lambda v, f: residual_complex(v, f, KymData(alpha=1.0, b_matrix=np.eye(2)), 0.0),
    j_equation_residual=lambda v, f: j_equation_residual(v, f, 1.0, 1.0, 0.0),
    apriori_verify=lambda v, f: apriori_verify(v, f, mu=1.0),
)


def identity_field(shape, n=2):
    return np.broadcast_to(np.eye(n), shape + (n, n)).copy()


#: Pairs (v, F) that are not fields of one shape.
MISMATCHED_PAIRS = {
    "points": (identity_field((4,)), identity_field((3,))),
    "grid": (identity_field((16, 16)), identity_field((32, 32))),
    "matrix_size": (identity_field((4, 4)), identity_field((4, 4), n=3)),
}


#: Refusals of malformed input outside the pair sites: (call, error, message).
INPUT_REFUSALS = {
    "phase-off-circle": (lambda: Phase(1.0, 1.0), DegeneratePhase, "unit circle"),
    "curvature-3x3": (lambda: ConstantCurvature2.from_matrix(np.eye(3)), DimensionMismatch, "must be 2x2"),
    "as_sym-2x3": (lambda: _as_sym(np.zeros((2, 3)), "m"), DimensionMismatch, r"m must be square, got shape \(2, 3\)"),
    "spd2_det-3x3": (lambda: core_geometry._spd2_det(np.eye(3), "v"), DimensionMismatch, "expect 2x2 matrices"),
}


@pytest.mark.parametrize("case", INPUT_REFUSALS)
def test_input_refusals(case):
    call, error, match = INPUT_REFUSALS[case]
    with pytest.raises(error, match=match):
        call()


def bisection_pencil_roots(v, f, n_probe=4001, tol=1e-13):
    """Brute-force roots of det(F - lam*v) by sign scanning plus bisection.

    Independent of the eigensolver route; assumes simple roots (holds almost
    surely for random input).
    """
    lam_max = np.abs(np.linalg.eigvalsh(f)).max() / np.linalg.eigvalsh(v).min() + 1.0
    grid = np.linspace(-lam_max, lam_max, n_probe)
    vals = np.linalg.det(f - grid[:, None, None] * v)
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        flo = vals[i]
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            fm = np.linalg.det(f - mid * v)
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return np.array(roots)


class TestPencilEigenvalues:
    def test_zero_curvature(self):
        assert np.allclose(pencil_eigenvalues(np.eye(2), np.zeros((2, 2))), [0.0, 0.0])

    def test_diagonal(self):
        assert np.allclose(pencil_eigenvalues(np.eye(2), np.diag([1.0, 2.0])), [1.0, 2.0])

    def test_against_bisection_oracle(self, rng):
        for _ in range(1000):
            n = rng.choice([2, 3])
            v = random_spd(rng, n)
            f = random_sym(rng, n)
            if n == 3:  # the pencil is 2x2 only
                with pytest.raises(DimensionMismatch, match="expect 2x2 matrices"):
                    pencil_eigenvalues(v, f)
                continue
            lam = pencil_eigenvalues(v, f)
            ref = bisection_pencil_roots(v, f)
            if len(ref) != n:
                continue  # grazing root; the scan cannot bracket it
            assert np.abs(lam - ref).max() < 1e-10

    def test_matches_scipy_generalized(self, rng):
        from scipy.linalg import eigh

        for _ in range(50):
            v = random_spd(rng, 3)
            f = random_sym(rng, 3)
            with pytest.raises(DimensionMismatch, match="expect 2x2 matrices"):
                pencil_eigenvalues(v, f)
            v = random_spd(rng, 2)
            f = random_sym(rng, 2)
            assert np.allclose(
                pencil_eigenvalues(v, f), eigh(f, v, eigvals_only=True), atol=1e-11
            )

    def test_stacked_fields(self, rng):
        v = np.stack([random_spd(rng, 2) for _ in range(5)])
        f = np.stack([random_sym(rng, 2) for _ in range(5)])
        lam = pencil_eigenvalues(v, f)
        assert lam.shape == (5, 2)
        for i in range(5):
            assert np.allclose(lam[i], pencil_eigenvalues(v[i], f[i]))

    def test_rejects_indefinite_metric(self):
        with pytest.raises(NonPositiveMetric):
            pencil_eigenvalues(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pencil_eigenvalues(np.eye(2), np.eye(3))


def eigh_oracle(v, f):
    """The LAPACK route: v^{-1/2} from ``eigh``, then ``eigvalsh``."""
    w, q = np.linalg.eigh(v)
    r = np.einsum("...ij,...j,...kj->...ik", q, 1.0 / np.sqrt(w), q)
    return np.linalg.eigvalsh(r @ f @ r)


def rotated_spd(rng, size, cond):
    """2x2 SPD matrices with eigenvalues l and l * cond in random axes."""
    th = rng.uniform(0.0, np.pi, size)
    c, s = np.cos(th), np.sin(th)
    q = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    low = rng.uniform(0.2, 2.0, size)
    return np.einsum("...ij,...j,...kj->...ik", q, np.stack([low, low * cond], -1), q)


def sym_field(rng, size, bound=1.0):
    m = rng.uniform(-bound, bound, size + (2, 2))
    return 0.5 * (m + np.swapaxes(m, -1, -2))


class TestClosedFormPencil:
    """The n = 2 closed form against the eigh route, relative to max(1, |lambda|).

    Each bound is 4x the largest error over five seeds of the case; the
    error grows like eps * cond(v) for both routes (against 50-digit roots
    at cond 1e8, 3.2e-9 for the closed form and 4.9e-9 for eigh)."""

    @pytest.mark.parametrize(
        "case, bound",
        [
            ("random", 6.4e-15),
            ("cond1e2", 7.1e-14),
            ("cond1e4", 6.5e-12),
            ("cond1e6", 7.0e-10),
            ("cond1e8", 6.2e-8),
            ("near_double", 8.9e-15),
            ("zero_F", 0.0),
            ("diagonal_F", 6.5e-15),
        ],
    )
    def test_against_eigh(self, case, bound):
        rng = np.random.default_rng([0, 17])
        size = (2000,)
        if case == "random":
            v, f = rotated_spd(rng, size, rng.uniform(1.0, 10.0, size)), sym_field(rng, size)
        elif case.startswith("cond"):
            v, f = rotated_spd(rng, size, float(case[4:])), sym_field(rng, size)
        else:
            v = rotated_spd(rng, size, rng.uniform(1.0, 10.0, size))
            f = {
                # F = c v + 1e-9 sym: the two eigenvalues are c to within 1e-9
                "near_double": lambda: rng.uniform(-3.0, 3.0, size)[:, None, None] * v + 1e-9 * sym_field(rng, size),
                "zero_F": lambda: np.zeros_like(v),
                "diagonal_F": lambda: sym_field(rng, size) * np.eye(2),
            }[case]()
        lam, ref = pencil_eigenvalues(v, f), eigh_oracle(v, f)
        assert lam.shape == ref.shape == (2000, 2)
        assert (np.diff(lam, axis=-1) >= 0.0).all()
        assert (np.abs(lam - ref) / np.maximum(1.0, np.abs(ref))).max() <= bound

    def test_field_shape(self, rng):
        v = rotated_spd(rng, (8, 8), rng.uniform(1.0, 10.0, (8, 8)))
        f = sym_field(rng, (8, 8))
        lam = pencil_eigenvalues(v, f)
        assert lam.shape == (8, 8, 2)
        assert np.abs(lam - eigh_oracle(v, f)).max() <= 1e-14 * max(1.0, np.abs(lam).max())

    @pytest.mark.parametrize(
        "site, v",
        [
            # the pencil_eigenvalues cases keep their ids v0 .. v3
            pytest.param(site, v, id=f"v{i}" if site == "pencil_eigenvalues" else f"v{i}-{site}")
            for site in METRIC_SITES
            for i, v in enumerate(
                [
                    np.diag([1.0, -1.0]),  # det < 0
                    -np.eye(2),  # det > 0, tr < 0
                    np.ones((2, 2)),  # det = 0
                    np.stack([np.eye(2), np.eye(2), np.diag([2.0, -0.5])]),  # one bad point
                ]
            )
        ],
    )
    def test_rejects_non_spd_metric(self, site, v):
        # every site that needs a positive definite 2x2 v refuses in one form
        with pytest.raises(NonPositiveMetric, match=r"^v has a nonpositive eigenvalue \(-?[0-9.e+-]+\)$"):
            METRIC_SITES[site](v, np.zeros_like(v))

    @pytest.mark.parametrize("site", METRIC_SITES)
    def test_rejects_metric_whose_det_overflows(self, site):
        # v = 1e200 I is positive definite, but det v overflows: refused, with no RuntimeWarning first
        v = 1e200 * np.eye(2)
        with pytest.raises(NonPositiveMetric, match=r"^v is too large: its determinant overflows$"):
            METRIC_SITES[site](v, np.zeros_like(v))

    @pytest.mark.parametrize("pair", MISMATCHED_PAIRS)
    @pytest.mark.parametrize("site", PAIR_SITES)
    def test_rejects_mismatched_pair(self, site, pair):
        # every site refuses v and F on different points or of different sizes in one form
        v, f = MISMATCHED_PAIRS[pair]
        with pytest.raises(DimensionMismatch, match=r"^dimension mismatch: v is \("):
            PAIR_SITES[site](v, f)

    def test_message_form_matches_general_route(self):
        # the lowest eigenvalue of v is named; a 3x3 v is refused by its size first
        v = np.diag([2.0, -0.5])
        with pytest.raises(NonPositiveMetric, match=r"^v has a nonpositive eigenvalue \(-0\.5\)$"):
            pencil_eigenvalues(v, np.zeros_like(v))
        v = np.diag([2.0, -0.5, 1.0])
        with pytest.raises(DimensionMismatch, match="^surface operations expect 2x2 matrices$"):
            pencil_eigenvalues(v, np.zeros_like(v))

    def test_empty_stacks(self):
        empty = np.zeros((0, 2, 2))
        assert pencil_eigenvalues(empty, empty).shape == (0, 2)
        im, re = dhym_residual_surface(empty, empty, Phase(cos=1.0, sin=0.0))
        assert im.shape == re.shape == (0,)

    # the reducing verifiers refuse an empty stack: a sup over no points has no value
    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 0, 2, 2)])
    def test_ma_check_refuses_empty_stack(self, shape):
        with pytest.raises(DimensionMismatch, match="empty"):
            surface_ma_check(np.zeros(shape), np.zeros(shape), Phase(cos=0.8, sin=-0.6))

    @pytest.mark.parametrize("shape", [(0, 2, 2), (0, 0, 2, 2)])
    def test_apriori_check_refuses_empty_stack(self, shape):
        with pytest.raises(DimensionMismatch, match="empty"):
            surface_apriori_check(np.zeros(shape), np.zeros(shape), Phase(cos=0.8, sin=-0.6))


def old_symmetry_rule(m) -> bool:
    """The symmetry test of ``_as_sym`` before it was rewritten, warnings
    silenced (it warns on infinite entries)."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        atol = 1e-12 * max(1.0, np.abs(m).max())
        return bool(np.allclose(m, np.swapaxes(m, -1, -2), rtol=0.0, atol=atol))


def _symmetry_case(shape, kind):
    rng = np.random.default_rng([len(shape), shape[-1]])
    m = rng.uniform(-3.0, 3.0, shape)
    m = 0.5 * (m + np.swapaxes(m, -1, -2))
    at = (0,) * (len(shape) - 2) if len(shape) == 2 else (3, 5)
    upper, lower = at + (0, shape[-1] - 1), at + (shape[-1] - 1, 0)
    atol = 1e-12 * max(1.0, np.abs(m).max())
    if kind.startswith("gap"):
        m[upper] += float(kind[3:]) * atol
    elif kind == "symmetric_inf":
        m[upper] = m[lower] = np.inf
        m[at + (0, 0)] = -np.inf
    elif kind == "inf_vs_finite":
        m[upper] = np.inf
    elif kind == "nan":
        m[at + (0, 0)] = np.nan
    return m


class TestSymmetryRule:
    """``_as_sym`` accepts what the allclose rule accepted, without its warnings."""

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8, 2, 2), (3, 3)])
    @pytest.mark.parametrize("kind", ["exact", "gap0.5", "gap2", "symmetric_inf", "inf_vs_finite", "nan"])
    def test_parity_with_allclose_rule(self, shape, kind):
        m = _symmetry_case(shape, kind)
        expected = {"exact": True, "gap0.5": True, "gap2": False, "symmetric_inf": True}.get(kind, False)
        assert old_symmetry_rule(m) is expected
        if expected:
            out = _as_sym(m, "m")
            assert np.array_equal(out, 0.5 * (m + np.swapaxes(m, -1, -2)))
        else:
            with pytest.raises(DimensionMismatch, match="m must be symmetric"):
                _as_sym(m, "m")

    def test_empty_stack(self):
        assert _as_sym(np.zeros((0, 2, 2)), "m").shape == (0, 2, 2)

    def test_large_entries_stay_finite(self):
        # m + m^T overflows above about 8.99e307; the halves 0.5 m + 0.5 m^T do not
        m = np.array([[1.7e308, 1.0], [1.0, 1.7e308]])
        assert np.array_equal(_as_sym(m, "F0"), m)


class TestPhaseRadius:
    """The oracle ``phase_radius`` on the library's pencil eigenvalues, and
    on T^2 against the class phase: det(I - i F0) = radius exp(-i theta)."""

    def test_zero(self):
        assert phase_radius(pencil_eigenvalues(np.eye(2), np.zeros((2, 2)))) == (1.0, 0.0)
        assert torus_constant_phase(ConstantCurvature2(0.0, 0.0, 0.0)).angle == 0.0

    def test_unit_pair(self):
        radius, theta = phase_radius(pencil_eigenvalues(np.eye(2), np.eye(2)))
        assert abs(radius - 2.0) < 1e-14
        assert abs(theta - np.pi / 2) < 1e-14
        assert torus_constant_phase(ConstantCurvature2(1.0, 0.0, 1.0)).angle == -np.pi / 2

    def test_theta_range(self, rng):
        for _ in range(100):
            f0 = ConstantCurvature2.from_matrix(random_sym(rng, 2, bound=50.0))
            radius, theta = phase_radius(pencil_eigenvalues(np.eye(2), f0.matrix))
            assert radius >= 1.0 and abs(theta) < np.pi
            phase = torus_constant_phase(f0)
            assert abs(phase.magnitude - radius) <= 1e-12 * radius
            assert abs(complex(phase.cos, phase.sin) - np.exp(-1j * theta)) < 1e-12

    def test_complex_determinant_identity(self, rng):
        # det(v - iF) = det(v) * r * exp(-i theta)
        for _ in range(300):
            n = rng.choice([2, 3])
            v = random_spd(rng, n, scale=rng.uniform(0.5, 5.0))
            f = random_sym(rng, n, bound=10.0)
            if n == 3:  # the pencil is 2x2 only
                with pytest.raises(DimensionMismatch, match="expect 2x2 matrices"):
                    pencil_eigenvalues(v, f)
                continue
            radius, theta = phase_radius(pencil_eigenvalues(v, f))
            lhs = np.linalg.det(v - 1j * f)
            rhs = np.linalg.det(v) * radius * np.exp(-1j * theta)
            assert abs(lhs - rhs) < 1e-10 * abs(lhs)


class TestTorusConstantPhase:
    def test_trivial_bundle(self):
        ph = torus_constant_phase(ConstantCurvature2(0.0, 0.0, 0.0))
        assert ph.cos == 1.0 and ph.sin == 0.0

    def test_identity_curvature(self):
        # det = 1, tr = 2: the real part of the class integral vanishes
        ph = torus_constant_phase(ConstantCurvature2(1.0, 0.0, 1.0))
        assert abs(ph.cos) < 1e-15
        assert abs(ph.sin + 1.0) < 1e-15

    def test_offdiagonal(self):
        ph = torus_constant_phase(ConstantCurvature2(0.0, 1.0, 0.0))
        assert ph.cos == 1.0 and ph.sin == 0.0 and ph.magnitude == 2.0

    def test_matches_class_integral(self, rng):
        for _ in range(200):
            a, b, c = rng.uniform(-3, 3, 3)
            f0 = ConstantCurvature2(a, b, c)
            ph = torus_constant_phase(f0)
            z = np.linalg.det(np.eye(2) - 1j * f0.matrix)
            assert abs(complex(ph.cos, ph.sin) - z / abs(z)) < 1e-13

    def test_scale_invariance_of_class_phase(self, rng):
        # scaling metric and curvature together rescales the integral by t^2 > 0
        for _ in range(50):
            a, b, c = rng.uniform(-2, 2, 3)
            t = rng.uniform(0.1, 10.0)
            z1 = np.linalg.det(np.eye(2) - 1j * np.array([[a, b], [b, c]]))
            z2 = np.linalg.det(t * np.eye(2) - 1j * t * np.array([[a, b], [b, c]]))
            assert abs(z1 / abs(z1) - z2 / abs(z2)) < 1e-12

    @given(
        a=st.floats(-3, 3),
        b=st.floats(-3, 3),
        c=st.floats(-3, 3),
    )
    @settings(max_examples=200, deadline=None)
    def test_unit_circle(self, a, b, c):
        f0 = ConstantCurvature2(a, b, c)
        if (1.0 - f0.det) ** 2 + f0.tr**2 == 0.0:
            return
        ph = torus_constant_phase(f0)
        assert abs(ph.cos**2 + ph.sin**2 - 1.0) <= 1e-12

    @given(a=st.floats(-50, 50), b=st.floats(-50, 50), c=st.floats(-50, 50))
    @settings(max_examples=200, deadline=None)
    def test_class_integral_never_vanishes(self, a, b, c):
        # N = 0 needs det = 1 and tr = 0, but tr = 0 forces det <= 0 for a
        # real symmetric class: N >= 1, so the phase is always defined
        f0 = ConstantCurvature2(a, b, c)
        assert (1.0 - f0.det) ** 2 + f0.tr**2 > 0.0
        torus_constant_phase(f0)


class TestPositivityConstant:
    def test_vanishes_without_coupling(self):
        f0 = ConstantCurvature2(0.7, 0.0, -0.3)
        assert phase_positivity_constant(f0) == 0.0

    def test_offdiagonal_value(self):
        f0 = ConstantCurvature2(0.0, 1.0, 0.0)
        value = phase_positivity_constant(f0)
        assert abs(value - 1.0) < 1e-14  # b^2 N / (1 + b^2 + c^2) = 2/2

    def test_two_expressions_agree(self, rng):
        for _ in range(1000):
            a, b, c = rng.uniform(-3, 3, 3)
            f0 = ConstantCurvature2(a, b, c)
            if (1.0 - f0.det) ** 2 + f0.tr**2 < 1e-12:
                continue
            ph = torus_constant_phase(f0)
            value = phase_positivity_constant(f0)
            alt = b**2 / (ph.cos - c * ph.sin)  # the defining expression
            assert abs(value - alt) <= 1e-12 * max(1.0, abs(value))
            assert value >= 0.0
            assert (value <= 1e-14) == (abs(b) < 1e-7 or value <= 1e-14)

    def test_nonnegative_and_zero_iff_decoupled(self, rng):
        for _ in range(200):
            a, c = rng.uniform(-3, 3, 2)
            f0 = ConstantCurvature2(a, 0.0, c)
            if (1.0 - f0.det) ** 2 + f0.tr**2 < 1e-12:
                continue
            assert phase_positivity_constant(f0) == 0.0


class TestSurfaceResiduals:
    def test_flat_solution(self, rng):
        f0 = ConstantCurvature2(0.3, 0.8, -0.2)
        ph = torus_constant_phase(f0)
        v = np.broadcast_to(np.eye(2), (64, 2, 2)).copy()
        f = np.broadcast_to(f0.matrix, (64, 2, 2)).copy()
        im, re = dhym_residual_surface(v, f, ph)
        assert np.abs(im).max() < 1e-14
        assert re.min() > 0.0

    def test_wrong_phase_detects(self):
        v = np.broadcast_to(np.eye(2), (16, 2, 2)).copy()
        f = np.zeros((16, 2, 2))
        im, _ = dhym_residual_surface(v, f, Phase(cos=0.0, sin=1.0))
        # e^{-i theta} = -i, det(v) = 1: the imaginary part is -1 everywhere
        assert np.allclose(im, -1.0)

    def test_ma_defect_identity(self, rng):
        # det(chi) - det(v) = sin(theta) * Im(e^{-i theta} det(v - iF)) pointwise
        for _ in range(100):
            v = random_spd(rng, 2)
            f = random_sym(rng, 2, bound=2.0)
            angle = rng.uniform(-np.pi, np.pi)
            ph = Phase(cos=np.cos(angle), sin=np.sin(angle))
            im, _ = dhym_residual_surface(v[None], f[None], ph)
            chi = -ph.sin * f + ph.cos * v
            defect = np.linalg.det(chi) - np.linalg.det(v)
            assert abs(defect - ph.sin * im[0]) < 1e-10

    def test_ma_defect_identity_symbolic(self):
        import sympy as sp

        v11, v12, v22, f11, f12, f22, t = sp.symbols("v11 v12 v22 f11 f12 f22 t", real=True)
        v = sp.Matrix([[v11, v12], [v12, v22]])
        f = sp.Matrix([[f11, f12], [f12, f22]])
        det_c = (v - sp.I * f).det()
        im = sp.im(sp.exp(-sp.I * t) * det_c)
        chi = -sp.sin(t) * f + sp.cos(t) * v
        assert sp.simplify(chi.det() - v.det() - sp.sin(t) * im) == 0

    def test_ma_check_flat(self):
        f0 = ConstantCurvature2(0.3, 0.8, -0.2)
        ph = torus_constant_phase(f0)
        v = np.broadcast_to(np.eye(2), (32, 2, 2)).copy()
        f = np.broadcast_to(f0.matrix, (32, 2, 2)).copy()
        assert surface_ma_check(v, f, ph) < 1e-14

    def test_rejects_indefinite_metric(self):
        v = np.broadcast_to(np.diag([1.0, -1.0]), (4, 2, 2)).copy()
        with pytest.raises(NonPositiveMetric):
            dhym_residual_surface(v, np.zeros((4, 2, 2)), Phase(cos=1.0, sin=0.0))


class TestAprioriCheck:
    PHASE = Phase(cos=np.cos(-0.8), sin=np.sin(-0.8))  # sin < 0 < cos

    def test_zero_curvature_passes(self):
        v = np.broadcast_to(np.eye(2), (16, 2, 2)).copy()
        report = surface_apriori_check(v, np.zeros((16, 2, 2)), self.PHASE)
        assert report.passed
        assert report.max_det_ratio == 0.0

    def test_constructed_violation(self):
        v = np.broadcast_to(np.eye(2), (16, 2, 2)).copy()
        f = np.broadcast_to(np.diag([2.0, 1.0]), (16, 2, 2)).copy()  # det ratio 2
        report = surface_apriori_check(v, f, self.PHASE)
        assert not report.det_ratio_ok.all()
        assert not report.passed

    @pytest.mark.parametrize("site", ["surface_apriori_check", "apriori_verify"])
    def test_pair_is_checked_once(self, site, monkeypatch):
        # the pencil reads the pair its caller checked: each field is
        # symmetrized once and det v is computed once
        calls = []

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        real = {name: getattr(core_geometry, name) for name in ("_as_sym", "_spd2_det")}
        for module in (core_geometry, kym_ndim):
            for name, function in real.items():
                monkeypatch.setattr(module, name, counting(name, function))
        v = identity_field((16, 16))
        f = np.broadcast_to(np.diag([0.2, 0.1]), (16, 16, 2, 2)).copy()
        PAIR_SITES[site](v, f)
        assert sorted(calls) == ["_as_sym", "_as_sym", "_spd2_det"]

    def test_phase_precondition(self):
        v = np.broadcast_to(np.eye(2), (4, 2, 2)).copy()
        with pytest.raises(PhasePreconditionViolated):
            surface_apriori_check(v, np.zeros((4, 2, 2)), Phase(cos=1.0, sin=0.0))


class TestAverageRadius:
    """The oracle ``average_radius`` against the library's class integrals:
    on T^2 the modulus ``torus_constant_phase`` reports, on T^n the
    |det(I - i F0)| that ``exact_z`` evaluates at t = 1."""

    def test_trivial(self):
        assert average_radius(np.zeros((2, 2))) == 1.0
        assert torus_constant_phase(ConstantCurvature2(0.0, 0.0, 0.0)).magnitude == 1.0

    def test_surface_identity_class(self):
        assert abs(average_radius(np.eye(2)) - 2.0) < 1e-14
        assert abs(torus_constant_phase(ConstantCurvature2(1.0, 0.0, 1.0)).magnitude - 2.0) < 1e-14

    def test_threefold_product(self):
        f0 = np.diag([1.0, 2.0, 3.0])
        value = abs(exact_z(1.0, CohomologyData.from_matrix(f0)))
        assert abs(value - np.sqrt(2.0) * np.sqrt(5.0) * np.sqrt(10.0)) < 1e-12
        assert abs(average_radius(f0) - value) < 1e-12

    def test_at_least_one(self, rng):
        for _ in range(50):
            f0 = random_sym(rng, 3, bound=5.0)
            value = abs(exact_z(1.0, CohomologyData.from_matrix(f0)))
            assert value >= 1.0
            assert abs(average_radius(f0) - value) <= 1e-12 * value
