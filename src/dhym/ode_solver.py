"""Damped-Newton solver for the three reduced periodic ODEs.

With w = 1 + phi''(x) the three regimes share the structure

    R(phi) = -(1/4) (1/w)'' - K1 * w + K0 - A(x),

where the coefficients are determined by the constant curvature
representative F0 = [[a, b], [b, c]] and the coupling alpha.  In the coupled
regime they involve the phase angle of the classes, which F0 fixes
(``torus_constant_phase``); there cos - c sin = (1 + b^2 + c^2)/N with N the
modulus of the class integral, so with s = N / (1 + b^2 + c^2):

* coupled (``dhym``):    K1 = alpha b^2 / (cos - c sin) = alpha b^2 s,
                         K0 = -alpha (c^2 + 1) / (cos - c sin) = -alpha (c^2 + 1) s;
* large radius (``kym``):   K1 = 4 alpha b^2,
                            K0 = 2 alpha ((a+c)^2 - a^2 - c^2) = 4 alpha a c;
* small radius (``j-eq``):  K1 = alpha b^2 det(F0) / (b^2 + c^2),
                            K0 = -alpha c^2 det(F0) / (b^2 + c^2).

Integrating over one period (the exact-derivative term drops, the mean of w
is one) forces the mean of the datum: int A = K0 - K1, and the solver
projects any datum onto that slice.  There the ODE is exactly

    F(rho) = -(1/4) rho'' - K1 (1/rho - 1) - A~ = 0,  A~ = A - mean A,

in the dual curvature rho = 1/w = 1 + psi''(y(x)) of ``legendre``: second
order, free of K0, with Jacobian -(1/4) D^2 + K1 rho^-2, SPD as K1 > 0 (and
K1 >= 0 in every regime).  ``solve`` runs one damped Newton from rho = 1,
with no continuation.  Each iterate is shifted to mean(1/rho) = 1, which
keeps it in the cone rho > 0 and makes phi = d^-2 (1/rho) periodic; on that
slice F has mean zero at any K1 (for K1 = 0, F is linear and the first step
is exact).  Converged means ||F||_inf <= max(tol, c eps S'), S' the largest
term F cancels: a tolerance an exact solution can reach.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core_geometry import ConstantCurvature2, Phase, torus_constant_phase
from .errors import (
    InvalidConfig,
    NotConverged,
    NotConvex,
    SingularLinearization,
    SmallRadiusObstruction,
)
from .legendre import MonotoneMap, datum_pushforward, legendre_forward
from .spectral import (
    PeriodicProfile,
    _chop,
    _pcg,
    _tail_chopped_second_derivative,
    inner,
    second_antiderivative,
    spectral_derivative,
)

__all__ = [
    "Regime",
    "ODEProblem",
    "SolutionBundle",
    "LinearizedOde",
    "MaxPrincipleReport",
    "compatibility_constant",
    "project_datum",
    "residual",
    "curvature_residual",
    "manufactured_datum",
    "linearize",
    "solve",
    "effective_tolerance",
    "reconstruct_bundle_potential",
    "max_principle_verify",
    "lift_to_2d",
]


class Regime(str, enum.Enum):
    DHYM = "dhym"
    LARGE_RADIUS = "large_radius"
    SMALL_RADIUS = "small_radius"


@dataclass(frozen=True)
class ODEProblem:
    regime: Regime
    alpha: float
    f0: ConstantCurvature2
    datum_a: PeriodicProfile
    #: the phase angle of the classes, fixed by f0; None in the limit regimes
    phase: Phase | None = field(init=False)
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.alpha < 0.0:
            raise InvalidConfig("coupling constant must be nonnegative")
        regime = Regime(self.regime)
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "phase", torus_constant_phase(self.f0) if regime is Regime.DHYM else None)
        if regime is Regime.SMALL_RADIUS and self.f0.det == 0.0:
            raise SmallRadiusObstruction(
                "the top power of the curvature class vanishes (det F0 = 0)"
            )
        try:
            finite = np.isfinite(self.coefficients()).all()
        except ZeroDivisionError:  # b^2 + c^2 underflows to zero
            finite = False
        if not finite:
            raise InvalidConfig("the ODE coefficients overflow for this class and coupling")

    @property
    def n(self) -> int:
        return self.datum_a.n

    def coefficients(self) -> tuple[float, float]:
        """(K1, K0) for this regime."""
        # products, not float powers: a power raises on overflow where a product gives inf
        f0, alpha = self.f0, self.alpha
        if self.regime is Regime.DHYM:
            s = self.phase.magnitude / (1.0 + f0.b * f0.b + f0.c * f0.c)
            return alpha * (f0.b * f0.b) * s, -alpha * (f0.c * f0.c + 1.0) * s
        if self.regime is Regime.LARGE_RADIUS:
            return 4.0 * alpha * (f0.b * f0.b), 2.0 * alpha * (f0.tr * f0.tr - f0.a * f0.a - f0.c * f0.c)
        scale = f0.det / (f0.b * f0.b + f0.c * f0.c)
        return alpha * (f0.b * f0.b) * scale, -alpha * (f0.c * f0.c) * scale


@dataclass(frozen=True)
class SolutionBundle:
    """A solved instance: symplectic potential and everything derived, with
    the Legendre map x -> x + phi'(x) that gave psi, the solver's dual
    curvature rho = 1/(1 + phi''), the residual F at rho and the scale S'
    of the terms F cancels (``effective_tolerance`` of S' is what F met).
    ``continuation_trace`` is [(1.0, Newton iterations, residual sup)]."""

    phi: PeriodicProfile
    psi: PeriodicProfile
    phi_f: PeriodicProfile
    datum_shift: float
    continuation_trace: list
    gradient_map: MonotoneMap
    rho: PeriodicProfile
    residual: PeriodicProfile
    residual_scale: float

    @property
    def n(self) -> int:
        return self.phi.n

    @property
    def residual_sup(self) -> float:
        return float(np.abs(self.residual.samples).max())


def compatibility_constant(problem: ODEProblem) -> float:
    """Mean value of the datum forced by integrating the ODE over one period.

    The exact-derivative term integrates to zero and the mean of 1 + phi''
    is one for any admissible phi, so int A = K0 - K1 regardless of phi.
    """
    k1, k0 = problem.coefficients()
    return k0 - k1


def project_datum(a: PeriodicProfile, problem: ODEProblem) -> tuple[PeriodicProfile, float]:
    """Shift the datum onto the compatible slice; returns (A', shift)."""
    c_a = compatibility_constant(problem)
    shift = c_a - a.mean()
    return PeriodicProfile(a.samples + shift), shift


def _residual_at(rho: np.ndarray, k1: float, a_dev: np.ndarray, keep: int) -> tuple[np.ndarray, float]:
    """F(rho) and the scale S' of the terms it cancels: the largest of
    (1/4) |rho''|, K1 |1/rho - 1|, |A~| and the roundoff scale of (1/4) rho''.
    F is computed to a small multiple of eps S'.  rho'' keeps the first
    ``keep`` bins, those ``_chop`` keeps of A~, so F sees all of A~."""
    rho_dd, roundoff = _tail_chopped_second_derivative(rho, keep)
    drift = k1 * (1.0 / rho - 1.0)
    scale = max(0.25 * np.abs(rho_dd).max(), np.abs(drift).max(), np.abs(a_dev).max(), 0.25 * roundoff)
    return -0.25 * rho_dd - drift - a_dev, float(scale)


def curvature_residual(w: np.ndarray, problem: ODEProblem, datum: np.ndarray | float | None = None) -> PeriodicProfile:
    """F at rho = 1/w, for the curvature w = 1 + phi'' of a potential.

    ``residual``, ``solve`` and ``dhym residual`` (from the phi'' of a
    solution CSV) all evaluate this F.  The datum (default: the problem's)
    enters as its deviation from its mean: F is the residual of the
    projected problem that ``solve`` solves.
    """
    if np.min(w) <= 0.0:
        raise NotConvex("phi left the admissibility cone 1 + phi'' > 0")
    datum = np.broadcast_to(np.asarray(problem.datum_a.samples if datum is None else datum, dtype=float), np.shape(w))
    a_dev = datum - datum.mean()
    f, _ = _residual_at(1.0 / np.asarray(w, dtype=float), problem.coefficients()[0], a_dev, _chop(np.fft.rfft(a_dev)))
    return PeriodicProfile.from_samples(f)


def residual(phi: PeriodicProfile, problem: ODEProblem, datum: np.ndarray | float | None = None) -> PeriodicProfile:
    """F at w = 1 + phi'' (``curvature_residual``).  From phi, F is fourth
    order, so where phi's spectrum decays slowly its roundoff tail costs
    accuracy; a bundle's own ``residual`` is F at the solver's rho."""
    return curvature_residual(1.0 + spectral_derivative(phi.samples, 2, stabilized=True), problem, datum)


def manufactured_datum(phi: PeriodicProfile, problem: ODEProblem) -> PeriodicProfile:
    """A datum for which phi solves the regime ODE exactly.

    The residual at phi for a zero datum is the left-hand side of the ODE
    on the compatible slice, so residual(phi, problem, A) vanishes to
    roundoff; the standard way to build verification problems with a known
    solution.  Its mean is zero, and the projection supplies K0 - K1.
    """
    return residual(phi, problem, 0.0)


@dataclass(frozen=True)
class LinearizedOde:
    """Jacobian of F at rho on the slice mean(1/rho) = 1, in mean-zero
    coordinates, applied and inverted matrix-free; ``inv2`` is rho^-2.

    A mean-zero delta moves rho to rho + delta - c, where the constant
    c = mean(rho^-2 delta) / mean(rho^-2) keeps mean(1/rho) = 1 to first
    order; J delta = (-(1/4) D^2 + K1 rho^-2)(delta - c), which has mean
    zero.  J is symmetric, kills constants and is SPD on mean-zero fields
    for every K1 >= 0, with no 1/K1 anywhere.  The preconditioner is the
    rfft multiplier (1/4 (2 pi k)^2 + K1 mean(rho^-2))^-1 on k >= 1, exact
    for constant rho.
    """

    k1: float
    inv2: np.ndarray

    def apply(self, delta: np.ndarray) -> np.ndarray:
        c = np.mean(self.inv2 * delta) / self.inv2.mean()
        return -0.25 * spectral_derivative(delta, 2) + self.k1 * self.inv2 * (delta - c)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero delta with J delta = rhs - mean(rhs).  At the CG cap the
        last iterate goes to Newton's line search; only lost definiteness
        raises ``SingularLinearization``."""
        n = self.inv2.shape[0]
        diag = 0.25 * (2.0 * np.pi * np.arange(n // 2 + 1)) ** 2 + self.k1 * self.inv2.mean()
        diag[0] = np.inf
        precondition = lambda r: np.fft.irfft(np.fft.rfft(r) / diag, n=n)
        rhs = np.asarray(rhs, dtype=float)
        delta, _ = _pcg(self.apply, precondition, (rhs - rhs.mean())[None], SingularLinearization)
        return delta[0]


def linearize(rho: np.ndarray, problem: ODEProblem) -> LinearizedOde:
    """The Jacobian of F at the dual curvature rho > 0, on the slice."""
    return LinearizedOde(k1=problem.coefficients()[0], inv2=rho**-2.0)


_TOL_FACTOR = 256.0  # c of the effective tolerance max(tol, c eps S')
_MAX_NEWTON = 30  # Newton iterations per solve
_STEP_FLOOR = 1e-4  # smallest step of the Newton line search


def effective_tolerance(problem: ODEProblem, scale: float) -> float:
    """max(tol, c eps S'): the residual bound ``solve`` meets at scale S'."""
    return max(problem.residual_tol, _TOL_FACTOR * np.finfo(float).eps * scale)


def _normalized(rho: np.ndarray) -> np.ndarray:
    """rho shifted to mean(1/rho) = 1, inside the cone rho > 0.  With q =
    rho - mean rho, mean(1/(s + q)) decreases on s > -min q and lies between
    1/s and 1/(s + min q) (Jensen): bisect s on [max(1, -min q), 1 - min q]."""
    q = rho - rho.mean()
    lo, hi = max(1.0, -q.min()), 1.0 - q.min()
    s = 0.5 * (lo + hi)
    while lo < s < hi:
        lo, hi = (s, hi) if np.mean(1.0 / (s + q)) > 1.0 else (lo, s)
        s = 0.5 * (lo + hi)
    return hi + q


def _newton(problem: ODEProblem, k1: float, a_dev: np.ndarray):
    """Damped Newton on F from rho = 1; returns (rho, F, S', sup-norm history).

    Each candidate is ``_normalized``, so it lies in the cone with
    mean(1/rho) = 1, where F has mean zero; the step solves the Jacobian on
    that slice and the shift fixes the mean to all orders.  A step is
    accepted once it cuts ||F|| by a quarter of its length, or meets the
    effective tolerance.  Newton stalls when the step is halved below
    ``_STEP_FLOOR`` or after ``_MAX_NEWTON`` steps, and raises
    ``NotConverged``.
    """
    rho = np.ones(problem.n)
    keep = _chop(np.fft.rfft(a_dev))
    f, scale = _residual_at(rho, k1, a_dev, keep)
    history = [float(np.abs(f).max())]
    while history[-1] > effective_tolerance(problem, scale) and len(history) <= _MAX_NEWTON:
        delta = linearize(rho, problem).solve(-f)
        step = 1.0
        while step >= _STEP_FLOOR:
            cand = _normalized(rho + step * delta)
            f_cand, scale_cand = _residual_at(cand, k1, a_dev, keep)
            norm = float(np.abs(f_cand).max())
            if norm <= (1.0 - 0.25 * step) * history[-1] or norm <= effective_tolerance(problem, scale_cand):
                break
            step *= 0.5
        else:  # no step above the floor reduces ||F||: stalled
            break
        rho, f, scale = cand, f_cand, scale_cand
        history.append(norm)
    if history[-1] > (tol := effective_tolerance(problem, scale)):
        floor = _TOL_FACTOR * np.finfo(float).eps * scale
        raise NotConverged(
            f"Newton stopped after {len(history) - 1} steps (step floor {_STEP_FLOOR:g}) at residual {history[-1]:.3e}"
            f" > effective tolerance {tol:.3e} (roundoff floor {floor:.3e}, S' = {scale:.3e})", history[-1], floor, scale
        )
    return rho, f, scale, history


def solve(problem: ODEProblem) -> SolutionBundle:
    """Solve the regime ODE for rho = 1/w, then phi = d^-2 (1/rho).

    Deterministic: no randomness anywhere.
    """
    if problem.regime is Regime.SMALL_RADIUS and problem.f0.b != 0.0 and problem.f0.det <= 0.0:
        raise SmallRadiusObstruction(
            "small-radius coupling requires det F0 > 0 when b != 0"
        )
    # the Newton step squares residuals (the CG inner products): a datum whose
    # residual at the flat start has no finite square can never be solved
    with np.errstate(over="ignore", invalid="ignore"):
        a_dev = problem.datum_a.samples - problem.datum_a.mean()
        if not np.isfinite(inner(a_dev, a_dev)):
            raise InvalidConfig("the datum is too large: the residual at the flat start overflows")
    rho, f, scale, history = _newton(problem, problem.coefficients()[0], a_dev)
    phi = PeriodicProfile.from_samples(second_antiderivative(1.0 / rho), demean=True)
    psi, gradient_map = legendre_forward(phi)
    return SolutionBundle(
        phi=phi,
        psi=psi,
        phi_f=reconstruct_bundle_potential(psi, problem),
        datum_shift=compatibility_constant(problem) - problem.datum_a.mean(),
        continuation_trace=[(1.0, len(history) - 1, history[-1])],
        gradient_map=gradient_map,
        rho=PeriodicProfile.from_samples(rho),
        residual=PeriodicProfile.from_samples(f),
        residual_scale=scale,
    )


def _bundle_curvature_ratio(problem: ODEProblem) -> float:
    """Coefficient r in phi_F'' = r * psi'' for each regime."""
    f0 = problem.f0
    if problem.regime is Regime.DHYM:
        # -(c cos + sin) / (cos - c sin) at the class phase
        return (f0.a + f0.c * f0.det) / (1.0 + f0.b * f0.b + f0.c * f0.c)
    if problem.regime is Regime.LARGE_RADIUS:
        return f0.a
    return f0.c * f0.det / (f0.b**2 + f0.c**2)


def reconstruct_bundle_potential(psi: PeriodicProfile, problem: ODEProblem) -> PeriodicProfile:
    """Bundle potential phi_F with phi_F'' prescribed by the regime identity.

    The prescription phi_F'' = r * psi'' integrates to the periodic potential
    r * psi (mean-zero gauge); psi comes out of ``legendre_forward`` already
    chopped, so no derivative is taken.
    """
    return PeriodicProfile.from_samples(_bundle_curvature_ratio(problem) * psi.samples, demean=True)


@dataclass(frozen=True)
class MaxPrincipleReport:
    lhs: float
    sup_datum: float
    margin: float

    @property
    def holds(self) -> bool:
        return self.margin >= -1e-10


def max_principle_verify(bundle: SolutionBundle, problem: ODEProblem) -> MaxPrincipleReport:
    """Evaluate the maximum-principle bound at the discrete argmax of phi''.

    At the maximum of phi'' the exact-derivative term of the ODE is
    nonnegative, so K1 (1 + phi'') - K0 <= sup |A| there; any converged
    solution must satisfy this (up to discretization error).
    """
    k1, k0 = problem.coefficients()
    w = 1.0 + spectral_derivative(bundle.phi.samples, 2, stabilized=True)
    lhs = k1 * w.max() - k0
    a_proj, _ = project_datum(problem.datum_a, problem)
    sup_a = float(np.abs(a_proj.samples).max())
    return MaxPrincipleReport(lhs=float(lhs), sup_datum=sup_a, margin=float(sup_a - lhs))


def lift_to_2d(bundle: SolutionBundle, problem: ODEProblem):
    """Matrix fields (v, F) of the torus reconstructed from the bundle:

        v = diag(1 + psi''(y1), 1),
        F = [[a + phi_F''(y1), b], [b, c]].

    Both are 2-d fields of shape (N, 1, 2, 2): y_1 runs along the first
    axis, and the second axis has length 1, as the fields are constant in
    y_2.  Ready for the surface residuals and the verifiers of ``kym_ndim``.
    """
    n = bundle.n
    psi_dd = spectral_derivative(bundle.psi.samples, 2, stabilized=True)
    phif_dd = spectral_derivative(bundle.phi_f.samples, 2, stabilized=True)
    v = np.zeros((n, 1, 2, 2))
    v[:, 0, 0, 0] = 1.0 + psi_dd
    v[..., 1, 1] = 1.0
    f = np.zeros((n, 1, 2, 2))
    f[:, 0, 0, 0] = problem.f0.a + phif_dd
    f[..., 0, 1] = f[..., 1, 0] = problem.f0.b
    f[..., 1, 1] = problem.f0.c
    return v, f


def complex_datum(bundle: SolutionBundle, problem: ODEProblem) -> PeriodicProfile:
    """The datum transported to the complex-coordinate side: f(y(x)) = A'(x)."""
    a_proj, _ = project_datum(problem.datum_a, problem)
    return datum_pushforward(a_proj, bundle.gradient_map)
