"""Damped-Newton continuation solver for the three reduced periodic ODEs.

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
is one) forces the mean of the datum: int A = K0 - K1.  The solver projects
any datum onto that slice, follows the continuity path A_t = t A + (1-t)
int A from the flat solution, and enforces the admissibility cone w > 0 by a
backtracking line search.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .core_geometry import ConstantCurvature2, Phase, torus_constant_phase
from .errors import (
    ContinuationStalled,
    ConvexityLost,
    InvalidConfig,
    NotConvex,
    SingularLinearization,
    SmallRadiusObstruction,
)
from .legendre import MonotoneMap, datum_pushforward, legendre_forward
from .spectral import (
    PeriodicProfile,
    _pcg,
    inner,
    second_antiderivative,
    spectral_chop,
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
    "manufactured_datum",
    "linearize",
    "solve",
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
    the Legendre map x -> x + phi'(x) that gave psi and the final residual."""

    phi: PeriodicProfile
    psi: PeriodicProfile
    phi_f: PeriodicProfile
    datum_shift: float
    continuation_trace: list
    gradient_map: MonotoneMap
    residual: PeriodicProfile

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


def _curvature(samples: np.ndarray) -> np.ndarray:
    return 1.0 + spectral_derivative(samples, 2, stabilized=True)


def _residual_at(w: np.ndarray, problem: ODEProblem, datum: np.ndarray | float) -> PeriodicProfile:
    k1, k0 = problem.coefficients()
    r = -0.25 * spectral_derivative(1.0 / w, 2, stabilized=True) - k1 * w + k0 - datum
    return PeriodicProfile.from_samples(r)


def residual(phi: PeriodicProfile, problem: ODEProblem, datum: np.ndarray | float | None = None) -> PeriodicProfile:
    """Pointwise residual of the regime ODE at phi.

    When the datum is compatible the residual has mean <= 1e-12 for every
    admissible phi (exact integral identity, preserved by the discretization).
    Differentiation is noise-stabilized: four derivative orders act on phi,
    so unfiltered sample roundoff would swamp the 1e-10 residual tolerance.
    """
    w = _curvature(phi.samples)
    if w.min() <= 0.0:
        raise NotConvex("phi left the admissibility cone 1 + phi'' > 0")
    return _residual_at(w, problem, problem.datum_a.samples if datum is None else datum)


def manufactured_datum(phi: PeriodicProfile, problem: ODEProblem) -> PeriodicProfile:
    """The datum A for which phi solves the regime ODE exactly.

    The residual at phi for a zero datum is the left-hand side of the ODE,
    so residual(phi, problem, A) vanishes to roundoff; the standard way to
    build verification problems with a known solution.
    """
    return residual(phi, problem, 0.0)


@dataclass(frozen=True)
class LinearizedOde:
    """Derivative of the residual map at phi, applied and inverted matrix-free.

    ``apply``: L delta = (1/4) (delta'' / w^2)'' - K1 delta'', by the residual's
    stabilized FFT derivatives; for K1 >= 0 it is SPD on mean-zero fields.
    With S = (-D^2)^-1, L = D^2 W^-1 (I + 4 K1 W S W) W^-1 D^2 / 4, and the
    preconditioner freezes W S W at mean(w^2) S (exact for constant w or
    K1 = 0); ``coupling`` is the rfft symbol of (I + 4 K1 mean(w^2) S)^-1.
    """

    w: np.ndarray
    k1: float
    coupling: np.ndarray

    def apply(self, delta_phi: np.ndarray) -> np.ndarray:
        d2 = spectral_derivative(np.asarray(delta_phi, dtype=float), 2, stabilized=True)
        return 0.25 * spectral_derivative(d2 / self.w**2, 2, stabilized=True) - self.k1 * d2

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """4 S W (I + 4 K1 mean(w^2) S)^-1 W S r; S = -second_antiderivative."""
        y = self.w * second_antiderivative(r)
        y = self.w * np.fft.irfft(np.fft.rfft(y) * self.coupling, n=y.shape[-1])
        return 4.0 * second_antiderivative(y)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Mean-zero delta with apply(delta) = rhs - mean(rhs) (the range is
        mean free).  At the CG cap the last iterate goes to Newton's line
        search; only lost definiteness raises ``SingularLinearization``."""
        delta, _ = _pcg(self.apply, self.precondition, (rhs - rhs.mean())[None], SingularLinearization)
        return delta[0] - delta[0].mean()


def linearize(phi: PeriodicProfile, problem: ODEProblem) -> LinearizedOde:
    """The linearized operator of the residual at phi, with its preconditioner."""
    w = _curvature(phi.samples)
    if w.min() <= 0.0:
        raise NotConvex("cannot linearize outside the admissibility cone")
    k1, _ = problem.coefficients()
    k2 = (2.0 * np.pi * np.arange(1, w.shape[0] // 2 + 1)) ** 2
    coupling = np.concatenate([[1.0], k2 / (k2 + 4.0 * k1 * float(np.mean(w**2)))])
    return LinearizedOde(w=w, k1=k1, coupling=coupling)


_MAX_NEWTON = 30  # Newton iterations per continuation stage
_STEP_FLOOR = 1e-4  # smallest step of the Newton line search and of the continuation


def _newton(problem: ODEProblem, phi: np.ndarray, datum: np.ndarray):
    """Damped Newton on the residual; returns (phi, residual sup-norm history).

    A line search whose step falls below the floor raises the reason of its
    last rejection: ``ConvexityLost`` or ``ContinuationStalled``.
    """
    r = residual(PeriodicProfile.from_samples(phi), problem, datum).samples
    history = [float(np.abs(r).max())]
    while history[-1] > problem.residual_tol:
        if len(history) > _MAX_NEWTON:
            raise ContinuationStalled(f"Newton did not converge in {_MAX_NEWTON} iterations")
        delta = linearize(PeriodicProfile.from_samples(phi), problem).solve(-r)
        step = 1.0
        while True:
            cand = spectral_chop(phi + step * delta)
            cand -= cand.mean()
            w = _curvature(cand)
            if w.min() > 1e-6:
                r = _residual_at(w, problem, datum).samples
                norm = float(np.abs(r).max())
                if norm <= (1.0 - 0.25 * step) * history[-1] or norm <= problem.residual_tol:
                    break
                reason = ContinuationStalled
            else:
                reason = ConvexityLost
            step *= 0.5
            if step < _STEP_FLOOR:
                raise reason("the Newton line search step fell below the floor")
        phi = cand
        history.append(norm)
    return phi, history


def solve(problem: ODEProblem) -> SolutionBundle:
    """Solve the regime ODE by Newton continuation from the flat solution.

    The path replaces the datum by A_t = t A' + (1 - t) int A'; t jumps to 1
    directly and bisects toward the last good parameter on failure, down to
    the step floor ``_STEP_FLOOR``.  Deterministic: no randomness anywhere.
    """
    if problem.regime is Regime.SMALL_RADIUS and problem.f0.b != 0.0 and problem.f0.det <= 0.0:
        raise SmallRadiusObstruction(
            "small-radius coupling requires det F0 > 0 when b != 0"
        )
    a_proj, shift = project_datum(problem.datum_a, problem)
    c_a = compatibility_constant(problem)
    phi = np.zeros(problem.n)
    # the Newton step squares residuals (the CG inner products): a datum whose
    # residual at the flat start has no finite square can never be solved
    with np.errstate(over="ignore", invalid="ignore"):
        start = residual(PeriodicProfile.from_samples(phi), problem, a_proj.samples).samples
        if not np.isfinite(inner(start, start)):
            raise InvalidConfig("the datum is too large: the residual at the flat start overflows")
    trace = []
    t_cur, t_next = 0.0, 1.0
    while t_cur < 1.0:
        datum_t = t_next * a_proj.samples + (1.0 - t_next) * c_a
        try:
            phi, history = _newton(problem, phi, datum_t)
        except (ContinuationStalled, ConvexityLost) as exc:
            t_next = t_cur + 0.5 * (t_next - t_cur)
            if t_next - t_cur < _STEP_FLOOR:
                raise type(exc)(f"continuation step fell below the floor at t = {t_cur:g}") from exc
            continue
        trace.append((t_next, len(history) - 1, history[-1]))
        t_cur, t_next = t_next, 1.0
    phi_prof = PeriodicProfile.from_samples(phi, demean=True)
    psi, gradient_map = legendre_forward(phi_prof)
    return SolutionBundle(
        phi=phi_prof,
        psi=psi,
        phi_f=reconstruct_bundle_potential(psi, problem),
        datum_shift=shift,
        continuation_trace=trace,
        gradient_map=gradient_map,
        residual=residual(phi_prof, problem, a_proj.samples),
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

    The prescription is a multiple of psi'', hence mean-zero (its k = 0 bin
    is zero by construction), and integrates to the periodic potential
    r * psi (mean-zero gauge).
    """
    prescribed = _bundle_curvature_ratio(problem) * spectral_derivative(psi.samples, 2, stabilized=True)
    return PeriodicProfile.from_samples(second_antiderivative(prescribed), demean=True)


@dataclass(frozen=True)
class MaxPrincipleReport:
    location: float
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
    w = _curvature(bundle.phi.samples)
    i = int(np.argmax(w))
    lhs = k1 * w[i] - k0
    a_proj, _ = project_datum(problem.datum_a, problem)
    sup_a = float(np.abs(a_proj.samples).max())
    return MaxPrincipleReport(
        location=i / bundle.n, lhs=float(lhs), sup_datum=sup_a, margin=float(sup_a - lhs)
    )


def lift_to_2d(bundle: SolutionBundle, problem: ODEProblem):
    """Matrix fields (v, F) on the y_1 grid reconstructed from the bundle:

        v = diag(1 + psi''(y1), 1),
        F = [[a + phi_F''(y1), b], [b, c]].

    Ready for the surface residuals and the n-dimensional verifiers.
    """
    n = bundle.n
    psi_dd = spectral_derivative(bundle.psi.samples, 2, stabilized=True)
    phif_dd = spectral_derivative(bundle.phi_f.samples, 2, stabilized=True)
    v = np.zeros((n, 2, 2))
    v[:, 0, 0] = 1.0 + psi_dd
    v[:, 1, 1] = 1.0
    f = np.zeros((n, 2, 2))
    f[:, 0, 0] = problem.f0.a + phif_dd
    f[:, 0, 1] = f[:, 1, 0] = problem.f0.b
    f[:, 1, 1] = problem.f0.c
    return v, f


def complex_datum(bundle: SolutionBundle, problem: ODEProblem) -> PeriodicProfile:
    """The datum transported to the complex-coordinate side: f(y(x)) = A'(x)."""
    a_proj, _ = project_datum(problem.datum_a, problem)
    return datum_pushforward(a_proj, bundle.gradient_map)
