"""Exact class integrals z(t) = det(tI - iF0) and the radius-limit studies.

For constant representatives on the unit torus every intersection number is
a coefficient of the characteristic polynomial of F0, so the phase angle at
radius parameter t is available in closed form.  This module validates the
first-order truncations of exp(-i theta_hat(t)) at both ends of the radius
scale, and tracks the convergence of rescaled coupled-ODE solutions to the
limit-ODE solutions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_geometry import ConstantCurvature2, _as_sym
from .errors import DegenerateTopPower, InvalidConfig
from .ode_solver import ODEProblem, Regime, solve


@dataclass(frozen=True)
class CohomologyData:
    """Symmetric-function data of a constant representative F0.

    ``c_large`` is the degree ratio governing the large-radius truncation
    (the trace) and ``c_small`` the small-radius one, e_{n-1}/e_n, defined
    when the top coefficient e_n does not vanish.
    """

    n: int
    e: np.ndarray

    @classmethod
    def from_matrix(cls, f0) -> "CohomologyData":
        f0 = _as_sym(f0, "F0")
        # prod (x + lambda_i) = sum_k e_k x^(n-k); np.poly(-eigs) multiplies
        # in the factors one at a time, the recursion e_k += lambda e_(k-1)
        e = np.poly(-np.linalg.eigvalsh(f0))
        return cls(n=f0.shape[0], e=e)

    @property
    def c_large(self) -> float:
        return float(self.e[1])

    @property
    def c_small(self) -> float:
        if self.e[-1] == 0.0:
            raise DegenerateTopPower("top symmetric function e_n vanishes")
        return float(self.e[-2] / self.e[-1])

    def z_coefficients(self) -> np.ndarray:
        """Coefficients of z(t) = sum_k (-i)^k e_k t^(n-k), highest power first."""
        k = np.arange(self.n + 1)
        return (-1j) ** k * self.e


def exact_z(t: float, data: CohomologyData) -> complex:
    """det(tI - iF0), the class integral at radius parameter t."""
    return complex(np.polyval(data.z_coefficients(), t))


def _phase_at(t: float, data: CohomologyData) -> complex:
    z = exact_z(t, data)
    return np.conj(z) / abs(z)


def fit_loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x (order fitting)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or (y <= 0.0).any():
        raise InvalidConfig("order fit needs >= 2 points with positive errors")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _order(t: np.ndarray, errors: np.ndarray) -> float:
    """Log-log slope of ``errors`` along ``t``; nan when some error is
    exactly 0, where the logarithm and so the slope has no value."""
    return fit_loglog_slope(t, errors) if (errors > 0.0).all() else float("nan")


@dataclass(frozen=True)
class PhaseExpansionReport:
    t_values: np.ndarray
    errors: np.ndarray
    slope: float
    c: float


def _expansion_report(data: CohomologyData, t: np.ndarray, c: float, truncation) -> PhaseExpansionReport:
    """Errors |exp(-i theta(t)) - truncation(t)| along ``t`` and their
    log-log slope, nan when some error is exactly 0 and no slope can be
    fitted."""
    # a class or radius beyond floating point (t^2 overflowing, or
    # underflowing to a zero z(t)) leaves inf or nan errors, which are
    # refused here rather than warned about on the way
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        errors = np.array([abs(_phase_at(tv, data) - truncation(tv)) for tv in t])
    if not np.isfinite(errors).all():
        raise InvalidConfig("the phase expansion overflows for this class and these radii")
    return PhaseExpansionReport(t_values=t, errors=errors, slope=_order(t, errors), c=c)


def large_radius_phase_check(data: CohomologyData, t_list) -> PhaseExpansionReport:
    """Truncation error of exp(-i theta(t)) ~ (1 - c^2/(2 t^2)) + i c/t.

    The remainder is O(t^-3); the fitted log-log slope over a decade of
    increasing t should sit near -3.
    """
    t = np.asarray(sorted(t_list), dtype=float)
    if t.size < 4 or t[-1] < 8.0 * t[0]:
        raise InvalidConfig("need >= 4 radius values spanning close to a decade")
    c = data.c_large
    # c * c, not c**2: a float power raises on overflow where a product gives inf
    return _expansion_report(data, t, c, lambda tv: (1.0 - c * c / (2.0 * tv**2)) + 1j * c / tv)


def small_radius_phase_check(data: CohomologyData, t_list) -> PhaseExpansionReport:
    """Truncation error of exp(-i theta(t)) ~ i^n sgn(e_n) (1 - i c t).

    Defined only when the top coefficient e_n is nonzero; the remainder is
    O(t^2), so the slope as t decreases should sit near +2.
    """
    c = data.c_small  # raises DegenerateTopPower when e_n = 0
    t = np.asarray(sorted(t_list, reverse=True), dtype=float)
    lead = (1j) ** data.n * np.sign(data.e[-1])
    return _expansion_report(data, t, c, lambda tv: lead * (1.0 - 1j * c * tv))


def scaled_coupled_problem(base: ODEProblem, t: float) -> ODEProblem:
    """The coupled problem equivalent to running the limit problem at radius t.

    Rescaling the metric class by t and returning to the unit torus divides
    the curvature representative by t and multiplies the coupling by t^2;
    matching the coupling term of the limit ODE fixes the remaining constant
    factor (4 toward the large-radius system, 1 toward the small-radius one).
    Constant shifts of the datum are absorbed by the compatibility projection.
    """
    if base.regime is Regime.LARGE_RADIUS:
        alpha = 4.0 * base.alpha * t * t
    elif base.regime is Regime.SMALL_RADIUS:
        alpha = base.alpha * t * t
    else:
        raise InvalidConfig("the scaled problem is defined for the limit regimes")
    f0 = ConstantCurvature2(base.f0.a / t, base.f0.b / t, base.f0.c / t)
    return ODEProblem(
        regime=Regime.DHYM,
        alpha=alpha,
        f0=f0,
        datum_a=base.datum_a,
        residual_tol=base.residual_tol,
    )


#: roundoff bound of an exact limit study, per unit of the residual scale S'
_EXACT_EPS = np.finfo(float).eps / 16.0


@dataclass(frozen=True)
class LimitConvergenceReport:
    """Differences between the rescaled coupled and the limit solutions.

    ``exact`` is true when every difference is at roundoff (the two ODEs are
    the same equation); ``order`` is then nan, since no order can be fitted.
    It is nan as well when some difference is exactly 0.
    """

    t_values: np.ndarray
    errors: np.ndarray
    order: float
    limit_sup: float
    exact: bool


def limit_convergence_study(base: ODEProblem, t_list) -> LimitConvergenceReport:
    """Solve the rescaled coupled ODE along t and compare with the limit ODE.

    For the large-radius regime the coefficient mismatch decays like t^-2,
    so the fitted order of the sup-norm differences over increasing t is
    expected near -2 (near +2 toward small radius).

    Two kinds of class have no mismatch at all, and the rescaled problems are
    the limit equation itself: b = 0 (both K1 vanish), and, toward large
    radius, tr F0 = 0, where the phase of F0/t is exactly (1, 0) and the
    rescaled K1 = 4 alpha t^2 (b/t)^2 equals the limit 4 alpha b^2.  Trace-free
    classes with b != 0 have det F0 < 0, which the small-radius regime
    refuses.  The K0 mismatch is absorbed by the compatibility projection.

    The study is ``exact`` when every difference is at most eps * S' / 16,
    where S' is the larger ``residual_scale`` of the two solves: the largest
    term the residual F(rho) cancels.  K0 is not in F, so S' does not grow
    with the rescaled |K0| ~ alpha t^2.  Rounding moves F by about eps * S',
    and at w = 1 that moves rho by (-(1/4) D^2)^-1 and phi by a further
    d^-2: on mean-free data 4 d^-4, of sup norm sum_{k >= 1} 8 / (2 pi k)^4
    = 1/180, so roundoff alone stays well below the bound.  An exact study
    reports ``order`` nan rather than a slope fitted to roundoff.
    """
    t = np.asarray(sorted(t_list), dtype=float)
    if t.size < 2 or t[0] <= 0.0 or (np.diff(t) == 0.0).any():
        raise InvalidConfig("the study needs >= 2 distinct positive radius values")
    limit_bundle = solve(base)
    errors, bounds = [], []
    for tv in t.tolist():  # Python floats: an overflowing radius gives inf or nan, not a warning
        bundle = solve(scaled_coupled_problem(base, tv))
        errors.append(float(np.abs(bundle.phi.samples - limit_bundle.phi.samples).max()))
        bounds.append(_EXACT_EPS * max(limit_bundle.residual_scale, bundle.residual_scale))
    errors = np.asarray(errors)
    exact = bool((errors <= np.asarray(bounds)).all())
    order = float("nan") if exact else _order(t, errors)
    return LimitConvergenceReport(
        t_values=t,
        errors=errors,
        order=order,
        limit_sup=float(np.abs(limit_bundle.phi.samples).max()),
        exact=exact,
    )
