"""Torus residuals of the limit systems and their a priori verifiers.

2-d periodic scalar fields are plain (N, N) arrays on the uniform grid of
[0,1)^2, and a potential is read by ``_potential2``; matrix fields carry
trailing (2, 2) axes.  Only residual evaluation and verification happen
here -- there is no 2-d solver.  A field constant in the second coordinate,
such as the lift of a 1-d reduced solution, has a length-1 second axis,
(N, 1) or (N, 1, 2, 2); its y-derivatives are exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_geometry import _adj2, _as_sym, _check_points, _det2, _inverse2, _nonneg2, _pencil2, _spd2_det, _spd2_pair, _sym2
from .errors import DimensionMismatch, InvalidConfig, NotConvex
from .spectral import hessian2, partial2


def _potential2(u, name: str, error) -> tuple:
    """(u, I + Hess u, det) of a periodic potential u on the N x N grid: a
    finite (N, N) array with N >= 16, whose I + Hess u is positive definite
    by ``_spd2_det``, else ``error``; the caller inverts it with
    ``_inverse2`` and this det."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatch(f"{name} must be an N x N field, not {u.shape}")
    if u.shape[0] < 16:
        raise InvalidConfig(f"{name} is on a grid too coarse (N = {u.shape[0]} < 16)")
    if not np.isfinite(u).all():
        raise InvalidConfig(f"{name} must be finite")
    hess = np.eye(2) + hessian2(u)
    return u, hess, _spd2_det(hess, f"I + Hess {name}", error)


@dataclass(frozen=True)
class KymData:
    """Coupling of the large-radius system and the constant curvature part
    B; the degree ``mu`` is tr B."""

    alpha: float
    b_matrix: np.ndarray

    @classmethod
    def from_constant_curvature(cls, f0, alpha: float) -> "KymData":
        return cls(alpha=float(alpha), b_matrix=f0)

    def __post_init__(self):
        object.__setattr__(self, "b_matrix", _sym2(self.b_matrix, "B"))

    @property
    def mu(self) -> float:
        return float(np.trace(self.b_matrix))


def abreu_operator(phi_field: np.ndarray) -> np.ndarray:
    """The fourth-order operator sum_ij d_i d_j (u^{ij}) of u = |x|^2/2 + phi.

    u^{ij} is the inverse Hessian; all derivatives are spectral.  The result
    has zero mean (it agrees with the divergence form built on the cofactor
    matrix, whose rows are divergence free).  The derivatives act on
    u^{ij} - delta^{ij}: a dense ``partial2`` does not send the constant
    delta^{ij} to exactly zero, and the flat potential must give zero.
    """
    _, hess, det = _potential2(phi_field, "phi", NotConvex)
    uinv = _inverse2(hess, det)
    return (
        partial2(uinv[..., 0, 0] - 1.0, 2, 0)
        + 2.0 * partial2(uinv[..., 0, 1], 1, 1)
        + partial2(uinv[..., 1, 1] - 1.0, 0, 2)
    )


def abreu_operator_divergence_form(phi_field: np.ndarray) -> np.ndarray:
    """Same operator as U^{ij} w_{ij} with U the cofactor matrix of the
    Hessian and w the reciprocal determinant; agrees with ``abreu_operator``
    to discretization accuracy."""
    _, hess, det = _potential2(phi_field, "phi", NotConvex)
    cof = _adj2(hess)
    w_hess = hessian2(1.0 / det)
    return np.einsum("...ij,...ij->...", cof, w_hess)


def _metric_fields(v_hess, f_field, f_datum):
    """(v, F, datum, det v, v^{-1}, v^{ij} [log det v]_ij) of a surface residual.

    v and F are (N, M, 2, 2) fields; the datum is a constant or one value
    per point, read as an (N, M) field."""
    v, f, det = _spd2_pair(v_hess, f_field)
    if v.ndim != 4:
        raise DimensionMismatch(f"surface residuals take (N, M, 2, 2) fields, got shape {v.shape}")
    datum = np.asarray(f_datum, dtype=float)
    if datum.ndim and datum.size != v.shape[0] * v.shape[1]:
        raise DimensionMismatch(f"datum of shape {datum.shape} does not match the {v.shape[:2]} grid")
    datum = datum.reshape(v.shape[:2]) if datum.ndim else datum
    vinv = _inverse2(v, det)
    return v, f, datum, det, vinv, np.einsum("...ij,...ij->...", vinv, hessian2(np.log(det)))


def residual_complex(v_hess, f_field, data: KymData, f_datum) -> tuple[np.ndarray, np.ndarray]:
    """Residual fields of the large-radius system in complex coordinates:

        r1 = v^{ij} F_ij - mu,
        r2 = v^{ij} [log det v]_ij + 4 f - 8 alpha mu^2
             + 8 alpha v^{ij} v^{kl} F_il F_kj.

    Both vanish for exact solutions.
    """
    _, f, datum, _, vinv, logdet = _metric_fields(v_hess, f_field, f_datum)
    r1 = np.einsum("...ij,...ij->...", vinv, f) - data.mu
    m = vinv @ f  # v^{-1} F, pointwise
    quad = np.einsum("...ij,...ji->...", m, m)
    # mu * mu, not mu**2: a float power raises on overflow where a product gives inf
    r2 = logdet + 4.0 * datum - 8.0 * data.alpha * (data.mu * data.mu) + 8.0 * data.alpha * quad
    return r1, r2


def j_equation_residual(v_hess, f_field, kappa: float, alpha: float, f_datum):
    """Residual fields of the small-radius system:

        r1 = F^{ij} v_ij - kappa,
        r2 = -(1/4) v^{ij} [log det v]_ij - alpha det F / det v - f.

    Requires F invertible pointwise.
    """
    v, f, datum, det_v, _, logdet = _metric_fields(v_hess, f_field, f_datum)
    det_f = _det2(f)
    if np.abs(det_f).min() == 0.0:
        raise InvalidConfig("curvature field is singular somewhere")
    finv = _inverse2(f, det_f)
    r1 = np.einsum("...ij,...ij->...", finv, v) - kappa
    r2 = -0.25 * logdet - alpha * det_f / det_v - datum
    return r1, r2


@dataclass(frozen=True)
class AprioriReport:
    min_lambda: float
    max_lambda: float
    max_lambda_sq_sum: float
    curvature_nonneg: bool
    in_range: bool
    mu: float

    @property
    def passed(self) -> bool:
        return bool(self.curvature_nonneg and self.in_range)


def apriori_verify(v_hess, f_field, mu: float, tol: float = 1e-10) -> AprioriReport:
    """Eigenvalue bounds satisfied by solutions of the large-radius system.

    With F >= 0 the pencil eigenvalues of (F, Hess v) are nonnegative and
    sum to mu pointwise, so each lies in [0, mu] and their squares sum below
    n mu^2.  Report-only: out-of-range samples are flagged, never raised.
    An empty field raises ``DimensionMismatch``.
    """
    v, f, det_v = _spd2_pair(v_hess, f_field)
    _check_points(v, "v")
    lam = _pencil2(v, f, det_v)
    in_range = bool((lam >= -tol).all() and (lam <= mu + tol).all())
    return AprioriReport(
        min_lambda=float(lam.min()),
        max_lambda=float(lam.max()),
        max_lambda_sq_sum=float((lam**2).sum(axis=-1).max()),
        curvature_nonneg=_nonneg2(f),
        in_range=in_range,
        mu=float(mu),
    )


@dataclass(frozen=True)
class DetBoundReport:
    min_det: float
    max_det: float
    lower: float
    upper: float

    @property
    def passed(self) -> bool:
        return bool(self.lower < self.min_det and self.max_det < self.upper)


def det_bound_verify(v_hess, bounds=(0.0, np.inf)) -> DetBoundReport:
    """Pinching check 0 < c1 < det(Hess v) < c2 on a metric Hessian field
    of symmetric 2x2 matrices, positive definite or not: the report measures
    det.  Another matrix size or an empty field raises ``DimensionMismatch``."""
    v = _as_sym(v_hess, "v")
    if v.shape[-2:] != (2, 2):
        raise DimensionMismatch(f"v must be a field of 2x2 matrices, got shape {v.shape}")
    _check_points(v, "v")
    det = _det2(v)
    return DetBoundReport(
        min_det=float(det.min()),
        max_det=float(det.max()),
        lower=float(bounds[0]),
        upper=float(bounds[1]),
    )
