"""Torus residuals of the limit systems and their a priori verifiers.

2-d periodic scalar fields are plain (N, N) arrays on the uniform grid of
[0,1)^2; matrix fields carry trailing (2, 2) axes.  Only residual evaluation
and verification happen here -- there is no 2-d solver.  One-dimensional
reduced fields (constant in the second coordinate) may be passed as (N, 2, 2)
arrays and are broadcast internally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_geometry import _adj2, _as_sym, _det2, pencil_eigenvalues
from .errors import DimensionMismatch, InvalidConfig, NonPositiveMetric, NotConvex
from .spectral import hessian2, partial2

__all__ = [
    "KymData",
    "abreu_operator",
    "residual_complex",
    "j_equation_residual",
    "apriori_verify",
    "AprioriReport",
    "det_bound_verify",
    "DetBoundReport",
    "as_field2d",
]


def _check_field2d(f: np.ndarray, name: str) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise InvalidConfig(f"{name} must be finite")
    if f.ndim < 2 or f.shape[0] != f.shape[1] or f.shape[0] < 16:
        raise DimensionMismatch(f"{name} must be an N x N field with N >= 16")
    return f


def as_field2d(m: np.ndarray, n: int | None = None) -> np.ndarray:
    """Broadcast a 1-d reduced matrix field (N, 2, 2) to the square torus grid."""
    m = np.asarray(m, dtype=float)
    if m.ndim == 4:
        return m
    if m.ndim == 3 and m.shape[-2:] == (2, 2):
        reps = m.shape[0] if n is None else n
        return np.repeat(m[:, None], reps, axis=1)
    raise DimensionMismatch(f"cannot interpret shape {m.shape} as a matrix field")


def _scalar_field2d(f: np.ndarray, n: int) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.ndim == 1:
        return np.repeat(f[:, None], n, axis=1)
    return f


@dataclass(frozen=True)
class KymData:
    """Degree and coupling of the large-radius system, with the constant
    curvature part B (the trace of B is the degree)."""

    mu: float
    alpha: float
    b_matrix: np.ndarray

    @classmethod
    def from_constant_curvature(cls, f0, alpha: float) -> "KymData":
        b = _as_sym(f0, "B")
        mu = float(np.trace(b))
        return cls(mu=mu, alpha=float(alpha), b_matrix=b)

    def __post_init__(self):
        b = _as_sym(self.b_matrix, "B")
        if abs(np.trace(b) - self.mu) > 1e-10 * max(1.0, abs(self.mu)):
            raise InvalidConfig("degree must equal tr(B) for a flat background")
        object.__setattr__(self, "b_matrix", b)


def _hessian_of_potential(phi_field: np.ndarray) -> np.ndarray:
    return np.eye(2) + hessian2(phi_field)


def _inverse22(m: np.ndarray) -> np.ndarray:
    det = _det2(m)
    if det.min() <= 0.0:
        raise NotConvex("Hessian is not positive definite everywhere")
    return _adj2(m) / det[..., None, None]


def abreu_operator(phi_field: np.ndarray) -> np.ndarray:
    """The fourth-order operator sum_ij d_i d_j (u^{ij}) of u = |x|^2/2 + phi.

    u^{ij} is the inverse Hessian; all derivatives are spectral.  The result
    has zero mean (it agrees with the divergence form built on the cofactor
    matrix, whose rows are divergence free).
    """
    phi_field = _check_field2d(phi_field, "phi")
    uinv = _inverse22(_hessian_of_potential(phi_field))
    return (
        partial2(uinv[..., 0, 0], 2, 0)
        + 2.0 * partial2(uinv[..., 0, 1], 1, 1)
        + partial2(uinv[..., 1, 1], 0, 2)
    )


def abreu_operator_divergence_form(phi_field: np.ndarray) -> np.ndarray:
    """Same operator as U^{ij} w_{ij} with U the cofactor matrix of the
    Hessian and w the reciprocal determinant; agrees with ``abreu_operator``
    to discretization accuracy."""
    phi_field = _check_field2d(phi_field, "phi")
    hess = _hessian_of_potential(phi_field)
    det = _det2(hess)
    if det.min() <= 0.0:
        raise NotConvex("Hessian is not positive definite everywhere")
    cof = _adj2(hess)
    w_hess = hessian2(1.0 / det)
    return np.einsum("...ij,...ij->...", cof, w_hess)


def _metric_fields(v_hess, f_field, f_datum):
    """(v, F, datum, det v, v^{-1}, v^{ij} [log det v]_ij) of a surface residual."""
    v = as_field2d(_as_sym(v_hess, "v"))
    f = as_field2d(_as_sym(f_field, "F"))
    datum = _scalar_field2d(f_datum, v.shape[0])
    det = _det2(v)
    if det.min() <= 0.0 or (v[..., 0, 0] + v[..., 1, 1]).min() <= 0.0:
        raise NonPositiveMetric("metric Hessian field is not positive definite")
    vinv = _inverse22(v)
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
    finv = _adj2(f) / det_f[..., None, None]
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
    """
    v = as_field2d(_as_sym(v_hess, "v"))
    f = as_field2d(_as_sym(f_field, "F"))
    lam = pencil_eigenvalues(v, f)
    det_f = _det2(f)
    tr_f = f[..., 0, 0] + f[..., 1, 1]
    nonneg = bool((det_f >= -1e-12).all() and (tr_f >= -1e-12).all())
    in_range = bool((lam >= -tol).all() and (lam <= mu + tol).all())
    return AprioriReport(
        min_lambda=float(lam.min()),
        max_lambda=float(lam.max()),
        max_lambda_sq_sum=float((lam**2).sum(axis=-1).max()),
        curvature_nonneg=nonneg,
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
    """Pinching check 0 < c1 < det(Hess v) < c2 on a metric Hessian field."""
    v = as_field2d(_as_sym(v_hess, "v"))
    det = _det2(v)
    return DetBoundReport(
        min_det=float(det.min()),
        max_det=float(det.max()),
        lower=float(bounds[0]),
        upper=float(bounds[1]),
    )
