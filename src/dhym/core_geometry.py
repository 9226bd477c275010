"""Pointwise linear algebra of the coupled equations on a flat torus.

The building blocks are a metric matrix ``v`` (symmetric positive definite)
and a curvature matrix ``F`` (symmetric), both 2x2 in the surface case but
n x n where noted.  Everything here is algebra at a single point or over a
sampled field of points: eigenvalues of the pencil (F, v), the
constant-representative phase angle of the underlying classes, and the
residuals/bound checks of the surface equations.

Matrix fields are plain numpy arrays of shape ``(..., n, n)``; all operations
broadcast over the leading axes.  A pair (v, F) must be two fields of one
shape (``_check_pair``).  Each 2x2 rule has one helper: ``_spd2_pair`` reads
a (v, F) pair (symmetric, paired, v positive definite), ``_spd2_inverse``
checks and inverts a positive definite field (by ``_inverse2``, the one
inverse formula, which a reader of a checked pair calls with its det) and
``_nonneg2`` tests F >= 0.  The 2x2
pencil eigenvalues have a closed form, ``_pencil2``: ``pencil_eigenvalues``
checks its pair and calls it, and the verifiers that have already read
theirs call it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegeneratePhase,
    DimensionMismatch,
    InvalidConfig,
    NonPositiveMetric,
    PhasePreconditionViolated,
)

__all__ = [
    "ConstantCurvature2",
    "Phase",
    "pencil_eigenvalues",
    "torus_constant_phase",
    "phase_positivity_constant",
    "dhym_residual_surface",
    "surface_ma_check",
    "surface_apriori_check",
    "SurfaceAprioriReport",
]


def _as_sym(m, name: str) -> np.ndarray:
    """``m`` as a float array of square matrices, symmetrized.

    Accepted when every entry equals its transpose entry or, with every
    entry finite, lies within 1e-12 max(1, max |m|) of it: equal
    infinities pass, an infinity against anything else or a nan fails, and
    an empty stack passes.  Entry by entry this is ``np.allclose(m, m^T,
    rtol=0, atol=1e-12 max(1, max |m|))``, computed in one pass over the
    gap and without its "atol is not valid" warning for infinite entries.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"{name} must be square, got shape {m.shape}")
    mt = np.swapaxes(m, -1, -2)
    scale = np.abs(m).max(initial=0.0)
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(m - mt)  # nan where inf meets inf, or at a nan
    if np.isfinite(scale):
        symmetric = gap.max(initial=0.0) <= 1e-12 * max(1.0, scale)
    else:  # an infinite entry, or a nan (scale is nan, and every test fails)
        symmetric = scale == np.inf and bool(((m == mt) | np.isfinite(gap)).all())
    if not symmetric:
        raise DimensionMismatch(f"{name} must be symmetric")
    return 0.5 * m + 0.5 * mt  # halves first: m + m^T overflows above about 8.99e307


def _inv_sqrt_spd(v: np.ndarray, name: str = "v") -> np.ndarray:
    """Inverse square root of an SPD matrix (field) by eigendecomposition."""
    w, q = np.linalg.eigh(v)
    if w.min() <= 0.0:
        raise NonPositiveMetric(f"{name} has a nonpositive eigenvalue ({w.min():g})")
    d = 1.0 / np.sqrt(w)
    return np.einsum("...ij,...j,...kj->...ik", q, d, q)


@dataclass(frozen=True)
class ConstantCurvature2:
    """Constant symmetric 2x2 representative [[a, b], [b, c]] of the
    curvature class on the unit torus."""

    a: float
    b: float
    c: float

    @property
    def det(self) -> float:
        return self.a * self.c - self.b * self.b

    @property
    def tr(self) -> float:
        return self.a + self.c

    @property
    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.b, self.c]])

    @classmethod
    def from_matrix(cls, m) -> "ConstantCurvature2":
        m = _as_sym(m, "F0")
        if m.shape != (2, 2):
            raise DimensionMismatch("constant curvature representative must be 2x2")
        return cls(float(m[0, 0]), float(m[0, 1]), float(m[1, 1]))


@dataclass(frozen=True)
class Phase:
    """Unit complex number exp(i theta_hat) stored as (cos, sin)."""

    cos: float
    sin: float
    magnitude: float = field(default=float("nan"))
    #: magnitude is the modulus N of the defining integral, when known

    def __post_init__(self):
        if abs(self.cos**2 + self.sin**2 - 1.0) > 1e-12:
            raise DegeneratePhase("phase is not on the unit circle")

    @property
    def angle(self) -> float:
        return float(np.arctan2(self.sin, self.cos))


def pencil_eigenvalues(v, f) -> np.ndarray:
    """Eigenvalues of v^{-1} F, ascending (the pencil det(F - lambda v) = 0).

    Computed through the symmetric similarity S = R F R, R = v^{-1/2}, so
    the result is real by construction.  Works on single matrices or on
    stacked matrix fields of shape (..., n, n).

    For n = 2 everything is closed form, with no LAPACK call:
    R = adj(v + s I) / (s t) with s = sqrt(det v) and t = sqrt(tr v + 2 s)
    (since (v + s I)^2 = t^2 v), and the eigenvalues of the symmetric 2x2 S
    are (S00 + S11)/2 -+ hypot((S00 - S11)/2, S01).  The roots of the
    quadratic det(F - lambda v) = 0 are not used: its discriminant cancels,
    and near a double eigenvalue they keep only half the digits.  This is
    ``_pencil2``.  For other n, R comes from ``eigh`` and S goes to
    ``eigvalsh``.
    """
    v = _as_sym(v, "v")
    f = _as_sym(f, "F")
    _check_pair(v, f)
    if v.shape[-1] != 2:
        r = _inv_sqrt_spd(v)
        return np.linalg.eigvalsh(r @ f @ r)
    return _pencil2(v, f, _spd2_det(v, "v"))


def _pencil2(v: np.ndarray, f: np.ndarray, det_v: np.ndarray) -> np.ndarray:
    """The closed form of ``pencil_eigenvalues`` for symmetric 2x2 fields v
    and F of one shape, v positive definite with determinant ``det_v``:
    the callers that have already checked the pair do not check it again."""
    s = np.sqrt(det_v)
    st = s * np.sqrt(v[..., 0, 0] + v[..., 1, 1] + 2.0 * s)
    r00, r01, r11 = (v[..., 1, 1] + s) / st, -v[..., 0, 1] / st, (v[..., 0, 0] + s) / st
    f00, f01, f11 = f[..., 0, 0], f[..., 0, 1], f[..., 1, 1]
    # R F, then (R F) R; S is symmetric, so S10 is not formed
    a00, a01 = r00 * f00 + r01 * f01, r00 * f01 + r01 * f11
    a10, a11 = r01 * f00 + r11 * f01, r01 * f01 + r11 * f11
    s00, s01, s11 = a00 * r00 + a01 * r01, a00 * r01 + a01 * r11, a10 * r01 + a11 * r11
    mid, rad = 0.5 * (s00 + s11), np.hypot(0.5 * (s00 - s11), s01)
    return np.stack((mid - rad, mid + rad), axis=-1)


def torus_constant_phase(f0: ConstantCurvature2) -> Phase:
    """Phase angle of the classes on the unit 2-torus, from the constant
    representative: the integral of det(I - i F0) equals
    (1 - det F0) - i tr F0, so

        cos = (1 - det F0)/N,   sin = -tr F0 / N,
        N   = ((1 - det F0)^2 + (tr F0)^2)^(1/2).

    N >= 1 for every real symmetric F0: it is prod (1 + l_i^2)^(1/2) over
    the eigenvalues l_i of F0.
    """
    re = 1.0 - f0.det
    im = -f0.tr
    n = float(np.hypot(re, im))
    if not np.isfinite(n):
        raise InvalidConfig("the defining integral overflows for this class")
    return Phase(cos=re / n, sin=im / n, magnitude=n)


def phase_positivity_constant(f0: ConstantCurvature2) -> float:
    """The coefficient b^2 / (cos - c sin) of the coupling term at the class
    phase, where cos - c sin = (1 + b^2 + c^2)/N:

        b^2 N / (1 + b^2 + c^2),

    nonnegative and zero exactly when b = 0.
    """
    s = torus_constant_phase(f0).magnitude / (1.0 + f0.b * f0.b + f0.c * f0.c)
    return f0.b * f0.b * s


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def _adj2(m: np.ndarray) -> np.ndarray:
    """Adjugate of a 2x2 matrix field: m @ _adj2(m) = _det2(m) I."""
    adj = np.empty_like(m)
    adj[..., 0, 0] = m[..., 1, 1]
    adj[..., 1, 1] = m[..., 0, 0]
    adj[..., 0, 1] = -m[..., 0, 1]
    adj[..., 1, 0] = -m[..., 1, 0]
    return adj


def _mixed2(v: np.ndarray, f: np.ndarray) -> np.ndarray:
    # polarization of the determinant: det(v+f) = det v + det f + mixed
    return (
        v[..., 0, 0] * f[..., 1, 1]
        + v[..., 1, 1] * f[..., 0, 0]
        - 2.0 * v[..., 0, 1] * f[..., 0, 1]
    )


def _spd2_det(m: np.ndarray, name: str, error=NonPositiveMetric) -> np.ndarray:
    """det of the 2x2 matrix field ``m``, which must be positive definite
    at every point: det > 0 and tr > 0, else ``error`` names the lowest
    eigenvalue, and a finite det, else ``error`` says it overflows.  An
    empty stack passes."""
    if m.shape[-2:] != (2, 2):
        raise DimensionMismatch("surface operations expect 2x2 matrices")
    with np.errstate(over="ignore", invalid="ignore"):
        det, tr = _det2(m), m[..., 0, 0] + m[..., 1, 1]
        if not ((det > 0.0).all() and (tr > 0.0).all()):
            lowest = 0.5 * tr - np.hypot(0.5 * (m[..., 0, 0] - m[..., 1, 1]), m[..., 0, 1])
            raise error(f"{name} has a nonpositive eigenvalue ({lowest.min():g})")
    if not np.isfinite(det).all():
        raise error(f"{name} is too large: its determinant overflows")
    return det


def _check_pair(v: np.ndarray, f: np.ndarray) -> None:
    """Refuse a metric v and a curvature F that are not fields of one
    shape: the same points and the same matrix size."""
    if v.shape != f.shape:
        raise DimensionMismatch(f"dimension mismatch: v is {v.shape}, F is {f.shape}")


def _spd2_pair(v, f):
    """(v, F, det v) of a 2x2 metric and curvature pair: both symmetrized,
    fields of one shape, v positive definite at every point."""
    v, f = _as_sym(v, "v"), _as_sym(f, "F")
    _check_pair(v, f)
    return v, f, _spd2_det(v, "v")


def _inverse2(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """The inverse adj(m) / det of a 2x2 matrix field whose det, nonzero at
    every point, has been read."""
    return _adj2(m) / det[..., None, None]


def _spd2_inverse(m: np.ndarray, name: str, error=NonPositiveMetric):
    """(det, inverse) of the 2x2 matrix field ``m``, positive definite at
    every point by ``_spd2_det``."""
    det = _spd2_det(m, name, error)
    return det, _inverse2(m, det)


def _nonneg2(f: np.ndarray) -> bool:
    """The symmetric 2x2 field F is positive semidefinite to 1e-12 at every
    point: det F and tr F both >= -1e-12."""
    return bool((_det2(f) >= -1e-12).all() and (f[..., 0, 0] + f[..., 1, 1] >= -1e-12).all())


def _check_points(m: np.ndarray, name: str) -> None:
    """Refuse an empty stack in a verifier that reduces over the points:
    a sup or an inf over no points has no value.  Pointwise functions
    accept empty stacks."""
    if m.size == 0:
        raise DimensionMismatch(f"{name} is an empty stack: a verifier needs at least one point")


def dhym_residual_surface(v, f, phase: Phase):
    """Im and Re parts of exp(-i theta_hat) det(v - iF), pointwise.

    det(v - iF) = (det v - det F) - i * mixed(v, F), so with
    e = cos - i sin:

        im = -sin (det v - det F) - cos * mixed,
        re =  cos (det v - det F) - sin * mixed.

    The first equation of the coupled system is im == 0.
    """
    v, f, dv = _spd2_pair(v, f)
    df = _det2(f)
    mixed = _mixed2(v, f)
    im = -phase.sin * (dv - df) - phase.cos * mixed
    re = phase.cos * (dv - df) - phase.sin * mixed
    return im, re


def surface_ma_check(v, f, phase: Phase) -> float:
    """Defect of the Monge-Ampere form of the surface equation.

    With chi = -sin * F + cos * v one has det chi - det v =
    sin * Im(e^{-i theta} det(v - iF)) pointwise, so the defect vanishes
    together with the imaginary part.  Returns sup |det chi - det v|; an
    empty stack raises ``DimensionMismatch``.
    """
    v, f, det_v = _spd2_pair(v, f)
    _check_points(v, "v")
    chi = -phase.sin * f + phase.cos * v
    return float(np.abs(_det2(chi) - det_v).max())


@dataclass(frozen=True)
class SurfaceAprioriReport:
    det_ratio_ok: np.ndarray
    trace_ratio_ok: np.ndarray
    curvature_nonneg: bool
    max_det_ratio: float

    @property
    def passed(self) -> bool:
        """Both bounds hold everywhere; only meaningful when F >= 0."""
        return bool(self.curvature_nonneg and self.det_ratio_ok.all() and self.trace_ratio_ok.all())


def surface_apriori_check(v, f, phase: Phase) -> SurfaceAprioriReport:
    """Check the a priori bounds det F / det v < 1 and tr(v^{-1}F)/2 <
    |tan theta|/2 that any solution with F >= 0 must satisfy when
    sin < 0 < cos.  An empty stack raises ``DimensionMismatch``."""
    if not (phase.sin < 0.0 < phase.cos):
        raise PhasePreconditionViolated(
            "the bounds require sin(theta_hat) < 0 < cos(theta_hat)"
        )
    v, f, det_v = _spd2_pair(v, f)
    _check_points(v, "v")
    det_ratio = _det2(f) / det_v
    trace_ratio = 0.5 * _pencil2(v, f, det_v).sum(axis=-1)
    bound = 0.5 * abs(phase.sin / phase.cos)
    return SurfaceAprioriReport(
        det_ratio_ok=det_ratio < 1.0,
        trace_ratio_ok=trace_ratio < bound,
        curvature_nonneg=_nonneg2(f),
        max_det_ratio=float(det_ratio.max()),
    )

