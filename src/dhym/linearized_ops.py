"""Discrete linearized operator of the coupled large-radius system on T^2.

The background is a symplectic potential u = |x|^2/2 + u_pert and a bundle
potential phi entering the curvature decomposition F = B + Hess(phi), with B
a constant symmetric matrix.  Tangent directions are Hessians of scalar
periodic potentials, so the operator L maps scalars to scalars.

L splits as L0 + L1 where L1 carries the solution phi-dot of the linearized
degree equation

    udot_ij B_ij + Delta phi-dot - d_i(u^{ia} udot_ab u^{bj} phi_j) = 0,
    Delta = d_i u^{ij} d_j,  mean(phi-dot) = 0.

L is formally self-adjoint for the flat Lebesgue product and nonpositive on
mean-zero fields, *provided the background satisfies the degree equation*
Delta phi + u_ij B_ij = const (the integration by parts uses it); use
``make_consistent_context`` to build such backgrounds.  At the flat
background the operator is diagonal in Fourier modes with symbol

    -(2 pi)^4 |k|^4 - 2 (2 pi)^2 k.B^2 k + 2 (2 pi)^2 (k.B k)^2 / |k|^2,

which is nonpositive by Cauchy-Schwarz.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core_geometry import _adj2, _as_sym, _det2
from .errors import DimensionMismatch, InvalidConfig, SingularElliptic
from .spectral import _pcg, hessian2, inner, partial2, resample2

__all__ = [
    "LinearizedContext",
    "make_consistent_context",
    "solve_lincond",
    "apply_L",
    "flat_symbol",
    "selfadjointness_defect",
    "selfadjointness_refinement",
    "negativity_check",
]

def _gradient(f: np.ndarray):
    return partial2(f, 1, 0), partial2(f, 0, 1)


def _divergence(f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    return partial2(f0, 1, 0) + partial2(f1, 0, 1)


def _jacobian(v0: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """The matrix field d_j v_k of a vector field, indexed [..., j, k]."""
    return np.stack([np.stack(_gradient(v), axis=-1) for v in (v0, v1)], axis=-1)


def _mv(m: np.ndarray, g0: np.ndarray, g1: np.ndarray):
    """Components of the matrix field m times the vector field (g0, g1)."""
    return m[..., 0, 0] * g0 + m[..., 0, 1] * g1, m[..., 1, 0] * g0 + m[..., 1, 1] * g1


@dataclass
class LinearizedContext:
    """Background data; Hessian and inverse-Hessian fields precomputed."""

    u_pert: np.ndarray
    b_matrix: np.ndarray
    phi: np.ndarray
    u_hess: np.ndarray = field(init=False)
    u_inv: np.ndarray = field(init=False)
    _precond: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.u_pert = np.asarray(self.u_pert, dtype=float)
        self.phi = np.asarray(self.phi, dtype=float)
        self.b_matrix = _as_sym(self.b_matrix, "B")
        if self.u_pert.shape != self.phi.shape or self.u_pert.ndim != 2:
            raise DimensionMismatch("background fields must share an N x N grid")
        if self.u_pert.shape[0] < 16:
            raise InvalidConfig("background grid too coarse (N >= 16)")
        with np.errstate(over="ignore"):
            b_squared = self.b_matrix @ self.b_matrix
        if not np.isfinite(b_squared).all():
            raise InvalidConfig("B is too large: the coefficients B_ik B_jl of L overflow")
        hess = np.eye(2) + hessian2(self.u_pert)
        det = _det2(hess)
        tr = hess[..., 0, 0] + hess[..., 1, 1]
        if det.min() <= 0.0 or tr.min() <= 0.0:
            raise InvalidConfig("background Hessian is not positive definite")
        self.u_hess = hess
        self.u_inv = _adj2(hess) / det[..., None, None]
        self._precond = _elliptic_symbol(self.n, self.u_inv.mean(axis=(0, 1)))

    @property
    def n(self) -> int:
        return self.u_pert.shape[0]

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Divergence-form operator d_i(u^{ij} d_j f)."""
        return _divergence(*_mv(self.u_inv, *_gradient(f)))

    def degree_defect(self) -> float:
        """Sup-deviation of u_ij B_ij + Delta(phi) from its mean; zero for a
        consistent background."""
        lhs = np.einsum("...ij,ij->...", self.u_hess, self.b_matrix) + self.laplacian(self.phi)
        return float(np.abs(lhs - lhs.mean()).max())


def _nyquist_projector(f: np.ndarray) -> np.ndarray:
    """Project onto the modes carrying a Nyquist frequency in either axis.

    Spectral first derivatives drop the Nyquist index, so the divergence-form
    operator cannot resolve these modes; the elliptic solve pins them with a
    penalty.  On even grids the Nyquist mode of an axis is the alternating
    vector a = (-1)^i, so the projector is a sum of rank-one terms built
    from alternating-sign row and column sums, O(N^2) without an FFT.
    """
    n = f.shape[0]
    if n % 2 != 0:
        return np.zeros_like(f)
    a = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cols = (a @ f) / n  # Nyquist coefficient in the first axis, per column
    rows = (f @ a) / n  # Nyquist coefficient in the second axis, per row
    both = (a @ rows) / n
    return np.outer(a, cols) + np.outer(rows - both * a, a)


def _nyquist_penalty(n: int) -> float:
    """|sigma| = (pi N)^2.  It lies inside the spectrum of -Delta on the
    resolved modes (which reaches about 2 (pi N)^2 at the flat background),
    so pinning the Nyquist modes does not widen the spectrum CG sees."""
    return (np.pi * n) ** 2


def _elliptic_symbol(n: int, u_inv_mean: np.ndarray) -> np.ndarray:
    """rfft2 symbol of -(Delta + sigma P) at the constant coefficients
    mean(u^{ij}): the preconditioner of the elliptic solve.

    The wavenumbers drop the Nyquist index, as spectral first derivatives
    do.  The mean mode is infinite, so dividing by the symbol zeroes it.
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    nyq = np.zeros(n, dtype=bool)
    if n % 2 == 0:
        k[n // 2] = 0.0
        nyq[n // 2] = True
    kx, ky = k[:, None], k[None, : n // 2 + 1]
    m = u_inv_mean
    sym = (2.0 * np.pi) ** 2 * (m[0, 0] * kx**2 + 2.0 * m[0, 1] * kx * ky + m[1, 1] * ky**2)
    sym += _nyquist_penalty(n) * (nyq[:, None] | nyq[None, : n // 2 + 1])
    sym[0, 0] = np.inf
    return sym


def _solve_elliptic(ctx: LinearizedContext, rhs: np.ndarray) -> np.ndarray:
    """Solve (Delta + sigma P) f = rhs for mean-zero f, sigma = -(pi N)^2.

    P is the Nyquist projector; the penalty pins the modes the divergence
    form cannot resolve.  The mean of rhs is removed first, since the range
    is mean free, and a zero rhs returns zeros at once.  -(Delta + sigma P)
    is symmetric positive definite on mean-zero fields, so CG applies;
    preconditioned by the constant-coefficient Fourier inverse it takes a
    number of steps set by the variation of u^{ij}, not by N (about 15 up
    to N = 128).  Deterministic.
    """
    penalty = _nyquist_penalty(ctx.n)
    x, converged = _pcg(
        lambda p: penalty * _nyquist_projector(p) - ctx.laplacian(p),
        lambda r: np.fft.irfft2(np.fft.rfft2(r) / ctx._precond, s=r.shape),
        -(rhs - rhs.mean()),
        SingularElliptic,
    )
    if not converged:
        raise SingularElliptic("elliptic solve failed to converge")
    return x - x.mean()


def _as_hessian_field(ctx: LinearizedContext, udot) -> np.ndarray:
    """Accept a scalar potential (N, N) or a matrix field (N, N, 2, 2)."""
    udot = np.asarray(udot, dtype=float)
    if udot.shape == (ctx.n, ctx.n):
        return hessian2(udot)
    if udot.shape == (ctx.n, ctx.n, 2, 2):
        return udot
    raise DimensionMismatch(f"tangent field has shape {udot.shape}")


def solve_lincond(ctx: LinearizedContext, udot) -> np.ndarray:
    """Solve the linearized degree equation for the bundle direction.

    Returns the mean-zero phi-dot with
    Delta phi-dot = d_i(u^{ia} udot_ab u^{bj} phi_j) - udot_ij B_ij;
    the right-hand side is mean free because udot is a periodic Hessian.
    """
    gdot = _as_hessian_field(ctx, udot)
    m = ctx.u_inv @ gdot @ ctx.u_inv
    rhs = _divergence(*_mv(m, *_gradient(ctx.phi))) - np.einsum("...ij,ij->...", gdot, ctx.b_matrix)
    return _solve_elliptic(ctx, rhs)


def apply_L(ctx: LinearizedContext, udot) -> np.ndarray:
    """The full linearized operator L(udot) = L0 + L1.

    With w = u^{-1} grad phi, q = m grad phi (m = u^{-1} udot u^{-1}) and
    s = u^{-1} grad phi-dot, the five L0 terms (Hessian, transport,
    quadratic, degree, mixed) are followed by the two L1 terms.
    """
    gdot = _as_hessian_field(ctx, udot)
    b, uinv, uhess = ctx.b_matrix, ctx.u_inv, ctx.u_hess
    p0, p1 = _gradient(ctx.phi)
    m = uinv @ gdot @ uinv
    dw = _jacobian(*_mv(uinv, p0, p1))
    dq = _jacobian(*_mv(m, p0, p1))
    ds = _jacobian(*_mv(uinv, *_gradient(solve_lincond(ctx, gdot))))
    return (
        -(partial2(m[..., 0, 0], 2, 0) + 2.0 * partial2(m[..., 0, 1], 1, 1) + partial2(m[..., 1, 1], 0, 2))
        + 2.0 * np.einsum("...jk,...kl,jl->...", dw, gdot, b)
        - 2.0 * np.einsum("...il,...li->...", dq, dw)
        + 2.0 * np.einsum("ik,jl,...ij,...kl->...", b, b, gdot, uhess)
        - 2.0 * np.einsum("...jk,...kl,jl->...", dq, uhess, b)
        + 2.0 * np.einsum("...jk,...kl,jl->...", ds, uhess, b)
        + 2.0 * np.einsum("...il,...li->...", ds, dw)
    )


def flat_symbol(k: np.ndarray, b_matrix: np.ndarray) -> float:
    """Fourier symbol of L at the flat background, for integer mode k != 0."""
    k = np.asarray(k, dtype=float)
    b = _as_sym(b_matrix, "B")
    k2 = float(k @ k)
    if k2 == 0.0:
        raise InvalidConfig("the symbol is defined for nonzero modes")
    tp = 2.0 * np.pi
    kbk = float(k @ b @ k)
    kb2k = float(k @ (b @ b) @ k)
    # kbk * kbk, not kbk**2: a float power raises on overflow where a product gives inf
    symbol = -(tp**4) * k2**2 - 2.0 * tp**2 * kb2k + 2.0 * tp**2 * (kbk * kbk) / k2
    if not np.isfinite(symbol):
        raise InvalidConfig("the flat symbol overflows for this B")
    return symbol


def make_consistent_context(u_pert: np.ndarray, b_matrix) -> LinearizedContext:
    """Build a background satisfying the degree equation.

    Given the metric perturbation and B, solves Delta phi = tr(B) - u_ij B_ij
    for the mean-zero bundle potential (tr B is the unique compatible degree,
    because the periodic Hessian integrates to zero).
    """
    ctx = LinearizedContext(u_pert=u_pert, b_matrix=b_matrix, phi=np.zeros_like(u_pert))
    mu = float(np.trace(ctx.b_matrix))
    rhs = mu - np.einsum("...ij,ij->...", ctx.u_hess, ctx.b_matrix)
    phi = _solve_elliptic(ctx, rhs)
    return LinearizedContext(u_pert=ctx.u_pert, b_matrix=ctx.b_matrix, phi=phi)


def selfadjointness_defect(ctx: LinearizedContext, trial_pairs) -> list[float]:
    """Relative defect |<xi, L gamma> - <gamma, L xi>| for each trial pair.

    Normalized by the sizes of the operator images, so values compare across
    grids; vanishing defect means formal self-adjointness at this resolution.
    """
    defects = []
    for xi, gamma in trial_pairs:
        lx = apply_L(ctx, xi)
        lg = apply_L(ctx, gamma)
        raw = abs(inner(xi, lg) - inner(gamma, lx))
        scale = (
            float(np.abs(lg).max()) * float(np.abs(xi).max())
            + float(np.abs(lx).max()) * float(np.abs(gamma).max())
        )
        defects.append(raw / scale if scale > 0.0 else 0.0)
    return defects


def selfadjointness_refinement(u_pert, b_matrix, trial_pairs, grid_sizes):
    """Defects of the same background/trials across grids, plus a fitted order.

    The coarse fields must be band-limited; they are transplanted to each
    grid by Fourier padding and the bundle potential is re-solved per grid,
    so every context is consistent at its own resolution.
    """
    grid_sizes = sorted(grid_sizes)
    max_defects = []
    for n in grid_sizes:
        ctx = make_consistent_context(resample2(u_pert, n), b_matrix)
        pairs = [(resample2(a, n), resample2(b, n)) for a, b in trial_pairs]
        max_defects.append(max(selfadjointness_defect(ctx, pairs)))
    order = float("nan")
    if len(grid_sizes) >= 2 and min(max_defects) > 0.0:
        logs = np.log(max_defects)
        order = float(-np.polyfit(np.log(grid_sizes), logs, 1)[0])
    return max_defects, order


def negativity_check(ctx: LinearizedContext, trials) -> float:
    """Max Rayleigh quotient <gamma, L gamma>/<gamma, gamma> over the trials.

    Trials must be mean-zero and nonzero; constants span the gauge direction
    and are rejected.  Nonpositive up to discretization error.
    """
    worst = -np.inf
    for gamma in trials:
        gamma = np.asarray(gamma, dtype=float)
        norm2 = inner(gamma, gamma)
        if norm2 == 0.0 or abs(gamma.mean()) > 1e-12 * np.abs(gamma).max():
            raise InvalidConfig("trials must be nonzero and mean-free")
        worst = max(worst, inner(gamma, apply_L(ctx, gamma)) / norm2)
    return float(worst)

