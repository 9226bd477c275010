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
from functools import cached_property
from itertools import islice

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


def _mv(m: np.ndarray, g0: np.ndarray, g1: np.ndarray):
    """Components of the matrix field m times the vector field (g0, g1)."""
    return m[..., 0, 0] * g0 + m[..., 0, 1] * g1, m[..., 1, 0] * g0 + m[..., 1, 1] * g1


def _sandwich(u: np.ndarray, g):
    """Components (xx, xy, yy) of u g u for a symmetric matrix field u and a
    symmetric tangent g given by its components (xx, xy, yy)."""
    p, q, r = u[..., 0, 0], u[..., 0, 1], u[..., 1, 1]
    gxx, gxy, gyy = g
    t00, t01 = gxx * p + gxy * q, gxx * q + gxy * r
    t10, t11 = gxy * p + gyy * q, gxy * q + gyy * r
    return p * t00 + q * t10, p * t01 + q * t11, q * t01 + r * t11


def _contract_sym(g, c: np.ndarray) -> np.ndarray:
    """sum_ij g_ij c_ij for a symmetric g given as (xx, xy, yy) and a matrix
    (field) c indexed c[i, j] on its first two axes."""
    return g[0] * c[0, 0] + g[1] * (c[0, 1] + c[1, 0]) + g[2] * c[1, 1]


def _contract_jacobian(v0: np.ndarray, v1: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_jk d_j v_k c_jk for a vector field v and a matrix field c indexed
    c[j, k] on its first two axes."""
    out = 0.0
    for k, vk in enumerate((v0, v1)):
        d0, d1 = _gradient(vk)
        out = out + d0 * c[0, k] + d1 * c[1, k]
    return out


@dataclass
class LinearizedContext:
    """Background data; Hessian and inverse-Hessian fields precomputed.

    So are the background-only fields of ``apply_L``, on first use: grad phi
    and, with dw = D(u^{-1} grad phi) (dw_jk = d_j w_k), the contractions
    dw^T B + B u B^T (against udot) and (dw + u B^T)^T (against the
    Jacobian of the transport difference).  They are cached, so phi must
    not change once the context is in use.
    """

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

    @cached_property
    def _grad_phi(self) -> tuple:
        return _gradient(self.phi)

    @cached_property
    def _apply_coefs(self) -> tuple:
        """The coefficients of udot and of D(s - q) in ``apply_L``,
        dw^T B + B u B^T and (dw + u B^T)^T, with their matrix indices first."""
        b = self.b_matrix
        dw = np.empty((2, 2) + self.phi.shape)  # dw[j, k] = d_j w_k
        for k, wk in enumerate(_mv(self.u_inv, *self._grad_phi)):
            dw[0, k], dw[1, k] = _gradient(wk)
        ubt = np.einsum("...kl,jl->kj...", self.u_hess, b)
        tangent = np.einsum("ki...,kj->ij...", dw, b) + np.einsum("ik,kj...->ij...", b, ubt)
        return tangent, (dw + ubt).swapaxes(0, 1)

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Divergence-form operator d_i(u^{ij} d_j f), of a field or a stack."""
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
    from alternating-sign row and column sums, O(N^2) without an FFT.  Acts
    on the last two axes.
    """
    n = f.shape[-1]
    if n % 2 != 0:
        return np.zeros_like(f)
    a = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    cols = (a @ f) / n  # Nyquist coefficient in the first axis, per column
    rows = (f @ a) / n  # Nyquist coefficient in the second axis, per row
    both = (rows @ a) / n
    return a[:, None] * cols[..., None, :] + (rows - both[..., None] * a)[..., :, None] * a


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

    ``rhs`` is one field (N, N) or a stack (K, N, N), solved together by one
    batched CG.  P is the Nyquist projector; the penalty pins the modes the
    divergence form cannot resolve.  The mean of each rhs is removed first,
    since the range is mean free, and a zero rhs gives zeros.
    -(Delta + sigma P) is symmetric positive definite on mean-zero fields,
    so CG applies; preconditioned by the constant-coefficient Fourier
    inverse it takes a number of steps set by the variation of u^{ij}, not
    by N (about 15 up to N = 128).  Deterministic.
    """
    stack = rhs.reshape((-1,) + rhs.shape[-2:])
    penalty = _nyquist_penalty(ctx.n)
    x, converged = _pcg(
        lambda p: penalty * _nyquist_projector(p) - ctx.laplacian(p),
        lambda r: np.fft.irfft2(np.fft.rfft2(r) / ctx._precond, s=r.shape[-2:]),
        -(stack - stack.mean(axis=(-2, -1), keepdims=True)),
        SingularElliptic,
    )
    if not converged.all():
        raise SingularElliptic("elliptic solve failed to converge")
    return (x - x.mean(axis=(-2, -1), keepdims=True)).reshape(rhs.shape)


def _tangent(ctx: LinearizedContext, udot):
    """Components (xx, xy, yy) of the tangent Hessian field of a scalar
    potential (N, N) or a stack of them (K, N, N)."""
    udot = np.asarray(udot, dtype=float)
    if udot.ndim in (2, 3) and udot.shape[-2:] == (ctx.n, ctx.n):
        return partial2(udot, 2, 0), partial2(udot, 1, 1), partial2(udot, 0, 2)
    raise DimensionMismatch(f"tangent field has shape {udot.shape}")


def _lincond_rhs(ctx: LinearizedContext, g):
    """m = u^{-1} udot u^{-1} as (xx, xy, yy), the transport vector
    q = m grad phi, and the right-hand side of the linearized degree equation."""
    m = _sandwich(ctx.u_inv, g)
    p0, p1 = ctx._grad_phi
    q = m[0] * p0 + m[1] * p1, m[1] * p0 + m[2] * p1
    return m, q, _divergence(*q) - _contract_sym(g, ctx.b_matrix)


def solve_lincond(ctx: LinearizedContext, udot) -> np.ndarray:
    """Solve the linearized degree equation for the bundle direction.

    Returns the mean-zero phi-dot with
    Delta phi-dot = d_i(u^{ia} udot_ab u^{bj} phi_j) - udot_ij B_ij;
    the right-hand side is mean free because udot is a periodic Hessian.
    ``udot`` is a potential (N, N) or a stack (K, N, N); a stack is solved
    in one batched CG and gives a (K, N, N) stack.
    """
    return _solve_elliptic(ctx, _lincond_rhs(ctx, _tangent(ctx, udot))[2])


def apply_L(ctx: LinearizedContext, udot) -> np.ndarray:
    """The full linearized operator L(udot) = L0 + L1.

    ``udot`` is a potential (N, N) or a stack (K, N, N); a stack is applied
    in one pass, with one batched elliptic solve, and gives a (K, N, N) stack.

    With w = u^{-1} grad phi, q = m grad phi (m = u^{-1} udot u^{-1}) and
    s = u^{-1} grad phi-dot, L0 has five terms (Hessian, transport,
    quadratic, degree, mixed) and L1 two:

        -d_i d_j m_ij + 2 <udot, dw^T B> - 2 <Dq, dw^T> + 2 <udot, B u B^T>
        - 2 <Dq, (u B^T)^T> + 2 <Ds, (u B^T)^T> + 2 <Ds, dw^T>,

    with <a, c> = sum_jk a_jk c_jk and (Dv)_jk = d_j v_k.  The terms are
    summed by their background-only coefficients, which the context holds:
    2 <udot, dw^T B + B u B^T> + 2 <D(s - q), (dw + u B^T)^T>.
    """
    tangent_coef, transport_coef = ctx._apply_coefs
    g = _tangent(ctx, udot)
    m, q, rhs = _lincond_rhs(ctx, g)
    out = 2.0 * _contract_sym(g, tangent_coef) - (
        partial2(m[0], 2, 0) + 2.0 * partial2(m[1], 1, 1) + partial2(m[2], 0, 2)
    )
    del g, m  # the solve needs neither; a stack of them is large
    s0, s1 = _mv(ctx.u_inv, *_gradient(_solve_elliptic(ctx, rhs)))
    return out + 2.0 * _contract_jacobian(s0 - q[0], s1 - q[1], transport_coef)


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


#: Grid points per stacked application of L in the trial checks: trials go
#: through ``apply_L`` in chunks of max(1, _CHUNK_POINTS // N^2), 8 at N = 32
#: and 2 at N = 64.  Twice as many gave no more speed but 3 % more peak RSS
#: on the N = 32 / 64 batteries.  From N = 128 on a chunk is one trial, so
#: memory does not grow with the number of trials.
_CHUNK_POINTS = 2**13


def _applied(ctx: LinearizedContext, trials):
    """Pairs (trial, L trial), L applied to chunks of trials at once."""
    size = max(1, _CHUNK_POINTS // ctx.n**2)
    trials = iter(trials)
    while chunk := [np.asarray(t, dtype=float) for t in islice(trials, size)]:
        if any(t.shape != (ctx.n, ctx.n) for t in chunk):
            raise DimensionMismatch(f"trials must be {ctx.n} x {ctx.n} potentials")
        yield from zip(chunk, apply_L(ctx, np.stack(chunk)))


def _flatten_pairs(pairs):
    for xi, gamma in pairs:
        yield xi
        yield gamma


def selfadjointness_defect(ctx: LinearizedContext, trial_pairs) -> list[float]:
    """Relative defect |<xi, L gamma> - <gamma, L xi>| for each trial pair.

    Normalized by the sizes of the operator images, so values compare across
    grids; vanishing defect means formal self-adjointness at this resolution.
    The pairs are read lazily and L is applied to chunks of trials.
    """
    defects = []
    images = _applied(ctx, _flatten_pairs(trial_pairs))
    for (xi, lx), (gamma, lg) in zip(images, images):
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


def _checked_trial(gamma) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=float)
    if inner(gamma, gamma) == 0.0 or abs(gamma.mean()) > 1e-12 * np.abs(gamma).max():
        raise InvalidConfig("trials must be nonzero and mean-free")
    return gamma


def negativity_check(ctx: LinearizedContext, trials) -> float:
    """Max Rayleigh quotient <gamma, L gamma>/<gamma, gamma> over the trials.

    Trials must be mean-zero and nonzero; constants span the gauge direction
    and are rejected.  Nonpositive up to discretization error.  The trials
    are read lazily and L is applied to chunks of them.
    """
    worst = -np.inf
    for gamma, lg in _applied(ctx, map(_checked_trial, trials)):
        worst = max(worst, inner(gamma, lg) / inner(gamma, gamma))
    return float(worst)
