"""Discrete linearized operator of the coupled large-radius system on T^2.

The background is a symplectic potential u = |x|^2/2 + u_pert and a
constant symmetric matrix B.  The bundle potential phi of the curvature
decomposition F = B + Hess(phi) is derived from them: it solves the degree
equation Delta phi + u_ij B_ij = tr B.  Tangent directions are Hessians of
scalar periodic potentials, so the operator L maps scalars to scalars.

L splits as L0 + L1 where L1 carries the solution phi-dot of the linearized
degree equation

    udot_ij B_ij + Delta phi-dot - d_i(u^{ia} udot_ab u^{bj} phi_j) = 0,
    Delta = d_i u^{ij} d_j,  mean(phi-dot) = 0.

L is formally self-adjoint for the flat Lebesgue product and nonpositive on
mean-zero fields because the background satisfies the degree equation (the
integration by parts uses it); ``LinearizedContext`` solves for phi, so
every context does.  At the flat background the operator is diagonal in
Fourier modes with symbol

    -(2 pi)^4 |k|^4 - 2 (2 pi)^2 k.B^2 k + 2 (2 pi)^2 (k.B k)^2 / |k|^2,

which is nonpositive by Cauchy-Schwarz.
"""

from __future__ import annotations

import hashlib
from functools import cache, cached_property, lru_cache
from itertools import chain, islice

import numpy as np

from .core_geometry import _inverse2, _sym2
from .errors import DimensionMismatch, InvalidConfig, SingularElliptic
from .kym_ndim import _potential2
from .spectral import _pcg, _prolong2, inner, partial2


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


class LinearizedContext:
    """Background data; Hessian and inverse-Hessian fields precomputed.

    ``u_inv`` (N, N, 2, 2) is a view of the contiguous ``_u_inv_fields``
    (2, 2, N, N), so each of its entry fields is contiguous.  The elliptic
    solve's per-background data is built here too: the preconditioner's
    weight W (``_precondition``; its symbol is the flat Laplacian's, one
    per grid size, cached apart from any context) and (-1)^i for the
    Nyquist projector of ``_operator``.  The operator itself is the
    ``partial2`` composition of ``laplacian`` and keeps no multipliers of
    its own.  The half-grid context of the nested solve (``_half_grid``) is
    built on first use.

    The bundle potential ``phi`` is derived, not passed: the mean-zero
    solution of the degree equation Delta phi = tr(B) - u_ij B_ij on this
    context's own fields (tr B is the unique compatible degree, because the
    periodic Hessian integrates to zero), solved on first read.  So every
    context is consistent, and one that only runs elliptic solves (the half
    grid) never solves for phi.  The background-only fields of ``apply_L``
    are built from it on first use too: grad phi and, with
    dw = D(u^{-1} grad phi) (dw_jk = d_j w_k), the contractions
    dw^T B + B u B^T (against udot) and (dw + u B^T)^T (against the
    Jacobian of the transport difference).

    ``_rayleigh`` maps each trial the trial checks have applied L to, by a
    32-byte sha256 digest of its shape and float64 samples, to its Rayleigh
    quotient <gamma, L gamma>/<gamma, gamma>, so ``negativity_check`` does
    not apply L again to a trial ``selfadjointness_defect`` already did.  It
    holds scalars, never images.

    The first context of a process primes the heap (``_prime_heap``).
    """

    def __init__(self, u_pert: np.ndarray, b_matrix: np.ndarray):
        self.b_matrix = _sym2(b_matrix, "B")
        with np.errstate(over="ignore"):
            b_squared = self.b_matrix @ self.b_matrix
        if not np.isfinite(b_squared).all():
            raise InvalidConfig("B is too large: the coefficients B_ik B_jl of L overflow")
        _prime_heap()
        self.u_pert, self.u_hess, det = _potential2(u_pert, "u_pert", InvalidConfig)
        # the preconditioner's cached data of this grid size, built before a
        # solve allocates its stacks: built inside the first solve, it sits
        # between them and raises peak RSS (by 1.7 MB in ``dhym lincheck``
        # at N = 512)
        _hartley(self.n) if self.n <= _HARTLEY_MAX_N else _rfft_symbol(self.n)
        u_inv = _inverse2(self.u_hess, det)
        self._u_inv_fields = np.moveaxis(u_inv, (-2, -1), (0, 1)).copy()
        self.u_inv = np.moveaxis(self._u_inv_fields, (0, 1), (-2, -1))
        self._alternating = 1.0 - 2.0 * (np.arange(self.n) % 2)  # (-1)^i
        # Concus & Golub: u^{ij} = sqrt(det u^{ij}) a^{ij} with det a^{ij} = 1
        # and W = (det u^{ij})^(-1/4) = det^(1/4)
        self._weight = det**0.25
        self._rayleigh = {}

    @property
    def n(self) -> int:
        return self.u_pert.shape[0]

    @cached_property
    def phi(self) -> np.ndarray:
        """The mean-zero bundle potential of this background."""
        rhs = float(np.trace(self.b_matrix)) - np.einsum("...ij,ij->...", self.u_hess, self.b_matrix)
        return _solve_elliptic(self, rhs)

    @cached_property
    def _half_grid(self) -> "LinearizedContext | None":
        """The context of u_pert on every other grid point, with this B, or
        None when its Hessian is not positive definite: the coarse level of
        ``_solve_elliptic``, which never reads its phi.  Built on first use,
        so ``apply_L`` reuses the one the degree solve of ``phi`` built; up
        to N = 2 ``_DENSE_MAX_N`` its Hessian takes dense products, no
        FFT."""
        try:
            return LinearizedContext(self.u_pert[::2, ::2], self.b_matrix)
        except InvalidConfig:
            return None

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
        """Divergence-form operator d_i(u^{ij} d_j f), of a field or a stack.
        The flux u^{-1} grad f is formed in the gradient's own arrays, with
        the arithmetic of ``_mv``, so bit for bit its value."""
        g0, g1 = _gradient(f)
        u = self._u_inv_fields
        flux0 = u[0, 0] * g0
        flux0 += u[0, 1] * g1
        g0 *= u[1, 0]
        g1 *= u[1, 1]
        g0 += g1
        return _divergence(flux0, g0)

    def _operator(self, f: np.ndarray) -> np.ndarray:
        """-(Delta + sigma P) f, sigma = -``_nyquist_penalty``, of a field or
        a stack: the negated ``laplacian`` plus |sigma| P f, P the projection
        onto the modes with a Nyquist index in either axis.  P f = Px f +
        Py f - Px f Py, formed from the products of f with a = (-1)^i."""
        out = self.laplacian(f)
        np.negative(out, out=out)
        n = self.n
        if n % 2 == 0:
            # n Px f = a x (a . f) and n Py (1 - Px) f = (f . a - a (a . f . a) / n) x a,
            # their sum one rank-2 product [a, cols] @ [rows; a]
            a = self._alternating
            left, right = np.empty(f.shape[:-1] + (2,)), np.empty(f.shape[:-2] + (2, n))
            left[..., 0] = right[..., 1, :] = a
            rows, cols = np.matmul(a, f, out=right[..., 0, :]), left[..., 1]
            cols[...] = f @ a - ((rows @ a) / n)[..., None] * a
            penalty = _nyquist_penalty(n)
            rows *= penalty / n
            cols *= penalty / n
            out += left @ right
        return out

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r = Pi W S^-1 (W r) of a field or a stack, S the symbol of
        the flat -(Delta + sigma P) (``_elliptic_symbol``) and Pi the
        removal of the mean (S^-1 zeroes the mean mode).  Symmetric positive
        definite on mean-zero fields, since W > 0.

        Up to ``_HARTLEY_MAX_N`` S^-1 is applied in the separable Hartley
        basis of ``_hartley``, by dense products and no FFT: S is even in
        each index, so it is diagonal there and S^-1 f = C (T / N^2 S) C
        with T = C f C.  Above it, by ``rfft2`` / ``irfft2`` and the
        cached half symbol of ``_rfft_symbol``."""
        n = self.n
        if n <= _HARTLEY_MAX_N:
            c, inverse = _hartley(n)
            z = c @ (inverse * (c @ (self._weight * r) @ c)) @ c
        else:
            z = np.fft.irfft2(np.fft.rfft2(self._weight * r) / _rfft_symbol(n), s=(n, n))
        z *= self._weight
        z -= _field_means(z)
        return z

    def degree_defect(self) -> float:
        """Sup-deviation of u_ij B_ij + Delta(phi) from its mean: the
        accuracy to which phi solves the degree equation."""
        lhs = np.einsum("...ij,ij->...", self.u_hess, self.b_matrix) + self.laplacian(self.phi)
        return float(np.abs(lhs - lhs.mean()).max())


def _field_means(f: np.ndarray) -> np.ndarray:
    """The mean of each field of a stack (last two axes), kept as (..., 1, 1);
    the sum and division of ``ndarray.mean``, so bit for bit its value."""
    return np.add.reduce(f, axis=(-2, -1), keepdims=True) / (f.shape[-2] * f.shape[-1])


def _nyquist_penalty(n: int) -> float:
    """|sigma| = (pi N)^2.  It lies inside the spectrum of -Delta on the
    resolved modes (which reaches about 2 (pi N)^2 at the flat background),
    so pinning the Nyquist modes does not widen the spectrum CG sees."""
    return (np.pi * n) ** 2


def _elliptic_symbol(n: int) -> np.ndarray:
    """The n x n fft2 symbol S of the flat -(Delta + sigma P):
    (2 pi)^2 (k1^2 + k2^2), plus the Nyquist penalty on the modes with a
    Nyquist index.  It is the preconditioner's symbol on every background
    of grid size n: what the weight W of ``_precondition`` leaves of u^{ij},
    u^{ij} / sqrt(det u^{ij}) = ((1 + tr H) I - H) / sqrt(det(I + H)) with
    H = Hess u_pert, has mean I + O(|H|^2), since a periodic Hessian has
    mean zero.

    The wavenumbers drop the Nyquist index, as spectral first derivatives
    do.  The mean mode is infinite, so dividing by the symbol zeroes it.
    S is even in each index, S(-k1, k2) = S(k1, -k2) = S(k1, k2).
    """
    k = np.fft.fftfreq(n, d=1.0 / n)
    nyq = np.zeros(n, dtype=bool)
    if n % 2 == 0:
        k[n // 2] = 0.0
        nyq[n // 2] = True
    sym = (2.0 * np.pi) ** 2 * (k[:, None] ** 2 + k[None, :] ** 2)
    sym += _nyquist_penalty(n) * (nyq[:, None] | nyq[None, :])
    sym[0, 0] = np.inf
    return sym


@lru_cache(maxsize=None)
def _rfft_symbol(n: int) -> np.ndarray:
    """The rfft2 half ``[:, : n // 2 + 1]`` of ``_elliptic_symbol``,
    contiguous and read-only; cached per n."""
    half = np.ascontiguousarray(_elliptic_symbol(n)[:, : n // 2 + 1])
    half.setflags(write=False)
    return half


#: Largest grid size whose preconditioner applies S^-1 in the Hartley basis
#: by dense products, so that a CG step makes no FFT call; larger grids take
#: the rfft2 pair.  Median us of one ``_precondition`` call on a stack of K
#: white-noise fields, the two paths alternated in one process (400 calls
#: each), the median of three such runs (2-core x86-64, OpenBLAS, one
#: thread, numpy 2.4):
#:
#:     N     K   FFT   Hartley
#:     16    1    40     11
#:     16    2    45     14
#:     32    1    53     17
#:     32    2    68     25
#:     32   16   251    115
#:     64    1    86     46
#:     64    2   136     88
#:     64    4   238    167
#:     128   1   224    328
#:     128   2   429    659
#:
#: Field-2d solves hold at most 2^14 points per stack (``_CHUNK_POINTS``):
#: K = 16 at N = 32, 4 at N = 64 and on its N = 32 half grid, 1 at N = 128.
_HARTLEY_MAX_N = 64


@lru_cache(maxsize=None)
def _hartley(n: int) -> tuple[np.ndarray, np.ndarray]:
    """C and 1 / (n^2 S), read-only: the n x n separable Hartley matrix
    C[k, x] = cos + sin of 2 pi ((k x) mod n) / n, real and symmetric with
    C @ C = n I (Bracewell, The Hartley Transform, 1986), and the inverse
    of ``_elliptic_symbol`` over n^2, the multiplier of the Hartley path of
    ``_precondition``.  Cached per n."""
    x = np.arange(n)
    angle = (2.0 * np.pi / n) * (np.outer(x, x) % n)
    c = np.cos(angle) + np.sin(angle)
    inverse = 1.0 / (n * n * _elliptic_symbol(n))
    c.setflags(write=False)
    inverse.setflags(write=False)
    return c, inverse


#: Smallest grid on which ``_solve_elliptic`` starts a CG from the solution
#: on the half grid, on every level of the nested solve: from N = 128 on,
#: the half-grid solve takes its own nested start.  At N = 32 the half grid
#: resolves the field-2d right-hand sides to 2e-7 .. 1e-5 only, and allowing
#: the start there made 40 N = 32 field-2d ops 6 % slower.
_NESTED_MIN_N = 64

#: Largest resolution defect sup |b - P b[::2, ::2]| / sup |b| of a
#: right-hand side b (P the prolongation) for which ``_solve_elliptic``
#: starts from the half grid, near the measured break-even.  Field-2d-like
#: stacks plus a tail of modes aliased on the half grid, six backgrounds,
#: median ms of the nested against the plain solve (fine CG steps), one BLAS
#: thread, 2-core x86-64.  At N = 64: defect 4e-13 3.8 / 5.3 (2.0 / 9.7),
#: 2e-10 3.9 / 4.4 (4.0), 2e-9 4.4 / 4.5 (4.7), 2e-8 4.5 / 4.4 (5.3), 2e-7
#: 5.0 / 4.3 (6.2).  At N = 128 the start pays up to a defect of about 2e-6.
#: The field-2d data read at most 2.5e-12.
_RESOLVED_RTOL = 1e-9


def _cg(ctx: LinearizedContext, b: np.ndarray) -> np.ndarray:
    """The preconditioned CG of -(Delta + sigma P) x = b on the grid of
    ``ctx``, b a stack of mean-free fields, from the start of
    ``_coarse_start``."""
    start = _coarse_start(ctx, b)
    x, converged = _pcg(ctx._operator, ctx._precondition, b, SingularElliptic, start)
    if not converged.all():
        raise SingularElliptic("elliptic solve failed to converge")
    return x


def _coarse_start(ctx: LinearizedContext, b: np.ndarray) -> np.ndarray | None:
    """A start for the CG of the stack b on the grid of ``ctx``: in each
    column resolved on the half grid, sup |b - P b[::2, ::2]| <
    ``_RESOLVED_RTOL`` sup |b| (P the prolongation ``_prolong2``, so a zero
    column is not resolved), the half-grid solution of its injection,
    prolonged by trigonometric interpolation; zeros in the other columns,
    where the start costs more than it saves.  The half-grid solve is
    ``_cg`` on ``ctx._half_grid``, so it takes its own start by this rule.
    None below ``_NESTED_MIN_N``, on an odd grid (its every other point is
    not a uniform grid), when no column is resolved, or when the half-grid
    context is None."""
    n = ctx.n
    if n < _NESTED_MIN_N or n % 2:
        return None
    injected = b[..., ::2, ::2]
    defect = np.abs(b - _prolong2(injected, n)).max(axis=(-2, -1))
    resolved = defect < _RESOLVED_RTOL * np.abs(b).max(axis=(-2, -1))
    if not resolved.any() or ctx._half_grid is None:
        return None
    start = np.zeros_like(b)
    start[resolved] = _prolong2(_cg(ctx._half_grid, (injected - _field_means(injected))[resolved]), n)
    return start


def _solve_elliptic(ctx: LinearizedContext, rhs: np.ndarray) -> np.ndarray:
    """Solve (Delta + sigma P) f = rhs for mean-zero f, sigma = -(pi N)^2.

    ``rhs`` is one field (N, N) or a stack (K, N, N), solved together by one
    batched CG.  P is the Nyquist projector; the penalty pins the modes the
    divergence form cannot resolve.  The mean of each rhs is removed first,
    since the range is mean free, and a zero rhs gives zeros.
    -(Delta + sigma P) is symmetric positive definite on mean-zero fields,
    so CG applies, one ``LinearizedContext._operator`` per step.  The
    preconditioner scales out the pointwise factor (det u^{ij})^(1/2) of
    u^{ij} (Concus & Golub, SIAM J. Numer. Anal. 10, 1973) and inverts the
    flat Laplacian's symbol, whose coefficient I is the mean of what
    remains up to O(|Hess u_pert|^2); the steps it takes are
    set by the variation of u^{ij}, not by N (about 10 from N = 16 to
    N = 128 on the field-2d backgrounds).

    On an even grid from N = ``_NESTED_MIN_N`` on, each column resolved on
    the half grid (to ``_RESOLVED_RTOL``) is first solved there, by the same
    CG on the context of u_pert[::2, ::2], and the fine CG starts that
    column from its trigonometric interpolant (nested iteration: Brandt,
    Math. Comp. 31, 1977).  The rule is ``_coarse_start``'s, per column and
    on every level, so the half-grid solve nests in turn while its grid
    allows.  On the field-2d data that start is within a few times the CG
    tolerance of the solution, so the fine CG takes one or two steps, not
    ten; its stop rule is unchanged, so is the accuracy.  The other columns
    (a delta, white noise) start from zeros.  Deterministic.
    """
    stack = rhs.reshape((-1,) + rhs.shape[-2:])
    x = _cg(ctx, -(stack - _field_means(stack)))
    x -= _field_means(x)
    return x.reshape(rhs.shape)


def _tangent(ctx: LinearizedContext, udot):
    """Components (xx, xy, yy) of the tangent Hessian field of a finite
    scalar potential (N, N) or a stack of them (K, N, N)."""
    udot = np.asarray(udot, dtype=float)
    if udot.ndim not in (2, 3) or udot.shape[-2:] != (ctx.n, ctx.n):
        raise DimensionMismatch(f"tangent field has shape {udot.shape}")
    if not np.isfinite(udot).all():
        raise InvalidConfig("tangent field must be finite")
    return partial2(udot, 2, 0), partial2(udot, 1, 1), partial2(udot, 0, 2)


def _lincond_rhs(ctx: LinearizedContext, g):
    """m = u^{-1} udot u^{-1} as (xx, xy, yy), the transport vector
    q = m grad phi, and the right-hand side of the linearized degree equation."""
    m = _sandwich(ctx.u_inv, g)
    p0, p1 = ctx._grad_phi
    q = m[0] * p0 + m[1] * p1, m[1] * p0 + m[2] * p1
    return m, q, _divergence(*q) - _contract_sym(g, ctx.b_matrix)


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


def flat_symbol(modes, b_matrix: np.ndarray) -> np.ndarray:
    """Fourier symbol of L at the flat background at each mode of ``modes``,
    nonzero integer 2-vectors of shape (..., 2): an array of shape (...), a
    scalar for one mode.  k.B k and k.B^2 k are the row-by-matrix products
    (k B) k of each mode, so every value is bit for bit the one of its mode
    alone."""
    k = np.asarray(modes, dtype=float)
    if k.shape[-1:] != (2,):
        raise DimensionMismatch(f"a mode must be a 2-vector, got shape {k.shape}")
    bad = ~(np.isfinite(k) & (k == np.round(k))).all(axis=-1) | ~k.any(axis=-1)
    if bad.any():
        raise InvalidConfig(f"the symbol is defined for nonzero modes of integers, not {k[bad][0].tolist()}")
    b = _sym2(b_matrix, "B")
    tp = 2.0 * np.pi
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = (k * k).sum(axis=-1)
        kbk = (k[..., None, :] @ b @ k[..., None])[..., 0, 0]
        kb2k = (k[..., None, :] @ (b @ b) @ k[..., None])[..., 0, 0]
        symbol = -(tp**4) * k2**2 - 2.0 * tp**2 * kb2k + 2.0 * tp**2 * (kbk * kbk) / k2
    if not np.isfinite(symbol).all():
        raise InvalidConfig("the flat symbol overflows for this B")
    return symbol


def make_consistent_context(u_pert: np.ndarray, b_matrix) -> LinearizedContext:
    """The context of the metric perturbation and B, with its bundle
    potential phi already solved for, so that the errors of the degree solve
    are raised here and its time is spent here."""
    ctx = LinearizedContext(u_pert, b_matrix)
    ctx.phi  # the degree solve, on first read
    return ctx


#: Grid points per stacked application of L in the trial checks: trials go
#: through ``apply_L`` in chunks of max(1, _CHUNK_POINTS // N^2), 16 at
#: N = 32 and 4 at N = 64.  From N = 128 on a chunk is one trial, so memory
#: does not grow with the number of trials.  Median ms per field-2d battery
#: (seed-1 pool, 58 batteries alternating N = 32 and 64 in one process, heap
#: primed, six processes per size, 2-core x86-64, one BLAS thread), and peak
#: RSS:
#:
#:     points   N = 32   N = 64   MB
#:     2^12      17.6     53.3    42.4
#:     2^13      16.1     45.3    42.6
#:     2^14      16.1     40.9    43.6
#:     2^15      13.8     37.1    46.7
#:
#: 2^15 is faster still, but at 3 MB (7 %) more peak RSS.
_CHUNK_POINTS = 2**14

#: Points of the block of ``_prime_heap``: 32 stacks of ``_CHUNK_POINTS``
#: float64 points, 4 MiB.  Minor page faults per field-2d battery (seed-1
#: pool, 16 batteries after one, a fresh process per size) at N = 32 / 64:
#: 2077 / 3584 unprimed (508 / 2468 with 2^13 points per stack), 490 / 626
#: with a 1 MiB block, 0.6 / 0.4 with 2 MiB and 0.5 / 0.5 with 4 MiB.
_PRIME_POINTS = 32 * _CHUNK_POINTS


@cache
def _prime_heap() -> None:
    """Lift glibc's dynamic mmap threshold above the stacks of the trial
    checks, once per process.  glibc maps each block of M_MMAP_THRESHOLD or
    more and unmaps it on free, and it trims the top of the heap once more
    than M_TRIM_THRESHOLD is free (both 128 KiB at start, mallopt(3)), so
    each application of L would fault the pages of its stacks in again.
    Freeing a mapped block above the mmap threshold raises that threshold to
    the block's size and the trim threshold to twice it: after this block
    the stacks come from the heap and stay there.  The block is never
    touched, so it adds nothing to the resident set, and under any other
    allocator it is one allocation."""
    np.empty(_PRIME_POINTS)


def _as_trial(ctx: LinearizedContext, trial) -> np.ndarray:
    trial = np.asarray(trial, dtype=float)
    if trial.shape != (ctx.n, ctx.n):
        raise DimensionMismatch(f"trials must be {ctx.n} x {ctx.n} potentials")
    return trial


def _as_pair(ctx: LinearizedContext, pair) -> tuple:
    pair = tuple(pair) if np.iterable(pair) else (pair,)
    if len(pair) != 2:
        raise DimensionMismatch(f"a trial pair holds two trials, not {len(pair)}")
    return _as_trial(ctx, pair[0]), _as_trial(ctx, pair[1])


def _trial_key(trial: np.ndarray) -> bytes:
    """The key of a float64 trial in ``LinearizedContext._rayleigh``: the
    32-byte sha256 digest, which hashes a 64 x 64 trial in 28 us against
    56 us for a 16-byte blake2b (x86-64 with SHA extensions, OpenSSL 3.0)."""
    digest = hashlib.sha256(str(trial.shape).encode())
    digest.update(np.ascontiguousarray(trial))
    return digest.digest()


def _applied(ctx: LinearizedContext, trials):
    """Triples (trial, L trial, Rayleigh quotient) of trials already read by
    ``_as_trial``, L applied to chunks of them at once.  The quotient of a
    nonzero trial goes into the context's memo; a zero trial has none (nan)."""
    size = max(1, _CHUNK_POINTS // ctx.n**2)
    trials = iter(trials)
    while chunk := list(islice(trials, size)):
        for trial, image in zip(chunk, apply_L(ctx, np.stack(chunk))):
            norm, quotient = inner(trial, trial), float("nan")
            if norm:
                quotient = ctx._rayleigh[_trial_key(trial)] = inner(trial, image) / norm
            yield trial, image, quotient


def selfadjointness_defect(ctx: LinearizedContext, trial_pairs) -> list[float]:
    """Relative defect |<xi, L gamma> - <gamma, L xi>| for each trial pair.

    Normalized by the sizes of the operator images, so values compare across
    grids; vanishing defect means formal self-adjointness at this resolution.
    The pairs are read lazily, and a pair that does not hold exactly two
    trials raises ``DimensionMismatch``; L is applied to chunks of trials.
    Each image is dropped once its pair is done; only the Rayleigh quotient
    of each trial stays, in the context's memo, for ``negativity_check``.
    """
    defects = []
    images = _applied(ctx, chain.from_iterable(_as_pair(ctx, pair) for pair in trial_pairs))
    for (xi, lx, _), (gamma, lg, _) in zip(images, images):
        raw = abs(inner(xi, lg) - inner(gamma, lx))
        scale = (
            float(np.abs(lg).max()) * float(np.abs(xi).max())
            + float(np.abs(lx).max()) * float(np.abs(gamma).max())
        )
        defects.append(raw / scale if scale > 0.0 else 0.0)
    return defects


def _checked_trial(ctx: LinearizedContext, gamma) -> np.ndarray:
    """The trial read by ``_as_trial`` (its shape checked first), refused
    unless nonzero and mean-free."""
    gamma = _as_trial(ctx, gamma)
    if inner(gamma, gamma) == 0.0 or abs(gamma.mean()) > 1e-12 * np.abs(gamma).max():
        raise InvalidConfig("trials must be nonzero and mean-free")
    return gamma


def negativity_check(ctx: LinearizedContext, trials) -> float:
    """Max Rayleigh quotient <gamma, L gamma>/<gamma, gamma> over the trials.

    Trials must be mean-zero and nonzero; constants span the gauge direction
    and are rejected.  Nonpositive up to discretization error.  Every trial
    is checked; the quotient of one this context has applied L to (in
    ``selfadjointness_defect``, say) is read from its memo, so each trial
    costs one application of L per context.  The others are read lazily and
    L is applied to chunks of them.  No trials raise ``DimensionMismatch``:
    a max over none has no value.
    """
    quotients = []
    # a memo hit is appended as it is read (append returns None); the misses go to _applied
    misses = (
        gamma
        for gamma in (_checked_trial(ctx, t) for t in trials)
        if (hit := ctx._rayleigh.get(_trial_key(gamma))) is None or quotients.append(hit)
    )
    for _, _, quotient in _applied(ctx, misses):
        quotients.append(quotient)
    if not quotients:
        raise DimensionMismatch("negativity_check needs at least one trial")
    return float(max(quotients))
