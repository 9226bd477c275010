"""Periodic grids, spectral differentiation and trigonometric interpolation.

All functions in the package work with smooth 1-periodic data sampled on the
uniform grid ``x_k = k/N``.  Derivatives are computed in Fourier space, so
smooth data is differentiated with spectral accuracy; this is what makes the
1e-8 .. 1e-12 identity tolerances used throughout realistic at moderate grid
sizes.  On small 2-d grids ``partial2`` applies the same derivative as a
product with its dense matrix D along x and with D^T along y, the cached
pair (D, D^T) of ``_diff_matrix``, which agrees with the FFT to roundoff.

One rule, ``_chop``, decides which Fourier bins are roundoff on every
stabilized path: the trailing tail whose envelope has fallen to 64 eps of the
largest bin (Aurentz & Trefethen, "Chopping a Chebyshev series", ACM TOMS 43,
2017).  A small bin before that tail is signal and is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, InvalidConfig


def grid(n: int) -> np.ndarray:
    """Uniform nodes k/n of the unit circle."""
    return np.arange(n) / n


def _wavenumbers(n: int) -> np.ndarray:
    # rfft layout: k = 0 .. n//2
    return np.arange(n // 2 + 1)


_TAIL_REL = 64.0 * np.finfo(float).eps  # roundoff tail, relative to the largest bin


def _chop(coeff: np.ndarray, axis: int = -1, keep: int = 0) -> int:
    """Zero, in place, the roundoff tail of an rfft spectrum along ``axis``
    (other axes are a batch): the bins from the first one whose envelope
    max_{j >= k} |c_j| is at most ``_TAIL_REL`` times the largest bin on,
    never one of the first ``keep``.  Returns the largest kept count."""
    mag = np.moveaxis(np.abs(coeff), axis, -1)
    envelope = np.maximum.accumulate(mag[..., ::-1], axis=-1)[..., ::-1]
    kept = np.maximum(keep, np.count_nonzero(envelope > _TAIL_REL * mag.max(axis=-1, keepdims=True), axis=-1))
    np.moveaxis(coeff, axis, -1)[np.arange(mag.shape[-1]) >= kept[..., None]] = 0.0
    return int(kept.max())


def _tail_chopped_second_derivative(samples: np.ndarray, keep: int = 0) -> tuple[np.ndarray, float]:
    """f'' of 1-d samples after ``_chop`` (never the first ``keep`` bins),
    and (2 pi K)^2 max_k |f_k|, the roundoff scale of f'' (K the highest
    kept bin)."""
    n = samples.shape[0]
    coeff = np.fft.rfft(samples)
    kept = _chop(coeff, keep=keep)
    k2 = (2.0 * np.pi * _wavenumbers(n)) ** 2
    return np.fft.irfft(-k2 * coeff, n=n), float(k2[max(kept - 1, 0)] * np.abs(coeff).max() / n)


def spectral_derivative(
    samples: np.ndarray, order: int = 1, stabilized: bool = False, axis: int = -1
) -> np.ndarray:
    """Differentiate periodic samples ``order`` times along ``axis`` via the FFT.

    Every other axis is a batch axis.  The Nyquist mode is dropped for odd
    derivative orders (its derivative is not representable on the grid); for
    even orders it is kept.  With ``stabilized`` the roundoff tail of the
    spectrum is zeroed before scaling (``_chop``), which keeps repeated
    differentiation of smooth data at roundoff accuracy; ``order=0`` with
    ``stabilized`` is the chop alone, which removes sample-level roundoff
    noise from smooth data (exact on band-limited input, scale invariant).
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[axis]
    coeff = np.fft.rfft(samples, axis=axis)
    if stabilized:
        _chop(coeff, axis)
    k = _wavenumbers(n)
    factor = (2j * np.pi * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        factor[-1] = 0.0
    coeff *= factor.reshape((-1,) + (1,) * (samples.ndim - 1 - axis % samples.ndim))  # along axis
    return np.fft.irfft(coeff, n=n, axis=axis)


def second_antiderivative(samples: np.ndarray) -> np.ndarray:
    """Integrate mean-zero periodic samples twice, with mean-zero gauge.

    Inverse of ``spectral_derivative(.., order=2)`` on mean-zero data.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    coeff = np.fft.rfft(samples, axis=-1)
    k = _wavenumbers(n).astype(float)
    k[0] = 1.0  # avoid 0/0; the mean mode is zeroed below
    coeff = coeff / (2j * np.pi * k) ** 2
    coeff[..., 0] = 0.0
    return np.fft.irfft(coeff, n=n, axis=-1)


def trig_interpolate(samples: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant at arbitrary points.

    Uses the barycentric formula for equispaced trigonometric interpolation
    (even number of nodes), which is numerically stable and exact for data
    band-limited below the Nyquist frequency.
    """
    samples = np.asarray(samples, dtype=float)
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    n = samples.shape[0]
    if n % 2 != 0:
        raise InvalidConfig("trigonometric interpolation requires an even grid")
    nodes = grid(n)
    d = pts[:, None] - nodes[None, :]
    on_node = np.abs(np.sin(np.pi * d)) < 1e-14
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = np.where(on_node, 0.0, 1.0 / np.tan(np.pi * d))
    w *= (-1.0) ** np.arange(n)[None, :]
    num = w @ samples
    den = w.sum(axis=1)
    hit = on_node.any(axis=1)
    den = np.where(hit, 1.0, den)
    out = num / den
    if hit.any():
        idx = on_node[hit].argmax(axis=1)
        out[hit] = samples[idx]
    return out if np.ndim(points) else out[0]


def resample(samples: np.ndarray, n_new: int) -> np.ndarray:
    """Resample onto a finer/coarser uniform grid by Fourier padding."""
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[-1]
    coeff = np.fft.rfft(samples, axis=-1)
    m = min(n, n_new) // 2 + 1
    out = np.zeros(samples.shape[:-1] + (n_new // 2 + 1,), dtype=complex)
    out[..., :m] = coeff[..., :m]
    if n_new > n and n % 2 == 0:
        out[..., n // 2] *= 0.5  # split the Nyquist mode symmetrically
    return np.fft.irfft(out, n=n_new, axis=-1) * (n_new / n)


def _check_grid_size(n: int) -> None:
    if n < 16 or (n & (n - 1)) != 0:
        raise InvalidConfig(f"profile grid size must be a power of two >= 16, got {n}")


@dataclass(frozen=True)
class PeriodicProfile:
    """A smooth 1-periodic scalar function sampled on the uniform grid k/N.

    Profiles used as potentials are stored mean-zero (additive constants are
    gauge); data profiles may carry a mean.
    """

    samples: np.ndarray

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise DimensionMismatch("profile samples must be a 1-d array")
        if not np.isfinite(samples).all():
            raise InvalidConfig("profile samples must be finite")
        _check_grid_size(samples.shape[0])
        object.__setattr__(self, "samples", samples)

    @classmethod
    def zeros(cls, n: int) -> "PeriodicProfile":
        return cls(np.zeros(n))

    @classmethod
    def from_samples(cls, samples, demean: bool = False) -> "PeriodicProfile":
        samples = np.asarray(samples, dtype=float)
        if demean:
            samples = samples - samples.mean()
        return cls(samples)

    @classmethod
    def from_fourier(cls, n: int, cos=(), sin=(), constant: float = 0.0) -> "PeriodicProfile":
        """Build from low-order Fourier coefficients.

        ``cos[j]``/``sin[j]`` multiply cos/sin(2 pi (j+1) x).  A nonzero
        coefficient at a mode >= n/2 would alias on the grid and is refused.
        """
        _check_grid_size(n)  # before allocating
        for name, coeffs in (("cos", cos), ("sin", sin)):
            if any(a != 0.0 for a in coeffs[n // 2 - 1 :]):
                raise InvalidConfig(f"{name} coefficients must vanish from mode {n // 2} (the Nyquist index) on")
        x = grid(n)
        samples = np.full(n, float(constant))
        for j, a in enumerate(cos):
            samples += a * np.cos(2 * np.pi * (j + 1) * x)
        for j, a in enumerate(sin):
            samples += a * np.sin(2 * np.pi * (j + 1) * x)
        return cls(samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    def mean(self) -> float:
        return float(self.samples.mean())


# -- 2-d periodic fields on [0,1)^2 -----------------------------------------


def grid2(n: int):
    """Meshgrid (ij indexing) of the uniform n x n grid of the unit torus."""
    x = grid(n)
    return np.meshgrid(x, x, indexing="ij")


#: Largest grid size whose ``partial2`` derivatives are dense matrix products.
#: Median ms of one ``apply_L`` of a stack of K = max(1, 2^13 / N^2) trials
#: on a field-2d-like background, each axis by FFT or by dense product,
#: alternated in one process (2-core x86-64 with AVX-512, OpenBLAS 0.3.31,
#: one thread, numpy 2.4):
#:
#:     N     K   FFT    dense
#:     32    8   12.6    6.4
#:     64    2   13.0    8.1
#:     128   1   19.6   15.5
#:     256   1   79.4   86.3
#:     512   1   536    623
_DENSE_MAX_N = 128


@lru_cache(maxsize=None)
def _diff_matrix(n: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """D and D^T, C-contiguous and read-only: D is the n x n matrix of
    ``spectral_derivative`` of ``order``, so D @ f is the derivative of the
    samples f along their first axis.  Cached per (n, order).

    D is the FFT path applied to the identity, then made exactly
    skew-symmetric (odd order) or exactly symmetric (even order), as the
    exact matrix is (Trefethen, Spectral Methods in MATLAB, SIAM 2000,
    ch. 3).  So D^T is exactly -D or D.  It is stored contiguous because a
    stack times a contiguous matrix costs 1.4-2.5x less than times the
    transposed view D.T at N = 32 / 64.  The row sums of D are roundoff,
    not zero, so D does not send a constant to exactly zero: differentiate
    the deviation from a constant when the exact zero matters.
    """
    d = spectral_derivative(np.eye(n), order, axis=0)
    d = 0.5 * (d - d.T) if order % 2 else 0.5 * (d + d.T)
    dt = -d if order % 2 else d
    d.setflags(write=False)
    dt.setflags(write=False)
    return d, dt


def partial2(field_samples: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Mixed spectral partial derivative of a doubly periodic field.

    The field lies on the last two axes, shape (..., n, n); x is axis -2 and
    y axis -1, and any leading axes are a stack of fields.  Up to
    ``_DENSE_MAX_N`` points per axis an axis is differentiated as a product
    with a dense matrix of the pair (D, D^T) of ``_diff_matrix``, D @ f
    along x and f @ D^T along y: at these sizes one BLAS product costs less
    than the FFT pair it replaces, and agrees with it to roundoff.  Larger
    axes take the FFT (``spectral_derivative``).  On the dense path a
    constant field has a roundoff derivative, not an exact zero.
    """
    out = np.asarray(field_samples, dtype=float)
    if dx:
        n = out.shape[-2]
        out = _diff_matrix(n, dx)[0] @ out if n <= _DENSE_MAX_N else spectral_derivative(out, order=dx, axis=-2)
    if dy:
        n = out.shape[-1]
        out = out @ _diff_matrix(n, dy)[1] if n <= _DENSE_MAX_N else spectral_derivative(out, order=dy)
    return out


def hessian2(field_samples: np.ndarray) -> np.ndarray:
    """Hessian of a (stack of) doubly periodic field(s), shape (..., n, n, 2, 2)."""
    f = np.asarray(field_samples, dtype=float)
    h = np.empty(f.shape + (2, 2))
    h[..., 0, 0] = partial2(f, 2, 0)
    h[..., 0, 1] = h[..., 1, 0] = partial2(f, 1, 1)
    h[..., 1, 1] = partial2(f, 0, 2)
    return h


def resample2(field_samples: np.ndarray, n_new: int) -> np.ndarray:
    """Resample a doubly periodic field by Fourier padding in both axes.

    The field lies on the last two axes; leading axes are a stack."""
    out = resample(np.asarray(field_samples, dtype=float), n_new)
    return resample(out.swapaxes(-1, -2), n_new).swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _prolongation(n: int) -> tuple[np.ndarray, np.ndarray]:
    """P and P^T, C-contiguous and read-only: the n x n/2 matrix of
    ``resample`` from n/2 points to n (trigonometric interpolation, the
    Nyquist mode of an even n/2 split symmetrically), built as ``resample``
    of the identity, so it is that map for any n/2.  Cached per n."""
    pt = resample(np.eye(n // 2), n)
    p = pt.T.copy()
    p.setflags(write=False)
    pt.setflags(write=False)
    return p, pt


def _prolong2(field_samples: np.ndarray, n_new: int) -> np.ndarray:
    """``resample2`` from n_new/2 points per axis to n_new, the last two
    axes: up to ``_DENSE_MAX_N`` as the products P f P^T with the matrices
    of ``_prolongation``, which agree with it to roundoff and make no FFT,
    above it ``resample2`` itself; the crossover of ``partial2`` bounds the
    cache.  One BLAS thread, 2-core x86-64: a call on a stack of
    max(1, 2^13 / n_new^2) fields takes 18 us dense against 97 us at
    n_new = 64 (64 / 320 at 128), and over 400 field-2d ops (seed-1 pool,
    22 calls per N = 64 op) ``resample2`` in its place made the N = 64 ops
    4-6 % and all ops 3-4 % slower, alternated in one process."""
    if n_new > _DENSE_MAX_N:
        return resample2(field_samples, n_new)
    p, pt = _prolongation(n_new)
    return p @ field_samples @ pt


_CG_RTOL = 1e-13  # sup-norm residual of a linear solve, relative to the rhs
_CG_MAXITER = 200


def inner(f: np.ndarray, g: np.ndarray) -> float:
    """Flat Lebesgue L^2 product: mean of the pointwise product."""
    return float((f * g).mean())


def _col_means(f: np.ndarray) -> np.ndarray:
    """Mean of each column (first axis) of a stack, by the sum and division
    ``ndarray.mean`` does, so bit for bit its value."""
    cols = f.reshape(len(f), -1)
    return np.add.reduce(cols, axis=1) / cols.shape[1]


def _retire(scale, x_out, converged, active, x, r, *stacks):
    """The stop rule of ``_pcg``: each active column whose residual r has a
    sup norm of at most ``_CG_RTOL`` times that of its rhs (``scale``) is
    stored from x into x_out, flagged converged and dropped.  Returns
    active, x, r and ``stacks`` without the dropped columns, as they are
    when none is dropped."""
    done = np.abs(r).reshape(len(r), -1).max(axis=1) <= _CG_RTOL * scale[active]
    if not done.any():
        return (active, x, r) + stacks
    x_out[active[done]] = x[done]
    converged[active[done]] = True
    keep = ~done
    return (active[keep], x[keep], r[keep]) + tuple(s[keep] for s in stacks)


def _pcg(operator, precondition, rhs: np.ndarray, singular: type[Exception], x0: np.ndarray | None = None):
    """CG for ``operator(x) = rhs`` on a stack of right-hand sides.

    ``rhs`` has shape (K, ...): K independent columns, each a field.
    ``operator`` and ``precondition`` map stacks to stacks of the same shape
    and must be SPD for ``inner`` on a subspace that holds every rhs and
    that both map into: all fields, or the mean-zero ones when the rhs and
    the preconditioned fields are mean free.  Each column has its own step
    lengths and stops when its residual's sup norm is ``_CG_RTOL`` times
    that of its rhs; it then leaves the active set, so its iterates are
    those of a run on that column alone.  Returns ``(x, converged)``, x of the shape of ``rhs`` and
    converged a (K,) bool array; a column still active after ``_CG_MAXITER``
    steps keeps its last iterate.  A zero column gives zeros, an empty
    stack (K = 0) an empty x, and ``p . Ap <= 0`` in any column raises
    ``singular``.

    ``x0``, of the shape of ``rhs``, is the initial iterate (zeros if
    None).  Its residual ``rhs - operator(x0)`` costs one operator
    application and meets the stop rule before any step is taken, so an
    exact ``x0`` is returned as it is; with ``x0=None`` no application is
    made and the residual is ``rhs``.

    The loop owns x, r and p and updates them in place; it never writes
    into ``rhs``, ``x0`` or an array that ``operator`` or ``precondition``
    returned, so those may be read-only or shared.  Each update does the
    arithmetic of x + a p, r - a Ap and z + b p, and the column products are
    ``ndarray.mean``'s sums, so the iterates are those of the same loop
    written with temporaries.
    """
    x_out = np.zeros_like(rhs)
    scale = np.abs(rhs).max(axis=tuple(range(1, rhs.ndim)), initial=0.0)
    converged = scale == 0.0
    active = np.flatnonzero(~converged)
    if not active.size:
        return x_out, converged
    cols = (slice(None),) + (None,) * (rhs.ndim - 1)  # a (K,) vector against a stack
    r = rhs[active]  # a copy, as is every fancy-indexed stack below
    if x0 is None:
        x = np.zeros_like(r)
    else:
        x = x0[active]
        r -= operator(x)
        active, x, r = _retire(scale, x_out, converged, active, x, r)
        if not active.size:
            return x_out, converged
    p = np.array(precondition(r))
    rz = _col_means(r * p)
    for _ in range(_CG_MAXITER):
        ap = operator(p)
        denom = _col_means(p * ap)
        if (denom <= 0.0).any():
            raise singular("operator lost definiteness in CG (p . Ap <= 0)")
        a = (rz / denom)[cols]
        x += a * p
        r -= a * ap
        active, x, r, p, rz = _retire(scale, x_out, converged, active, x, r, p, rz)
        if not active.size:
            return x_out, converged
        z = precondition(r)
        rz, rz_old = _col_means(r * z), rz
        p *= (rz / rz_old)[cols]
        p += z
        del z, ap  # the operator's temporaries peak next; hold only x, r and p
    x_out[active] = x
    return x_out, converged
