"""Periodic grids, spectral differentiation and trigonometric interpolation.

All functions in the package work with smooth 1-periodic data sampled on the
uniform grid ``x_k = k/N``.  Derivatives are computed in Fourier space, so
smooth data is differentiated with spectral accuracy; this is what makes the
1e-8 .. 1e-12 identity tolerances used throughout realistic at moderate grid
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidConfig

__all__ = [
    "CHOP_REL",
    "grid",
    "spectral_chop",
    "spectral_derivative",
    "second_antiderivative",
    "trig_interpolate",
    "resample",
    "PeriodicProfile",
    "grid2",
    "partial2",
    "hessian2",
    "resample2",
    "inner",
]

#: Relative spectral noise threshold.  Forward FFTs of smooth data carry an
#: absolute per-bin rounding error of order eps * ||f||, which high-order
#: derivative factors amplify dramatically; bins this far below the largest
#: one are pure roundoff for the analytic profiles handled here and are
#: zeroed by the stabilized differentiation paths.
CHOP_REL = 1e-13


def grid(n: int) -> np.ndarray:
    """Uniform nodes k/n of the unit circle."""
    return np.arange(n) / n


def _wavenumbers(n: int) -> np.ndarray:
    # rfft layout: k = 0 .. n//2
    return np.arange(n // 2 + 1)


def _chop(coeff: np.ndarray, axis: int = -1) -> np.ndarray:
    """Zero, in place, the rfft bins below ``CHOP_REL`` times the largest one."""
    mx = np.abs(coeff).max(axis=axis, keepdims=True)
    coeff[np.abs(coeff) < CHOP_REL * mx] = 0.0
    return coeff


def spectral_chop(samples: np.ndarray) -> np.ndarray:
    """Zero Fourier bins below ``CHOP_REL`` times the largest one.

    Removes sample-level roundoff noise from data known to be spectrally
    clean; exact on band-limited input and scale invariant.
    """
    samples = np.asarray(samples, dtype=float)
    return np.fft.irfft(_chop(np.fft.rfft(samples, axis=-1)), n=samples.shape[-1], axis=-1)


def spectral_derivative(
    samples: np.ndarray, order: int = 1, stabilized: bool = False, axis: int = -1
) -> np.ndarray:
    """Differentiate periodic samples ``order`` times along ``axis`` via the FFT.

    Every other axis is a batch axis.  The Nyquist mode is dropped for odd
    derivative orders (its derivative is not representable on the grid); for
    even orders it is kept.  With ``stabilized`` the spectrum is
    noise-chopped before scaling, which keeps repeated differentiation of
    smooth data at roundoff accuracy.
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
    factor = factor.reshape((-1,) + (1,) * (samples.ndim - 1 - axis % samples.ndim))  # along axis
    return np.fft.irfft(coeff * factor, n=n, axis=axis)


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
    mean_zero: bool = field(default=False)

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1:
            raise DimensionMismatch("profile samples must be a 1-d array")
        if not np.isfinite(samples).all():
            raise InvalidConfig("profile samples must be finite")
        _check_grid_size(samples.shape[0])
        if self.mean_zero:
            if abs(samples.mean()) > 1e-13 * max(1.0, np.abs(samples).max()):
                raise InvalidConfig("profile declared mean-zero has nonzero mean")
        object.__setattr__(self, "samples", samples)

    @classmethod
    def zeros(cls, n: int) -> "PeriodicProfile":
        return cls(np.zeros(n), mean_zero=True)

    @classmethod
    def from_samples(cls, samples, demean: bool = False) -> "PeriodicProfile":
        samples = np.asarray(samples, dtype=float)
        if demean:
            samples = samples - samples.mean()
        return cls(samples, mean_zero=demean)

    @classmethod
    def from_fourier(cls, n: int, cos=(), sin=(), constant: float = 0.0) -> "PeriodicProfile":
        """Build from low-order Fourier coefficients.

        ``cos[j]``/``sin[j]`` multiply cos/sin(2 pi (j+1) x).
        """
        _check_grid_size(n)  # before allocating
        x = grid(n)
        samples = np.full(n, float(constant))
        for j, a in enumerate(cos):
            samples += a * np.cos(2 * np.pi * (j + 1) * x)
        for j, a in enumerate(sin):
            samples += a * np.sin(2 * np.pi * (j + 1) * x)
        return cls(samples, mean_zero=(constant == 0.0))

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def x(self) -> np.ndarray:
        return grid(self.n)

    def mean(self) -> float:
        return float(self.samples.mean())


# -- 2-d periodic fields on [0,1)^2 -----------------------------------------


def grid2(n: int):
    """Meshgrid (ij indexing) of the uniform n x n grid of the unit torus."""
    x = grid(n)
    return np.meshgrid(x, x, indexing="ij")


def partial2(field_samples: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Mixed spectral partial derivative of a doubly periodic field.

    The field lies on the last two axes, shape (..., n, n); x is axis -2 and
    y axis -1, and any leading axes are a stack of fields.
    """
    out = np.asarray(field_samples, dtype=float)
    if dx:
        out = spectral_derivative(out, order=dx, axis=-2)
    if dy:
        out = spectral_derivative(out, order=dy)
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
    """Resample a doubly periodic field by Fourier padding in both axes."""
    out = resample(np.asarray(field_samples, dtype=float), n_new)
    return resample(out.T, n_new).T


_CG_RTOL = 1e-13  # sup-norm residual of a linear solve, relative to the rhs
_CG_MAXITER = 200


def inner(f: np.ndarray, g: np.ndarray) -> float:
    """Flat Lebesgue L^2 product: mean of the pointwise product."""
    return float((f * g).mean())


def _inner_cols(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``inner`` of each column (first axis) of two stacks."""
    return (f * g).reshape(len(f), -1).mean(axis=1)


def _sup_cols(f: np.ndarray) -> np.ndarray:
    return np.abs(f).reshape(len(f), -1).max(axis=1)


def _pcg(operator, precondition, rhs: np.ndarray, singular: type[Exception]):
    """CG for ``operator(x) = rhs`` on a stack of right-hand sides.

    ``rhs`` has shape (K, ...): K independent columns, each a field on which
    ``operator`` and ``precondition`` (mapping stacks to stacks of the same
    shape) are SPD for ``inner`` on mean-zero fields; ``precondition`` must
    map to mean-free fields.  Each column has its own step lengths and stops
    when its residual's sup norm is ``_CG_RTOL`` times that of its rhs; it
    then leaves the active set, so its iterates are those of a run on that
    column alone.  Returns ``(x, converged)``, x of the shape of ``rhs`` and
    converged a (K,) bool array; a column still active after ``_CG_MAXITER``
    steps keeps its last iterate.  A zero column gives zeros, and
    ``p . Ap <= 0`` in any column raises ``singular``.
    """
    x_out = np.zeros_like(rhs)
    scale = _sup_cols(rhs)
    converged = scale == 0.0
    active = np.flatnonzero(~converged)
    if not active.size:
        return x_out, converged
    cols = (slice(None),) + (None,) * (rhs.ndim - 1)  # a (K,) vector against a stack
    r = rhs[active]
    x = np.zeros_like(r)
    p = z = precondition(r)
    rz = _inner_cols(r, z)
    for _ in range(_CG_MAXITER):
        ap = operator(p)
        denom = _inner_cols(p, ap)
        if (denom <= 0.0).any():
            raise singular("operator lost definiteness in CG (p . Ap <= 0)")
        a = (rz / denom)[cols]
        x += a * p
        r -= a * ap
        done = _sup_cols(r) <= _CG_RTOL * scale[active]
        if done.any():
            x_out[active[done]] = x[done]
            converged[active[done]] = True
            keep = ~done
            active, x, r, p, rz = active[keep], x[keep], r[keep], p[keep], rz[keep]
            if not active.size:
                return x_out, converged
        z = precondition(r)
        rz, rz_old = _inner_cols(r, z), rz
        p = z + (rz / rz_old)[cols] * p
    x_out[active] = x
    return x_out, converged
