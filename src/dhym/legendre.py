"""Periodic Legendre duality in one variable.

A convex potential v(y) = y^2/2 + psi(y) with periodic psi has a convex
conjugate u(x) = x^2/2 + phi(x) with periodic phi; the gradient map
y -> x(y) = y + psi'(y) is an increasing diffeomorphism of the circle of
degree one, and

    (1 + phi''(x)) (1 + psi''(y(x))) = 1.

Both potentials are stored mean-zero; the additive constant of the
conjugation u(x) + v(y) = x y is fixed by that normalization (so the
conjugation identity holds up to a single global constant).

Transforming twice returns the input: the transform is an involution on
mean-zero profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotConvex, NotMonotone
from .spectral import PeriodicProfile, grid, spectral_derivative, trig_interpolate


@dataclass(frozen=True)
class MonotoneMap:
    """The gradient map s -> s + p'(s) of a uniformly convex potential.

    ``d1`` and ``d2`` hold the sampled first and second derivatives of p
    for off-grid evaluation; ``values``, the images s + p'(s) of the uniform
    grid nodes, follow from ``d1``, and ``preimages``, the points the map
    sends to the grid nodes, are inverted once, on first use.  The map has
    degree one (m(s+1) = m(s) + 1) by construction.
    """

    d1: np.ndarray
    d2: np.ndarray
    values: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "values", grid(self.d1.shape[0]) + self.d1)
        ext = np.append(self.values, self.values[0] + 1.0)
        if not (np.diff(ext) > 0.0).all():
            raise NotMonotone("gradient map is not strictly increasing")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @cached_property
    def preimages(self) -> np.ndarray:
        return self.inverse(grid(self.n))

    def forward(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts + trig_interpolate(self.d1, pts)

    def inverse(self, points) -> np.ndarray:
        """Invert the map at arbitrary points by safeguarded Newton.

        Each target is bracketed between adjacent grid images (monotonicity
        makes the bracket valid) and starts on the chord between them.
        Newton candidates on the closed bracket are accepted, so a converged
        point stays put; candidates outside it fall back to bisection.  A
        point stops once |m(y) - target| < 1e-14, and only the points not
        yet converged are evaluated again.
        """
        pts = np.atleast_1d(np.asarray(points, dtype=float))
        base = self.values[0]
        shift = np.floor(pts - base)  # reduce into [m(0), m(0)+1)
        tau = pts - shift
        ext = np.append(self.values, self.values[0] + 1.0)
        idx = np.clip(np.searchsorted(ext, tau, side="right") - 1, 0, self.n - 1)
        lo = grid(self.n)[idx]
        hi = lo + 1.0 / self.n
        y = lo + (tau - ext[idx]) / (ext[idx + 1] - ext[idx]) / self.n
        todo = np.arange(y.shape[0])
        for _ in range(80):
            yt = y[todo]
            err = yt + trig_interpolate(self.d1, yt) - tau[todo]
            unconverged = ~(np.abs(err) < 1e-14)
            if not unconverged.any():
                break
            todo, yt, err = todo[unconverged], yt[unconverged], err[unconverged]
            below = err < 0.0
            lo[todo] = np.where(below, yt, lo[todo])
            hi[todo] = np.where(below, hi[todo], yt)
            cand = yt - err / (1.0 + trig_interpolate(self.d2, yt))
            inside = (cand >= lo[todo]) & (cand <= hi[todo])
            y[todo] = np.where(inside, cand, 0.5 * (lo[todo] + hi[todo]))
        return (y + shift) if np.ndim(points) else float(y[0] + shift[0])


def legendre_forward(psi: PeriodicProfile):
    """Convex conjugate of y^2/2 + psi(y); returns (phi, map).

    phi is the mean-zero periodic part of the conjugate potential sampled on
    the uniform dual grid, and map is the gradient map y -> y + psi'(y).
    Requires 1 + psi'' > 0 everywhere (uniform convexity on the grid).
    """
    d1 = spectral_derivative(psi.samples, 1)
    d2 = spectral_derivative(psi.samples, 2)
    if (1.0 + d2).min() <= 0.0:
        raise NotConvex("1 + psi'' must be positive for the Legendre transform")
    try:
        m = MonotoneMap(d1=d1, d2=d2)
    except NotMonotone as exc:
        # 1 + psi'' > 0 at every node, so the map folds between them: the samples do not resolve psi
        raise NotMonotone(
            f"{exc}: the grid of {psi.n} points does not resolve the potential, a finer grid is needed"
        ) from exc
    y_at = m.preimages
    # u(x) = x y - v(y) at y = y(x): the periodic part is -psi(y) - psi'(y)^2/2
    phi_raw = -trig_interpolate(psi.samples, y_at) - 0.5 * trig_interpolate(d1, y_at) ** 2
    # node inversion and interpolation leave sample-level noise that later
    # differentiation would amplify; the conjugate of a smooth profile is
    # smooth, so the noise bins are chopped
    phi = PeriodicProfile.from_samples(spectral_derivative(phi_raw, 0, stabilized=True), demean=True)
    return phi, m


def datum_pushforward(a: PeriodicProfile, m: MonotoneMap) -> PeriodicProfile:
    """Transport a datum through the gradient map: f(m(s)) = a(s).

    Given a on the map's source grid, returns f resampled on the uniform
    image grid, so that composing back with m recovers a.
    """
    if a.n != m.n:
        raise DimensionMismatch(f"datum has {a.n} samples, the map {m.n}")
    return PeriodicProfile.from_samples(trig_interpolate(a.samples, m.preimages))

