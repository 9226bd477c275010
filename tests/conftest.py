import numpy as np
import pytest

from dhym import ConstantCurvature2, ODEProblem, PeriodicProfile, Regime
from dhym import linearized_ops
from dhym.linearized_ops import apply_L
from dhym.ode_solver import manufactured_datum


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_spd(rng, n, scale=1.0):
    """Random symmetric positive definite matrix with spectrum in (0, ~2*scale)."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(rng.uniform(0.2, 2.0, n) * scale) @ q.T


def random_sym(rng, n, bound=1.0):
    m = rng.uniform(-bound, bound, (n, n))
    return 0.5 * (m + m.T)


REGIME_CASES = [
    (Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0)),
    (Regime.LARGE_RADIUS, ConstantCurvature2(0.5, 0.3, 0.4)),
    (Regime.SMALL_RADIUS, ConstantCurvature2(2.0, 0.5, 1.0)),
]


def flat_problem(regime, f0, n=256, alpha=1.0):
    return ODEProblem(regime=regime, alpha=alpha, f0=f0, datum_a=PeriodicProfile.zeros(n))


def manufactured_problem(regime, f0, n=256, alpha=1.0, eps=0.01):
    """Problem whose exact solution is eps*cos(2 pi x), with the datum built
    by evaluating the regime equation at it."""
    target = PeriodicProfile.from_fourier(n, cos=[eps])
    base = flat_problem(regime, f0, n=n, alpha=alpha)
    datum = manufactured_datum(target, base)
    problem = ODEProblem(regime=regime, alpha=alpha, f0=f0, datum_a=datum)
    return problem, target


def cosine_problem(regime, f0, n=256, alpha=1.0, amplitude=0.1):
    """Problem with a compatible single-cosine datum."""
    base = flat_problem(regime, f0, n=n, alpha=alpha)
    from dhym import compatibility_constant

    datum = PeriodicProfile.from_fourier(n, cos=[amplitude], constant=compatibility_constant(base))
    return ODEProblem(regime=regime, alpha=alpha, f0=f0, datum_a=datum)


def dense_operator(ctx):
    """Dense matrix of the 2-d linearized operator L on scalar potentials
    (columns are basis responses).  Memory grows like N^4; keep N small."""
    n = ctx.n
    mat = np.empty((n * n, n * n))
    basis = np.zeros((n, n))
    for j in range(n * n):
        basis.flat[j] = 1.0
        mat[:, j] = apply_L(ctx, basis).ravel()
        basis.flat[j] = 0.0
    return mat


def count_columns(monkeypatch):
    """Wrap ``linearized_ops.apply_L``, which the trial checks call, so that
    it records the number of trials of each call; returns that list."""
    apply, widths = linearized_ops.apply_L, []

    def counted(ctx, udot):
        widths.append(len(udot) if np.ndim(udot) == 3 else 1)
        return apply(ctx, udot)

    monkeypatch.setattr(linearized_ops, "apply_L", counted)
    return widths
