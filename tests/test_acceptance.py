"""Acceptance battery: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Criterion 7 pins a trace-free reference class, for which the
rescaled coupled problem is exactly the limit equation (see the test
docstring), so it checks coincidence at roundoff; the companion test checks
the decay order on a generic class.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from dhym import (
    CohomologyData,
    ConstantCurvature2,
    ODEProblem,
    PeriodicProfile,
    Regime,
    compatibility_constant,
    dhym_residual_surface,
    large_radius_phase_check,
    lift_to_2d,
    limit_convergence_study,
    max_principle_verify,
    scaled_coupled_problem,
    small_radius_phase_check,
    solve,
    surface_apriori_check,
    surface_ma_check,
    torus_constant_phase,
)
from dhym.cli import main as cli_main
from dhym.core_geometry import phase_positivity_constant
from dhym.kym_ndim import (
    KymData,
    apriori_verify,
    det_bound_verify,
    j_equation_residual,
    residual_complex,
)
from dhym.legendre import legendre_forward
from dhym.linearized_ops import (
    LinearizedContext,
    apply_L,
    flat_symbol,
    make_consistent_context,
    negativity_check,
    selfadjointness_defect,
)
from dhym.ode_solver import complex_datum, manufactured_datum
from dhym.spectral import grid, grid2, inner, spectral_derivative, trig_interpolate

from conftest import cosine_problem, dense_operator, flat_problem, selfadjointness_refinement

N = 256
REGIMES = [
    (Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.0)),
    (Regime.LARGE_RADIUS, ConstantCurvature2(0.5, 0.3, 0.4)),
    (Regime.SMALL_RADIUS, ConstantCurvature2(2.0, 0.5, 1.0)),
]


def report(num, description, ok, detail=""):
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {description}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def lifted_residual_sup(regime, f0, problem, bundle):
    v, f = lift_to_2d(bundle, problem)
    if regime is Regime.DHYM:
        im, _ = dhym_residual_surface(v, f, problem.phase)
        return max(np.abs(im).max(), surface_ma_check(v, f, problem.phase))
    fy = complex_datum(bundle, problem)
    if regime is Regime.LARGE_RADIUS:
        data = KymData.from_constant_curvature(f0.matrix, problem.alpha)
        r1, r2 = residual_complex(v, f, data, fy.samples)
    else:
        r1, r2 = j_equation_residual(v, f, f0.tr / f0.det, problem.alpha, fy.samples)
    return max(np.abs(r1).max(), np.abs(r2).max())


def dual_residual_sup(bundle, problem):
    """sup |R*| of the equation read in the dual coordinate y, from psi and
    the transported datum f = ``complex_datum`` only: with g = 1 + psi'',
    rho = g(y) and dx/dy = g, so F = 0 reads

        R*(y) = -(1/4) (log g)''(y) / g(y) - K1 / g(y) + K0 - f(y) = 0.

    ``lift_to_2d`` builds v from this psi, so R* checks the psi the lifted
    fields carry against the datum, in every regime."""
    g = 1.0 + spectral_derivative(bundle.psi.samples, 2, stabilized=True)
    k1, k0 = problem.coefficients()
    f = complex_datum(bundle, problem).samples
    r = -0.25 * spectral_derivative(np.log(g), 2, stabilized=True) / g - k1 / g + k0 - f
    return float(np.abs(r).max())


def test_criterion_01_flat_solutions():
    worst_phi, worst_res, worst_time = 0.0, 0.0, 0.0
    for regime, f0 in REGIMES:
        start = time.perf_counter()
        problem = flat_problem(regime, f0, n=N)
        bundle = solve(problem)
        res = lifted_residual_sup(regime, f0, problem, bundle)
        elapsed = time.perf_counter() - start
        worst_phi = max(worst_phi, np.abs(bundle.phi.samples).max())
        worst_res = max(worst_res, res)
        worst_time = max(worst_time, elapsed)
    ok = worst_phi <= 1e-10 and worst_res <= 1e-10 and worst_time < 1.0
    report(1, "flat data solves to the flat solution in every regime", ok,
           f"sup|phi|={worst_phi:.2e}, lifted residuals={worst_res:.2e}, slowest={worst_time:.2f}s")


def test_criterion_02_manufactured_solutions():
    start = time.perf_counter()
    worst_err, worst_iters = 0.0, 0
    for regime, f0 in REGIMES:
        target = PeriodicProfile.from_fourier(N, cos=[0.01])
        base = flat_problem(regime, f0, n=N)
        problem = ODEProblem(regime=regime, alpha=1.0, f0=f0, datum_a=manufactured_datum(target, base))
        bundle = solve(problem)
        worst_err = max(worst_err, np.abs(bundle.phi.samples - target.samples).max())
        worst_iters = max(worst_iters, sum(t[1] for t in bundle.continuation_trace))
    elapsed = time.perf_counter() - start
    ok = worst_err <= 1e-8 and worst_iters <= 8 and elapsed < 5.0
    report(2, "manufactured 0.01*cos solutions recovered in every regime", ok,
           f"sup error={worst_err:.2e}, iterations={worst_iters}, total={elapsed:.2f}s")


def test_criterion_03_legendre_duality():
    psi = PeriodicProfile.from_fourier(N, cos=[0.01])
    phi, m = legendre_forward(psi)
    psi_back, _ = legendre_forward(phi)
    involution = np.abs(psi_back.samples - psi.samples).max()
    x = grid(N)
    y_at = m.inverse(x)
    phi_dd = spectral_derivative(phi.samples, 2, stabilized=True)
    psi_dd = spectral_derivative(psi.samples, 2, stabilized=True)
    duality = np.abs((1 + phi_dd) * (1 + trig_interpolate(psi_dd, y_at)) - 1).max()
    w_psi = 1.0 + psi_dd
    lhs = trig_interpolate(-0.25 * spectral_derivative(np.log(w_psi), 2, stabilized=True) / w_psi, y_at)
    rhs = -0.25 * spectral_derivative(1.0 / (1.0 + phi_dd), 2, stabilized=True)
    abreu = np.abs(lhs - rhs).max()
    ok = involution <= 1e-8 and duality <= 1e-8 and abreu <= 1e-6
    report(3, "conjugation involution, duality product, curvature consistency", ok,
           f"involution={involution:.2e}, duality={duality:.2e}, fourth-order={abreu:.2e}")


def test_criterion_04_cross_formulation():
    # the surface equations are the phase equation, which phi_F rebuilt from
    # any psi satisfies; the dual residual is what reads the datum
    problem = cosine_problem(Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.3), n=N)
    bundle = solve(problem)
    v, f = lift_to_2d(bundle, problem)
    im, _ = dhym_residual_surface(v, f, problem.phase)
    defect = surface_ma_check(v, f, problem.phase)
    dual = dual_residual_sup(bundle, problem)
    ok = np.abs(im).max() <= 1e-8 and defect <= 1e-8 and dual <= 1e-9
    report(4, "solved bundle satisfies the lifted surface equations and the dual equation", ok,
           f"sup|Im|={np.abs(im).max():.2e}, surface defect={defect:.2e}, sup|R*|={dual:.2e}")


#: Criterion 04's coupled class, and the limit classes of REGIMES.
DUAL_CLASSES = {
    Regime.DHYM: ConstantCurvature2(0.0, 1.0, 0.3),
    Regime.LARGE_RADIUS: ConstantCurvature2(0.5, 0.3, 0.4),
    Regime.SMALL_RADIUS: ConstantCurvature2(2.0, 0.5, 1.0),
}


@pytest.mark.parametrize("regime", list(DUAL_CLASSES), ids=lambda regime: regime.value)
def test_criterion_04_dual_residual(regime):
    # measured sup|R*| <= 2.0e-12 at N = 64 and <= 6.2e-13 at N = 256; psi
    # scaled by 1.001 before phi_F is rebuilt from it reads 1.1e-4
    f0 = DUAL_CLASSES[regime]
    for n in (64, 256):
        base = flat_problem(regime, f0, n=n)
        datum = PeriodicProfile.from_fourier(n, cos=[0.1], sin=[0.03], constant=compatibility_constant(base))
        problem = ODEProblem(regime=regime, alpha=1.0, f0=f0, datum_a=datum)
        assert dual_residual_sup(solve(problem), problem) <= 1e-9


def test_criterion_05_phase_identities():
    rng = np.random.default_rng(5)
    worst_circle, worst_identity = 0.0, 0.0
    for _ in range(1000):
        a, b, c = rng.uniform(-3.0, 3.0, 3)
        f0 = ConstantCurvature2(a, b, c)
        ph = torus_constant_phase(f0)
        worst_circle = max(worst_circle, abs(ph.cos**2 + ph.sin**2 - 1.0))
        value = phase_positivity_constant(f0)
        alt = b**2 / (ph.cos - c * ph.sin)  # the defining expression
        worst_identity = max(worst_identity, abs(value - alt) / max(1.0, abs(value)))
    ok = worst_circle <= 1e-12 and worst_identity <= 1e-12
    report(5, "phase circle and coupling-positivity identities on 1000 classes", ok,
           f"circle={worst_circle:.2e}, identity={worst_identity:.2e}")


def test_criterion_06_expansion_orders():
    rng = np.random.default_rng(6)
    start = time.perf_counter()
    slopes_large, slopes_small = [], []
    tested = 0
    while tested < 5:
        m = rng.uniform(-1.5, 1.5, (3, 3))
        f0 = 0.5 * (m + m.T)
        data = CohomologyData.from_matrix(f0)
        if abs(data.e[-1]) < 0.05:
            continue
        rep_l = large_radius_phase_check(data, [10, 20, 40, 80, 160])
        rep_s = small_radius_phase_check(data, [1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160])
        if not ((rep_l.errors > 0).all() and (rep_s.errors > 0).all()):
            continue
        slopes_large.append(rep_l.slope)
        slopes_small.append(rep_s.slope)
        tested += 1
    elapsed = time.perf_counter() - start
    ok = (
        all(-3.3 < s < -2.7 for s in slopes_large)
        and all(1.7 < s < 2.3 for s in slopes_small)
        and elapsed < 1.0
    )
    report(6, "radius-expansion truncation orders on 5 random classes", ok,
           f"large {min(slopes_large):.2f}..{max(slopes_large):.2f}, "
           f"small {min(slopes_small):.2f}..{max(slopes_small):.2f}, {elapsed:.2f}s")


def test_criterion_07_limit_convergence_reference_instance():
    """The pinned reference class [[0,1],[1,0]] is trace free.

    With tr F0 = 0 the phase of F0/t is exactly (1, 0) at every t, so the
    rescaled coupling 4 alpha t^2 (b/t)^2 is the limit K1 = 4 alpha b^2 and
    the K0 mismatch is absorbed by the compatibility projection: the rescaled
    coupled problem is the limit equation itself.  The scaled solutions must
    then coincide with the limit solution at roundoff for every t, and the
    study must report that (``exact``) instead of fitting an order to noise.
    The decay order on a generic class is the companion test below.
    """
    radii = [4.0, 8.0, 16.0, 32.0]
    base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.0, 1.0, 0.0), n=N, amplitude=0.05)
    k1_limit, _ = base.coefficients()
    same_equation = True
    for t in radii:
        scaled = scaled_coupled_problem(base, t)
        k1_scaled, _ = scaled.coefficients()
        same_equation &= abs(k1_scaled - k1_limit) <= 4 * np.spacing(k1_limit)
        same_equation &= scaled.phase.sin == 0.0
    rep = limit_convergence_study(base, radii)
    ok = same_equation and rep.errors.max() <= 1e-13 and rep.exact and np.isnan(rep.order)
    report(7, "scaled solutions coincide with the limit solution at the pinned trace-free instance", ok,
           f"same equation={same_equation}, errors {rep.errors.min():.1e}..{rep.errors.max():.1e}, "
           f"exact={rep.exact}, order={rep.order:.2f}")


def test_criterion_07_generic_instance():
    base = cosine_problem(Regime.LARGE_RADIUS, ConstantCurvature2(0.4, 1.0, 0.3), n=N, amplitude=0.05)
    rep = limit_convergence_study(base, [4.0, 8.0, 16.0, 32.0])
    ok = -2.5 < rep.order < -1.5 and (np.diff(rep.errors) < 0).all()
    report(7, "scaled solutions approach the limit solution (generic class)", ok,
           f"order={rep.order:.2f}, errors decrease {rep.errors.max():.1e} -> {rep.errors.min():.1e}")


def test_criterion_08_small_radius_gate(tmp_path):
    cfg = {
        "regime": "small_radius",
        "f0": [1.0, 0.5, -1.0],
        "alpha": 1.0,
        "datum": {"kind": "fourier", "cos": [0.05]},
        "grid": N,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["solve", "--config", str(path), "--out", str(tmp_path)])
    refused = code == 3
    solvable = cosine_problem(Regime.SMALL_RADIUS, ConstantCurvature2(2.0, 0.5, 1.0), n=N, amplitude=0.05)
    bundle = solve(solvable)
    ok = refused and bundle.residual_sup <= 1e-10
    report(8, "indefinite classes refused, definite classes solved", ok,
           f"exit code={code}, residual={bundle.residual_sup:.2e}")


def test_criterion_09_bound_verifiers():
    # a coupled instance whose phase satisfies the sign conditions and whose
    # curvature stays semipositive
    f0 = ConstantCurvature2(0.5, 0.3, 0.4)
    problem = cosine_problem(Regime.DHYM, f0, n=N, amplitude=0.05)
    bundle = solve(problem)
    mp = max_principle_verify(bundle, problem)
    v, f = lift_to_2d(bundle, problem)
    surf = surface_apriori_check(v, f, problem.phase)
    problem_l = cosine_problem(Regime.LARGE_RADIUS, f0, n=N, amplitude=0.05)
    bundle_l = solve(problem_l)
    v_l, f_l = lift_to_2d(bundle_l, problem_l)
    ap = apriori_verify(v_l, f_l, mu=f0.tr, tol=1e-8)
    db = det_bound_verify(v_l)
    mp_l = max_principle_verify(bundle_l, problem_l)
    ok = mp.holds and mp_l.holds and surf.passed and ap.passed and db.min_det > 0.0
    report(9, "maximum principle and a priori verifiers pass on converged solutions", ok,
           f"margins {mp.margin:.2e}/{mp_l.margin:.2e}, lambda in [{ap.min_lambda:.3f},{ap.max_lambda:.3f}], "
           f"min det={db.min_det:.3f}")


def test_criterion_10_linearized_operator():
    start = time.perf_counter()
    n = 32
    b = np.array([[2.0, 0.7], [0.7, 1.0]])
    x, y = grid2(n)
    flat = LinearizedContext(u_pert=np.zeros((n, n)), b_matrix=b)
    sym_err = 0.0
    for kx in range(0, 4):
        for ky in range(-3, 4):
            if (kx, ky) <= (0, 0):
                continue
            gamma = np.cos(2 * np.pi * (kx * x + ky * y))
            sym = flat_symbol(np.array([kx, ky]), b)
            sym_err = max(sym_err, float(np.abs(apply_L(flat, gamma) - sym * gamma).max() / abs(sym)))

    def trial(seed, size=n, kmax=3):
        r = np.random.default_rng(seed)
        xx, yy = grid2(size)
        f = np.zeros((size, size))
        for kx in range(0, kmax + 1):
            for ky in range(-kmax, kmax + 1):
                if kx == 0 and ky <= 0:
                    continue
                f += r.normal() * np.cos(2 * np.pi * (kx * xx + ky * yy))
                f += r.normal() * np.sin(2 * np.pi * (kx * xx + ky * yy))
        return f

    pairs = [(trial(i), trial(100 + i)) for i in range(5)]
    flat_defect = max(selfadjointness_defect(flat, pairs))

    u_pert = 0.004 * (np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.sin(2 * np.pi * (x + y)))
    pert = make_consistent_context(u_pert, b)
    pert_defect = max(selfadjointness_defect(pert, pairs))

    coarse_pairs = [(trial(7, size=16, kmax=2), trial(8, size=16, kmax=2))]
    u16 = 0.004 * (np.cos(2 * np.pi * grid2(16)[0]) * np.cos(2 * np.pi * grid2(16)[1]))
    defects = selfadjointness_refinement(u16, b, coarse_pairs, [16, 24, 32])
    # the discrete assembly is self-adjoint to roundoff at every grid, so
    # "decreasing" is checked as staying within the roundoff envelope
    refinement_ok = defects[-1] <= max(defects[0], 1e-12)

    trials = [trial(300 + i) for i in range(100)]
    rayleigh = negativity_check(pert, trials)

    n_small = 24
    ctx_small = make_consistent_context(
        0.004 * np.cos(2 * np.pi * grid2(n_small)[0]) * np.cos(2 * np.pi * grid2(n_small)[1]), b
    )
    mat = dense_operator(ctx_small)
    xi, gamma = trial(31, size=n_small, kmax=2), trial(32, size=n_small, kmax=2)
    lhs = inner(xi, apply_L(ctx_small, gamma))
    rhs = float((mat.T @ xi.ravel()) @ gamma.ravel()) / n_small**2
    transpose_err = abs(lhs - rhs) / max(abs(lhs), 1.0)
    elapsed = time.perf_counter() - start
    ok = (
        sym_err <= 1e-9
        and flat_defect <= 1e-10
        and pert_defect <= 1e-6
        and refinement_ok
        and rayleigh <= 1e-8
        and transpose_err <= 1e-10
        and elapsed < 60.0
    )
    report(10, "linearized operator: symbol, self-adjointness, negativity, transpose", ok,
           f"symbol={sym_err:.2e}, defects={flat_defect:.2e}/{pert_defect:.2e}, "
           f"rayleigh={rayleigh:.2e}, transpose={transpose_err:.2e}, {elapsed:.1f}s")


def test_criterion_11_determinism(tmp_path):
    cfg = {
        "regime": "dhym",
        "f0": [0.0, 1.0, 0.0],
        "alpha": 1.0,
        "datum": {"kind": "fourier", "cos": [0.1], "constant": -2.0},
        "grid": N,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    outs = []
    with contextlib.redirect_stdout(io.StringIO()):
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli_main(["solve", "--config", str(path), "--out", str(out)]) == 0
            outs.append((out / "solution.csv").read_bytes())
        exp_cfg = {"f0_matrix": [[1.0, 0.4], [0.4, 2.0]]}
        (tmp_path / "e.json").write_text(json.dumps(exp_cfg))
        exps = []
        for sub in ("c", "d"):
            out = tmp_path / sub
            assert cli_main(["expand", "--config", str(tmp_path / "e.json"), "--out", str(out)]) == 0
            exps.append((out / "expansion.csv").read_bytes())
    ok = outs[0] == outs[1] and exps[0] == exps[1]
    report(11, "repeated runs produce byte-identical CSV artifacts", ok)
