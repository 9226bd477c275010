"""The benchmark workloads and the correctness checks of their ops.

Every workload turns ``--seed`` into a fixed pool of inputs during set-up
(the library only ever sees these generated inputs), warms each grid size
once on a fixed input, and then serves ops from the pool in a fixed cyclic
order, so that every run has the same mix of op kinds and only the seeded
data differ.

An op returns a dict ``{check name: (passed, claim)}``.  A failed check
fails the op.  ``claim`` marks checks whose failure means a wrong answer (a
manufactured solution not recovered, a solution outside the cone or against
the maximum principle, a CSV not reproduced byte for byte, an operator
bound broken); a failed claim makes the whole run incorrect.  The residual
tolerance and cross-formulation checks are not claims: known defects at the
seed fail them (ROADMAP 4(a), and the limit-regime lifted residual near the
cone edge), so they only count as failed ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from dhym import cli, core_geometry, kym_ndim, linearized_ops, ode_solver, radius_limits, spectral
from dhym.core_geometry import ConstantCurvature2
from dhym.ode_solver import ODEProblem, Regime
from dhym.spectral import PeriodicProfile

# Curvature classes per regime; the small-radius class has det F0 > 0 as
# that regime requires.
CLASSES = (
    (Regime.DHYM, ConstantCurvature2(0.0, 1.0, 0.3)),
    (Regime.LARGE_RADIUS, ConstantCurvature2(0.5, 0.3, 0.4)),
    (Regime.SMALL_RADIUS, ConstantCurvature2(2.0, 0.5, 1.0)),
)
LIFTED_BOUND = 1e-8  # acceptance criterion 04
MANUFACTURED_BOUND = 1e-8
# acceptance-battery bounds of the linearized-operator checks
DEGREE_BOUND = 1e-12
SELFADJOINT_BOUND = 1e-6
RAYLEIGH_BOUND = 1e-8


def _noop(key, value):
    pass


def _problem(regime, f0, datum: PeriodicProfile, alpha: float = 1.0) -> ODEProblem:
    return ODEProblem(regime=regime, alpha=alpha, f0=f0, datum_a=datum)


def _compatible(regime, f0, n, alpha: float = 1.0) -> float:
    return ode_solver.compatibility_constant(_problem(regime, f0, PeriodicProfile.zeros(n), alpha))


def fourier_datum(regime, f0, n, cos, sin=()) -> PeriodicProfile:
    """Fourier datum on the compatible slice (its mean is forced anyway)."""
    return PeriodicProfile.from_fourier(n, cos=cos, sin=sin, constant=_compatible(regime, f0, n))


def lifted_residual(problem: ODEProblem, bundle, note_max=_noop) -> float:
    """Residual of the 2-d equations at the lifted solution.

    Coupled regime: the surface residual and the Monge-Ampere defect
    (core_geometry).  Limit regimes: the datum is transported to the
    complex-coordinate side and the kym_ndim residual is evaluated.
    """
    v, f = ode_solver.lift_to_2d(bundle, problem)
    if problem.regime is Regime.DHYM:
        im, _ = core_geometry.dhym_residual_surface(v, f, problem.phase)
        value = max(float(np.abs(im).max()), core_geometry.surface_ma_check(v, f, problem.phase))
        note_max("core_geometry.lifted_residual.max", value)
        return value
    fy = ode_solver.complex_datum(bundle, problem)
    f0 = problem.f0
    if problem.regime is Regime.LARGE_RADIUS:
        data = kym_ndim.KymData.from_constant_curvature(f0.matrix, problem.alpha)
        r1, r2 = kym_ndim.residual_complex(v, f, data, fy.samples)
    else:
        r1, r2 = kym_ndim.j_equation_residual(v, f, f0.tr / f0.det, problem.alpha, fy.samples)
    value = max(float(np.abs(r1).max()), float(np.abs(r2).max()))
    note_max("kym_ndim.lifted_residual.max", value)
    return value


def verified_solve(problem: ODEProblem, target=None, note_max=_noop) -> dict:
    """solve, then every check of a verified solution."""
    bundle = ode_solver.solve(problem)
    a_proj, _ = ode_solver.project_datum(problem.datum_a, problem)
    res = float(np.abs(ode_solver.residual(bundle.phi, problem, a_proj.samples).samples).max())
    w_min = float((1.0 + spectral.spectral_derivative(bundle.phi.samples, 2, stabilized=True)).min())
    checks = {
        # not a claim: at the 4(a) roundoff floor solve can return a bundle
        # whose residual is a hair above the tolerance its Newton loop met
        "residual": (res <= problem.residual_tol, False),
        "cone": (w_min > 0.0, True),
        "max_principle": (ode_solver.max_principle_verify(bundle, problem).holds, True),
        "lifted": (lifted_residual(problem, bundle, note_max) <= LIFTED_BOUND, False),
    }
    if target is not None:
        err = float(np.abs(bundle.phi.samples - target.samples).max())
        checks["manufactured"] = (err <= MANUFACTURED_BOUND, True)
    return checks


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path, traced: bool = False):
        self.workdir = workdir
        self.traced = traced
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.note_max = _noop

    def inputs(self) -> list:
        """The seeded input pool (built once, in set-up)."""
        raise NotImplementedError

    def setup(self) -> None:
        self.pool = self.inputs()
        self.warm()

    def warm(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        """The callable of op i; the pool is served cyclically."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def startup_costs(self) -> dict[str, float]:
        """Per-layer start-up timings this workload measures (traced runs)."""
        return {}

    def close(self) -> None:
        pass


class OdeSweep(Workload):
    """Verified solves at N = 64 / 128 and limit-convergence studies.

    A round has, per regime, one Fourier datum with 3 random-phase modes and
    total amplitude in [0.1, 2] (the ROADMAP 4(a) sweep range) and two
    manufactured problems near the cone edge, min(1 + phi'') in [0.02, 0.5],
    at N = 64 and 128; then one study per limit regime.  About half of the
    Fourier attempts, and the manufactured ones closest to the edge, stall
    at the roundoff floor (0.1-1.3 s each against 5-50 ms for a converged
    solve).  Amplitudes and edge distances are stratified over the rounds and
    the round order is fixed, so every run covers the same ranges.  Stall
    costs vary most with fewer modes (up to 3 s for one mode, a spread three
    times wider for two than for three in the large-radius regime), which
    made runs unsteady, so the data use three modes.

    Not in BENCHMARK.json: the stall costs still change with roundoff, and
    over four sets of ten seeds the IQR/median of ops_per_s was 0.10-0.22,
    too close to its 0.25 bound.  Run it with ``--workload ode-sweep`` for
    the 4(a) failure fraction and the Newton-dominated layer profile.
    """

    name = "ode-sweep"
    rounds = 60
    study_radii = {
        Regime.LARGE_RADIUS: [4.0, 8.0, 16.0, 32.0],
        Regime.SMALL_RADIUS: [1 / 4, 1 / 8, 1 / 16, 1 / 32],
    }

    def _stratified(self, bins: int = 8) -> np.ndarray:
        """One uniform draw in [0, 1) per round; every block of ``bins``
        consecutive rounds has one draw in each bin, so that a run covers
        the parameter range evenly whatever the seed."""
        blocks = [self.rng.permutation(bins) for _ in range(-(-self.rounds // bins))]
        return (np.concatenate(blocks)[: self.rounds] + self.rng.uniform(size=self.rounds)) / bins

    def _fourier(self, regime, f0, n, modes, u):
        amp = 0.1 + 1.9 * u
        mag = self.rng.dirichlet(np.ones(modes)) * amp
        phase = self.rng.uniform(0.0, 2.0 * np.pi, modes)
        datum = fourier_datum(regime, f0, n, cos=mag * np.cos(phase), sin=mag * np.sin(phase))
        return ("solve", _problem(regime, f0, datum), None)

    def _manufactured(self, regime, f0, n, u):
        # phi = (1 - m) cos(2 pi x + theta) / (2 pi)^2 has min(1 + phi'') = m
        m = 0.02 + 0.48 * u
        theta = self.rng.uniform(0.0, 2.0 * np.pi)
        x = spectral.grid(n)
        target = PeriodicProfile.from_samples(
            (1.0 - m) * np.cos(2.0 * np.pi * x + theta) / (2.0 * np.pi) ** 2, demean=True
        )
        base = _problem(regime, f0, PeriodicProfile.zeros(n))
        return ("solve", _problem(regime, f0, ode_solver.manufactured_datum(target, base)), target)

    def _study(self, regime, f0):
        datum = fourier_datum(regime, f0, 64, cos=[self.rng.uniform(0.02, 0.08)], sin=[self.rng.uniform(-0.03, 0.03)])
        return ("study", _problem(regime, f0, datum), self.study_radii[regime])

    def inputs(self):
        pool = []
        draws = [[self._stratified() for _ in range(3)] for _ in CLASSES]
        for r in range(self.rounds):
            for j, (regime, f0) in enumerate(CLASSES):
                u = [d[r] for d in draws[j]]
                pool.append(self._fourier(regime, f0, 64, 3, u[0]))
                pool.append(self._manufactured(regime, f0, 64, u[1]))
                pool.append(self._manufactured(regime, f0, 128, u[2]))
            for regime, f0 in CLASSES[1:]:
                pool.append(self._study(regime, f0))
        return pool

    def warm(self):
        regime, f0 = CLASSES[0]
        for n in (64, 128):
            verified_solve(_problem(regime, f0, fourier_datum(regime, f0, n, cos=[0.1], sin=[0.05])))
        regime, f0 = CLASSES[1]
        study_check(_problem(regime, f0, fourier_datum(regime, f0, 64, cos=[0.05])), self.study_radii[regime])

    def op(self, i):
        kind, problem, extra = self.pool[i % len(self.pool)]
        if kind == "study":
            return lambda: study_check(problem, extra)
        return lambda: verified_solve(problem, target=extra, note_max=self.note_max)


def study_check(base: ODEProblem, radii) -> dict:
    """limit_convergence_study with the decay checks of criterion 07."""
    rep = radius_limits.limit_convergence_study(base, radii)
    expected = -2.0 if base.regime is Regime.LARGE_RADIUS else 2.0
    errors = rep.errors if expected < 0 else rep.errors[::-1]
    return {
        "study_order": (abs(rep.order - expected) < 0.5, False),
        "study_decay": (bool((np.diff(errors) < 0.0).all()), False),
    }


def band_limited(rng, n, kmax):
    x, y = spectral.grid2(n)
    f = np.zeros((n, n))
    for kx in range(kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            arg = 2.0 * np.pi * (kx * x + ky * y)
            f += rng.normal() * np.cos(arg) + rng.normal() * np.sin(arg)
    return f


class Field2d(Workload):
    """Linearized-operator batteries on seeded backgrounds at N = 32 and 64.

    The sizes straddle the dense-LU / CG switch of the elliptic solve.  Ops
    alternate between the sizes; each size has its own background pool and
    one shared set of 20 band-limited trials (10 pairs).
    """

    name = "field-2d"
    sizes = (32, 64)
    backgrounds = 48

    def _background(self, n):
        # band-limited potential scaled so its Hessian stays well inside the cone
        u = band_limited(self.rng, n, 1)
        u *= self.rng.uniform(0.05, 0.15) / np.abs(spectral.hessian2(u)).max()
        b = np.array([[2.0, 0.7], [0.7, 1.0]]) + self.rng.uniform(-0.2, 0.2, (2, 2))
        return u, 0.5 * (b + b.T)

    def inputs(self):
        pool = {}
        for n in self.sizes:
            trials = [band_limited(self.rng, n, 3) for _ in range(20)]
            pool[n] = ([self._background(n) for _ in range(self.backgrounds)], trials)
        return pool

    def warm(self):
        for n in self.sizes:
            x, y = spectral.grid2(n)
            u = 0.004 * np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y)
            ctx = linearized_ops.make_consistent_context(u, np.array([[2.0, 0.7], [0.7, 1.0]]))
            linearized_ops.apply_L(ctx, np.sin(2 * np.pi * (x + 2 * y)))

    def op(self, i):
        n = self.sizes[i % len(self.sizes)]
        backgrounds, trials = self.pool[n]
        u, b = backgrounds[(i // len(self.sizes)) % len(backgrounds)]
        return lambda: field_battery(u, b, trials, self.note_max)


def field_battery(u, b, trials, note_max=_noop) -> dict:
    lo = linearized_ops
    ctx = lo.make_consistent_context(u, b)
    degree = ctx.degree_defect()
    selfadjoint = max(lo.selfadjointness_defect(ctx, list(zip(trials[::2], trials[1::2]))))
    rayleigh = lo.negativity_check(ctx, trials)
    note_max("linearized_ops.selfadjoint_defect.max", selfadjoint)
    note_max("linearized_ops.rayleigh.max", rayleigh)
    # verifiers of the 2-d fields: metric Hess(u), curvature B + Hess(phi)
    v = ctx.u_hess
    f = b + spectral.hessian2(ctx.phi)
    abreu = kym_ndim.abreu_operator(u)
    kym_ndim.abreu_operator_divergence_form(u)
    kym_ndim.apriori_verify(v, f, mu=float(np.trace(b)))
    det = kym_ndim.det_bound_verify(v)
    core_geometry.pencil_eigenvalues(v, f)
    phase = core_geometry.torus_constant_phase(ConstantCurvature2.from_matrix(b))
    im, _ = core_geometry.dhym_residual_surface(v, f, phase)
    ma = core_geometry.surface_ma_check(v, f, phase)
    # det(chi) - det(v) = sin * Im pointwise, so the two verifiers must agree
    identity = abs(ma - abs(phase.sin) * float(np.abs(im).max())) <= 1e-10 * max(1.0, ma)
    return {
        "degree_defect": (degree <= DEGREE_BOUND, True),
        "selfadjoint": (selfadjoint <= SELFADJOINT_BOUND, True),
        "rayleigh": (rayleigh <= RAYLEIGH_BOUND, True),
        "det_bound": (det.min_det > 0.0, True),
        "abreu_mean": (abs(float(abreu.mean())) <= 1e-10 * max(1.0, float(np.abs(abreu).max())), True),
        "surface_identity": (identity, True),
    }


README_SOLVE = {
    "regime": "dhym",
    "f0": [0.0, 1.0, 0.0],
    "alpha": 1.0,
    "datum": {"kind": "fourier", "cos": [0.1], "constant": -2.0},
    "grid": 256,
    "tolerances": {"residual": 1e-10},
}


class CliCold(Workload):
    """Fresh ``python -m dhym.cli <cmd>`` processes over a fixed command cycle.

    Seeded configs for phase, expand, legendre, lincheck and limits (two of
    each; limits once per limit regime, N = 64 over 4 radii); solve runs the README config at N = 256 and residual re-reads that
    solve's CSV.  Each op's CSV (or, for the commands without one, its
    standard output) must equal the first run of the same config.  Traced
    runs call ``dhym.cli.main`` in-process instead, so the wrappers see it;
    their op times therefore leave out interpreter start and import.
    """

    name = "cli-cold"
    commands = ("phase", "expand", "solve", "residual", "legendre", "lincheck", "limits")
    csv_name = {
        "solve": "solution.csv",
        "expand": "expansion.csv",
        "legendre": "legendre.csv",
        "lincheck": "lincheck.csv",
        "limits": "limits.csv",
    }
    variants = 2

    def __init__(self, seed, workdir, traced=False):
        super().__init__(seed, workdir, traced)
        self.reference: dict[str, bytes] = {}
        self.child_rss_mb = 0.0
        self.env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))

    def _config(self, command, variant):
        rng = self.rng
        if command == "phase":
            return {"f0": [round(float(v), 6) for v in rng.uniform(-2.0, 2.0, 3)]}
        if command == "expand":
            while True:
                m = rng.uniform(-1.5, 1.5, (3, 3))
                m = np.round(0.5 * (m + m.T), 6)
                if abs(np.linalg.det(m)) > 0.05:
                    return {"f0_matrix": m.tolist()}
        if command == "solve":
            return dict(README_SOLVE)
        if command == "residual":
            cfg = {k: v for k, v in README_SOLVE.items() if k != "tolerances"}
            return dict(cfg, solution="solve-reference.csv")
        if command == "legendre":
            amp = round(float(rng.uniform(0.005, 0.02)), 6)
            return {"profile": {"kind": "fourier", "cos": [amp]}, "grid": 256}
        if command == "limits":
            regime, f0 = CLASSES[1 + variant]
            radii = OdeSweep.study_radii[regime]
            amp = round(float(rng.uniform(0.02, 0.08)), 6)
            return {
                "regime": regime.value,
                "f0": [f0.a, f0.b, f0.c],
                "alpha": 1.0,
                "datum": {"kind": "fourier", "cos": [amp]},
                "grid": 64,
                "t_list": radii,
            }
        b = rng.uniform(-0.3, 0.3, (2, 2))
        b = np.round(np.array([[2.0, 0.7], [0.7, 1.0]]) + 0.5 * (b + b.T), 6)
        return {
            "grid": 16,
            "b_matrix": b.tolist(),
            "perturbation": round(float(rng.uniform(0.002, 0.006)), 6),
            "trials": 20,
            "seed": int(rng.integers(0, 2**31)),
        }

    def inputs(self):
        pool = []
        for variant in range(self.variants):
            for command in self.commands:
                # one solve config: residual always re-reads the first solve's CSV
                key = f"{command}-{0 if command in ('solve', 'residual') else variant}"
                pool.append((command, key, self._config(command, variant)))
        return pool

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        super().setup()
        for _, key, cfg in self.pool:
            (self.workdir / f"{key}.json").write_text(json.dumps(cfg))

    def warm(self):
        (self.workdir / "warm.json").write_text(json.dumps({"f0": [0.5, 0.3, 0.4]}))
        code, _ = self._run("phase", "warm")
        if code != 0:
            raise RuntimeError("warm-up phase command failed")

    def _run(self, command, key):
        cfg = self.workdir / f"{key}.json"
        argv = [command, "--config", str(cfg), "--out", str(self.workdir / f"out-{key}")]
        if self.traced:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().encode()
        log = self.workdir / "stdout.txt"
        with open(log, "wb") as stdout:
            proc = subprocess.Popen(
                [sys.executable, "-m", "dhym.cli", *argv],
                stdout=stdout,
                stderr=subprocess.DEVNULL,
                env=self.env,
                cwd=self.workdir,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_mb = max(self.child_rss_mb, usage.ru_maxrss / 1024.0)
        return proc.returncode, log.read_bytes()

    def op(self, i):
        command, key, _ = self.pool[i % len(self.pool)]
        return lambda: self._op(command, key)

    def _op(self, command, key):
        code, stdout = self._run(command, key)
        if code == 5:
            raise RuntimeError(f"dhym {command} exited 5 (internal error)")
        if code != 0:
            return {"exit_code": (False, False)}
        if command in self.csv_name:
            out_dir = self.workdir / f"out-{key}"
            output = (out_dir / self.csv_name[command]).read_bytes()
            shutil.rmtree(out_dir)
        else:
            output = stdout
        if key not in self.reference:
            self.reference[key] = output
            if command == "solve":
                (self.workdir / "solve-reference.csv").write_bytes(output)
            return {}
        return {"reproduced": (output == self.reference[key], True)}

    def peak_rss_mb(self):
        return super().peak_rss_mb() if self.traced else self.child_rss_mb

    def startup_costs(self, reps: int = 5) -> dict[str, float]:
        """Bare interpreter start, and what ``import dhym.cli`` adds to it
        (medians of ``reps`` fresh processes)."""

        def timed(code):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, check=True, cwd=self.workdir)
            return time.perf_counter() - t0

        interp = statistics.median(timed("pass") for _ in range(reps))
        imported = statistics.median(timed("import dhym.cli") for _ in range(reps))
        return {"cli.interp_s": interp, "cli.import_s": imported - interp}

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (OdeSweep, Field2d, CliCold)}
