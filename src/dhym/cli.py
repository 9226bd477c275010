"""Command line driver: configuration parsing, orchestration, persistence.

One subcommand per capability::

    dhym solve    --config cfg.json    # solve a regime ODE, write solution CSV
    dhym residual --config cfg.json    # re-ingest a solution CSV, recompute residual
    dhym phase    --config cfg.json    # constant-representative phase data
    dhym expand   --config cfg.json    # radius-expansion truncation errors vs t
    dhym legendre --config cfg.json    # transform a profile, report duality defects
    dhym lincheck --config cfg.json    # linearized-operator verification battery
    dhym limits   --config cfg.json    # scaled-problem convergence study

Configs are strict JSON (unknown keys rejected).  Numeric CSV output uses 17
significant digits with LF line endings, so identical configs reproduce
byte-identical files.  Manifests are strict JSON, with null for a value
that was not fitted or not checked.  Exit codes: 0 success, 2 invalid
configuration, 3 obstruction, 4 non-convergence, 5 internal invariant
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core_geometry import (
    ConstantCurvature2,
    phase_positivity_constant,
    torus_constant_phase,
)
from .errors import DhymError, InvalidConfig
from .legendre import legendre_forward
from .linearized_ops import (
    apply_L,
    flat_symbol,
    make_consistent_context,
    negativity_check,
    selfadjointness_defect,
)
from .ode_solver import (
    ODEProblem,
    Regime,
    compatibility_constant,
    curvature_residual,
    effective_tolerance,
    max_principle_verify,
    solve,
)
from .radius_limits import (
    CohomologyData,
    large_radius_phase_check,
    limit_convergence_study,
    small_radius_phase_check,
)
from .spectral import PeriodicProfile, grid, grid2, spectral_derivative, trig_interpolate

# -- config schemas ----------------------------------------------------------


def _closed(properties: dict, required=()) -> dict:
    """The schema of a config object: the keys of ``properties`` and no
    other, those in ``required`` present."""
    return {
        "type": "object",
        "additionalProperties": False,
        "properties": properties,
        "required": list(required),
    }


_NUMBERS = {"type": "array", "items": {"type": "number"}}
_RADII = {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}}
_STRING = {"type": "string"}
_DATUM = _closed(
    {
        "kind": {"enum": ["fourier", "samples"]},
        "cos": _NUMBERS,
        "sin": _NUMBERS,
        "constant": {"type": "number"},
        "file": _STRING,
    },
    required=["kind"],
)
_F0 = {**_NUMBERS, "minItems": 3, "maxItems": 3}
_MATRIX = {
    "type": "array",
    "items": _NUMBERS,
}
_MATRIX2 = {
    "type": "array",
    "items": {**_NUMBERS, "minItems": 2, "maxItems": 2},
    "minItems": 2,
    "maxItems": 2,
}
# `solve --grid 8192` peaks at 1.6 GB RSS and takes 10.3 s (435 MB and
# 2.9-3.3 s at 4096; a fresh process, 2-core 8 GB machine): the Legendre
# transform's off-grid interpolation is dense, O(N^2) in time and memory
_GRID = {"type": "integer", "minimum": 16, "maximum": 8192}
_TOL = _closed(
    {
        "residual": {"type": "number", "exclusiveMinimum": 0},
    }
)

_PROBLEM_KEYS = {
    "regime": {"enum": [r.value for r in Regime]},
    "f0": _F0,
    "alpha": {"type": "number", "minimum": 0},
    "datum": _DATUM,
    "grid": _GRID,
    "tolerances": _TOL,
    "output": _STRING,
}

SCHEMAS = {
    "solve": _closed(_PROBLEM_KEYS, required=["regime", "f0", "alpha", "datum", "grid"]),
    "residual": _closed({**_PROBLEM_KEYS, "solution": _STRING}, required=["regime", "f0", "alpha", "solution"]),
    "phase": _closed({"f0": _F0, "output": _STRING}, required=["f0"]),
    "expand": _closed(
        {
            "f0_matrix": _MATRIX,
            "t_large": _RADII,
            "t_small": _RADII,
            "output": _STRING,
        },
        required=["f0_matrix"],
    ),
    "legendre": _closed(
        {
            "profile": _DATUM,
            "grid": _GRID,
            "output": _STRING,
        },
        required=["profile", "grid"],
    ),
    "lincheck": _closed(
        {
            # the field battery peaks near 0.5 GB at N = 1024, and 4x that per doubling
            "grid": {"type": "integer", "minimum": 16, "maximum": 1024},
            "b_matrix": _MATRIX2,
            "perturbation": {"type": "number", "minimum": 0},
            "trials": {"type": "integer", "minimum": 2, "maximum": 1000},
            "seed": {"type": "integer", "minimum": 0},
            "mode_limit": {"type": "integer", "minimum": 1},
            "output": _STRING,
        },
        required=["grid", "b_matrix"],
    ),
    "limits": _closed(
        {**_PROBLEM_KEYS, "t_list": _NUMBERS},
        required=["regime", "f0", "alpha", "datum", "grid", "t_list"],
    ),
}

# -- helpers -----------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with path.open("w", newline="\n") as fh:  # LF line endings on every platform
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",", header=",".join(header), comments="")


def _or_null(x: float) -> float | None:
    """``x``, or None (JSON null) where nan stands for a value not fitted."""
    return None if np.isnan(x) else x


def _read_csv(path: Path, columns: tuple[str, ...]) -> dict[str, np.ndarray]:
    """Read a numeric CSV with a header row holding at least ``columns``."""
    try:
        lines = path.read_text().strip().split("\n")
        header = lines[0].split(",")
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read CSV {path}: {exc}") from exc
    if any(c not in header for c in columns) or data.ndim != 2 or data.shape[1] != len(header):
        raise InvalidConfig(f"CSV {path} needs a header with {', '.join(columns)} and one value per column")
    if not np.isfinite(data).all():
        raise InvalidConfig(f"CSV {path} holds a value that is not finite")
    return {name: data[:, i] for i, name in enumerate(header)}


_IS_TYPE = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    # JSON Schema: a bool is not a number, and 2.0 is an integer
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)) or (isinstance(v, float) and v.is_integer()),
}


def _checked(value, schema: dict, where: str, errors: list):
    """``value`` with its schema integers as ints (the check accepts 16.0),
    checked against ``schema`` by JSON Schema (draft 2020-12) for the
    keywords SCHEMAS uses; a broken rule appends its message to ``errors``."""
    kind = schema.get("type")
    if kind is not None and not _IS_TYPE[kind](value):
        errors.append(f"{where}: {value!r} is not of type {kind!r}")
        return value
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{where}: {value!r} is not one of {schema['enum']!r}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        errors += [f"{where}: {k!r} is a required property" for k in schema.get("required", ()) if k not in value]
        if schema.get("additionalProperties") is False:
            errors += [f"{where}: additional property {k!r} is not allowed" for k in value if k not in props]
        value = {k: _checked(v, props[k], f"{where}.{k}", errors) if k in props else v for k, v in value.items()}
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            errors.append(f"{where}: fewer than {schema['minItems']} items")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            errors.append(f"{where}: more than {schema['maxItems']} items")
        if "items" in schema:
            value = [_checked(v, schema["items"], f"{where}[{i}]", errors) for i, v in enumerate(value)]
    if _IS_TYPE["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{where}: {value!r} is less than the minimum of {schema['minimum']!r}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{where}: {value!r} is greater than the maximum of {schema['maximum']!r}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            errors.append(f"{where}: {value!r} is not greater than {schema['exclusiveMinimum']!r}")
    return int(value) if kind == "integer" else value


def _validate(cfg, command: str) -> dict:
    """The checked config of ``command``; raises InvalidConfig with every
    broken rule."""
    errors = []
    checked = _checked(cfg, SCHEMAS[command], "config", errors)
    if errors:
        raise InvalidConfig("; ".join(sorted(errors)))
    return checked


def _reject_constant(token: str):
    raise InvalidConfig(f"{token} is not a JSON number")


def _load_config(path: str, command: str, grid: int | None, tol: float | None) -> dict:
    """The checked config of ``command`` at ``path``, with the ``--grid``
    and ``--tol`` overrides in place, so that they obey the schema too."""
    try:
        cfg = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    if isinstance(cfg, dict):  # an override with no object to go into leaves the config to the check
        if grid is not None:
            cfg["grid"] = grid
        if tol is not None and isinstance(cfg.setdefault("tolerances", {}), dict):
            cfg["tolerances"]["residual"] = tol
    return _validate(cfg, command)


def _config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _datum_profile(entry: dict, n: int, base_dir: Path) -> PeriodicProfile:
    if entry["kind"] == "fourier":
        return PeriodicProfile.from_fourier(
            n, cos=entry.get("cos", ()), sin=entry.get("sin", ()), constant=entry.get("constant", 0.0)
        )
    if "file" not in entry:
        raise InvalidConfig("datum kind 'samples' requires a 'file' entry")
    try:
        samples = np.loadtxt(base_dir / entry["file"], delimiter=",", ndmin=1)
    except (OSError, ValueError) as exc:
        raise InvalidConfig(f"cannot read datum file {entry['file']}: {exc}") from exc
    if samples.shape[0] != n:
        raise InvalidConfig(f"datum file has {samples.shape[0]} samples, expected {n}")
    return PeriodicProfile.from_samples(samples)


def _problem_from_config(cfg: dict, base_dir: Path) -> ODEProblem:
    tol = cfg.get("tolerances", {})
    return ODEProblem(
        regime=Regime(cfg["regime"]),
        alpha=cfg["alpha"],
        f0=ConstantCurvature2(*cfg["f0"]),
        datum_a=_datum_profile(cfg["datum"], cfg["grid"], base_dir),
        residual_tol=tol.get("residual", 1e-10),
    )


class _Manifest:
    def __init__(self, command: str, cfg: dict):
        self.data = {
            "command": command,
            "version": __version__,
            "config_sha256": _config_hash(cfg),
            "timings": {},
            "constants": {},
            "results": {},
        }
        self._t0 = time.perf_counter()

    @contextlib.contextmanager
    def stage(self, name: str):
        start = time.perf_counter()
        yield
        self.data["timings"][name] = time.perf_counter() - start

    def write(self, outdir: Path) -> None:
        self.data["timings"]["total"] = time.perf_counter() - self._t0
        # strict JSON: a nan or inf left in a report is an internal error, not a file
        (outdir / "manifest.json").write_text(json.dumps(self.data, indent=2, sort_keys=True, allow_nan=False) + "\n")


# -- subcommands -------------------------------------------------------------
#
# Each fills the manifest and returns either the (csv name, header, columns)
# of its CSV or the line it prints; ``main`` writes and prints.


def _cmd_solve(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    problem = _problem_from_config(cfg, base_dir)
    with manifest.stage("solve"):
        bundle = solve(problem)
    mp = max_principle_verify(bundle, problem)
    phi_dd = 1.0 / bundle.rho.samples - 1.0  # the solver's w - 1, so `dhym residual` reproduces F
    manifest.data["constants"] = {
        "compatibility_constant": compatibility_constant(problem),
        "datum_shift": bundle.datum_shift,
        "grid": problem.n,
        "coefficients": dict(zip(("k1", "k0"), problem.coefficients())),
    }
    if problem.phase is not None:
        manifest.data["constants"]["phase"] = {
            "cos": problem.phase.cos,
            "sin": problem.phase.sin,
            "magnitude": problem.phase.magnitude,
        }
    manifest.data["results"] = {
        "residual_sup": bundle.residual_sup,
        "effective_tolerance": effective_tolerance(problem, bundle.residual_scale),
        "continuation_trace": [list(t) for t in bundle.continuation_trace],
        "max_principle": {"lhs": mp.lhs, "sup_datum": mp.sup_datum, "margin": mp.margin, "holds": mp.holds},
        "min_curvature": float((1.0 + phi_dd).min()),
    }
    if verbose:
        print(f"solved {problem.regime.value}: residual {bundle.residual_sup:.3e}", file=sys.stderr)
    return (
        "solution.csv",
        ["x", "phi", "phi_dd", "psi", "phiF", "residual"],
        [grid(problem.n), bundle.phi.samples, phi_dd, bundle.psi.samples, bundle.phi_f.samples, bundle.residual.samples],
    )


def _cmd_residual(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    # w = 1 + phi'' from the stored second derivative: F(1/w) is then second
    # order in the data, where re-differentiating phi would make it fourth
    table = _read_csv(base_dir / cfg["solution"], ("phi_dd", "residual"))
    n = table["phi_dd"].shape[0]
    if cfg.get("grid", n) != n:
        raise InvalidConfig(f"solution CSV has {n} rows, config grid is {cfg['grid']}")
    if "datum" not in cfg:
        raise InvalidConfig("the residual command needs the original datum")
    problem = _problem_from_config(dict(cfg, grid=n), base_dir)
    with manifest.stage("residual"):
        res = curvature_residual(1.0 + table["phi_dd"], problem)
    drift = float(np.abs(res.samples - table["residual"]).max())
    manifest.data["results"] = {
        "residual_sup": float(np.abs(res.samples).max()),
        "drift_from_stored": drift,
    }
    return _fmt(drift)


def _cmd_phase(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    f0 = ConstantCurvature2(*cfg["f0"])
    phase = torus_constant_phase(f0)
    manifest.data["results"] = {
        "cos": phase.cos,
        "sin": phase.sin,
        "magnitude": phase.magnitude,
        "angle": phase.angle,
        "positivity_constant": phase_positivity_constant(f0),
        "det": f0.det,
        "tr": f0.tr,
    }
    return _fmt(phase.angle)


def _cmd_expand(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    rows = cfg["f0_matrix"]
    if any(len(row) != len(rows) for row in rows):
        raise InvalidConfig("f0_matrix must be a square matrix")
    data = CohomologyData.from_matrix(np.array(rows, dtype=float))
    results = {}
    columns, header = [], []
    t_large = cfg.get("t_large", [10.0, 20.0, 40.0, 80.0, 160.0])
    with manifest.stage("large_radius"):
        rep = large_radius_phase_check(data, t_large)
    results["large_radius"] = {"slope": _or_null(rep.slope), "c": rep.c}
    header += ["t_large", "err_large"]
    columns += [rep.t_values, rep.errors]
    if data.e[-1] != 0.0:
        t_small = cfg.get("t_small", [1 / 10, 1 / 20, 1 / 40, 1 / 80, 1 / 160])
        if len(t_small) != len(t_large):  # the two share the rows of expansion.csv
            raise InvalidConfig(f"t_small has {len(t_small)} radii and t_large {len(t_large)}: they must match")
        with manifest.stage("small_radius"):
            rep_s = small_radius_phase_check(data, t_small)
        results["small_radius"] = {"slope": _or_null(rep_s.slope), "c": rep_s.c}
        header += ["t_small", "err_small"]
        columns += [rep_s.t_values, rep_s.errors]
    manifest.data["results"] = results
    return "expansion.csv", header, columns


def _cmd_legendre(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    n = cfg["grid"]
    psi = _datum_profile(cfg["profile"], n, base_dir)
    psi = PeriodicProfile.from_samples(psi.samples - psi.mean(), demean=True)
    with manifest.stage("transform"):
        phi, m = legendre_forward(psi)
    x = grid(n)
    y_at = m.preimages
    phi_dd = spectral_derivative(phi.samples, 2, stabilized=True)
    psi_dd = spectral_derivative(psi.samples, 2, stabilized=True)
    duality = (1.0 + phi_dd) * (1.0 + trig_interpolate(psi_dd, y_at)) - 1.0
    psi_back, _ = legendre_forward(phi)
    manifest.data["results"] = {
        "duality_sup": float(np.abs(duality).max()),
        "involution_sup": float(np.abs(psi_back.samples - psi.samples).max()),
    }
    return "legendre.csv", ["x", "phi", "phi_dd", "y_of_x", "duality_defect"], [x, phi.samples, phi_dd, y_at, duality]


def _band_limited_trials(n: int, count: int, seed: int, mode_limit: int):
    """The seeded trial fields, one at a time, so memory does not grow with ``count``.

    A trial is the sum of a cos 2 pi (kx x + ky y) + b sin 2 pi (kx x + ky y)
    over the half plane of modes 0 <= kx <= m, |ky| <= m, (kx, ky) > 0
    (m = ``mode_limit``), with a and then b drawn per mode in that order.
    It is evaluated as Re(Ex^T C Ey), C[kx, ky] = a - i b, from the table
    E[k, j] = exp(2 pi i k j / n) of each axis, not from 4 m (m + 1)
    full-grid cosines and sines; the two agree to roundoff.
    """
    rng = np.random.default_rng(seed)
    m = mode_limit
    table = np.exp(2j * np.pi * np.outer(np.arange(-m, m + 1), grid(n)))  # rows k = -m .. m
    # the modes in draw order, kx outer: flat index kx (2m + 1) + (ky + m) from m + 1 on
    kx, col = np.divmod(np.arange(m + 1, (m + 1) * (2 * m + 1)), 2 * m + 1)
    for _ in range(count):
        a, b = rng.normal(size=(kx.size, 2)).T
        coeff = np.zeros((m + 1, 2 * m + 1), dtype=complex)
        coeff[kx, col] = a - 1j * b
        # einsum, not a BLAS matmul: the product is small and complex, and
        # a complex gemm touches work buffers that the real products of
        # `partial2` do not (peak RSS of `dhym lincheck` at N = 16, os.wait4
        # over 5 runs: 37.1 MB with einsum, 37.6 MB with matmul).  The copy
        # drops the complex product, which a view of its real part would
        # keep alive with the trial.
        yield np.einsum("il,lj->ij", np.einsum("ki,kl->il", table[m:], coeff), table).real.copy()


def _cmd_lincheck(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    n = cfg["grid"]
    b = np.array(cfg["b_matrix"], dtype=float)
    amp = cfg.get("perturbation", 0.0)
    count = cfg.get("trials", 20)
    seed = cfg.get("seed", 0)
    mode_limit = cfg.get("mode_limit", 3)
    if mode_limit >= n // 2:
        raise InvalidConfig(f"mode_limit must stay below the Nyquist index {n // 2}")
    x, y = grid2(n)
    if amp > 0.0:
        u_pert = amp * (np.cos(2 * np.pi * x) * np.cos(2 * np.pi * y) + 0.5 * np.sin(2 * np.pi * (x + y)))
    else:
        u_pert = np.zeros((n, n))
    ctx = make_consistent_context(u_pert, b)
    sym_err = None  # the symbol is known only on the flat background
    if amp == 0.0:
        with manifest.stage("symbol"):
            modes = [(kx, ky) for kx in range(0, 4) for ky in range(-3, 4) if (kx, ky) > (0, 0)]
            sym_err = 0.0
            for kx, ky in modes:
                gamma = np.cos(2 * np.pi * (kx * x + ky * y))
                sym = flat_symbol(np.array([kx, ky]), b)
                sym_err = max(sym_err, float(np.abs(apply_L(ctx, gamma) - sym * gamma).max() / abs(sym)))
    trials = _band_limited_trials(n, count, seed, mode_limit)
    with manifest.stage("selfadjointness"):
        defects = selfadjointness_defect(ctx, zip(trials, trials))  # consecutive pairs
    with manifest.stage("negativity"):
        rayleigh = negativity_check(ctx, _band_limited_trials(n, count, seed, mode_limit))
    manifest.data["results"] = {
        "degree_defect": ctx.degree_defect(),
        "flat_symbol_rel_err": sym_err,
        "selfadjointness_max": max(defects),
        "negativity_max_rayleigh": rayleigh,
    }
    return "lincheck.csv", ["pair", "defect"], [np.arange(len(defects), dtype=float), np.array(defects)]


def _cmd_limits(cfg: dict, manifest: _Manifest, base_dir: Path, verbose: bool):
    problem = _problem_from_config(cfg, base_dir)
    with manifest.stage("study"):
        report = limit_convergence_study(problem, sorted(cfg["t_list"]))
    manifest.data["results"] = {
        "order": _or_null(report.order),  # an exact study has no order
        "exact": report.exact,
        "errors": [float(e) for e in report.errors],
        "limit_sup": report.limit_sup,
    }
    return "limits.csv", ["t", "error"], [report.t_values, report.errors]


_COMMANDS = {
    "solve": _cmd_solve,
    "residual": _cmd_residual,
    "phase": _cmd_phase,
    "expand": _cmd_expand,
    "legendre": _cmd_legendre,
    "lincheck": _cmd_lincheck,
    "limits": _cmd_limits,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dhym", description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON configuration")
    parser.add_argument("--out", default=None, help="output directory (default: config's 'output' or '.')")
    parser.add_argument("--grid", type=int, default=None, help="override the grid size")
    parser.add_argument("--tol", type=float, default=None, help="override the residual tolerance")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config, args.command, args.grid, args.tol)
        base_dir = Path(args.config).resolve().parent
        outdir = Path(args.out or cfg.get("output", "."))
        outdir.mkdir(parents=True, exist_ok=True)
        manifest = _Manifest(args.command, cfg)
        output = _COMMANDS[args.command](cfg, manifest, base_dir, args.verbose)
        if isinstance(output, tuple):
            name, header, columns = output
            _write_csv(outdir / name, header, columns)
            output = str(outdir / name)
        manifest.write(outdir)
        print(output)
        return 0
    except DhymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # pragma: no cover - unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
