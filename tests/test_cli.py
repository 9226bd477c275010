import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import dhym
from dhym.cli import SCHEMAS, _validate, _write_csv, main
from dhym.core_geometry import ConstantCurvature2, torus_constant_phase
from dhym.errors import InvalidConfig

from conftest import average_radius, one_error_line

SOLVE_CFG = {
    "regime": "dhym",
    "f0": [0.0, 1.0, 0.0],
    "alpha": 1.0,
    "datum": {"kind": "fourier", "cos": [0.1], "constant": -2.0},
    "grid": 256,
}


def write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_flat_datum(tmp_path, capsys):
    cfg = dict(SOLVE_CFG, datum={"kind": "fourier", "constant": -2.0})
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
    assert code == 0
    table = np.genfromtxt(tmp_path / "solution.csv", delimiter=",", names=True)
    assert np.abs(table["phi"]).max() == 0.0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["residual_sup"] == 0.0
    assert manifest["constants"]["compatibility_constant"] == -2.0


def test_solve_stall_exit_code(tmp_path, capsys, monkeypatch):
    # a stalled Newton exits 4 and names the line search floor, never a t
    from dhym import ode_solver

    monkeypatch.setattr(ode_solver, "_STEP_FLOOR", 2.0)
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", SOLVE_CFG), "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "step floor 2" in err and "effective tolerance" in err and "t =" not in err


def test_solve_reference_instance(tmp_path):
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", SOLVE_CFG), "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["residual_sup"] < 1e-10
    assert manifest["results"]["max_principle"]["holds"]
    assert manifest["results"]["min_curvature"] > 0.0


def test_solve_verbose(tmp_path, capsys):
    # --verbose adds one stderr line and leaves the solution untouched
    cfg = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
    quiet_err = capsys.readouterr().err
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "verbose"), "--verbose"]) == 0
    err = capsys.readouterr().err
    residual = json.loads((tmp_path / "verbose" / "manifest.json").read_text())["results"]["residual_sup"]
    assert quiet_err == ""
    assert err == f"solved dhym: residual {residual:.3e}\n"
    solution = [(tmp_path / d / "solution.csv").read_bytes() for d in ("quiet", "verbose")]
    assert solution[0] == solution[1]


def test_small_radius_obstruction_exit_code(tmp_path):
    cfg = dict(SOLVE_CFG, regime="small_radius", f0=[1.0, 0.5, -1.0])
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
    assert code == 3


def test_invalid_config_exit_code(tmp_path):
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", {"regime": "dhym"}), "--out", str(tmp_path)])
    assert code == 2


def test_unknown_keys_rejected(tmp_path):
    cfg = dict(SOLVE_CFG, bogus=1)
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)])
    assert code == 2


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2


def test_determinism(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_residual_roundtrip(tmp_path):
    cfg_path = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    assert main(["solve", "--config", cfg_path, "--out", str(tmp_path)]) == 0
    res_cfg = dict(SOLVE_CFG, solution="solution.csv")
    res_path = write_cfg(tmp_path, "r.json", res_cfg)
    assert main(["residual", "--config", res_path, "--out", str(tmp_path / "res")]) == 0
    manifest = json.loads((tmp_path / "res" / "manifest.json").read_text())
    assert manifest["results"]["drift_from_stored"] <= 1e-12


def test_phase_command(tmp_path):
    path = write_cfg(tmp_path, "c.json", {"f0": [0.0, 1.0, 0.0]})
    assert main(["phase", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["cos"] == 1.0
    assert manifest["results"]["magnitude"] == 2.0
    assert abs(manifest["results"]["positivity_constant"] - 1.0) < 1e-13


def test_expand_command(tmp_path):
    path = write_cfg(tmp_path, "c.json", {"f0_matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]]})
    assert main(["expand", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert -3.3 < manifest["results"]["large_radius"]["slope"] < -2.7
    assert 1.7 < manifest["results"]["small_radius"]["slope"] < 2.3
    table = np.genfromtxt(tmp_path / "expansion.csv", delimiter=",", names=True)
    assert (np.diff(table["err_large"]) < 0).all()


def test_expand_writes_both_limits(tmp_path):
    cfg = {"f0_matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "t_large": [10, 20, 40, 80],
           "t_small": [0.1, 0.05, 0.025, 0.0125]}
    assert main(["expand", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 0
    table = np.genfromtxt(tmp_path / "expansion.csv", delimiter=",", names=True)
    assert table.dtype.names == ("t_large", "err_large", "t_small", "err_small") and len(table) == 4


def test_expand_refuses_unequal_radius_lists(tmp_path, capsys):
    # four small radii against the five default large ones: no row can hold both
    cfg = {"f0_matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "t_small": [0.1, 0.05, 0.025, 0.0125]}
    assert main(["expand", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 2
    assert "t_small has 4 radii and t_large 5" in capsys.readouterr().err
    assert not (tmp_path / "expansion.csv").exists()


def test_tol_override(tmp_path):
    path = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path), "--tol", "1e-6"]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["effective_tolerance"] == 1e-6
    for tol in ("0", "-1"):  # the schema's exclusive minimum holds for the override too
        assert main(["solve", "--config", path, "--out", str(tmp_path / tol), "--tol", tol]) == 2
    phase = write_cfg(tmp_path, "p.json", {"f0": [0.0, 1.0, 0.0]})  # phase has no tolerances
    assert main(["phase", "--config", phase, "--out", str(tmp_path / "phase"), "--tol", "1e-6"]) == 2


def test_legendre_command(tmp_path):
    path = write_cfg(tmp_path, "c.json", {"profile": {"kind": "fourier", "cos": [0.01]}, "grid": 256})
    assert main(["legendre", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["duality_sup"] < 1e-8
    assert manifest["results"]["involution_sup"] < 1e-8


def test_lincheck_command(tmp_path):
    cfg = {"grid": 32, "b_matrix": [[2.0, 0.7], [0.7, 1.0]], "perturbation": 0.004, "trials": 8}
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["lincheck", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["selfadjointness_max"] < 1e-6
    assert manifest["results"]["negativity_max_rayleigh"] <= 1e-8


@pytest.mark.parametrize("n", [32, 64])
def test_flat_lincheck_degree_defect_is_exact(tmp_path, n):
    # the flat background's bundle potential is zero, and the derivatives of
    # a zero field are exact zeros on the dense path too
    cfg = {"grid": n, "b_matrix": [[2.0, 0.7], [0.7, 1.0]], "trials": 2}
    assert main(["lincheck", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "manifest.json").read_text())["results"]["degree_defect"] == 0.0


def test_lincheck_applies_L_once_per_trial(tmp_path, monkeypatch):
    from conftest import count_columns

    widths = count_columns(monkeypatch)
    cfg = {"grid": 16, "b_matrix": [[2.0, 0.7], [0.7, 1.0]], "perturbation": 0.005, "trials": 20}
    assert main(["lincheck", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 0
    assert sum(widths) == 20


def full_grid_trials(n, count, seed, mode_limit):
    """The lincheck trials as full-grid cosines and sines, in the draw order
    of ``_band_limited_trials``."""
    from dhym.spectral import grid2

    rng = np.random.default_rng(seed)
    x, y = grid2(n)
    for _ in range(count):
        f = np.zeros((n, n))
        for kx in range(0, mode_limit + 1):
            for ky in range(-mode_limit, mode_limit + 1):
                if kx == 0 and ky <= 0:
                    continue
                f += rng.normal() * np.cos(2 * np.pi * (kx * x + ky * y))
                f += rng.normal() * np.sin(2 * np.pi * (kx * x + ky * y))
        yield f


@pytest.mark.parametrize("n", [16, 25, 32])
@pytest.mark.parametrize("mode_limit", [1, 2, 3])
def test_lincheck_trials_from_axis_tables(n, mode_limit):
    from dhym.cli import _band_limited_trials

    pairs = zip(full_grid_trials(n, 6, 40 + n, mode_limit), _band_limited_trials(n, 6, 40 + n, mode_limit), strict=True)
    for ref, trial in pairs:
        assert trial.shape == (n, n)
        assert np.abs(trial - ref).max() <= 1e-14 * np.abs(ref).max()


def test_limits_command(tmp_path):
    cfg = {
        "regime": "large_radius",
        "f0": [0.4, 1.0, 0.3],
        "alpha": 1.0,
        "datum": {"kind": "fourier", "cos": [0.05]},
        "grid": 256,
        "t_list": [4, 8, 16, 32],
    }
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["limits", "--config", path, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert -2.5 < manifest["results"]["order"] < -1.5
    assert manifest["results"]["exact"] is False


def test_limits_command_trace_free_class(tmp_path):
    # tr F0 = 0: the rescaled problems are the limit equation, so no order exists
    cfg = {
        "regime": "large_radius",
        "f0": [0.0, 1.0, 0.0],
        "alpha": 1.0,
        "datum": {"kind": "fourier", "cos": [0.05]},
        "grid": 64,
        "t_list": [4, 8, 16, 32],
    }
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["limits", "--config", path, "--out", str(tmp_path)]) == 0

    def reject(token):
        raise ValueError(f"manifest holds the non-JSON constant {token}")

    manifest = json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["results"]["exact"] is True
    assert manifest["results"]["order"] is None
    assert max(manifest["results"]["errors"]) <= 1e-13


def test_samples_datum(tmp_path):
    n = 64
    samples = -2.0 + 0.05 * np.cos(2 * np.pi * np.arange(n) / n)
    np.savetxt(tmp_path / "datum.csv", samples, delimiter=",")
    cfg = dict(SOLVE_CFG, grid=n, datum={"kind": "samples", "file": "datum.csv"})
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 0


def test_grid_override(tmp_path):
    path = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path), "--grid", "128"]) == 0
    table = np.genfromtxt(tmp_path / "solution.csv", delimiter=",", names=True)
    assert table["x"].shape[0] == 128


def test_grid_override_is_validated(tmp_path):
    path = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path), "--grid", "-4"]) == 2


@pytest.mark.parametrize(
    "cfg, override, text",
    [
        (dict(SOLVE_CFG, tolerances=5), ["--tol", "1e-9"], "config.tolerances: 5 is not of type 'object'"),
        ([1, 2], ["--grid", "32"], "config: [1, 2] is not of type 'object'"),
    ],
    ids=["tolerances-not-object", "config-not-object"],
)
def test_override_leaves_malformed_config_to_the_check(tmp_path, capsys, cfg, override, text):
    # the override goes into the parsed config before its one check, and
    # where it has no object to go into the check reports the config
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path), *override]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


def test_under_resolved_solve_asks_for_a_finer_grid(tmp_path, capsys):
    # Newton converges at N = 64, but the solution's gradient map folds
    # between the nodes; N = 128 resolves it
    cfg = dict(SOLVE_CFG, f0=[0.0, 1.0, 0.3], datum={"kind": "fourier", "cos": [200.0]}, grid=64)
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "not strictly increasing" in err and "grid of 64 points does not resolve" in err
    assert "finer grid is needed" in err
    assert main(["solve", "--config", path, "--out", str(tmp_path), "--grid", "128"]) == 0


def test_lincheck_rejects_non_2x2_b_matrix(tmp_path):
    cfg = {"grid": 16, "b_matrix": [[2.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["lincheck", "--config", path, "--out", str(tmp_path)]) == 2


def test_residual_missing_solution_csv(tmp_path):
    (tmp_path / "bad.csv").write_text("x,psi\n0,1\n")  # no phi or residual column
    for solution in ("missing.csv", "bad.csv"):
        path = write_cfg(tmp_path, "r.json", dict(SOLVE_CFG, solution=solution))
        assert main(["residual", "--config", path, "--out", str(tmp_path)]) == 2


def test_legendre_profile_outside_cone_exits_2(tmp_path):
    # 1 + psi'' = 1 - 0.03 (2 pi)^2 cos < 0 somewhere: bad input, no solver ran
    path = write_cfg(tmp_path, "c.json", {"profile": {"kind": "fourier", "cos": [0.03]}, "grid": 64})
    assert main(["legendre", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command, cfg, text",
    [
        ("residual", dict(SOLVE_CFG, grid=32, solution="s.csv"), "solution CSV has 64 rows, config grid is 32"),
        ("residual", {"regime": "dhym", "f0": [0.0, 1.0, 0.0], "alpha": 1.0, "solution": "s.csv"},
         "the residual command needs the original datum"),
        ("solve", dict(SOLVE_CFG, grid=64, datum={"kind": "samples", "file": "d.csv"}),
         "datum file has 32 samples, expected 64"),
    ],
    ids=["residual-grid-mismatch", "residual-no-datum", "samples-count"],
)
def test_config_against_files_exits_2(tmp_path, capsys, command, cfg, text):
    # a 64-row solution CSV and a 32-sample datum file
    np.savetxt(tmp_path / "s.csv", np.zeros((64, 2)), delimiter=",", header="phi_dd,residual", comments="")
    np.savetxt(tmp_path / "d.csv", np.full(32, -2.0), delimiter=",")
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 2
    assert text in capsys.readouterr().err


def test_residual_curvature_outside_cone_exits_2(tmp_path):
    n = 64
    np.savetxt(tmp_path / "bad.csv", np.column_stack([np.full(n, -2.0), np.zeros(n)]),
               delimiter=",", header="phi_dd,residual", comments="")
    path = write_cfg(tmp_path, "r.json", dict(SOLVE_CFG, grid=n, solution="bad.csv"))
    assert main(["residual", "--config", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "command, cfg, text",
    [
        ("residual", dict(SOLVE_CFG, grid=64, solution="s.csv"), "holds a value that is not finite"),
        ("lincheck", {"grid": 32, "b_matrix": [[0.3, 0.1], [0.1, -0.2]], "perturbation": 1e300},
         "I + Hess u_pert has a nonpositive eigenvalue"),
    ],
    ids=["residual-inf-in-csv", "lincheck-huge-perturbation"],
)
def test_non_finite_input_prints_one_error_line(tmp_path, capsys, command, cfg, text):
    # an inf in the solution CSV, and a perturbation whose Hessian's det
    # overflows: each is refused before numpy warns about what it computes
    phi_dd = np.zeros(64)
    phi_dd[5] = np.inf
    np.savetxt(tmp_path / "s.csv", np.column_stack([phi_dd, np.zeros(64)]),
               delimiter=",", header="phi_dd,residual", comments="")
    assert text in one_error_line(tmp_path, capsys, command, cfg)


def test_import_leaves_scipy_out():
    # scipy and jsonschema are test-only dependencies: the command line must load neither
    src = str(Path(dhym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys, dhym.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'jsonschema')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- config validation against the jsonschema reference ----------------------

# one valid config per command, with every optional key, for the mutations to reach
FULL_CFGS = {
    "solve": dict(
        SOLVE_CFG,
        datum={"kind": "fourier", "cos": [0.1], "sin": [0.0, 0.02], "constant": -2.0, "file": "d.csv"},
        tolerances={"residual": 1e-10},
        output="out",
    ),
    "residual": dict(SOLVE_CFG, solution="solution.csv", output="out"),
    "phase": {"f0": [0.5, 1.0, -0.3], "output": "out"},
    "expand": {
        "f0_matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 3]],
        "t_large": [10, 20, 40, 80],
        "t_small": [0.1, 0.05, 0.025, 0.0125],
        "output": "out",
    },
    "legendre": {"profile": {"kind": "fourier", "cos": [0.01]}, "grid": 256, "output": "out"},
    "lincheck": {
        "grid": 32,
        "b_matrix": [[2.0, 0.7], [0.7, 1.0]],
        "perturbation": 0.004,
        "trials": 8,
        "seed": 3,
        "mode_limit": 2,
        "output": "out",
    },
    "limits": dict(SOLVE_CFG, regime="large_radius", t_list=[4, 8, 16, 32], output="out"),
}

# values that sit on either side of every rule in SCHEMAS: bools against
# numbers, integral floats against integers, bounds, lengths, enums
ATOMS = [
    None, True, False, 0, 1, -1, 2, 3, 15, 16, 16.0, 16.5, 3.0, 0.0, -0.0, 1e-300, 1e300, -1e300,
    float("nan"), float("inf"), "", "dhym", "fourier", "samples", "large_radius",
    [], [1.0], [1, 2, 3], [[1, 2], [3, 4]], [[1, 2, 3]], {}, {"kind": "fourier"},
]


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _paths(item, path + (key,))


def mutate(cfg, rng):
    """Apply one to three random edits: delete, replace, add a key or insert an item."""
    cfg = copy.deepcopy(cfg)
    for _ in range(rng.integers(1, 4)):
        paths = list(_paths(cfg))
        path = paths[rng.integers(len(paths))]
        if not path:
            continue
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        target = parent[path[-1]]
        atom = copy.deepcopy(ATOMS[rng.integers(len(ATOMS))])
        op = rng.integers(4)
        if op == 0:
            del parent[path[-1]]
        elif op == 2 and isinstance(target, dict):
            target["bogus" if rng.random() < 0.5 else "output"] = atom
        elif op == 3 and isinstance(target, list):
            item = copy.deepcopy(target[0]) if target and rng.random() < 0.7 else atom
            target.insert(rng.integers(len(target) + 1), item)
        else:
            parent[path[-1]] = atom
    return cfg


def _keywords(schema):
    found = set(schema)
    if "items" in schema:
        found |= _keywords(schema["items"])
    for sub in schema.get("properties", {}).values():
        found |= _keywords(sub)
    return found


def test_validate_agrees_with_jsonschema():
    used = set().union(*(_keywords(schema) for schema in SCHEMAS.values()))
    assert used <= {"type", "enum", "properties", "required", "additionalProperties", "items",
                    "minItems", "maxItems", "minimum", "maximum", "exclusiveMinimum"}
    rng = np.random.default_rng(20261018)
    for command, schema in SCHEMAS.items():
        oracle = Draft202012Validator(schema)
        verdicts = []
        for _ in range(300):
            cfg = mutate(FULL_CFGS[command], rng)
            try:
                _validate(cfg, command)
                accepted = True
            except InvalidConfig:
                accepted = False
            assert accepted == oracle.is_valid(cfg), (command, cfg)
            verdicts.append(accepted)
        assert 10 <= sum(verdicts) <= 290, command  # both verdicts are exercised


# the solver commands at grids 16-64, so that a mutated config runs in milliseconds
FUZZ_CFGS = {
    "phase": FULL_CFGS["phase"],
    "expand": FULL_CFGS["expand"],
    "lincheck": dict(FULL_CFGS["lincheck"], grid=16, trials=2),
    "legendre": dict(FULL_CFGS["legendre"], grid=64),
    "limits": dict(FULL_CFGS["limits"], grid=32, t_list=[4, 8]),
    "solve": dict(FULL_CFGS["solve"], grid=64),
    "residual": dict(FULL_CFGS["residual"], grid=64, solution="sol/solution.csv"),
}
FUZZ_COUNTS = {"phase": 150, "expand": 150, "lincheck": 100, "legendre": 150, "limits": 100, "solve": 20,
               "residual": 100}


def test_mutated_configs_exit_cleanly(tmp_path):
    # every malformed or extreme config is refused (2) or answered, never an internal error
    solve_cfg = write_cfg(tmp_path, "sol.json", dict(SOLVE_CFG, grid=64))
    assert main(["solve", "--config", solve_cfg, "--out", str(tmp_path / "sol")]) == 0  # read by residual
    rng = np.random.default_rng(4)
    for command, count in FUZZ_COUNTS.items():
        for i in range(count):
            cfg = mutate(FUZZ_CFGS[command], rng)
            path = write_cfg(tmp_path, f"{command}-{i}.json", cfg)
            with np.errstate(all="ignore"):
                code = main([command, "--config", path, "--out", str(tmp_path / "out")])
            assert code in (0, 2, 3, 4), (command, cfg)


@pytest.mark.parametrize(
    "command, text",
    [
        ("expand", '{"f0_matrix": [[1, 0, 0], [0, 2]]}'),  # not square
        ("expand", '{"f0_matrix": [[1, 0], [0, 2]], "t_large": [0, 20, 40, 80]}'),  # radius 0
        ("expand", '{"f0_matrix": [[1, 0, 0], [0, -1e300, 0], [0, 0, 3]]}'),  # expansion overflows
        ("phase", '{"f0": [0.5, 1e300, -0.3]}'),  # class integral overflows
        ("phase", '{"f0": [0.5, NaN, 1.0]}'),  # not a JSON number
        ("lincheck", '{"grid": 16, "b_matrix": [[2, 0.7], [0.7, 1]], "trials": 1}'),  # no pair to compare
        ("lincheck", '{"grid": 16, "b_matrix": [[1e200, 0], [0, 1]]}'),  # B B overflows
        ("lincheck", '{"grid": 16, "b_matrix": [[2, 0.7], [0.7, 1]], "seed": -1}'),  # no numpy seed
        ("lincheck", '{"grid": 16, "b_matrix": [[2, 0.7], [0.7, 1]], "mode_limit": 8, "trials": 2}'),  # aliased
        ("solve", '{"regime": "large_radius", "f0": [1e160, 1e160, 1e160], "alpha": 1, '
                  '"datum": {"kind": "fourier"}, "grid": 64}'),  # K1, K0 overflow
        ("solve", '{"regime": "small_radius", "f0": [2e200, 1e200, 1e200], "alpha": 1, '
                  '"datum": {"kind": "fourier"}, "grid": 64}'),  # K1, K0 overflow
        ("solve", '{"regime": "small_radius", "f0": [1e300, 1e-200, 1e-200], "alpha": 1, '
                  '"datum": {"kind": "fourier"}, "grid": 64}'),  # b^2 + c^2 underflows
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, "datum": {"kind": "fourier"}, '
                  '"grid": 1e300}'),  # an integer, but no power of two
        ("limits", '{"regime": "large_radius", "f0": [0.4, 1, 0.3], "alpha": 1, '
                   '"datum": {"kind": "fourier", "cos": [0.05]}, "grid": 32, "t_list": [4, 4]}'),  # one radius twice
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, '
                  '"datum": {"kind": "fourier", "cos": [1e300], "constant": -2}, "grid": 64}'),  # residual overflows
        ("limits", '{"regime": "large_radius", "f0": [0.4, 1, 0.3], "alpha": 1, '
                   '"datum": {"kind": "fourier", "cos": [1e300], "constant": -2}, "grid": 32, '
                   '"t_list": [4, 8]}'),  # residual overflows
        # powers of two far past the grid maximum, which numpy cannot allocate
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, "datum": {"kind": "fourier"}, '
                  '"grid": 1099511627776}'),
        ("residual", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, "datum": {"kind": "fourier"}, '
                     '"solution": "solution.csv", "grid": 1099511627776}'),
        ("legendre", '{"profile": {"kind": "fourier", "cos": [0.01]}, "grid": 1099511627776}'),
        ("limits", '{"regime": "large_radius", "f0": [0.4, 1, 0.3], "alpha": 1, '
                   '"datum": {"kind": "fourier", "cos": [0.05]}, "grid": 1099511627776, "t_list": [4, 8]}'),
        # Fourier modes at or past the Nyquist index 8 of a 16-point grid alias
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, "datum": {"kind": "fourier", '
                  '"cos": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.1]}, "grid": 16}'),
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, "datum": {"kind": "fourier", '
                  '"cos": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.1], "constant": -2}, "grid": 16}'),
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, "datum": {"kind": "fourier", '
                  '"cos": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0.1], "constant": -2}, "grid": 16}'),
        ("solve", '{"regime": "dhym", "f0": [0, 1, 0], "alpha": 1, '
                  '"datum": {"kind": "samples", "file": "missing.csv"}, "grid": 64}'),  # no datum file
    ],
    ids=["not-square", "zero-radius", "expansion-overflow", "phase-overflow", "nan", "one-trial",
         "symbol-overflow", "negative-seed", "aliased-trials", "large-radius-overflow",
         "small-radius-overflow", "small-radius-underflow", "huge-grid", "repeated-radii",
         "solve-datum-overflow", "limits-datum-overflow", "solve-pow2-grid", "residual-pow2-grid",
         "legendre-pow2-grid", "limits-pow2-grid", "aliased-mode-16", "aliased-mode-16-constant",
         "aliased-mode-10", "samples-file-missing"],
)
def test_out_of_range_config_exits_2(tmp_path, command, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    with np.errstate(all="ignore"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "regime, f0",
    [("dhym", [1000, 0.5, 0.3]), ("large_radius", [1e10, 0.5, 0.3]), ("large_radius", [1e13, 0, 0]),
     ("dhym", [1e13, 0, 0])],
    ids=["coupled-1e3", "large-radius-1e10", "large-radius-1e13", "coupled-1e13"],
)
def test_large_class_solves(tmp_path, regime, f0):
    # valid classes with large entries: the class phase, the coefficients and
    # the bundle ratio are closed forms, with no identity check on roundoff
    cfg = {"regime": regime, "f0": f0, "alpha": 1, "datum": {"kind": "fourier", "cos": [0.1]}, "grid": 64}
    assert main(["solve", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["residual_sup"] <= 1e-10


def test_large_class_phase(tmp_path):
    # a valid class with a large entry: the positivity constant is its closed form
    path = write_cfg(tmp_path, "c.json", {"f0": [1e5, 0.5, 0.3]})
    assert main(["phase", "--config", path, "--out", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "manifest.json").read_text())["results"]
    expected = 0.25 * results["magnitude"] / (1.0 + 0.25 + 0.09)
    assert abs(results["positivity_constant"] - expected) <= 1e-15 * expected


def test_grid_override_past_maximum_exits_2(tmp_path):
    path = write_cfg(tmp_path, "c.json", SOLVE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path), "--grid", "1099511627776"]) == 2


def test_damping_floor_key_exits_2(tmp_path):
    # the step floor is a solver constant: a config that still sets it is refused, not ignored
    cfg = dict(SOLVE_CFG, tolerances={"residual": 1e-10, "damping_floor": 1e-4})
    assert main(["solve", "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 2


_LIMITS_CFG = {
    "regime": "large_radius",
    "f0": [0.4, 1.0, 0.3],
    "alpha": 1.0,
    "datum": {"kind": "fourier", "cos": [0.05]},
    "grid": 64,
    "t_list": [4, 8],
}


@pytest.mark.parametrize(
    "command, cfg, floats, csv",
    [
        ("lincheck", {"grid": 16, "b_matrix": [[2.0, 0.7], [0.7, 1.0]], "trials": 4}, {"grid": 16.0}, "lincheck.csv"),
        (
            "lincheck",
            {"grid": 16, "b_matrix": [[2.0, 0.7], [0.7, 1.0]], "trials": 4, "seed": 3},
            {"trials": 4.0, "seed": 3.0},
            "lincheck.csv",
        ),
        ("legendre", {"profile": {"kind": "fourier", "cos": [0.01]}, "grid": 64}, {"grid": 64.0}, "legendre.csv"),
        ("solve", dict(SOLVE_CFG, grid=64), {"grid": 64.0}, "solution.csv"),
        ("limits", _LIMITS_CFG, {"grid": 64.0}, "limits.csv"),
    ],
    ids=["lincheck-grid", "lincheck-trials-seed", "legendre", "solve", "limits"],
)
def test_integral_float_config(tmp_path, command, cfg, floats, csv):
    # JSON Schema counts 16.0 as an integer; such a config runs like its int twin
    outputs = []
    for name, variant in (("int", cfg), ("float", dict(cfg, **floats))):
        path = write_cfg(tmp_path, f"{name}.json", variant)
        assert main([command, "--config", path, "--out", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name / csv).read_bytes())
    assert outputs[0] == outputs[1]


# -- reports: strict JSON, and only values that were measured ----------------


def reject_constant(token):
    raise ValueError(f"manifest holds the non-JSON constant {token}")


def run_strict(tmp_path, command, cfg) -> dict:
    """Run ``command`` on ``cfg`` in ``tmp_path``; its manifest, parsed as strict JSON."""
    assert main([command, "--config", write_cfg(tmp_path, "c.json", cfg), "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "manifest.json").read_text(), parse_constant=reject_constant)


def test_manifests_are_strict_json(tmp_path):
    # solve runs first and writes the solution.csv that residual reads
    for command, cfg in FULL_CFGS.items():
        run_strict(tmp_path, command, cfg)
    # the zero class: the large-radius errors are exact zeros, so no slope is fitted
    results = run_strict(tmp_path, "expand", {"f0_matrix": [[0, 0], [0, 0]]})["results"]
    assert results == {"large_radius": {"slope": None, "c": 0.0}}


def test_lincheck_symbol_error_only_where_checked(tmp_path):
    # the flat symbol is known only on the flat background; a perturbed one
    # reports null and no timing for a check that never ran
    cfg = {"grid": 16, "b_matrix": [[2.0, 0.7], [0.7, 1.0]], "trials": 2}
    flat = run_strict(tmp_path, "lincheck", cfg)
    assert 0.0 <= flat["results"]["flat_symbol_rel_err"] <= 1e-9
    assert "symbol" in flat["timings"]
    perturbed = run_strict(tmp_path, "lincheck", dict(cfg, perturbation=0.004))
    assert perturbed["results"]["flat_symbol_rel_err"] is None
    assert "symbol" not in perturbed["timings"]


def test_phase_reports_one_class_modulus(tmp_path):
    # on T^2, |det(I - i F0)| is the closed-form magnitude of the class phase
    results = run_strict(tmp_path, "phase", FULL_CFGS["phase"])["results"]
    assert "average_radius" not in results
    f0 = ConstantCurvature2(*FULL_CFGS["phase"]["f0"])
    assert abs(results["magnitude"] - average_radius(f0.matrix)) <= 1e-12 * results["magnitude"]
    rng = np.random.default_rng(23)
    for abc, scale in zip(rng.uniform(-1.0, 1.0, (2000, 3)), 10.0 ** rng.uniform(-3.0, 3.0, 2000)):
        f0 = ConstantCurvature2(*(scale * abc))
        magnitude = torus_constant_phase(f0).magnitude
        assert abs(magnitude - average_radius(f0.matrix)) <= 1e-12 * magnitude


def loop_csv(path, header, columns):
    """The row-by-row CSV writer that ``np.savetxt`` replaced, as the oracle."""
    rows = [",".join(header)]
    for i in range(len(columns[0])):
        rows.append(",".join(format(float(c[i]), ".17g") for c in columns))
    path.write_text("\n".join(rows) + "\n", newline="\n")


@pytest.mark.parametrize("rows", [1, 500])
def test_csv_writer_matches_the_loop(tmp_path, rows):
    rng = np.random.default_rng(rows)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.0, -1e300])
    columns = [np.arange(rows, dtype=float)]
    for _ in range(4):
        column = rng.normal(size=rows) * 10.0 ** rng.integers(-320, 300, rows)
        column[rng.integers(0, rows, 3)] = rng.choice(specials, 3)
        columns.append(column)
    header = ["i", "a", "b", "c", "d"]
    _write_csv(tmp_path / "new.csv", header, columns)
    loop_csv(tmp_path / "old.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

