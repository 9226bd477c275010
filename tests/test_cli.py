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
from dhym.cli import SCHEMAS, _validate, main
from dhym.errors import InvalidConfig

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


def test_solve_reference_instance(tmp_path):
    code = main(["solve", "--config", write_cfg(tmp_path, "c.json", SOLVE_CFG), "--out", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["results"]["residual_sup"] < 1e-10
    assert manifest["results"]["max_principle"]["holds"]
    assert manifest["results"]["min_curvature"] > 0.0


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


def test_lincheck_rejects_non_2x2_b_matrix(tmp_path):
    cfg = {"grid": 16, "b_matrix": [[2.0, 0.7, 0.0], [0.7, 1.0, 0.0], [0.0, 0.0, 1.0]]}
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["lincheck", "--config", path, "--out", str(tmp_path)]) == 2


def test_residual_missing_solution_csv(tmp_path):
    (tmp_path / "bad.csv").write_text("x,psi\n0,1\n")  # no phi or residual column
    for solution in ("missing.csv", "bad.csv"):
        path = write_cfg(tmp_path, "r.json", dict(SOLVE_CFG, solution=solution))
        assert main(["residual", "--config", path, "--out", str(tmp_path)]) == 2


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
    ],
    ids=["not-square", "zero-radius", "expansion-overflow", "phase-overflow", "nan", "one-trial",
         "symbol-overflow", "negative-seed", "aliased-trials", "large-radius-overflow",
         "small-radius-overflow", "small-radius-underflow", "huge-grid", "repeated-radii",
         "solve-datum-overflow", "limits-datum-overflow", "solve-pow2-grid", "residual-pow2-grid",
         "legendre-pow2-grid", "limits-pow2-grid"],
)
def test_out_of_range_config_exits_2(tmp_path, command, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    with np.errstate(all="ignore"):
        assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2


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
