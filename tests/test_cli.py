import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import dhym
from dhym.cli import main

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


def test_limits_command(tmp_path, monkeypatch):
    monkeypatch.setenv("DHYM_THREADS", "2")
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
    assert manifest["threads"] == 2


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
    # scipy is a test-only dependency: the command line must not load it
    src = str(Path(dhym.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, dhym.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
