"""Smoke test of the benchmark itself: tiny runs of every workload.

Run from the repository root, either directly or under pytest::

    python3 perfbench/smoke.py
    python3 -m pytest -q perfbench/smoke.py

Checks that every metric BENCHMARK.json names is reported with its unit,
that a seed always generates the same inputs, and that the exact counts of a
traced run repeat from one run to the next.  Each run does a fixed number of
ops (``--ops``), so the counts do not depend on the machine's speed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["ode-sweep"]
OPS = {"ode-sweep": 11, "field-2d": 2, "cli-cold": 7}  # one sweep round; both field sizes; every CLI command
EXACT = ("legendre.inverse.iters", "ode_solver.linearize.calls", "linearized_ops.laplacian.calls")


def run_benchmark(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--ops", str(OPS[workload])],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == OPS[workload]
    return result


def _check_names(result: dict, key: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_metrics_and_exact_counts():
    for workload in WORKLOADS:
        _check_names(run_benchmark(workload, 0), "end_to_end")
        first, second = run_benchmark(workload, 1), run_benchmark(workload, 1)
        _check_names(first, "per_layer")
        for name in EXACT:
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], (workload, name)


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    return a == b


def test_seed_determines_inputs():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS as CLASSES

    for workload in WORKLOADS:
        make = CLASSES[workload]
        pool = make(7, ROOT / ".perfbench" / "smoke").inputs()
        assert _same(pool, make(7, ROOT / ".perfbench" / "smoke").inputs()), workload
        assert not _same(pool, make(8, ROOT / ".perfbench" / "smoke").inputs()), workload


if __name__ == "__main__":
    test_seed_determines_inputs()
    test_metrics_and_exact_counts()
    print("smoke test passed")
