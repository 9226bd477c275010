"""End-to-end benchmark of ``dhym lincheck``, the linearized-operator battery.

Run from the repository root::

    python3 tools/bench_lincheck.py change=src
    python3 tools/bench_lincheck.py parent=/path/to/parent/src change=src

Each ``LABEL=DIR`` names a directory holding a ``dhym`` package.  Every
timed run is a fresh ``python -m dhym.cli lincheck`` process with that
directory on ``PYTHONPATH``; ``ROUNDS`` rounds alternate which version goes
first, as ``tools/bench_elliptic.py`` does, so that a slow spell of a
shared machine falls on both.  The result is written to
``BENCH_lincheck.json`` at the repository root, one record per label.

The configs are N = 32 and N = 64, each on a perturbed background
(``perturbation`` 0.004 and 0.006) and on the flat one, and N = 128 / 256 /
512 on the perturbed background of N = 64, where the elliptic solve can nest
over three to five grids, with B = [[2, 0.7], [0.7, 1]] and the default 20
trials.  A record holds, per config:

* ``wall_s``: quartiles of the wall time of the process, start-up included,
  and the time of each round (``rounds``);
* ``peak_rss_mb``: the largest peak RSS of the process over the rounds;
* ``L_columns``: the trials ``linearized_ops.apply_L`` was applied to,
  counted in one more, untimed run that calls ``dhym.cli.main`` in-process;
* ``results``: ``degree_defect``, ``selfadjointness_max`` and
  ``negativity_max_rayleigh`` of the manifest, the same in every round;
* ``time_ratio`` (every label after the first): the per-round ratios of
  its wall time over the first label's (``rounds``), their median and the
  rounds in which this label was faster (``won``), so that a slow spell of
  the machine in one round cancels.

One BLAS / OpenMP thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_elliptic import ROOT, alternate, machine, source_dirs

import numpy as np  # noqa: E402  (after bench_elliptic pins the thread count)

ROUNDS = 10
B_REF = [[2.0, 0.7], [0.7, 1.0]]
CONFIGS = {
    "n32": {"grid": 32, "perturbation": 0.004, "seed": 3},
    "n64": {"grid": 64, "perturbation": 0.006, "seed": 1},
    "n32_flat": {"grid": 32},
    "n64_flat": {"grid": 64},
    "n128": {"grid": 128, "perturbation": 0.006, "seed": 1},
    "n256": {"grid": 256, "perturbation": 0.006, "seed": 1},
    "n512": {"grid": 512, "perturbation": 0.006, "seed": 1},
}
RESULTS = ("degree_defect", "selfadjointness_max", "negativity_max_rayleigh")


def _run_lincheck(src: str, cfg: dict) -> dict:
    """One ``dhym lincheck`` process: wall time, peak RSS and results."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "cfg.json")
        path.write_text(json.dumps(dict(cfg, b_matrix=B_REF)))
        cmd = [sys.executable, "-m", "dhym.cli", "lincheck", "--config", str(path), "--out", tmp]
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)  # reaps the child, with its own rusage
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            raise subprocess.CalledProcessError(child.returncode, cmd)
        results = json.loads(Path(tmp, "manifest.json").read_text())["results"]
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024, "results": {k: results[k] for k in RESULTS}}


def count_columns(src: str) -> None:
    """Prints, as JSON, the columns L is applied to per config, with the
    ``dhym`` package in ``src`` imported in this process."""
    sys.path.insert(0, src)
    from dhym import cli, linearized_ops

    apply, widths = linearized_ops.apply_L, []

    def counted(ctx, udot):
        widths.append(len(udot) if np.ndim(udot) == 3 else 1)
        return apply(ctx, udot)

    linearized_ops.apply_L = cli.apply_L = counted
    columns = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, cfg in CONFIGS.items():
            path = Path(tmp, "cfg.json")
            path.write_text(json.dumps(dict(cfg, b_matrix=B_REF)))
            widths.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["lincheck", "--config", str(path), "--out", tmp])
            if code:
                raise RuntimeError(f"{name}: dhym lincheck exited {code}")
            columns[name] = sum(widths)
    print(json.dumps(columns))


def _record(runs: list, columns: dict) -> dict:
    configs = {}
    for name, cfg in CONFIGS.items():
        samples = [run[name] for run in runs]
        results = samples[0]["results"]
        if any(s["results"] != results for s in samples):
            raise RuntimeError(f"{name}: results differ between rounds")
        walls = [s["wall_s"] for s in samples]
        q1, q2, q3 = np.percentile(walls, [25, 50, 75])
        configs[name] = {
            "config": cfg,
            "wall_s": {"p25": q1, "p50": q2, "p75": q3, "rounds": walls},
            "peak_rss_mb": max(s["rss_mb"] for s in samples),
            "L_columns": columns[name],
            "results": results,
        }
    return configs


def add_time_ratios(records: dict) -> None:
    """``time_ratio`` on each config of every label after the first,
    against the first label's wall time in the same round."""
    reference, *others = records
    for label in others:
        for name, row in records[label].items():
            theirs = records[reference][name]["wall_s"]["rounds"]
            ratios = [a / b for a, b in zip(row["wall_s"]["rounds"], theirs)]
            won = sum(r < 1.0 for r in ratios)
            row["time_ratio"] = {"vs": reference, "p50": float(np.median(ratios)), "won": won, "rounds": ratios}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs="*", metavar="LABEL=DIR", help="directories holding a dhym package")
    parser.add_argument("--count", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.count:
        return count_columns(args.count)
    sources = source_dirs(args.sources)
    runs = alternate(sources, ROUNDS, lambda src, i: {n: _run_lincheck(src, c) for n, c in CONFIGS.items()})
    records = {}
    for label, src in sources.items():
        cmd = [sys.executable, __file__, "--count", src]
        columns = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
        records[label] = _record(runs[label], columns)
    add_time_ratios(records)
    doc = {"benchmark": "dhym lincheck", "machine": machine(), "rounds": ROUNDS, "records": records}
    (ROOT / "BENCH_lincheck.json").write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    for label, record in records.items():
        print(label)
        for name, row in record.items():
            wall, ratio = row["wall_s"], row.get("time_ratio")
            print(
                f"  {name:9s} {wall['p50']:.3f} s [{wall['p25']:.3f}, {wall['p75']:.3f}]"
                f"  {row['peak_rss_mb']:6.1f} MB  {row['L_columns']:3d} L columns"
                f"  negativity {row['results']['negativity_max_rayleigh']!r}"
                + (f"  time x{ratio['p50']:.3f}, won {ratio['won']}/{ROUNDS}" if ratio else "")
            )


if __name__ == "__main__":
    main()
