"""Layer benchmark of the 2-d elliptic solve, ``linearized_ops._solve_elliptic``.

Run from the repository root::

    python3 tools/bench_elliptic.py change=src
    python3 tools/bench_elliptic.py parent=/path/to/parent/src change=src

Each ``LABEL=DIR`` names a directory holding a ``dhym`` package, so one run
compares versions of the code.  Each of ``ROUNDS`` rounds is one fresh
worker process that loads every version under a package name of its own
and times them call by call, alternating which goes first, so that a slow
spell of a shared machine falls on all of them; the rounds alternate the
order of the versions too.  The result is written to
``BENCH_elliptic.json`` at the repository root, one record per label.

Per grid size N = 16 / 32 / 64 / 128 / 256, each of six seeded
field-2d-like backgrounds (a band-limited (k <= 1) metric potential with
sup |Hess u_pert| in [0.05, 0.15]) gets the right-hand sides of the
linearized degree equation for 20 band-limited (k <= 3) directions, as many
as a field-2d battery has trials.  They are solved in stacks of
K = max(1, C / N^2), C the ``_CHUNK_POINTS`` of the version under test, as
its battery chunks its trials (the last stack may be shorter).  Each
background draws from its own seed, so every version solves the same
right-hand sides.  A record holds, per size:

* ``stack``: the size of the first stack, min(K, 20);
* ``wall_s``: quartiles of the wall time of one ``_solve_elliptic`` call on
  the first stack, five timed calls per background and round after the
  untimed solve of all 20, each next to the same call of every other
  version;
* ``operator_applications``: mean CG operator applications per call on
  each grid its CGs ran on, keyed by grid size: N and, where the solve
  starts from the solution on coarser grids, each of those;
* ``fft_calls``: mean ``numpy.fft`` calls per call made while a CG runs,
  keyed by grid size as above, counted on the untimed solves only.  A
  ``numpy.fft`` function counts once, whatever it calls inside: the
  ``rfft2`` / ``irfft2`` pair of a preconditioning is two calls, not the
  four per-axis transforms it makes;
* ``residual_sup_rel``: the largest true relative residual
  ||(Delta + sigma P) x - rhs||_inf / ||rhs||_inf over all right-hand sides,
  recomputed here with FFT derivatives and an ``fft2`` Nyquist projector,
  not read from the CG recursion nor from the operator under test;
* ``time_ratio`` (every label after the first): this label's time per
  right-hand side over the first label's, the round's median wall time over
  ``stack``, as the median of the per-round ratios (``rounds``), so that a
  slow spell of the machine in one round cancels.

``field2d_applications`` is the mean number of CG operator applications per
``_solve_elliptic`` call, by grid size as above, over the first 16
backgrounds of the seed-1 pool of the field-2d benchmark workload, with the
battery run as
``perfbench/workloads.py::field_battery`` runs it; ``field2d_fft_calls`` is
the mean number of ``numpy.fft`` calls in its CGs per call, the same way.
``field2d_minor_faults`` is the worker's own minor page faults
(``ru_minflt``) per battery over the same batteries, after one battery per
size that is not counted.  These three run the battery on the package
imported as ``dhym``, so each version gets one fresh process of its own,
in which no block the sizes above free sets glibc's malloc thresholds.

One BLAS / OpenMP thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32, 64, 128, 256)
BACKGROUNDS = 6  # per grid size
REPS = 5  # timed solves per background and round
ROUNDS = 5
TRIALS = 20  # right-hand sides per background
B_REF = np.array([[2.0, 0.7], [0.7, 1.0]])
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def _count_applications(lo):
    """Wrap the ``_pcg`` that ``linearized_ops`` calls so that it counts the
    operator applications; returns the list the counts go to, one
    ``[grid size, applications, fft calls]`` per CG, and a flag list whose
    first entry is True while a CG runs.  Any further arguments of ``_pcg``
    are passed through, so the wrapper fits every version of the code."""
    pcg, counts, running = lo._pcg, [], [False]

    def counted(operator, precondition, rhs, *args, **kwargs):
        counts.append([rhs.shape[-1], 0, 0])

        def apply(p):
            counts[-1][1] += 1
            return operator(p)

        running[0] = True
        try:
            return pcg(apply, precondition, rhs, *args, **kwargs)
        finally:
            running[0] = False

    lo._pcg = counted
    return counts, running


@contextmanager
def _counting_transforms(counts, running):
    """Count each ``numpy.fft`` call made while a CG runs on that CG's entry
    of ``counts``; the transforms are restored on exit, so timed solves run
    unwrapped."""
    saved = {name: getattr(np.fft, name) for name in FFT_FUNCTIONS}

    def wrap(transform):
        def counted(*args, **kwargs):
            if running[0]:
                counts[-1][2] += 1
            return transform(*args, **kwargs)

        return counted

    for name, transform in saved.items():
        setattr(np.fft, name, wrap(transform))
    try:
        yield
    finally:
        for name, transform in saved.items():
            setattr(np.fft, name, transform)


def _fft_laplacian(u_inv, f):
    """d_i(u^{ij} d_j f) of a stack, each derivative an rfft / irfft pair
    along its axis with the Nyquist index dropped: independent of the
    ``dhym`` code under test."""
    n = f.shape[-1]
    k = np.arange(n // 2 + 1)
    dk = np.where(2 * k < n, 2j * np.pi * k, 0.0)

    def d(g, axis):
        return np.fft.irfft(np.fft.rfft(g, axis=axis) * (dk[:, None] if axis == -2 else dk), n=n, axis=axis)

    gx, gy = d(f, -2), d(f, -1)
    flux_x = u_inv[..., 0, 0] * gx + u_inv[..., 0, 1] * gy
    flux_y = u_inv[..., 1, 0] * gx + u_inv[..., 1, 1] * gy
    return d(flux_x, -2) + d(flux_y, -1)


def _per_solve(counts, solves, column=1) -> dict:
    """Mean operator applications (``column`` 1) or fft calls (2) per solve
    on each grid a CG ran on, keyed by grid size, the finest first."""
    grids = sorted({c[0] for c in counts}, reverse=True)
    return {str(m): sum(c[column] for c in counts if c[0] == m) / solves for m in grids}


def _mean_per_grid(per_solve: list) -> dict:
    """The mean of ``_per_solve`` records by grid size, a grid missing from
    one counting as zero there."""
    grids = sorted({int(m) for row in per_solve for m in row}, reverse=True)
    return {str(m): float(np.mean([row.get(str(m), 0.0) for row in per_solve])) for m in grids}


def _relative_residual(ctx, x, rhs, sigma) -> float:
    """max over columns of ||(Delta + sigma P) x - rhs||_inf / ||rhs||_inf,
    P the fft2 projector onto the modes with a Nyquist index."""
    n = ctx.n
    coeff = np.fft.fft2(x)
    keep = np.zeros_like(coeff)
    if n % 2 == 0:
        keep[..., n // 2, :] = coeff[..., n // 2, :]
        keep[..., :, n // 2] = coeff[..., :, n // 2]
    target = rhs - rhs.mean(axis=(-2, -1), keepdims=True)
    resid = _fft_laplacian(ctx.u_inv, x) + sigma * np.fft.ifft2(keep).real - target
    return float((np.abs(resid).max(axis=(-2, -1)) / np.abs(target).max(axis=(-2, -1))).max())


def _background(rng, n, workloads):
    u = workloads.band_limited(rng, n, 1)
    u *= rng.uniform(0.05, 0.15) / np.abs(workloads.spectral.hessian2(u)).max()
    b = B_REF + rng.uniform(-0.2, 0.2, (2, 2))
    return u, 0.5 * (b + b.T)


def bench_size(versions, workloads, n) -> list:
    """The samples of grid size n, one dict per version.  ``versions`` holds
    a ``(linearized_ops, counts, running)`` triple per version; every
    version solves the same right-hand sides, and the timed calls alternate
    between the versions."""
    rows = [{"n": n, "times": [], "applications": [], "transforms": [], "residual": 0.0} for _ in versions]
    for i in range(BACKGROUNDS):
        rng = np.random.default_rng((n, i))
        background = _background(rng, n, workloads)
        trials = np.array([workloads.band_limited(rng, n, 3) for _ in range(TRIALS)])
        timed = []
        for (lo, counts, running), row in zip(versions, rows):
            k = max(1, lo._CHUNK_POINTS // n**2)
            ctx = lo.make_consistent_context(*background)
            rhs = lo._lincond_rhs(ctx, lo._tangent(ctx, trials))[2]
            stacks = [rhs[j : j + k] for j in range(0, TRIALS, k)]
            counts.clear()
            with _counting_transforms(counts, running):  # warms the context, counts, checks
                x = np.concatenate([lo._solve_elliptic(ctx, stack) for stack in stacks])
            row["stack"] = len(stacks[0])
            row["applications"].append(_per_solve(counts, len(stacks)))
            row["transforms"].append(_per_solve(counts, len(stacks), column=2))
            row["residual"] = max(row["residual"], _relative_residual(ctx, x, rhs, -lo._nyquist_penalty(n)))
            timed.append((lo._solve_elliptic, ctx, stacks[0]))
        for rep in range(REPS):
            for j in range(len(versions))[:: 1 if rep % 2 == 0 else -1]:
                solve, ctx, stack = timed[j]
                t0 = time.perf_counter()
                solve(ctx, stack)
                rows[j]["times"].append(time.perf_counter() - t0)
    return rows


def field2d_applications(lo, workloads, counts, running, backgrounds=16) -> tuple:
    solves, faults = [], {}
    solve = lo._solve_elliptic

    def counted(ctx, rhs):
        solves.append(1)
        return solve(ctx, rhs)

    lo._solve_elliptic = counted
    try:
        with tempfile.TemporaryDirectory() as tmp:
            pool = workloads.Field2d(1, Path(tmp)).inputs()
        applications, transforms = {}, {}
        for n, (grounds, trials) in pool.items():
            workloads.field_battery(*grounds[0], trials)
            counts.clear()
            solves.clear()
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            with _counting_transforms(counts, running):
                for u, b in grounds[:backgrounds]:
                    workloads.field_battery(u, b, trials)
            faults[str(n)] = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / backgrounds
            applications[str(n)] = _per_solve(counts, len(solves))
            transforms[str(n)] = _per_solve(counts, len(solves), column=2)
    finally:
        lo._solve_elliptic = solve
    return applications, transforms, faults


def _load(src: str, name: str):
    """The ``linearized_ops`` of the ``dhym`` package in ``src``, imported
    as the package ``name``, so that versions share one process."""
    init = Path(src, "dhym", "__init__.py")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.linearized_ops")


def worker(srcs: list) -> None:
    """One round for the packages in ``srcs``, each under a name of its own;
    prints the samples of each, in the order of ``srcs``, as JSON."""
    sys.path[:0] = [srcs[0], str(ROOT / "perfbench")]
    import workloads

    versions = []
    for i, src in enumerate(srcs):
        lo = _load(src, f"dhym_v{i}")
        versions.append((lo, *_count_applications(lo)))
    sizes = [bench_size(versions, workloads, n) for n in SIZES]
    print(json.dumps([{"sizes": [rows[j] for rows in sizes]} for j in range(len(srcs))]))


def field2d_worker(src: str) -> None:
    """The field-2d records of the package in ``src``, imported as ``dhym``
    as the battery imports it; prints them as JSON."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    import workloads
    from dhym import linearized_ops as lo

    field2d = field2d_applications(lo, workloads, *_count_applications(lo))
    print(json.dumps(dict(zip(("field2d_applications", "field2d_fft_calls", "field2d_minor_faults"), field2d))))


def _record(rounds: list, field2d: dict) -> dict:
    sizes = []
    for rows in zip(*(r["sizes"] for r in rounds)):
        times = [t for row in rows for t in row["times"]]
        q1, q2, q3 = np.percentile(times, [25, 50, 75])
        sizes.append({
            "n": rows[0]["n"],
            "stack": rows[0]["stack"],
            "samples": len(times),
            "wall_s": {"p25": q1, "p50": q2, "p75": q3},
            "operator_applications": _mean_per_grid(rows[0]["applications"]),
            "fft_calls": _mean_per_grid(rows[0]["transforms"]),
            "residual_sup_rel": max(row["residual"] for row in rows),
        })
    return {"sizes": sizes, **field2d}


def _time_per_rhs(rounds: list) -> list:
    """Per size, the median wall time of each round over its stack K."""
    by_size = zip(*(r["sizes"] for r in rounds))
    return [[float(np.median(row["times"])) / row["stack"] for row in rows] for rows in by_size]


def add_time_ratios(records: dict, rounds: dict) -> None:
    """``time_ratio`` on each size of every label after the first: the
    median over rounds of its time per right-hand side over the first
    label's in the same round."""
    reference, *others = rounds
    for label in others:
        pairs = zip(records[label]["sizes"], _time_per_rhs(rounds[label]), _time_per_rhs(rounds[reference]))
        for row, mine, theirs in pairs:
            ratios = [a / b for a, b in zip(mine, theirs)]
            row["time_ratio"] = {"vs": reference, "p50": float(np.median(ratios)), "rounds": ratios}


def source_dirs(sources: list) -> dict:
    """``{label: directory}`` from ``LABEL=DIR`` arguments; ``change=src`` if none."""
    pairs = (s.split("=", 1) for s in sources or [f"change={ROOT / 'src'}"])
    return {label: str(Path(src).resolve()) for label, src in pairs}


def alternate(sources: dict, rounds: int, run) -> dict:
    """``run(directory, i)`` for every label's directory in each round i,
    the order of the labels reversed every other round; results by label."""
    results = {label: [] for label in sources}
    for i in range(rounds):
        for label in list(sources)[:: 1 if i % 2 == 0 else -1]:
            results[label].append(run(sources[label], i))
    return results


def machine() -> str:
    return f"{platform.machine()}, {len(os.sched_getaffinity(0))} cores, numpy {np.__version__}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sources", nargs="*", metavar="LABEL=DIR", help="directories holding a dhym package")
    parser.add_argument("--worker", nargs="+", metavar="DIR", help=argparse.SUPPRESS)
    parser.add_argument("--field2d", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker)
    if args.field2d:
        return field2d_worker(args.field2d)

    def run(*flags):
        out = subprocess.run([sys.executable, __file__, *flags], cwd=ROOT, capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    sources = source_dirs(args.sources)
    field2d = {label: run("--field2d", src) for label, src in sources.items()}
    rounds = {label: [] for label in sources}
    for i in range(ROUNDS):
        order = list(sources)[:: 1 if i % 2 == 0 else -1]
        for label, samples in zip(order, run("--worker", *(sources[label] for label in order))):
            rounds[label].append(samples)
    doc = {
        "benchmark": "linearized_ops._solve_elliptic",
        "machine": machine(),
        "rounds": ROUNDS,
        "records": {label: _record(r, field2d[label]) for label, r in rounds.items()},
    }
    add_time_ratios(doc["records"], rounds)
    (ROOT / "BENCH_elliptic.json").write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    for label, record in doc["records"].items():
        print(label, "field-2d applications per solve:", record["field2d_applications"])
        print(label, "field-2d fft calls in CG per solve:", record["field2d_fft_calls"])
        print(label, "field-2d minor page faults per battery:", record["field2d_minor_faults"])
        for row in record["sizes"]:
            ms = {q: 1e3 * t for q, t in row["wall_s"].items()}
            apps = " + ".join(f"{a:.2f}@{m}" for m, a in row["operator_applications"].items())
            ffts = " + ".join(f"{a:.1f}@{m}" for m, a in row["fft_calls"].items())
            print(
                f"  N={row['n']:4d} K={row['stack']:2d}  {ms['p50']:8.2f} ms [{ms['p25']:.2f}, {ms['p75']:.2f}]"
                f"  applications {apps}  fft calls {ffts}"
                f"  residual {row['residual_sup_rel']:.1e}"
                + (f"  time/rhs x{row['time_ratio']['p50']:.3f}" if "time_ratio" in row else "")
            )


if __name__ == "__main__":
    main()
