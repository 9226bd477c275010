"""Benchmark driver for the dhym package.

Run from the repository root::

    python3 perfbench/run.py --workload field-2d --seed 1 --seconds 30 --trace 0

Workloads: field-2d and cli-cold (BENCHMARK.json), and ode-sweep, which is
runnable but not in BENCHMARK.json (see workloads.py).  The package is
imported from ``src/`` of the checkout the script sits in; no installed copy
is used.  One process runs one workload as a closed loop with a single
client: the next op starts when the previous one has ended, and no op starts
after ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the ``end_to_end`` list of BENCHMARK.json; with ``--trace 1``
every public function of the layer modules is wrapped (tracing.py) and the
metrics are the ``per_layer`` list.  Lines before it repeat every metric with
its unit, plus the ones BENCHMARK.json cannot bound (``op_s_tail``, which
needs 11 ops, and ``fail_frac``, which is 0 on some workloads).  The same
record, with the machine description, goes to ``.perfbench/``, and a traced
run also writes its spans there.

``--ops N`` runs exactly N ops whatever the time (used by the smoke test).
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_PROBES = 4  # extra fresh-process set-ups; setup_s is the median of 1 + this
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _set_threads() -> None:
    """One BLAS / OpenMP thread unless the caller chose a count (capped at
    the cores available).  On a small shared machine, multi-threaded BLAS
    made the same op vary twofold from run to run."""
    for var in THREAD_VARS:
        value = os.environ.get(var)
        if value is None or not value.isdigit() or int(value) < 1:
            os.environ[var] = "1"
        elif int(value) > _nproc():
            os.environ[var] = str(_nproc())


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
        "machine": platform.machine(),
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def tail(durations: list[float]):
    """Highest percentile leaving >= 10 ops beyond it: (seconds, percentile)."""
    n = len(durations)
    if n < 11:
        return None
    return sorted(durations)[n - 11], 100.0 * (n - 10) / n


def _probe_setups(workload: str, seed: int, count: int) -> list[float]:
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
             "--seconds", "0", "--trace", "0", "--setup-probe"],
            capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def _run_op(fn):
    """(failure reason or None, incorrect?, internal error?) of one op."""
    from dhym.errors import DhymError

    try:
        checks = fn()
    except DhymError as exc:
        return type(exc).__name__, False, False
    except Exception as exc:  # the CLI's exit-5 path: an error the package did not anticipate
        print(f"# internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return f"internal:{type(exc).__name__}", True, True
    failed = [name for name, (ok, _) in checks.items() if not ok]
    incorrect = any(not ok and claim for ok, claim in checks.values())
    return (f"check:{failed[0]}" if failed else None), incorrect, False


def run(workload: str, seed: int, seconds: float, trace: bool, ops: int | None = None,
        setup_probe: bool = False) -> dict:
    """Set up, run the timed loop and return the full record."""
    from workloads import WORKLOADS

    import dhym

    if Path(dhym.__file__).resolve().parent != SRC / "dhym":
        raise RuntimeError(f"dhym imported from {dhym.__file__}, not from {SRC}")
    workdir = OUT / f"work-{os.getpid()}"
    wl = WORKLOADS[workload](seed, workdir, trace)
    tracer = None
    try:
        wl.setup()
        setup_own = time.perf_counter() - _T0
        if setup_probe:
            return {"setup_s": setup_own}
        setups = [setup_own] + _probe_setups(workload, seed, SETUP_PROBES)
        if trace:
            from tracing import Tracer

            tracer = Tracer().install()
            wl.note_max = tracer.note_max
        durations, reasons = [], Counter()
        incorrect = internal = 0
        start = time.perf_counter()
        i = 0
        while (i == 0 or time.perf_counter() - start < seconds) if ops is None else (i < ops):
            fn = wl.op(i)
            if tracer is not None:
                tracer.op_id = i
            t0 = time.perf_counter()
            reason, bad, crashed = _run_op(fn)
            durations.append(time.perf_counter() - t0)
            if reason is not None:
                reasons[reason] += 1
            incorrect += bad
            internal += crashed
            i += 1
        wall = time.perf_counter() - start
        record = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "attempted": len(durations),
            "failed": sum(reasons.values()),
            "fail_reasons": dict(reasons),
            "internal_errors": internal,
            "correct": incorrect == 0 and internal == 0,
            "wall_s": wall,
            "setup_samples_s": setups,
            "durations_s": durations,
        }
        e2e = {
            "ops_per_s": len(durations) / wall,
            "op_s_p50": statistics.median(durations),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": wl.peak_rss_mb(),
        }
        record["end_to_end"] = e2e
        t = tail(durations)
        record["op_s_tail"] = None if t is None else {"value": t[0], "percentile": t[1], "ops": len(durations)}
        record["fail_frac"] = record["failed"] / len(durations)
        if tracer is not None:
            layers = tracer.layer_metrics()
            layers.update(wl.startup_costs())
            layers["traced.ops_per_s"] = e2e["ops_per_s"]
            layers["traced.op_s_p50"] = e2e["op_s_p50"]
            record["per_layer"] = layers
            record["spans"] = tracer.span_count
            tracer.write_spans(OUT / f"spans-{workload}.npz")
        return record
    finally:
        if tracer is not None:
            tracer.uninstall()
        wl.close()


def _print(record: dict, spec: dict) -> dict:
    """Human-readable lines, then the metrics object for the final JSON line."""
    key = "per_layer" if record["trace"] else "end_to_end"
    values = record[key]
    metrics = {}
    for entry in spec[key]:
        name = entry["name"]
        if name not in values:
            raise RuntimeError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"# {name} = {values[name]:.6g} {entry['unit']}")
    if record["trace"]:
        idle = [m["name"] for m in spec[key] if values[m["name"]] == 0]
        if idle:
            print(f"# not exercised or not measured on this workload, reported as 0: {', '.join(idle)}")
    else:
        t = record["op_s_tail"]
        if t is None:
            print(f"# op_s_tail absent: {record['attempted']} ops, fewer than the 11 a tail needs")
        else:
            print(f"# op_s_tail = {t['value']:.6g} s (p{t['percentile']:.1f} of {t['ops']} ops)")
    print(f"# fail_frac = {record['fail_frac']:.6g} ratio ({record['failed']} of {record['attempted']}; "
          f"{record['fail_reasons']}; internal errors {record['internal_errors']})")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["ode-sweep", "field-2d", "cli-cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--ops", type=int, default=None, help="run exactly this many ops")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "dhym" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no dhym sources under {SRC} or no BENCHMARK.json", file=sys.stderr)
        return 2
    _set_threads()
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), args.ops, setup_probe=args.setup_probe)
    if args.setup_probe:
        print(json.dumps(record))
        return 0
    spec = benchmark_spec()
    record["environment"] = environment()
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: {record['attempted']} ops in "
          f"{record['wall_s']:.2f} s; environment {json.dumps(record['environment'])}")
    metrics = _print(record, spec)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
