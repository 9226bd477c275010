"""Run every workload untraced and traced for one seed and print all metrics.

Run from the repository root::

    python3 perfbench/report.py --seed 1 [--seconds 30] [--workload cli-cold ...]

By default it runs the workloads of BENCHMARK.json; ``--workload ode-sweep``
adds the sweep, which is not gated.

Prints each end-to-end metric (including ``op_s_tail`` and ``fail_frac``,
which BENCHMARK.json cannot bound) and each per-layer metric by name with its
unit, then the tracing overhead: the traced run's ``ops_per_s`` and
``op_s_p50`` against the untraced run's (not for cli-cold, whose traced run
is in-process).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line.lstrip('# ')}")
    return json.loads(lines[-1])["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]] + ["ode-sweep"])
    args = parser.parse_args(argv)
    for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
        print(f"== {workload}, seed {args.seed}, untraced")
        plain = run(workload, args.seed, args.seconds, 0)
        print(f"== {workload}, seed {args.seed}, traced")
        traced = run(workload, args.seed, args.seconds, 1)
        if workload == "cli-cold":
            print("  no tracing overhead for cli-cold: its traced run calls main in-process, "
                  "so it also leaves out interpreter start and import")
            continue
        for name in ("ops_per_s", "op_s_p50"):
            base, with_trace = plain[name]["value"], traced[f"traced.{name}"]["value"]
            print(f"  tracing overhead on {name}: {with_trace - base:+.6g} {plain[name]['unit']} "
                  f"({100.0 * (with_trace - base) / base:+.1f} %)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
