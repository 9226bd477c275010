"""Span tracing of the dhym layers, installed from outside the package.

``Tracer.install`` wraps every public module-level function of the layer
modules (plus a few methods and the private elliptic solve that the
per-layer metrics name) and rebinds each wrapper wherever a dhym module looks
the original up, e.g. both ``dhym.spectral.trig_interpolate`` and
``dhym.legendre.trig_interpolate``.  Nothing under ``src/`` is edited.

Spans (name, start, end, parent, op id) are kept in compact in-memory arrays
and written once, when the run ends.  Self time is a span's duration minus
the durations of its direct children, accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "spectral",
    "legendre",
    "ode_solver",
    "radius_limits",
    "core_geometry",
    "kym_ndim",
    "linearized_ops",
    "cli",
)

# (layer, class name, method) wrapped in addition to the public functions
METHODS = (
    ("legendre", "MonotoneMap", "inverse"),
    ("ode_solver", "LinearizedOde", "solve"),
    ("linearized_ops", "LinearizedContext", "laplacian"),
)
PRIVATE = (("linearized_ops", "_solve_elliptic"),)

# Bytes of the dense barycentric temporaries of trig_interpolate per
# (point, node) pair: the float64 offset and weight matrices and the bool
# on-node mask.  Computed from array sizes, not measured.
_INTERP_BYTES_PER_PAIR = 8 + 8 + 1

# per-layer metric -> span names it aggregates
_SPAN_GROUPS = {
    "spectral.trig_interpolate": ["spectral.trig_interpolate"],
    "spectral.derivative": ["spectral.spectral_derivative"],
    "spectral.partial2": ["spectral.partial2"],
    "legendre.forward": ["legendre.legendre_forward"],
    "legendre.inverse": ["legendre.MonotoneMap.inverse"],
    "ode_solver.solve": ["ode_solver.solve"],
    "ode_solver.linearize": ["ode_solver.linearize"],
    "ode_solver.linear_solve": ["ode_solver.LinearizedOde.solve"],
    "ode_solver.residual": ["ode_solver.residual"],
    "radius_limits.study": ["radius_limits.limit_convergence_study"],
    "core_geometry.verify": [
        "core_geometry.pencil_eigenvalues",
        "core_geometry.dhym_residual_surface",
        "core_geometry.surface_ma_check",
        "core_geometry.surface_apriori_check",
    ],
    "kym_ndim.verify": [
        "kym_ndim.abreu_operator",
        "kym_ndim.abreu_operator_divergence_form",
        "kym_ndim.residual_complex",
        "kym_ndim.j_equation_residual",
        "kym_ndim.apriori_verify",
        "kym_ndim.det_bound_verify",
    ],
    "linearized_ops.context": ["linearized_ops.make_consistent_context"],
    "linearized_ops.laplacian": ["linearized_ops.LinearizedContext.laplacian"],
    "linearized_ops.elliptic": ["linearized_ops._solve_elliptic"],
    "linearized_ops.apply_L": ["linearized_ops.apply_L"],
}


def _dhym_modules():
    return [m for name, m in list(sys.modules.items()) if name == "dhym" or name.startswith("dhym.")]


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.op_id = -1
        self._ids: dict[str, int] = {}
        self._names: list[str] = []
        self._sp_name = array("i")
        self._sp_parent = array("i")
        self._sp_op = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds, hook payload]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def note_max(self, key: str, value: float) -> None:
        value = float(value)
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    def _wrap(self, name: str, fn, before=None, after=None):
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        nid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            payload = before(args, kwargs) if before is not None else None
            idx = len(self._sp_start)
            self._sp_name.append(nid)
            self._sp_parent.append(stack[-1][0] if stack else -1)
            self._sp_op.append(self.op_id)
            self._sp_end.append(0.0)
            frame = [idx, 0.0, payload]
            stack.append(frame)
            start = clock()
            self._sp_start.append(start)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._sp_end[idx] = end
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # -- hooks for counters that need arguments or results ---------------------

    def _interp_before(self, args, kwargs):
        samples = args[0] if args else kwargs["samples"]
        points = args[1] if len(args) > 1 else kwargs["points"]
        pairs = np.size(points) * np.shape(samples)[0]
        self.counts["spectral.trig_interpolate.bytes"] += _INTERP_BYTES_PER_PAIR * pairs
        # a map evaluation is an interpolation of d1 issued directly by
        # inverse, whose frame carries the map being inverted
        parent_map = self._stack[-1][2] if self._stack else None
        if parent_map is not None and samples is parent_map.d1:
            self.counts["legendre.inverse.map_evals"] += 1

    def _inverse_before(self, args, kwargs):
        points = args[1] if len(args) > 1 else kwargs["points"]
        self.counts["legendre.inverse.points"] += np.size(points)
        return args[0]

    def _solve_before(self, args, kwargs):
        study = self._ids.get("radius_limits.limit_convergence_study")
        if any(self._sp_name[frame[0]] == study for frame in self._stack):
            self.counts["radius_limits.study.solves"] += 1

    def _solve_after(self, args, kwargs, bundle):
        self.counts["ode_solver.accepted_iterations"] += sum(t[1] for t in bundle.continuation_trace)
        self.note_max("ode_solver.residual_sup.max", bundle.residual_sup)

    # -- installation ---------------------------------------------------------

    def _hooks(self, name):
        if name == "spectral.trig_interpolate":
            return self._interp_before, None
        if name == "legendre.MonotoneMap.inverse":
            return self._inverse_before, None
        if name == "ode_solver.solve":
            return self._solve_before, self._solve_after
        return None, None

    def install(self) -> "Tracer":
        mods = {layer: importlib.import_module(f"dhym.{layer}") for layer in LAYERS}
        originals = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                originals[fn] = f"{layer}.{attr}"
        for layer, attr in PRIVATE:
            originals[getattr(mods[layer], attr)] = f"{layer}.{attr}"
        wrappers = {}
        for fn, name in originals.items():
            before, after = self._hooks(name)
            wrappers[fn] = self._wrap(name, fn, before, after)
        for mod in _dhym_modules():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])
        for layer, cls_name, meth in METHODS:
            cls = getattr(mods[layer], cls_name)
            fn = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            before, after = self._hooks(name)
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(name, fn, before, after))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def group_time(self, metric: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in _SPAN_GROUPS[metric])

    def group_calls(self, metric: str) -> int:
        return sum(self.calls.get(n, 0) for n in _SPAN_GROUPS[metric])

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can give (BENCHMARK.json picks)."""
        v: dict[str, float] = {}
        for metric in _SPAN_GROUPS:
            v[f"{metric}.calls"] = self.group_calls(metric)
            v[f"{metric}.self_s"] = self.group_time(metric)
        c = self.counts
        for key in ("spectral.trig_interpolate.bytes", "legendre.inverse.points", "radius_limits.study.solves"):
            v[key] = c[key]
        inverses = v["legendre.inverse.calls"]
        v["legendre.inverse.iters"] = c["legendre.inverse.map_evals"] / inverses if inverses else 0.0
        linearized = v["ode_solver.linearize.calls"]
        v["ode_solver.newton_accept_ratio"] = c["ode_solver.accepted_iterations"] / linearized if linearized else 0.0
        for key in (
            "ode_solver.residual_sup.max",
            "core_geometry.lifted_residual.max",
            "kym_ndim.lifted_residual.max",
            "linearized_ops.selfadjoint_defect.max",
            "linearized_ops.rayleigh.max",
        ):
            v[key] = self.maxima.get(key, 0.0)
        # main's own time: argument parsing, schema validation, CSV and manifest I/O
        v["cli.main.self_s"] = self.self_s.get("cli.main", 0.0)
        v["cli.interp_s"] = v["cli.import_s"] = 0.0  # measured by cli-cold only
        return v

    def spans(self) -> dict[str, np.ndarray]:
        """Copies of the span columns (copies, so recording can continue)."""
        cols = {
            "name": (self._sp_name, np.int32),
            "parent": (self._sp_parent, np.int32),
            "op": (self._sp_op, np.int32),
            "start": (self._sp_start, np.float64),
            "end": (self._sp_end, np.float64),
        }
        return {k: np.frombuffer(buf, dtype=dt).copy() for k, (buf, dt) in cols.items()}

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self._names), **self.spans())

    @property
    def span_count(self) -> int:
        return len(self._sp_start)
