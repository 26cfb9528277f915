"""In-memory span tracing of pseudohyp's layers, installed from outside.

The library binds names with `from .x import f`, so a call made inside
`verify` goes through `pseudohyp.verify.point_at`, not
`pseudohyp.geometry.point_at`. `Tracer.install` therefore replaces every
binding of a traced function, in every pseudohyp module, with one wrapper
that records a span (name, start, end, parent) into flat arrays. Nothing
under src/ is changed; `uninstall` puts the original bindings back.

Self time of a span is its duration minus the durations of its direct
children. Spans of functions that are not traced count toward the traced
caller's self time.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# The public functions timed per layer, by defining module.
TRACED = {
    "cli": ("main", "write_csv", "write_json"),
    "geometry": ("inner_product", "point_at", "velocity_at"),
    "ode": ("integrate", "closed_form_trajectory", "convergence_order", "max_deviation"),
    "bundle": ("curve_lift", "curve_derivative"),
    "transform": ("apply", "isometry_defect", "boost", "block_rotation"),
    "verify": ("run_cell_checks",),
}

# Work units per call, where a call is not the natural unit: integrator steps
# and closed-form samples, both read from the IntegratorConfig argument.
_UNITS = {
    "ode.integrate": lambda cfg, *rest: cfg.steps,
    "ode.closed_form_trajectory": lambda cfg: cfg.steps + 1,
}

_MODULES = ("pseudohyp",) + tuple(f"pseudohyp.{layer}" for layer in TRACED)


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        unit_of = _UNITS.get(name)
        name_id, parent, start, end, units, stack = (
            self.name_id, self.parent, self.start, self.end, self.units, self._stack)

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            units.append(unit_of(*args, **kwargs) if unit_of else 1.0)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in _MODULES]
        for layer, fns in TRACED.items():
            home = importlib.import_module(f"pseudohyp.{layer}")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{layer}.{fn_name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-name calls, units, inclusive and self seconds of spans [lo, hi).

        Every parent of a span in the range must lie in the range too, which
        holds when the range covers whole top-level calls.
        """
        k = len(self.names)
        # slicing an array.array copies it, so no numpy view pins the buffers
        ids = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        par = np.frombuffer(self.parent[lo:hi], dtype=np.int32)
        dur = (np.frombuffer(self.end[lo:hi], dtype=np.float64)
               - np.frombuffer(self.start[lo:hi], dtype=np.float64))
        units = np.frombuffer(self.units[lo:hi], dtype=np.float64)
        has_parent = par >= 0
        child = np.bincount(par[has_parent] - lo, weights=dur[has_parent], minlength=hi - lo)
        own = dur - child
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        self_s = np.bincount(ids, weights=own, minlength=k)
        unit_sum = np.bincount(ids, weights=units, minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "units": float(unit_sum[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every recorded span to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            units=np.frombuffer(self.units, dtype=np.float64),
        )
