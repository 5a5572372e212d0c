"""Benchmark-side spans around the program's public functions.

`Tracer.install()` replaces each listed function wherever a tmsnav
module binds it (found by identity in `sys.modules`), so from-imports
such as `config.load_stl` or `registration.closest_point_batch` are
caught as well. Spans live in memory with parent links; self time is a
span's duration minus that of its direct children. `uninstall()` puts
the originals back, so untraced rounds run the program unwrapped.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import weakref

import numpy as np

TRACED = {
    "mesh": ("load_stl", "closest_point", "closest_point_batch", "ray_intersect",
             "contains_point"),
    "pose_plan": ("free_skin_pose", "restricted_cortex_pose", "closest_skin_pose",
                  "hotspot_grid"),
    "kinematics": ("solve_commanded_end_effector",),
    "config": ("load_config",),
    "cli": ("main",),
    "registration": ("pairpoint_register", "icp_refine"),
    "fieldsim": ("b_field", "flux_coefficient", "induced_voltage", "displacement_sweep"),
    "session": ("run_holding_session", "run_alignment_trials"),
    "fileio": ("write_json", "write_csv"),
}
# mesh queries whose first call on a fresh mesh is reported as mesh.first_query,
# because that call also pays the lazy spatial-index build
QUERIES = {"closest_point", "closest_point_batch", "ray_intersect", "contains_point"}


def _counters(layer: str, arg: dict, result) -> dict:
    """Work counts of one call, read from its named arguments and result."""
    if layer == "mesh.load_stl":
        return {"triangles": len(result)}
    if layer == "mesh.closest_point_batch":
        return {"points": len(arg["queries"])}
    if layer == "registration.icp_refine":
        return {"iterations": result.iterations, "converged": int(result.converged)}
    if layer == "fieldsim.b_field":
        coil = arg["coil"]
        n_points = np.asarray(arg["points"]).reshape(-1, 3).shape[0]
        # computed from sizes: every quadrature node against every wire segment
        n_segments = len(coil.wing_senses) * coil.segments_per_loop
        return {"points": n_points, "node_segment_evals": n_points * n_segments}
    if layer == "session.run_holding_session":
        return {"trains": arg["train"].trains}
    if layer.startswith("fileio."):
        return {"bytes": os.path.getsize(arg["path"])}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, start_ns, end_ns, counters]
        self._stack: list[int] = []
        self._queried = weakref.WeakSet()
        self._patched: list[tuple] = []

    def _wrap(self, module: str, name: str, fn):
        layer = f"{module}.{name}"
        is_query = module == "mesh" and name in QUERIES
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            arg = signature.bind(*args, **kwargs).arguments
            span_name = layer
            if is_query and arg["mesh"] not in self._queried:
                self._queried.add(arg["mesh"])
                span_name = "mesh.first_query"
            index = len(self.spans)
            span = [span_name, self._stack[-1] if self._stack else -1,
                    time.perf_counter_ns(), 0, None]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter_ns()
                self._stack.pop()
            span[4] = _counters(span_name, arg, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "tmsnav" or n.startswith("tmsnav."))]
        for module, names in TRACED.items():
            owner = sys.modules.get(f"tmsnav.{module}")
            for name in names:
                original = getattr(owner, name, None)
                if original is None:  # gone from the program: the layer reports zero
                    continue
                wrapper = self._wrap(module, name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()


def layer_totals(spans: list, start: int = 0, stop: int | None = None) -> dict:
    """Per-layer calls, self seconds and summed counters of spans[start:stop].

    The range must hold whole commands (cli.main spans with all their
    descendants), so every parent link inside it points inside it.
    """
    stop = len(spans) if stop is None else stop
    child_ns = {}
    for name, parent, t0, t1, _ in spans[start:stop]:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + t1 - t0
    totals: dict[str, dict] = {}
    for i in range(start, stop):
        name, _, t0, t1, counters = spans[i]
        row = totals.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (t1 - t0 - child_ns.get(i, 0)) * 1e-9
        for key, value in (counters or {}).items():
            row[key] = row.get(key, 0) + value
    return totals
