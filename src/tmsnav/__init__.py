"""Deterministic planning and validation toolkit for robotic TMS neuronavigation.

Each public name resolves on first use (PEP 562): the first lookup of
`tmsnav.load_stl` imports `tmsnav.mesh` and binds the name here, where later
lookups find it. So `import tmsnav` loads no submodule, and a process pays
only for the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name, by the module that defines it
_EXPORTS = {
    "transforms": ("RigidTransform", "compose", "invert", "rotation_about_axis",
                   "rotation_angle"),
    "mesh": ("TriangleMesh", "SurfaceHit", "closest_point", "closest_point_batch",
             "ray_intersect", "load_stl", "save_stl"),
    "pose_plan": ("ConstraintKind", "Strategy", "PoseConstraintInput", "PlanPose",
                  "HotspotGrid", "pose_from_constraint", "free_skin_pose",
                  "restricted_cortex_pose", "closest_skin_pose", "hotspot_grid",
                  "select_hotspot"),
    "registration": ("LandmarkSet", "RegistrationResult", "IcpConfig", "pairpoint_register",
                     "icp_refine"),
    "kinematics": ("FrameGraph", "GraphEdge", "PoseError", "chain",
                   "solve_commanded_end_effector", "pose_error"),
    "fieldsim": ("CoilModel", "SensorModel", "SensorKind", "PulseTrain", "b_field",
                 "peak_to_peak_voltages", "displacement_sweep"),
    "session": ("ActuationModel", "SessionRecord", "run_alignment_trials",
                "run_holding_session", "summarize"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups, and scans of vars(tmsnav), find it here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
