"""Deterministic planning and validation toolkit for robotic TMS neuronavigation."""

from .transforms import RigidTransform, compose, invert, rotation_about_axis, rotation_angle
from .mesh import (
    SurfaceHit,
    TriangleMesh,
    closest_point,
    closest_point_batch,
    load_stl,
    ray_intersect,
    save_stl,
)
from .pose_plan import (
    ConstraintKind,
    HotspotGrid,
    PlanPose,
    PoseConstraintInput,
    Strategy,
    closest_skin_pose,
    free_skin_pose,
    hotspot_grid,
    pose_from_constraint,
    restricted_cortex_pose,
    select_hotspot,
)
from .registration import (
    IcpConfig,
    LandmarkSet,
    RegistrationResult,
    icp_refine,
    pairpoint_register,
)
from .kinematics import (
    FrameGraph,
    GraphEdge,
    PoseError,
    chain,
    pose_error,
    solve_commanded_end_effector,
)
from .fieldsim import (
    CoilModel,
    PulseTrain,
    SensorKind,
    SensorModel,
    b_field,
    displacement_sweep,
    peak_to_peak_voltages,
)
from .session import (
    ActuationModel,
    SessionRecord,
    run_alignment_trials,
    run_holding_session,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "RigidTransform", "compose", "invert", "rotation_about_axis", "rotation_angle",
    "TriangleMesh", "SurfaceHit", "closest_point", "closest_point_batch",
    "ray_intersect", "load_stl", "save_stl",
    "ConstraintKind", "Strategy", "PoseConstraintInput", "PlanPose", "HotspotGrid",
    "pose_from_constraint", "free_skin_pose", "restricted_cortex_pose",
    "closest_skin_pose", "hotspot_grid", "select_hotspot",
    "LandmarkSet", "RegistrationResult", "IcpConfig",
    "pairpoint_register", "icp_refine",
    "FrameGraph", "GraphEdge", "PoseError", "chain",
    "solve_commanded_end_effector", "pose_error",
    "CoilModel", "SensorModel", "SensorKind", "PulseTrain",
    "b_field", "peak_to_peak_voltages", "displacement_sweep",
    "ActuationModel", "SessionRecord", "run_alignment_trials",
    "run_holding_session", "summarize",
    "__version__",
]
