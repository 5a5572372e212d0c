"""Coil pose planning on curved surfaces.

A full 6-DOF pose is extracted from dropped points: three points fix a
plane whose unit normal becomes the z-axis, a tail point fixes the
heading, and the frame is completed right-handed. The two/three/four
point constraint variants differ only in which points the caller
supplies. On top of that sit the three planning strategies (skin-only,
cortex-oriented, skin-projected) and hotspot-grid generation. Only a
two-point constraint reads the mesh it is placed on; others may pass None.

The derivation is fully deterministic: identical inputs give bitwise
identical poses. Face normals come from the mesh's normal table, and every
dot and norm that shapes a pose is a fixed-order sum, so no BLAS kernel
picks a pose's rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateConstraint,
    DegenerateTail,
    GridEscapedSurface,
    NoSkinIntersection,
    TargetOffSurface,
    ValidationError,
)
from .fileio import Vec3
from .mesh import (
    DEGENERATE_AREA_MM2,
    TriangleMesh,
    closest_point,
    closest_point_batch,
    contains_point,
    ray_intersect,
)
from .transforms import RigidTransform, as_vec3

DEGENERATE_CROSS_MM2 = 2.0 * DEGENERATE_AREA_MM2  # |cross| is twice the triangle's area
TAIL_PROJECTION_MIN_MM = 1e-9
SURFACE_BOUND_MM = 50.0  # a two-point center farther than this from its mesh raises

# Footprint half-extents (x, y) of a flat figure-8 coil, used only for
# the secant-plane collision warning of the cortex-oriented strategy.
DEFAULT_FOOTPRINT_HALF_EXTENTS_MM = (70.0, 35.0)


class ConstraintKind(str, Enum):
    FOUR_POINT = "four_point"
    THREE_POINT = "three_point"
    TWO_POINT = "two_point"


class Strategy(str, Enum):
    FREE_SKIN = "free_skin"
    RESTRICTED_CORTEX = "restricted_cortex"
    CLOSEST_SKIN = "closest_skin"


@dataclass(frozen=True)
class PoseConstraintInput:
    kind: ConstraintKind = field(metadata={"json": "constraint_kind"})
    center: Vec3  # pc, mm
    plane_points: tuple[Vec3, Vec3, Vec3] | None = None  # (p, p1, p2)
    tail_point: Vec3 | None = None  # explicit pt (two-point only)
    tail_selector: str | None = None  # "p1" | "p2" (four/three-point)

    def __post_init__(self):
        two = self.kind is ConstraintKind.TWO_POINT
        if self.tail_point is None if two else (
                self.plane_points is None or self.tail_selector not in ("p1", "p2")):
            need = "tail_point" if two else "plane_points and a tail_selector of p1 or p2"
            raise ValueError(f"a {self.kind.value} constraint needs {need}")
        unused = ("plane_points", "tail_selector") if two else ("tail_point",)
        for key in unused:  # a value the pose would silently ignore
            if getattr(self, key) is not None:
                raise ValueError(f"a {self.kind.value} constraint takes no {key}; set it to null")
        object.__setattr__(self, "center", as_vec3(self.center))
        if self.plane_points is not None:
            object.__setattr__(self, "plane_points", tuple(map(as_vec3, self.plane_points)))
        if self.tail_point is not None:
            object.__setattr__(self, "tail_point", as_vec3(self.tail_point))
        if two and np.array_equal(self.center, self.tail_point):
            raise DegenerateTail("tail point coincides with the center point")

    @classmethod
    def four_point(cls, center, p, p1, p2, tail: str = "p1") -> "PoseConstraintInput":
        """Center point plus a full plane triple; tail picked from p1/p2."""
        return cls(ConstraintKind.FOUR_POINT, center, (p, p1, p2), None, tail)

    @classmethod
    def three_point(cls, p, p1, p2, center: str = "p", tail: str = "p1") -> "PoseConstraintInput":
        """Plane triple only; one of the three points doubles as the center."""
        if center not in ("p", "p1", "p2"):
            raise ValueError("center must be one of 'p', 'p1', 'p2'")
        points = {"p": p, "p1": p1, "p2": p2}
        return cls(ConstraintKind.THREE_POINT, points[center], (p, p1, p2), None, tail)

    @classmethod
    def two_point(cls, center, tail_point) -> "PoseConstraintInput":
        """Center and tail only; the containing mesh triangle fixes the plane."""
        return cls(ConstraintKind.TWO_POINT, center, None, tail_point, None)


@dataclass(frozen=True)
class PlanPose:
    # {head-image -> plan} for head plans; stored as "rotation" and "translation"
    pose: RigidTransform = field(metadata={"json": ("rotation", "translation")})
    strategy: Strategy
    source: PoseConstraintInput
    cortex_target: Vec3 | None = None
    skin_collision_warning: bool = False

    def __post_init__(self):
        if self.cortex_target is not None:
            object.__setattr__(self, "cortex_target", as_vec3(self.cortex_target))


@dataclass(frozen=True)
class HotspotGrid:
    poses: tuple[PlanPose, ...]
    rows: int
    cols: int
    spacing: float = field(metadata={"json": "spacing_mm"})

    def __len__(self) -> int:
        return len(self.poses)


def _frame_from_normal_and_tail(n: np.ndarray, y_raw: np.ndarray) -> np.ndarray:
    """Rotation with columns (x, y, n): tail projected into the tangent plane.

    n and y_raw are (3,) or broadcast (P, 3) rows, giving (3, 3) or (P, 3, 3); dots and
    norms are fixed-order row sums, so no BLAS kernel picks their rounding.
    """
    y_perp = y_raw - (y_raw * n).sum(-1, keepdims=True) * n
    norm = np.sqrt((y_perp * y_perp).sum(-1, keepdims=True))
    if (norm < TAIL_PROJECTION_MIN_MM).any():
        raise DegenerateTail("tail direction is parallel to the surface normal")
    y = y_perp / norm
    x = np.cross(y, n)
    return np.stack([x, y, n], axis=-1)


def _plane_normal(p: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    c = np.cross(p1 - p, p2 - p)
    norm = np.sqrt((c * c).sum())
    if norm <= DEGENERATE_CROSS_MM2:
        raise DegenerateConstraint("plane points are collinear")
    return c / norm


def pose_from_constraint(
    constraint: PoseConstraintInput,
    mesh: TriangleMesh | None = None,
) -> PlanPose:
    """Extract a full pose from a point constraint.

    Four/three-point variants use the supplied plane triple directly; the
    two-point variant looks up the mesh triangle containing (closest to)
    the center and uses its vertices, with the center re-projected onto
    that triangle's plane.
    """
    if constraint.kind is ConstraintKind.TWO_POINT:
        if mesh is None:
            raise ValidationError("a two-point constraint needs the mesh it is placed on: "
                                  "the skin for free-skin, the cortex for the cortex strategies")
        hit = closest_point(mesh, constraint.center)
        if np.linalg.norm(constraint.center - hit.point) > SURFACE_BOUND_MM:
            raise TargetOffSurface(
                f"center is {np.linalg.norm(constraint.center - hit.point):.1f} mm "
                f"from the mesh (bound {SURFACE_BOUND_MM} mm)"
            )
        n = mesh.normals[hit.triangle_id]
        y_raw = constraint.tail_point - constraint.center
        v0 = mesh.vertices[mesh.triangles[hit.triangle_id][0]]
        center = constraint.center - ((constraint.center - v0) * n).sum() * n
    else:
        p, p1, p2 = constraint.plane_points
        n = _plane_normal(p, p1, p2)
        pt = p1 if constraint.tail_selector == "p1" else p2
        y_raw = pt - p
        center = constraint.center
    rotation = _frame_from_normal_and_tail(n, y_raw)
    return PlanPose(RigidTransform(rotation, center), Strategy.FREE_SKIN, constraint)


def free_skin_pose(
    skin: TriangleMesh | None,
    constraint: PoseConstraintInput,
) -> PlanPose:
    """Skin-only plan: perpendicular to the scalp, no cortex geometry."""
    return pose_from_constraint(constraint, skin)


def restricted_cortex_pose(
    cortex: TriangleMesh | None,
    skin: TriangleMesh,
    cortex_constraint: PoseConstraintInput,
) -> PlanPose:
    """Cortex-tangential plan projected outward onto the skin.

    The orientation stays tangential to the cortex even when that plane
    cuts the skin; a collision warning is set when any footprint corner
    ends up inside the skin surface (`mesh.contains_point`).
    """
    cortex_pose = pose_from_constraint(cortex_constraint, cortex)
    n = cortex_pose.pose.rotation[:, 2]
    hit = ray_intersect(skin, cortex_pose.pose.translation, n)
    if hit is None:
        raise NoSkinIntersection("outward ray from the cortex pose misses the skin")
    pose = RigidTransform(cortex_pose.pose.rotation, hit.point)
    hx, hy = DEFAULT_FOOTPRINT_HALF_EXTENTS_MM
    corners = pose.apply(
        np.array([[hx, hy, 0.0], [hx, -hy, 0.0], [-hx, hy, 0.0], [-hx, -hy, 0.0]])
    )
    warning = any(contains_point(skin, c) for c in corners)
    return PlanPose(
        pose,
        Strategy.RESTRICTED_CORTEX,
        cortex_constraint,
        cortex_target=cortex_pose.pose.translation,
        skin_collision_warning=warning,
    )


def closest_skin_pose(
    cortex: TriangleMesh | None,
    skin: TriangleMesh,
    cortex_constraint: PoseConstraintInput,
) -> PlanPose:
    """Skin-tangential plan at the skin point nearest the cortex target."""
    cortex_pose = pose_from_constraint(cortex_constraint, cortex)
    hit = closest_point(skin, cortex_pose.pose.translation)
    rotation = _frame_from_normal_and_tail(skin.normals[hit.triangle_id],
                                           cortex_pose.pose.rotation[:, 1])
    return PlanPose(
        RigidTransform(rotation, hit.point),
        Strategy.CLOSEST_SKIN,
        cortex_constraint,
        cortex_target=cortex_pose.pose.translation,
    )


def hotspot_grid(
    skin: TriangleMesh,
    seed_pose: PlanPose,
    rows: int,
    cols: int,
    spacing: float,
) -> HotspotGrid:
    """Row-major lattice of candidate poses around a seed, re-projected
    onto the skin and re-oriented by the local triangle; the seed sits at
    the lattice center."""
    if rows < 1 or cols < 1:
        raise ValidationError("rows and cols must be >= 1")
    if not 0.0 < spacing < np.inf:
        raise ValidationError("spacing must be positive and finite")
    if rows == 1 and cols == 1:
        return HotspotGrid((seed_pose,), 1, 1, spacing)
    x_axis = seed_pose.pose.rotation[:, 0]
    y_axis = seed_pose.pose.rotation[:, 1]
    origin = seed_pose.pose.translation
    r, c = np.divmod(np.arange(rows * cols), cols)  # row-major
    du = (c - (cols - 1) / 2.0) * spacing
    dv = (r - (rows - 1) / 2.0) * spacing
    lattice = origin + du[:, None] * x_axis + dv[:, None] * y_axis
    points, tri_ids = closest_point_batch(skin, lattice)
    gaps = np.linalg.norm(points - lattice, axis=1)
    escaped = np.flatnonzero(gaps > 2.0 * spacing)
    n = escaped[0] if escaped.size else len(lattice)
    # as pose by pose: a degenerate tail before the first escaped point raises first
    rotations = _frame_from_normal_and_tail(skin.normals[tri_ids[:n]], y_axis)
    if escaped.size:
        raise GridEscapedSurface(f"lattice point ({r[n]},{c[n]}) projected {gaps[n]:.1f} mm away")
    poses = tuple(PlanPose(RigidTransform(rotation, point), seed_pose.strategy,
                           PoseConstraintInput.two_point(q, q + y_axis))
                  for rotation, point, q in zip(rotations, points, lattice))
    return HotspotGrid(poses, rows, cols, spacing)


def select_hotspot(grid: HotspotGrid, responses) -> tuple[int, PlanPose]:
    """Highest-responding grid pose; ties go to the lowest index."""
    r = np.asarray(responses, dtype=float).reshape(-1)
    if len(r) != len(grid):
        raise ValidationError(f"got {len(r)} responses for a {len(grid)}-pose grid")
    if not np.isfinite(r).all():
        raise ValidationError(f"responses must be finite, got {r.tolist()}")
    idx = int(np.argmax(r))
    return idx, grid.poses[idx]
