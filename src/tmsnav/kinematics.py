"""The navigation frame graph and pose-alignment error metrics.

Eight frames participate: R (robot base), E (end-effector), C (coil
center), Cr (coil marker), O (optical tracker), H (head image), Hr (head
marker), and b (the planned coil pose). Seven directed edges connect
them; an edge {A->B} maps B-frame coordinates into A. Edges are stored
exactly as measured/calibrated; inverses are computed on demand, never
stored. A graph instance is an immutable snapshot. ``chain`` composes the
edges along the tree's unique path between two frames, and the commanded
end-effector solve is two such walks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingEdge, StaleSnapshot
from .pose_plan import PlanPose
from .transforms import RigidTransform, compose, invert, matmul3, rotation_angle

FRAMES = ("R", "E", "C", "Cr", "O", "H", "Hr", "b")

# the seven canonical directed edges and who produces them
CANONICAL_EDGES = {
    ("R", "E"): "sensor",
    ("O", "Cr"): "tracker",
    ("O", "Hr"): "tracker",
    ("E", "Cr"): "calibration",
    ("Cr", "C"): "calibration",
    ("Hr", "H"): "registration",
    ("H", "b"): "plan",
}

# the canonical edges as a tree rooted at R: each other frame's neighbour toward R
_TOWARD_R = {"E": "R", "Cr": "E", "C": "Cr", "O": "Cr", "Hr": "O", "H": "Hr", "b": "H"}

SNAPSHOT_SKEW_MS = 50.0  # tracked-edge timestamps spread wider than this raise

# flips the planned outward z into the coil's into-the-head z
# (180 degrees about the pose x-axis)
APPROACH_FLIP = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.zeros(3))


@dataclass(frozen=True)
class GraphEdge:
    transform: RigidTransform = field(metadata={"json": "matrix"})
    provenance: str = "unknown"
    timestamp_ms: float | None = None


class FrameGraph:
    """Immutable snapshot of frame-to-frame transforms."""

    def __init__(self, edges: dict[tuple[str, str], GraphEdge]):
        for pair, edge in edges.items():
            if pair not in CANONICAL_EDGES:
                raise ValueError(f"unknown frame-graph edge {{{pair[0]}->{pair[1]}}}")
            if not isinstance(edge, GraphEdge):
                raise TypeError("edges must be GraphEdge values")
        self._edges = dict(edges)

    @property
    def edges(self) -> dict[tuple[str, str], GraphEdge]:
        return dict(self._edges)

    def edge(self, frame_a: str, frame_b: str) -> RigidTransform:
        """Stored or inverted transform for one canonical edge."""
        if (frame_a, frame_b) in self._edges:
            return self._edges[(frame_a, frame_b)].transform
        if (frame_b, frame_a) in self._edges:
            return invert(self._edges[(frame_b, frame_a)].transform)
        key = (frame_a, frame_b) if (frame_a, frame_b) in CANONICAL_EDGES else (frame_b, frame_a)
        raise MissingEdge(*key)


@dataclass(frozen=True)
class GraphEdgeRow(GraphEdge):
    """One entry of a frame-graph document: an edge and the frame pair it joins."""
    frame_a: str = field(kw_only=True, metadata={"json": "from"})
    frame_b: str = field(kw_only=True, metadata={"json": "to"})

    def __post_init__(self):
        if (self.frame_a, self.frame_b) not in CANONICAL_EDGES:
            raise ValueError(f"unknown frame-graph edge {{{self.frame_a}->{self.frame_b}}}")


@dataclass(frozen=True)
class GraphDocument:
    """A frame-graph snapshot as stored in JSON: one row per stored edge."""
    edges: tuple[GraphEdgeRow, ...]

    def graph(self) -> FrameGraph:
        return FrameGraph({(row.frame_a, row.frame_b): row for row in self.edges})


def _topology_path(start: str, goal: str) -> list[str]:
    """Unique simple path between two frames: up from each to their nearest common ancestor."""
    if start not in FRAMES or goal not in FRAMES:
        raise ValueError(f"unknown frame in chain query: {start!r} or {goal!r}")
    up, down = [start], [goal]
    for path in (up, down):
        while path[-1] in _TOWARD_R:
            path.append(_TOWARD_R[path[-1]])
    common = next(f for f in up if f in down)
    return up[:up.index(common) + 1] + down[:down.index(common)][::-1]


def chain(graph: FrameGraph, from_frame: str, to_frame: str) -> RigidTransform:
    """Composition along the unique path from one frame to another.

    Returns {from->to}: the transform mapping to-frame coordinates into
    the from-frame. Raises MissingEdge naming the first absent edge.
    """
    path = _topology_path(from_frame, to_frame)
    total = RigidTransform.identity()
    for a, b in zip(path[:-1], path[1:]):
        total = compose(total, graph.edge(a, b))
    return total


def solve_commanded_end_effector(
    graph: FrameGraph,
    plan: PlanPose,
) -> RigidTransform:
    """Desired {R->E*} that lands the coil on the planned pose.

    Chains the snapshot from the robot base through the tracker and the
    head-side edges to the plan, flips the planned outward z into the
    coil's approach direction, and backs out the end effector through the
    calibrations. Tracked edges whose timestamps spread beyond
    SNAPSHOT_SKEW_MS raise StaleSnapshot; a missing edge raises MissingEdge
    naming the first one met along R..b, then C..E.
    """
    stamps = [
        e.timestamp_ms
        for (pair, e) in graph.edges.items()
        if e.timestamp_ms is not None and CANONICAL_EDGES[pair] in ("sensor", "tracker")
    ]
    if stamps and (max(stamps) - min(stamps)) > SNAPSHOT_SKEW_MS:
        raise StaleSnapshot(
            f"tracked-edge timestamps spread {max(stamps) - min(stamps):.1f} ms "
            f"(bound {SNAPSHOT_SKEW_MS} ms)"
        )
    with_plan = FrameGraph({**graph.edges, ("H", "b"): GraphEdge(plan.pose, "plan")})
    # {R->E*} = {R->b} . flip . {C->E}
    return compose(compose(chain(with_plan, "R", "b"), APPROACH_FLIP), chain(graph, "C", "E"))


@dataclass(frozen=True)
class PoseError:
    translation_error_mm: float
    rotation_error_rad: float
    translation_components_mm: np.ndarray  # in the planned pose's frame

    def __post_init__(self):
        t = np.asarray(self.translation_components_mm, dtype=float).reshape(3).copy()
        t.setflags(write=False)
        object.__setattr__(self, "translation_components_mm", t)


def pose_error(planned: RigidTransform, measured: RigidTransform) -> PoseError:
    """Euclidean distance plus the angle-axis angle of the relative rotation."""
    return pose_errors(planned, measured.rotation, measured.translation)[0]


def pose_errors(planned: RigidTransform, rotations, translations) -> list[PoseError]:
    """pose_error of each measured pose of a stack: (T, 3, 3) rotations, (T, 3) translations."""
    delta = np.asarray(translations, dtype=float).reshape(-1, 3) - planned.translation
    angles = rotation_angle(matmul3(planned.rotation.T, rotations)).reshape(-1)
    components = matmul3(delta, planned.rotation)  # rows: R^T delta
    return [PoseError(float(d), float(a), c)
            for d, a, c in zip(np.linalg.norm(delta, axis=1), angles, components)]
