"""The navigation frame graph and pose-alignment error metrics.

Eight frames participate: R (robot base), E (end-effector), C (coil
center), Cr (coil marker), O (optical tracker), H (head image), Hr (head
marker), and b (the planned coil pose). Seven directed edges connect
them; an edge {A->B} maps B-frame coordinates into A. Edges are stored
exactly as measured/calibrated; inverses are computed on demand, never
stored. A graph instance is an immutable snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MissingEdge, StaleSnapshot
from .pose_plan import PlanPose
from .transforms import RigidTransform, compose, invert, rotation_angle

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

DEFAULT_SNAPSHOT_SKEW_MS = 50.0

# flips the planned outward z into the coil's into-the-head z
# (180 degrees about the pose x-axis)
APPROACH_FLIP = RigidTransform(np.diag([1.0, -1.0, -1.0]), np.zeros(3))


@dataclass(frozen=True)
class GraphEdge:
    transform: RigidTransform = field(metadata={"json": "matrix"})
    provenance: str = "unknown"
    timestamp_ms: float | None = None

    def to_dict(self) -> dict:
        return {
            "matrix": [float(x) for x in self.transform.to_matrix().reshape(16)],
            "provenance": self.provenance,
            "timestamp_ms": self.timestamp_ms,
        }


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

    def to_dict(self) -> dict:
        rows = []
        for (a, b), edge in sorted(self._edges.items()):
            rows.append({"from": a, "to": b, **edge.to_dict()})
        return {"edges": rows}


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
    """A frame-graph snapshot as stored in JSON (`FrameGraph.to_dict`)."""
    edges: tuple[GraphEdgeRow, ...]

    def graph(self) -> FrameGraph:
        return FrameGraph({(row.frame_a, row.frame_b): row for row in self.edges})


def _adjacency() -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {f: [] for f in FRAMES}
    for a, b in CANONICAL_EDGES:
        adj[a].append(b)
        adj[b].append(a)
    return adj


_ADJ = {k: sorted(v) for k, v in _adjacency().items()}


def _topology_path(start: str, goal: str) -> list[str]:
    """Unique simple path between two frames in the tree topology."""
    if start not in FRAMES or goal not in FRAMES:
        raise ValueError(f"unknown frame in chain query: {start!r} or {goal!r}")
    stack = [(start, [start])]
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        for nxt in reversed(_ADJ[node]):
            if nxt not in path:
                stack.append((nxt, path + [nxt]))
    raise ValueError(f"no path between {start} and {goal}")


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
    snapshot_skew_ms: float = DEFAULT_SNAPSHOT_SKEW_MS,
) -> RigidTransform:
    """Desired {R->E*} that lands the coil on the planned pose.

    Uses the current snapshot to recover the robot-base-to-tracker
    transform, then chains the head-side edges and the plan, flipping the
    planned outward z into the coil's approach direction. Tracked edges
    whose timestamps spread beyond snapshot_skew_ms raise StaleSnapshot.
    """
    stamps = [
        e.timestamp_ms
        for (pair, e) in graph.edges.items()
        if e.timestamp_ms is not None and CANONICAL_EDGES[pair] in ("sensor", "tracker")
    ]
    if stamps and (max(stamps) - min(stamps)) > snapshot_skew_ms:
        raise StaleSnapshot(
            f"tracked-edge timestamps spread {max(stamps) - min(stamps):.1f} ms "
            f"(bound {snapshot_skew_ms} ms)"
        )
    r_e = graph.edge("R", "E")
    e_cr = graph.edge("E", "Cr")
    cr_c = graph.edge("Cr", "C")
    o_cr = graph.edge("O", "Cr")
    o_hr = graph.edge("O", "Hr")
    hr_h = graph.edge("Hr", "H")
    # {R->O} from the current snapshot
    r_o = compose(compose(r_e, e_cr), invert(o_cr))
    # desired coil pose in tracker coordinates
    o_c_desired = compose(compose(compose(o_hr, hr_h), plan.pose), APPROACH_FLIP)
    # back out the end-effector pose through the calibrations
    return compose(compose(compose(r_o, o_c_desired), invert(cr_c)), invert(e_cr))


def achieved_coil_pose(graph: FrameGraph, commanded: RigidTransform) -> RigidTransform:
    """Coil pose {O->C} that results from driving the arm to `commanded`.

    Round-trip helper: with a static head, substituting the solve's
    output here reproduces the planned pose (plus the approach flip).
    """
    r_e = graph.edge("R", "E")
    e_cr = graph.edge("E", "Cr")
    o_cr = graph.edge("O", "Cr")
    r_o = compose(compose(r_e, e_cr), invert(o_cr))
    return compose(
        compose(compose(invert(r_o), commanded), e_cr), graph.edge("Cr", "C")
    )


@dataclass(frozen=True)
class PoseError:
    translation_error_mm: float
    rotation_error_rad: float
    translation_components_mm: np.ndarray  # in the planned pose's frame

    def __post_init__(self):
        t = np.asarray(self.translation_components_mm, dtype=float).reshape(3).copy()
        t.setflags(write=False)
        object.__setattr__(self, "translation_components_mm", t)

    def to_dict(self) -> dict:
        return {
            "translation_error_mm": self.translation_error_mm,
            "rotation_error_rad": self.rotation_error_rad,
            "translation_components_mm": list(self.translation_components_mm),
        }


def pose_error(planned: RigidTransform, measured: RigidTransform) -> PoseError:
    """Euclidean distance plus the angle-axis angle of the relative rotation."""
    delta = measured.translation - planned.translation
    return PoseError(
        translation_error_mm=float(np.linalg.norm(delta)),
        rotation_error_rad=rotation_angle(planned.rotation.T @ measured.rotation),
        translation_components_mm=planned.rotation.T @ delta,
    )
