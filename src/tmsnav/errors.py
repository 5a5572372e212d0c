"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes, so every failure mode raised by the
library should derive from ToolkitError.
"""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class ValidationError(ToolkitError, ValueError):
    """Malformed input data (bad mesh, bad config, bad file, bad flag value)."""


class MeshValidationError(ValidationError):
    """Mesh failed load-time validation (bad indices, degenerate triangle)."""


class EmptyMeshError(ValidationError):
    """Spatial query against a mesh with no triangles."""


class DegenerateConstraint(ToolkitError):
    """Plane points of a pose constraint are collinear."""


class DegenerateTail(ToolkitError):
    """Tail direction is parallel to the surface normal."""


class TargetOffSurface(ToolkitError):
    """Constraint center is farther from the mesh than the sanity bound."""


class NoSkinIntersection(ToolkitError):
    """Outward ray from the cortex pose never reaches the skin mesh."""


class GridEscapedSurface(ToolkitError):
    """A hotspot lattice point projected implausibly far from its offset."""


class DegenerateLandmarks(ToolkitError):
    """Landmark set is collinear or too small for a unique rigid fit."""


class MismatchedLandmarks(ToolkitError):
    """Registration result does not belong to the supplied landmark set."""


class DegenerateCorrespondences(ToolkitError):
    """ICP correspondences collapsed to a degenerate configuration."""


class MissingEdge(ToolkitError):
    """A frame-graph edge required by the query is not stored."""

    def __init__(self, frame_a: str, frame_b: str):
        self.edge = (frame_a, frame_b)
        super().__init__(f"missing frame-graph edge {{{frame_a}->{frame_b}}}")


class StaleSnapshot(ToolkitError):
    """Tracked-edge timestamps in one snapshot differ beyond the skew bound."""


class SingularEvaluation(ToolkitError):
    """Field evaluation point lies on (or too close to) a wire segment."""
