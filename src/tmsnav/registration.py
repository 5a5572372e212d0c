"""Image-to-anatomy registration.

Closed-form pair-point alignment (centroid subtraction + SVD of the 3x3
cross-covariance, reflection-corrected), point-to-surface ICP refinement
against the skin mesh, and a residual-based acceptance gate: results are
rejected when the mean pair-point residual exceeds 6 mm or the mean ICP
residual exceeds 2 mm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCorrespondences, DegenerateLandmarks, MismatchedLandmarks
from .fileio import Points
from .mesh import TriangleMesh, closest_point_batch
from .transforms import RigidTransform, compose

PAIRPOINT_ACCEPT_MM = 6.0
ICP_ACCEPT_MM = 2.0

# collinearity guard: second singular value of the centered point matrix
_COLLINEAR_SV_MIN = 1e-6


@dataclass(frozen=True)
class LandmarkSet:
    names: tuple[str, ...]
    image_points: Points  # (N, 3) in the image frame, mm
    probe_points: Points  # (N, 3) in the head-marker frame, mm

    def __post_init__(self):
        img = np.asarray(self.image_points, dtype=float).reshape(-1, 3).copy()
        prb = np.asarray(self.probe_points, dtype=float).reshape(-1, 3).copy()
        names = tuple(str(n) for n in self.names)
        if not (len(names) == len(img) == len(prb)):
            raise DegenerateLandmarks("names, image and probe lists differ in length")
        if len(names) < 3:
            raise DegenerateLandmarks("at least 3 landmark pairs are required")
        for pts, label in ((img, "image"), (prb, "probe")):
            sv = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            if sv[1] <= _COLLINEAR_SV_MIN:
                raise DegenerateLandmarks(f"{label} landmarks are collinear")
        img.setflags(write=False)
        prb.setflags(write=False)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "image_points", img)
        object.__setattr__(self, "probe_points", prb)

    def __len__(self) -> int:
        return len(self.names)

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "image_points": [list(p) for p in self.image_points],
            "probe_points": [list(p) for p in self.probe_points],
        }


@dataclass(frozen=True)
class IcpConfig:
    # keyed "icp_*" in the project config's registration section
    max_iterations: int = field(default=100, metadata={"json": "icp_max_iterations"})
    convergence_delta_mm: float = field(default=1e-4,
                                        metadata={"json": "icp_convergence_delta_mm"})
    trim_fraction: float = field(default=0.0, metadata={"json": "icp_trim_fraction"})

    def __post_init__(self):
        if not (0.0 <= self.trim_fraction < 1.0):
            raise ValueError("icp_trim_fraction must be in [0, 1)")
        if self.max_iterations < 1:
            raise ValueError("icp_max_iterations must be >= 1")
        if not self.convergence_delta_mm >= 0.0:
            raise ValueError("icp_convergence_delta_mm must be >= 0")


@dataclass(frozen=True)
class RegistrationResult:
    # probe/head-marker frame -> image frame
    transform: RigidTransform = field(metadata={"json": "matrix"})
    pairpoint_residual_mean: float | None
    icp_residual_mean: float | None
    accepted: bool
    iterations: int = 0
    converged: bool = True
    residual_history: tuple[float, ...] = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "matrix": [float(x) for x in self.transform.to_matrix().reshape(16)],
            "pairpoint_residual_mean": self.pairpoint_residual_mean,
            "icp_residual_mean": self.icp_residual_mean,
            "accepted": self.accepted,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def _gate(pairpoint: float | None, icp: float | None,
          pairpoint_threshold: float, icp_threshold: float) -> bool:
    ok = True
    if pairpoint is not None:
        ok &= pairpoint <= pairpoint_threshold
    if icp is not None:
        ok &= icp <= icp_threshold
    return bool(ok)


def solve_rigid(source: np.ndarray, target: np.ndarray) -> RigidTransform:
    """Least-squares rigid fit mapping source points onto target points.

    Reflection cases are corrected so the result is always a proper
    rotation (det +1).
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    c_src = src.mean(axis=0)
    c_tgt = tgt.mean(axis=0)
    h = (src - c_src).T @ (tgt - c_tgt)
    u, s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return RigidTransform(r, c_tgt - r @ c_src)


def pairpoint_register(
    landmarks: LandmarkSet,
    pairpoint_threshold_mm: float = PAIRPOINT_ACCEPT_MM,
    icp_threshold_mm: float = ICP_ACCEPT_MM,
) -> RegistrationResult:
    """Closed-form landmark registration with the residual acceptance gate."""
    t = solve_rigid(landmarks.probe_points, landmarks.image_points)
    residuals = np.linalg.norm(t.apply(landmarks.probe_points) - landmarks.image_points, axis=1)
    mean = float(residuals.mean())
    return RegistrationResult(
        transform=t,
        pairpoint_residual_mean=mean,
        icp_residual_mean=None,
        accepted=_gate(mean, None, pairpoint_threshold_mm, icp_threshold_mm),
    )


def icp_refine(
    skin: TriangleMesh,
    cloud: np.ndarray,
    init: RigidTransform,
    config: IcpConfig = IcpConfig(),
    pairpoint_residual_mean: float | None = None,
    pairpoint_threshold_mm: float = PAIRPOINT_ACCEPT_MM,
    icp_threshold_mm: float = ICP_ACCEPT_MM,
) -> RegistrationResult:
    """Point-to-surface ICP against the skin mesh.

    Alternates closest-point correspondence with the rigid solve until the
    mean point-to-surface residual improves by less than
    convergence_delta_mm, or max_iterations is reached (returned with
    converged=False, not an error). trim_fraction drops that fraction of
    the worst correspondences from each solve.
    """
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(pts) < 10:
        raise DegenerateCorrespondences("ICP needs a cloud of at least 10 points")

    def correspond(moved):
        surface = closest_point_batch(skin, moved)
        return surface, np.linalg.norm(surface - moved, axis=1)

    current = init
    history: list[float] = []
    converged = False
    iterations = 0
    n_keep = max(3, int(round(len(pts) * (1.0 - config.trim_fraction))))
    moved = current.apply(pts)
    surface, dists = correspond(moved)
    previous = float(dists.mean())
    for iterations in range(1, config.max_iterations + 1):
        if config.trim_fraction > 0.0:
            keep = np.argsort(dists, kind="stable")[:n_keep]
        else:
            keep = slice(None)
        kept = surface[keep]
        sv = np.linalg.svd(kept - kept.mean(axis=0), compute_uv=False)
        if sv[1] <= _COLLINEAR_SV_MIN:
            raise DegenerateCorrespondences("correspondences collapsed to a line")
        current = compose(solve_rigid(moved[keep], kept), current)
        moved = current.apply(pts)
        surface, dists = correspond(moved)
        mean = float(dists.mean())
        history.append(mean)
        if previous - mean < config.convergence_delta_mm:
            converged = True
            break
        previous = mean
    icp_mean = history[-1]
    return RegistrationResult(
        transform=current,
        pairpoint_residual_mean=pairpoint_residual_mean,
        icp_residual_mean=icp_mean,
        accepted=_gate(pairpoint_residual_mean, icp_mean,
                       pairpoint_threshold_mm, icp_threshold_mm),
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
    )


def fiducial_residual_report(result: RegistrationResult, landmarks: LandmarkSet) -> dict:
    """Per-landmark residual table, ordered by landmark name.

    Raises MismatchedLandmarks when the result was not produced from the
    same landmark set.
    """
    residuals = np.linalg.norm(
        result.transform.apply(landmarks.probe_points) - landmarks.image_points, axis=1
    )
    mean = float(residuals.mean())
    if result.pairpoint_residual_mean is None or not np.isclose(
        mean, result.pairpoint_residual_mean, rtol=0.0, atol=1e-6
    ):
        raise MismatchedLandmarks("result does not match the supplied landmark set")
    order = sorted(range(len(landmarks)), key=lambda i: (landmarks.names[i], i))
    return {
        "rows": [
            {"name": landmarks.names[i], "residual_mm": float(residuals[i])} for i in order
        ],
        "mean_mm": mean,
        "max_mm": float(residuals.max()),
    }
