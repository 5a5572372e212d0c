"""Image-to-anatomy registration.

Closed-form pair-point alignment (centroid subtraction + SVD of the 3x3
cross-covariance, reflection-corrected), point-to-surface ICP refinement
against the skin mesh, and a residual-based acceptance gate: results are
rejected when the mean pair-point residual exceeds 6 mm or the mean ICP
residual exceeds 2 mm.

Each ICP iteration takes a linearised point-to-plane step (Chen & Medioni
1992; Low 2004): it minimises the squared distances of the cloud points to
the planes of their nearest triangles. The step is guarded three ways. A
direction the surface does not constrain (a singular value below 1e-3 of
the largest, such as rotation about a sphere's centre) is not moved. No
point moves farther than twice the mean plane residual. And an iteration
whose step would raise the mean point-to-surface residual takes the
point-to-point rigid fit instead, so the residual history never rises.
The result reports the last plane step's conditioning, its smallest
singular value over the largest (``icp_plane_sv_ratio``): a small ratio
means the cloud barely constrains some direction, along which ICP can
settle far from the truth at a low residual.
Each iteration's closest-point query is warm-started from the previous
iteration's triangles (Simon 1996), which changes no result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateCorrespondences, DegenerateLandmarks
from .fileio import Points, bounded, check_bounds
from .mesh import TriangleMesh, closest_point_batch
from .transforms import RigidTransform, compose, rotation_about_axis

PAIRPOINT_ACCEPT_MM = 6.0
ICP_ACCEPT_MM = 2.0

# collinearity guard: second singular value of the centered point matrix
_COLLINEAR_SV_MIN = 1e-6
# the point-to-plane step moves no direction whose singular value is below this
# fraction of the largest: on a sphere rotation about the centre slides freely
_PLANE_SV_RATIO = 1e-3
# trust region of the point-to-plane step: no cloud point moves farther than this
# many times the mean |plane residual|
_PLANE_TRUST_FACTOR = 2.0


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


@dataclass(frozen=True)
class IcpConfig:
    # keyed "icp_*" in the project config's registration section
    max_iterations: int = bounded("[1, 1e6]", 100, json="icp_max_iterations")
    convergence_delta_mm: float = bounded("[0, 1e6]", 1e-4, json="icp_convergence_delta_mm")
    trim_fraction: float = bounded("[0, 1)", 0.0, json="icp_trim_fraction")

    __post_init__ = check_bounds


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
    # smallest singular value over the largest, at the last plane step (ICP only)
    icp_plane_sv_ratio: float | None = None


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
) -> RegistrationResult:
    """Closed-form landmark registration with the residual acceptance gate."""
    t = solve_rigid(landmarks.probe_points, landmarks.image_points)
    residuals = np.linalg.norm(t.apply(landmarks.probe_points) - landmarks.image_points, axis=1)
    mean = float(residuals.mean())
    return RegistrationResult(
        transform=t,
        pairpoint_residual_mean=mean,
        icp_residual_mean=None,
        accepted=bool(mean <= pairpoint_threshold_mm),
    )


def _plane_step(moved: np.ndarray, surface: np.ndarray,
                normals: np.ndarray) -> tuple[RigidTransform, float]:
    """One linearised point-to-plane step for the rows given (Low 2004), and the
    smallest singular value over the largest.

    Solves min over a small rotation w about the rows' centroid and a translation
    t of sum(((w x (p - c) + t + p - s) . n)^2) by SVD, with the rotation columns
    divided by the rows' RMS radius so they compare with the translation columns;
    directions below _PLANE_SV_RATIO of the largest singular value are not moved.
    The step is then shrunk so no row moves farther than _PLANE_TRUST_FACTOR times
    the mean |plane residual|.
    """
    centroid = moved.mean(axis=0)
    arm = moved - centroid
    radius = np.sqrt((arm * arm).sum(axis=1).mean())
    jac = np.hstack([np.cross(arm, normals) / radius, normals])
    residual = np.einsum("ij,ij->i", surface - moved, normals)
    u, sv, vt = np.linalg.svd(jac, full_matrices=False)
    live = sv > _PLANE_SV_RATIO * sv[0]
    x = vt[live].T @ ((u[:, live].T @ residual) / sv[live])
    w, t = x[:3] / radius, x[3:]
    reach = np.linalg.norm(np.cross(w, arm) + t, axis=1).max()
    limit = _PLANE_TRUST_FACTOR * np.abs(residual).mean()
    if reach > limit:
        w, t = w * (limit / reach), t * (limit / reach)
    angle = np.linalg.norm(w)
    r = rotation_about_axis(w, angle) if angle > 0.0 else np.eye(3)
    return RigidTransform(r, centroid + t - r @ centroid), float(sv[-1] / sv[0])


def icp_refine(
    skin: TriangleMesh,
    cloud: np.ndarray,
    init: RigidTransform,
    config: IcpConfig = IcpConfig(),
    pairpoint_residual_mean: float | None = None,
    pairpoint_threshold_mm: float = PAIRPOINT_ACCEPT_MM,
    icp_threshold_mm: float = ICP_ACCEPT_MM,
) -> RegistrationResult:
    """Point-to-plane ICP against the skin mesh.

    Alternates closest-point correspondence with a point-to-plane step
    (_plane_step) until the mean point-to-surface residual improves by less
    than convergence_delta_mm, or max_iterations is reached (returned with
    converged=False, not an error). An iteration whose plane step would raise
    the mean residual takes the point-to-point rigid fit instead. Each query is
    warm-started from the previous iteration's triangles. trim_fraction drops
    that fraction of the worst correspondences from each step.
    """
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    if len(pts) < 10:
        raise DegenerateCorrespondences("ICP needs a cloud of at least 10 points")

    def correspond(transform, start):
        moved = transform.apply(pts)
        surface, tri_ids = closest_point_batch(skin, moved, start)
        return moved, surface, tri_ids, np.linalg.norm(surface - moved, axis=1)

    current = init
    history: list[float] = []
    converged = False
    iterations = 0
    n_keep = max(3, int(round(len(pts) * (1.0 - config.trim_fraction))))
    moved, surface, tri_ids, dists = correspond(current, None)
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
        step, sv_ratio = _plane_step(moved[keep], kept, skin.normals[tri_ids[keep]])
        trial = compose(step, current)
        found = correspond(trial, tri_ids)
        if found[3].mean() > previous:  # the plane step overshot: fit point to point
            trial = compose(solve_rigid(moved[keep], kept), current)
            found = correspond(trial, tri_ids)
        current, (moved, surface, tri_ids, dists) = trial, found
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
        accepted=bool(icp_mean <= icp_threshold_mm and (
            pairpoint_residual_mean is None or pairpoint_residual_mean <= pairpoint_threshold_mm)),
        iterations=iterations,
        converged=converged,
        residual_history=tuple(history),
        icp_plane_sv_ratio=sv_ratio,
    )

