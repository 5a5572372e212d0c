import math

import numpy as np
import pytest

from tmsnav.errors import EmptyMeshError
from tmsnav.fieldsim import MU0, _flux_coefficients
from tmsnav.mesh import (
    SurfaceHit,
    TriangleMesh,
    _first_hit,
    _ray_args,
    closest_point_batch,
)
from tmsnav.meshgen import icosphere
from tmsnav.registration import IcpConfig, solve_rigid
from tmsnav.transforms import RigidTransform, compose, invert


# --- reference paths the library's fast queries are checked against ---------

def closest_point_brute(mesh: TriangleMesh, query) -> SurfaceHit:
    """Exhaustive per-triangle closest point; the reference query path."""
    if len(mesh) == 0:
        raise EmptyMeshError("closest_point on empty mesh")
    q = np.asarray(query, dtype=float).reshape(3)
    a, b, c = mesh.corners()
    pts, d2 = oracle_closest_on_triangles(a, b, c, q)
    best = int(np.argmin(d2))  # argmin keeps the lowest id on exact ties
    return SurfaceHit(pts[best], best)


# the closest-point kernel as per-region masked assignments on (T, 3) corner arrays: the
# reference that mesh._closest_on_triangles's one region select must equal bit for bit
def oracle_closest_on_triangles(a, b, c, q):
    """Closest point on each triangle (a, b, c): returns (points, d2).

    Vectorized Voronoi-region walk (Ericson-style region classification,
    exact comparisons). One query (3,) against corners (T, 3), or queries
    (P, 3) each against its own corners (P, T, 3), with (..., T) outputs.
    """
    qv = q[..., None, :]  # (..., 1, 3) against (..., T, 3)
    ab = b - a
    ac = c - a
    ap = qv - a
    d1 = (ab * ap).sum(-1)
    d2_ = (ac * ap).sum(-1)
    bp = qv - b
    d3 = (ab * bp).sum(-1)
    d4 = (ac * bp).sum(-1)
    cp = qv - c
    d5 = (ab * cp).sum(-1)
    d6 = (ac * cp).sum(-1)

    result = np.empty(a.shape)
    remain = np.ones(d1.shape, dtype=bool)

    is_a = (d1 <= 0.0) & (d2_ <= 0.0)
    result[is_a] = a[is_a]
    remain &= ~is_a

    is_b = (d3 >= 0.0) & (d4 <= d3) & remain
    result[is_b] = b[is_b]
    remain &= ~is_b

    vc = d1 * d4 - d3 * d2_
    is_ab = (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0) & remain
    if is_ab.any():
        t = (d1[is_ab] / (d1[is_ab] - d3[is_ab]))[:, None]
        result[is_ab] = a[is_ab] + t * ab[is_ab]
    remain &= ~is_ab

    is_c = (d6 >= 0.0) & (d5 <= d6) & remain
    result[is_c] = c[is_c]
    remain &= ~is_c

    vb = d5 * d2_ - d1 * d6
    is_ac = (vb <= 0.0) & (d2_ >= 0.0) & (d6 <= 0.0) & remain
    if is_ac.any():
        w = (d2_[is_ac] / (d2_[is_ac] - d6[is_ac]))[:, None]
        result[is_ac] = a[is_ac] + w * ac[is_ac]
    remain &= ~is_ac

    va = d3 * d6 - d5 * d4
    is_bc = (va <= 0.0) & ((d4 - d3) >= 0.0) & ((d5 - d6) >= 0.0) & remain
    if is_bc.any():
        d43 = d4[is_bc] - d3[is_bc]
        w = (d43 / (d43 + d5[is_bc] - d6[is_bc]))[:, None]
        result[is_bc] = b[is_bc] + w * (c[is_bc] - b[is_bc])
    remain &= ~is_bc

    if remain.any():
        denom = va[remain] + vb[remain] + vc[remain]
        v = (vb[remain] / denom)[:, None]
        w = (vc[remain] / denom)[:, None]
        result[remain] = a[remain] + v * ab[remain] + w * ac[remain]

    diff = result - qv
    return result, (diff * diff).sum(-1)


def ray_intersect_brute(mesh: TriangleMesh, origin, direction) -> SurfaceHit | None:
    """Exhaustive nearest ray hit; the reference query path."""
    o, d = _ray_args(origin, direction)
    return _first_hit(mesh, np.arange(len(mesh)), o, d)


def icp_point_to_point(skin: TriangleMesh, cloud, init: RigidTransform,
                       config: IcpConfig = IcpConfig()) -> tuple[RigidTransform, list, bool]:
    """Point-to-point ICP (closest points, then a rigid fit); the reference the
    point-to-plane loop of icp_refine is checked against.

    Returns the transform, the mean residual after each iteration and whether the
    improvement fell below convergence_delta_mm before max_iterations.
    """
    pts = np.asarray(cloud, dtype=float).reshape(-1, 3)
    n_keep = max(3, int(round(len(pts) * (1.0 - config.trim_fraction))))
    current = init
    moved = current.apply(pts)
    surface = closest_point_batch(skin, moved)[0]
    dists = np.linalg.norm(surface - moved, axis=1)
    previous = float(dists.mean())
    history = []
    for _ in range(config.max_iterations):
        keep = np.argsort(dists, kind="stable")[:n_keep] if config.trim_fraction else slice(None)
        current = compose(solve_rigid(moved[keep], surface[keep]), current)
        moved = current.apply(pts)
        surface = closest_point_batch(skin, moved)[0]
        dists = np.linalg.norm(surface - moved, axis=1)
        history.append(float(dists.mean()))
        if previous - history[-1] < config.convergence_delta_mm:
            return current, history, True
        previous = history[-1]
    return current, history, False


def on_axis_loop_field(radius_mm: float, z_mm: float, current_a: float,
                       turns: int = 1) -> float:
    """Closed-form |B| on the axis of one circular loop, tesla."""
    r = radius_mm * 1e-3
    z = z_mm * 1e-3
    return MU0 * current_a * turns * r**2 / (2.0 * (r**2 + z**2) ** 1.5)


def pose_arrays(pose: RigidTransform) -> tuple[np.ndarray, np.ndarray]:
    """One pose as the (rotation, translation) arrays the field functions take."""
    return pose.rotation, pose.translation


def flux_coefficient(coil, sensor, axis: int, **quadrature) -> float:
    """Webers per ampere through one sensor winding (turns included)."""
    return float(_flux_coefficients(coil, sensor, *pose_arrays(sensor.pose), **quadrature)[0, axis])


def achieved_coil_pose(graph, commanded: RigidTransform) -> RigidTransform:
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


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation via a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_transform(rng: np.random.Generator, translation_scale: float = 100.0) -> RigidTransform:
    return RigidTransform(
        random_rotation(rng), rng.uniform(-translation_scale, translation_scale, size=3)
    )


# --- independent scalar closest-point oracle --------------------------------
# Closest point on one triangle by explicit case enumeration: the plane foot
# if its barycentrics are inside, else the best of the three edge segments.
# Deliberately a different algorithm than the library's Voronoi-region walk.

def _closest_on_segment(p, a, b):
    ab = b - a
    s = np.clip(np.dot(p - a, ab) / np.dot(ab, ab), 0.0, 1.0)
    return a + s * ab


def oracle_closest_on_triangle(p, a, b, c):
    n = np.cross(b - a, c - a)
    foot = p - (np.dot(p - a, n) / np.dot(n, n)) * n
    v0, v1, v2 = b - a, c - a, foot - a
    d00, d01, d11 = np.dot(v0, v0), np.dot(v0, v1), np.dot(v1, v1)
    d20, d21 = np.dot(v2, v0), np.dot(v2, v1)
    denom = d00 * d11 - d01 * d01
    v = (d11 * d20 - d01 * d21) / denom
    w = (d00 * d21 - d01 * d20) / denom
    if v >= 0.0 and w >= 0.0 and v + w <= 1.0:
        return foot
    candidates = [
        _closest_on_segment(p, a, b),
        _closest_on_segment(p, b, c),
        _closest_on_segment(p, c, a),
    ]
    dists = [np.linalg.norm(p - q) for q in candidates]
    return candidates[int(np.argmin(dists))]


def oracle_closest_on_mesh(mesh, p):
    best_d, best_pt, best_id = np.inf, None, -1
    a, b, c = mesh.corners()
    for i in range(len(mesh)):
        q = oracle_closest_on_triangle(p, a[i], b[i], c[i])
        d = np.linalg.norm(p - q)
        if d < best_d:
            best_d, best_pt, best_id = d, q, i
    return best_pt, best_id, best_d


# --- independent scalar winding-number oracle --------------------------------
# The generalized winding number one triangle at a time, in Python floats: each
# triangle's Van Oosterom-Strackee half angle, summed exactly with math.fsum.

def _dot(u, w):
    return u[0] * w[0] + u[1] * w[1] + u[2] * w[2]


def oracle_winding_number(mesh, p) -> float:
    p = [float(x) for x in p]
    half_angles = []
    for triangle in mesh.vertices[mesh.triangles].tolist():
        x, y, z = ([u - q for u, q in zip(corner, p)] for corner in triangle)
        yz = [y[1] * z[2] - y[2] * z[1], y[2] * z[0] - y[0] * z[2], y[0] * z[1] - y[1] * z[0]]
        lx, ly, lz = (math.sqrt(_dot(u, u)) for u in (x, y, z))
        den = lx * ly * lz + _dot(x, y) * lz + _dot(y, z) * lx + _dot(z, x) * ly
        half_angles.append(math.atan2(_dot(x, yz), den))
    return math.fsum(half_angles) / (2.0 * math.pi)


def random_soup(rng: np.random.Generator, n_triangles: int = 500,
                extent: float = 50.0) -> TriangleMesh:
    """Random triangle soup: anchor points plus two random edge offsets."""
    anchors = rng.uniform(-extent, extent, size=(n_triangles, 3))
    e1 = rng.uniform(-10.0, 10.0, size=(n_triangles, 3))
    e2 = rng.uniform(-10.0, 10.0, size=(n_triangles, 3))
    verts = np.concatenate([anchors, anchors + e1, anchors + e2], axis=0)
    n = n_triangles
    tris = np.stack([np.arange(n), np.arange(n) + n, np.arange(n) + 2 * n], axis=1)
    areas = 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)
    keep = areas > 1e-6
    return TriangleMesh(verts, tris[keep])


@pytest.fixture(scope="session")
def sphere85():
    return icosphere(85.0, subdivisions=4)


@pytest.fixture(scope="session")
def cortex70():
    return icosphere(70.0, subdivisions=4)
