import numpy as np
import pytest

from tmsnav.errors import EmptyMeshError
from tmsnav.fieldsim import MU0, _flux_coefficients
from tmsnav.mesh import SurfaceHit, TriangleMesh, _closest_on_triangles, _first_hit, _ray_args
from tmsnav.meshgen import icosphere
from tmsnav.transforms import RigidTransform, compose, invert


# --- reference paths the library's fast queries are checked against ---------

def closest_point_brute(mesh: TriangleMesh, query) -> SurfaceHit:
    """Exhaustive per-triangle closest point; the reference query path."""
    if len(mesh) == 0:
        raise EmptyMeshError("closest_point on empty mesh")
    q = np.asarray(query, dtype=float).reshape(3)
    a, b, c = mesh.corners()
    pts, d2 = _closest_on_triangles(a, b, c, q)
    best = int(np.argmin(d2))  # argmin keeps the lowest id on exact ties
    return SurfaceHit(pts[best], best)


def ray_intersect_brute(mesh: TriangleMesh, origin, direction) -> SurfaceHit | None:
    """Exhaustive nearest ray hit; the reference query path."""
    o, d = _ray_args(origin, direction)
    return _first_hit(mesh, np.arange(len(mesh)), o, d)


def on_axis_loop_field(radius_mm: float, z_mm: float, current_a: float,
                       turns: int = 1) -> float:
    """Closed-form |B| on the axis of one circular loop, tesla."""
    r = radius_mm * 1e-3
    z = z_mm * 1e-3
    return MU0 * current_a * turns * r**2 / (2.0 * (r**2 + z**2) ** 1.5)


def flux_coefficient(coil, sensor, axis: int, **quadrature) -> float:
    """Webers per ampere through one sensor winding (turns included)."""
    return float(_flux_coefficients(coil, sensor, (axis,), **quadrature)[0])


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
