import numpy as np
import pytest

from tmsnav.mesh import TriangleMesh
from tmsnav.meshgen import icosphere


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
