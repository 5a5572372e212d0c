"""Procedural phantom surfaces (spheres, ellipsoids, flat patches).

These stand in for segmented skin/cortex meshes in desk-scale phantom
studies and in the test suite. All outputs use outward winding.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

_PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    v = np.array(
        [
            [-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
            [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
            [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1],
        ],
        dtype=float,
    )
    v /= np.linalg.norm(v[0])
    t = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    return v, t


def icosphere(radius: float = 1.0, subdivisions: int = 3, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Subdivided icosahedron projected onto a sphere; 20*4^n triangles."""
    verts, tris = _icosahedron()
    vert_list = [tuple(p) for p in verts]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        idx = cache.get(key)
        if idx is None:
            m = np.asarray(vert_list[i]) + np.asarray(vert_list[j])
            m /= np.linalg.norm(m)
            idx = len(vert_list)
            vert_list.append(tuple(m))
            cache[key] = idx
        return idx

    faces = [tuple(t) for t in tris]
    for _ in range(subdivisions):
        next_faces = []
        for i0, i1, i2 in faces:
            m01, m12, m20 = midpoint(i0, i1), midpoint(i1, i2), midpoint(i2, i0)
            next_faces += [(i0, m01, m20), (i1, m12, m01), (i2, m20, m12), (m01, m12, m20)]
        faces = next_faces

    v = np.asarray(vert_list, dtype=float) * radius + np.asarray(center, dtype=float)
    t = np.asarray(faces, dtype=np.int64)
    return TriangleMesh(v, t)


def ellipsoid(semi_axes=(80.0, 95.0, 70.0), subdivisions: int = 3,
              center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Head-sized ellipsoid: unit icosphere scaled per axis."""
    unit = icosphere(1.0, subdivisions)
    v = unit.vertices * np.asarray(semi_axes, dtype=float) + np.asarray(center, dtype=float)
    return TriangleMesh(v, unit.triangles)


def grid_patch(nx: int = 10, ny: int = 10, spacing: float = 10.0, z: float = 0.0) -> TriangleMesh:
    """Flat rectangular patch in the z plane, normals toward +z, centered on the origin."""
    xs = (np.arange(nx + 1) - nx / 2.0) * spacing
    ys = (np.arange(ny + 1) - ny / 2.0) * spacing
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    v = np.stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z))], axis=1)
    tris = []
    for i in range(nx):
        for j in range(ny):
            a = i * (ny + 1) + j
            b = (i + 1) * (ny + 1) + j
            tris.append((a, b, a + 1))
            tris.append((b, b + 1, a + 1))
    return TriangleMesh(v, np.asarray(tris, dtype=np.int64))


def hemisphere(radius: float = 85.0, subdivisions: int = 3,
               center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Upper half of an icosphere (open rim); keeps triangles with all z >= -1e-9."""
    full = icosphere(radius, subdivisions, center=center)
    cz = float(np.asarray(center, dtype=float)[2])
    keep = np.all(full.vertices[full.triangles][:, :, 2] >= cz - 1e-9, axis=1)
    tris = full.triangles[keep]
    used = np.unique(tris)
    remap = np.full(len(full.vertices), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return TriangleMesh(full.vertices[used], remap[tris])
