"""Procedural phantom surfaces (spheres and ellipsoids).

These stand in for segmented skin/cortex meshes in desk-scale phantom
studies and in the test suite. All outputs use outward winding. Both
builders scale one unit icosphere, built level by level with arrays: each
edge midpoint is normalised by the fixed-order sum sqrt(x*x + y*y + z*z),
with no BLAS, so a mesh has the same bytes under every BLAS kernel.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

_PHI = (1.0 + np.sqrt(5.0)) / 2.0
_ICOSAHEDRON = (
    np.array([[-1, _PHI, 0], [1, _PHI, 0], [-1, -_PHI, 0], [1, -_PHI, 0],
              [0, -1, _PHI], [0, 1, _PHI], [0, -1, -_PHI], [0, 1, -_PHI],
              [_PHI, 0, -1], [_PHI, 0, 1], [-_PHI, 0, -1], [-_PHI, 0, 1]]),
    np.array([[0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
              [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
              [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
              [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1]], dtype=np.int64),
)


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2])[:, None]


def _unit_icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of the subdivided unit icosahedron; 20*4^n triangles.

    Each level splits every triangle (i0, i1, i2) into (i0, m01, m20), (i1, m12, m01),
    (i2, m20, m12) and (m01, m12, m20). The new vertices are the unit edge midpoints,
    numbered in the order the triangles' edges (i0 i1, i1 i2, i2 i0) first use them.
    """
    v, t = _unit_rows(_ICOSAHEDRON[0]), _ICOSAHEDRON[1]
    for _ in range(subdivisions):
        edges = np.sort(t[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(edges[:, 0] * len(v) + edges[:, 1],
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)  # the distinct edges in first-use order
        rank = np.empty_like(order)
        rank[order] = np.arange(len(v), len(v) + len(order))
        a, b = edges[first[order]].T
        corners = np.concatenate([t, rank[inverse.reshape(-1, 3)]], axis=1)
        v = np.concatenate([v, _unit_rows(v[a] + v[b])])
        t = corners[:, [0, 3, 5, 1, 4, 3, 2, 5, 4, 3, 4, 5]].reshape(-1, 3)
    return v, t


def icosphere(radius: float = 1.0, subdivisions: int = 3, center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Subdivided icosahedron projected onto a sphere; 20*4^n triangles."""
    v, t = _unit_icosphere(subdivisions)
    return TriangleMesh(v * radius + np.asarray(center, dtype=float), t)


def ellipsoid(semi_axes=(80.0, 95.0, 70.0), subdivisions: int = 3,
              center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Head-sized ellipsoid: unit icosphere scaled per axis."""
    v, t = _unit_icosphere(subdivisions)
    return TriangleMesh(v * np.asarray(semi_axes, dtype=float) + np.asarray(center, dtype=float), t)
