"""Benchmark-side geometry: phantom meshes, ASCII STL writing, and an
independent point-to-mesh distance used to check the program's outputs.

Nothing here imports tmsnav, so the program under test receives files it
did not write and is checked by code it does not share.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def _icosahedron() -> tuple[np.ndarray, np.ndarray]:
    phi = (1.0 + 5.0 ** 0.5) / 2.0
    v = np.array([(s1, s2 * phi, 0.0) for s1 in (-1, 1) for s2 in (1, -1)]
                 + [(0.0, s1, s2 * phi) for s1 in (-1, 1) for s2 in (1, -1)]
                 + [(s2 * phi, 0.0, s1) for s1 in (-1, 1) for s2 in (1, -1)])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    # the 20 faces are the vertex triples at mutual edge length 2 / |(1, phi, 0)|
    edge = np.linalg.norm(v[0] - v[1:], axis=1).min()
    d = np.linalg.norm(v[:, None] - v[None, :], axis=2)
    adj = np.abs(d - edge) < 1e-9
    faces = [(i, j, k) for i in range(12) for j in range(i + 1, 12)
             for k in range(j + 1, 12) if adj[i, j] and adj[j, k] and adj[i, k]]
    t = np.array(faces, dtype=np.int64)
    a, b, c = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    inward = (np.cross(b - a, c - a) * (a + b + c)).sum(axis=1) < 0.0
    t[inward] = t[inward][:, [0, 2, 1]]
    return v, t


@lru_cache(maxsize=None)
def unit_icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit sphere with 20 * 4**subdivisions outward-wound triangles (read-only)."""
    v, t = _icosahedron()
    for _ in range(subdivisions):
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        uniq, inv = np.unique(np.sort(edges, axis=1), axis=0, return_inverse=True)
        mid = v[uniq[:, 0]] + v[uniq[:, 1]]
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        m01, m12, m20 = (len(v) + inv.reshape(3, -1))
        v = np.concatenate([v, mid])
        t0, t1, t2 = t.T
        t = np.concatenate([
            np.stack([t0, m01, m20], 1), np.stack([t1, m12, m01], 1),
            np.stack([t2, m20, m12], 1), np.stack([m01, m12, m20], 1),
        ])
    v.flags.writeable = t.flags.writeable = False  # shared by every cached caller
    return v, t


def ellipsoid(semi_axes, subdivisions: int, center=(0.0, 0.0, 0.0)):
    v, t = unit_icosphere(subdivisions)
    return v * np.asarray(semi_axes, float) + np.asarray(center, float), t



def write_stl(path, vertices: np.ndarray, triangles: np.ndarray, name: str) -> None:
    """ASCII STL with shortest round-trip float text and outward normals."""
    text = [" ".join(repr(float(x)) for x in p) for p in vertices]
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    lines = [f"solid {name}"]
    for (i0, i1, i2), normal in zip(triangles.tolist(), n.tolist()):
        lines.append("  facet normal " + " ".join(repr(x) for x in normal))
        lines.append("    outer loop")
        lines.append(f"      vertex {text[i0]}")
        lines.append(f"      vertex {text[i1]}")
        lines.append(f"      vertex {text[i2]}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_on_surface(vertices, triangles, n: int, rng: np.random.Generator):
    """Area-weighted surface points and the triangle each lies in."""
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    area = np.linalg.norm(np.cross(b - a, c - a), axis=1)
    ids = rng.choice(len(triangles), size=n, p=area / area.sum())
    r1 = np.sqrt(rng.uniform(size=n))[:, None]
    r2 = rng.uniform(size=n)[:, None]
    pts = (1.0 - r1) * a[ids] + r1 * (1.0 - r2) * b[ids] + r1 * r2 * c[ids]
    return pts, ids


def _segment_dist2(p, a, b):
    ab = b - a
    s = np.clip(((p - a) * ab).sum(1) / (ab * ab).sum(1), 0.0, 1.0)
    d = a + s[:, None] * ab - p
    return (d * d).sum(1)


def point_mesh_distance(vertices, triangles, point) -> float:
    """Exact distance from one point to a triangle mesh, in mm.

    Plane foot when its barycentric coordinates are inside the triangle,
    otherwise the nearest of the three edges; vectorised over triangles.
    """
    p = np.asarray(point, float).reshape(1, 3)
    a, b, c = (vertices[triangles[:, k]] for k in range(3))
    n = np.cross(b - a, c - a)
    nn = (n * n).sum(1)
    foot = p - (((p - a) * n).sum(1) / nn)[:, None] * n
    v0, v1, v2 = b - a, c - a, foot - a
    d00, d01, d11 = (v0 * v0).sum(1), (v0 * v1).sum(1), (v1 * v1).sum(1)
    d20, d21 = (v2 * v0).sum(1), (v2 * v1).sum(1)
    den = d00 * d11 - d01 * d01
    bv = (d11 * d20 - d01 * d21) / den
    bw = (d00 * d21 - d01 * d20) / den
    inside = (bv >= 0.0) & (bw >= 0.0) & (bv + bw <= 1.0)
    plane2 = ((foot - p) ** 2).sum(1)
    edge2 = np.minimum(np.minimum(_segment_dist2(p, a, b), _segment_dist2(p, b, c)),
                       _segment_dist2(p, c, a))
    return float(np.sqrt(np.where(inside, plane2, edge2).min()))


def rotation(axis, angle_rad: float) -> np.ndarray:
    """Rodrigues rotation about an axis."""
    k = np.asarray(axis, float) / np.linalg.norm(axis)
    kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(angle_rad) * kx + (1.0 - np.cos(angle_rad)) * kx @ kx


def random_rigid(rng: np.random.Generator, translation_scale: float) -> np.ndarray:
    """Random 4x4 rigid transform: uniform axis, angle in [0, pi)."""
    m = np.eye(4)
    m[:3, :3] = rotation(rng.normal(size=3), rng.uniform(0.0, np.pi))
    m[:3, 3] = rng.uniform(-translation_scale, translation_scale, size=3)
    return m


def fit_rigid(source, target) -> np.ndarray:
    """Least-squares rigid 4x4 transform mapping source points onto target (Kabsch)."""
    src, tgt = np.asarray(source, float), np.asarray(target, float)
    cs, ct = src.mean(axis=0), tgt.mean(axis=0)
    u, _, vt = np.linalg.svd((src - cs).T @ (tgt - ct))
    r = vt.T @ np.diag([1.0, 1.0, np.sign(np.linalg.det(vt.T @ u.T))]) @ u.T
    m = np.eye(4)
    m[:3, :3], m[:3, 3] = r, ct - r @ cs
    return m


def rigid_inverse(m: np.ndarray) -> np.ndarray:
    out = np.eye(4)
    out[:3, :3] = m[:3, :3].T
    out[:3, 3] = -m[:3, :3].T @ m[:3, 3]
    return out


def apply(m: np.ndarray, points) -> np.ndarray:
    p = np.asarray(points, float)
    return p @ m[:3, :3].T + m[:3, 3]
