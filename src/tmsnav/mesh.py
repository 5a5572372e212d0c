"""Indexed triangle surfaces and their spatial queries.

Meshes are consumed in millimeters with outward-winding triangles:
normal = normalize((v1 - v0) x (v2 - v0)) points away from the enclosed
volume. Queries (closest point, ray intersection) are exact and
deterministic; ties are broken by lowest triangle id. Every mesh is served
by one flat index, built on its first query: triangles sorted by the Morton
code of their centroids and cut into chunks of 32 with a bounding box each.
The ``*_brute`` functions scan every triangle and are the reference oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeshError, MeshValidationError, ValidationError

DEGENERATE_AREA_MM2 = 1e-9
RAY_MIN_PARAMETER = 1e-9
_RAY_PARALLEL_EPS = 1e-12

CHUNK_SIZE = 32
# cap on the elements of one query x chunk or query x triangle temporary
_BLOCK_ELEMENTS = 1 << 15
# chunk boxes are widened by this fraction of the mesh's coordinate scale, so
# rounding in the per-triangle distances can never cull the winning chunk
_BOX_PAD = 1e-9

# Direction used for point-containment parity casts; chosen with no axis
# alignment so rays do not graze mesh edges of axis-aligned fixtures.
_PARITY_DIRECTION = np.array([0.578167235, 0.577090427, 0.576790941])
_PARITY_DIRECTION = _PARITY_DIRECTION / np.linalg.norm(_PARITY_DIRECTION)


@dataclass(frozen=True)
class SurfaceHit:
    point: np.ndarray  # (3,), mm
    triangle_id: int
    ray_parameter: float = 0.0  # mm along the ray for ray queries

    def __post_init__(self):
        p = np.asarray(self.point, dtype=float).reshape(3).copy()
        p.setflags(write=False)
        object.__setattr__(self, "point", p)
        object.__setattr__(self, "triangle_id", int(self.triangle_id))
        object.__setattr__(self, "ray_parameter", float(self.ray_parameter))


def _morton_codes(points: np.ndarray) -> np.ndarray:
    """30-bit Morton codes of points quantized to 1024 cells per axis of their box."""
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    cells = ((points - lo) * (1023.0 / np.where(span > 0.0, span, 1.0))).astype(np.int64)
    for shift, mask in ((16, 0xFF0000FF), (8, 0x0F00F00F), (4, 0xC30C30C3), (2, 0x49249249)):
        cells = (cells | cells << shift) & mask  # spread each axis's 10 bits 3 apart
    return (cells[:, 0] << 2) | (cells[:, 1] << 1) | cells[:, 2]


def _areas(v: np.ndarray, t: np.ndarray) -> np.ndarray:
    e1, e2 = v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
    return 0.5 * np.linalg.norm(np.cross(e1, e2), axis=1)


class TriangleMesh:
    """Read-only indexed triangle surface with a lazily built spatial index."""

    def __init__(self, vertices, triangles):
        v = np.asarray(vertices, dtype=float).reshape(-1, 3).copy()
        t = np.asarray(triangles, dtype=np.int64).reshape(-1, 3).copy()
        bad = np.flatnonzero(~np.isfinite(v).all(axis=1))
        if bad.size:
            raise MeshValidationError(f"non-finite vertex {bad[0]}: {v[bad[0]].tolist()}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshValidationError("triangle index out of range")
        v.setflags(write=False)
        t.setflags(write=False)
        self.vertices = v
        self.triangles = t
        self._corners = None
        self._index = None
        bad = np.flatnonzero(_areas(v, t) <= DEGENERATE_AREA_MM2)
        if bad.size:
            raise MeshValidationError(
                f"{bad.size} degenerate triangle(s), first at id {int(bad[0])}"
            )

    def __len__(self) -> int:
        return len(self.triangles)

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-triangle vertex arrays (a, b, c), each (M, 3)."""
        if self._corners is None:
            t = self.triangles
            self._corners = (
                self.vertices[t[:, 0]],
                self.vertices[t[:, 1]],
                self.vertices[t[:, 2]],
            )
        return self._corners

    def index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Spatial index (ids, lo, hi, anchor), built on first use (non-empty meshes).

        ids (C, 32) holds the triangle ids in Morton order, ties in id order,
        the last chunk padded by repeating one id; lo and hi (C, 3) are the
        widened chunk boxes; anchor (C, 3) is one vertex of each chunk.
        """
        if self._index is None:
            a, b, c = self.corners()
            order = np.argsort(_morton_codes((a + b + c) / 3.0), kind="stable")
            order = np.concatenate([order, np.full(-len(order) % CHUNK_SIZE, order[-1])])
            ids = order.reshape(-1, CHUNK_SIZE)
            pad = _BOX_PAD * (1.0 + np.abs(self.vertices).max())
            lo = np.minimum(np.minimum(a, b), c)[ids].min(axis=1) - pad
            hi = np.maximum(np.maximum(a, b), c)[ids].max(axis=1) + pad
            self._index = (ids, lo, hi, a[ids[:, 0]])
        return self._index


def triangle_normal(mesh: TriangleMesh, triangle_id: int) -> np.ndarray:
    """Unit outward normal of one triangle from its stored winding."""
    i0, i1, i2 = mesh.triangles[triangle_id]
    v = mesh.vertices
    n = np.cross(v[i1] - v[i0], v[i2] - v[i0])
    norm = np.linalg.norm(n)
    if norm <= 2.0 * DEGENERATE_AREA_MM2:
        raise MeshValidationError(f"degenerate triangle {triangle_id}")
    return n / norm


def triangle_normals(mesh: TriangleMesh) -> np.ndarray:
    a, b, c = mesh.corners()
    n = np.cross(b - a, c - a)
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _closest_on_triangles(a, b, c, q):
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


def closest_point_brute(mesh: TriangleMesh, query) -> SurfaceHit:
    """Exhaustive per-triangle closest point; the reference query path."""
    if len(mesh) == 0:
        raise EmptyMeshError("closest_point on empty mesh")
    q = np.asarray(query, dtype=float).reshape(3)
    a, b, c = mesh.corners()
    pts, d2 = _closest_on_triangles(a, b, c, q)
    best = int(np.argmin(d2))  # argmin keeps the lowest id on exact ties
    return SurfaceHit(pts[best], best)


def _nearest(mesh: TriangleMesh, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest surface point (Q, 3) and triangle id (Q,) for each query row.

    Per block of queries: box lower bounds for every query x chunk, an
    upper bound from each chunk's anchor vertex, then the exact routine on
    every (query, chunk) pair whose bound can win. Ties go to the lowest id.
    """
    bad = np.flatnonzero(~np.isfinite(q).all(axis=1))
    if bad.size:  # a nan row would have no candidate chunk
        raise ValidationError(f"non-finite query point at row {bad[0]}: {q[bad[0]].tolist()}")
    ids, lo, hi, anchor = mesh.index()
    a, b, c = mesh.corners()
    points = np.empty_like(q)
    tri_ids = np.empty(len(q), dtype=np.int64)
    step = max(1, _BLOCK_ELEMENTS // (3 * len(ids)))
    pair_step = max(1, _BLOCK_ELEMENTS // (3 * CHUNK_SIZE))
    for start in range(0, len(q), step):
        block = q[start:start + step, None, :]
        gap = np.maximum(lo - block, 0.0) + np.maximum(block - hi, 0.0)
        lower = (gap * gap).sum(-1)
        diff = anchor - block
        upper = (diff * diff).sum(-1).min(axis=1)
        rows, chunks = np.nonzero(lower <= upper[:, None])  # rows ascending
        found = []  # per pair: the chunk's nearest d2, its lowest-id triangle, the point
        for p in range(0, len(rows), pair_step):
            sl = slice(p, p + pair_step)
            tris = ids[chunks[sl]]
            pts, d2 = _closest_on_triangles(a[tris], b[tris], c[tris], block[rows[sl], 0])
            best_d2 = d2.min(axis=1)
            k = np.argmin(np.where(d2 == best_d2[:, None], tris, len(mesh)), axis=1)
            r = np.arange(len(k))
            found.append((best_d2, tris[r, k], pts[r, k]))
        pair_d2, pair_id, pair_pt = (np.concatenate(x) for x in zip(*found))
        order = np.lexsort((pair_id, pair_d2, rows))
        first = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
        points[start:start + step] = pair_pt[first]
        tri_ids[start:start + step] = pair_id[first]
    return points, tri_ids


def closest_point(mesh: TriangleMesh, query) -> SurfaceHit:
    """Globally nearest surface point; exact ties go to the lowest id."""
    if len(mesh) == 0:
        raise EmptyMeshError("closest_point on empty mesh")
    points, tri_ids = _nearest(mesh, np.asarray(query, dtype=float).reshape(1, 3))
    return SurfaceHit(points[0], tri_ids[0])


def closest_point_batch(mesh: TriangleMesh, queries) -> np.ndarray:
    """Nearest surface point for each query row; returns (Q, 3)."""
    if len(mesh) == 0:
        raise EmptyMeshError("closest_point on empty mesh")
    return _nearest(mesh, np.asarray(queries, dtype=float).reshape(-1, 3))[0]


def _ray_hits_triangles(a, b, c, origin, direction):
    """Moller-Trumbore over a triangle batch: (t, valid) arrays."""
    e1 = b - a
    e2 = c - a
    h = np.cross(direction[None, :], e2)
    det = np.einsum("ij,ij->i", e1, h)
    valid = np.abs(det) > _RAY_PARALLEL_EPS
    inv = np.where(valid, det, 1.0)
    s = origin - a
    u = np.einsum("ij,ij->i", s, h) / inv
    qv = np.cross(s, e1)
    v = np.dot(qv, direction) / inv
    t = np.einsum("ij,ij->i", e2, qv) / inv
    valid &= (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > RAY_MIN_PARAMETER)
    return t, valid


def _first_hit(mesh: TriangleMesh, tris: np.ndarray, o, d) -> SurfaceHit | None:
    """Nearest hit among the triangles tris, which are listed in ascending id order."""
    a, b, c = mesh.corners()
    t, valid = _ray_hits_triangles(a[tris], b[tris], c[tris], o, d)
    if not valid.any():
        return None
    t = np.where(valid, t, np.inf)
    best = int(np.argmin(t))  # argmin keeps the lowest id on exact ties
    return SurfaceHit(o + t[best] * d, tris[best], t[best])


def _ray_args(origin, direction) -> tuple[np.ndarray, np.ndarray]:
    """Origin and direction as finite 3-vectors; a nan would read as a miss."""
    o = np.asarray(origin, dtype=float).reshape(3)
    d = np.asarray(direction, dtype=float).reshape(3)
    for name, v in (("origin", o), ("direction", d)):
        if not np.isfinite(v).all():
            raise ValidationError(f"non-finite ray {name}: {v.tolist()}")
    return o, d


def ray_intersect_brute(mesh: TriangleMesh, origin, direction) -> SurfaceHit | None:
    """Exhaustive nearest ray hit; the reference query path."""
    o, d = _ray_args(origin, direction)
    return _first_hit(mesh, np.arange(len(mesh)), o, d)


def ray_intersect(mesh: TriangleMesh, origin, direction) -> SurfaceHit | None:
    """Nearest intersection with ray_parameter > 1e-9 mm, or None."""
    o, d = _ray_args(origin, direction)
    if len(mesh) == 0:
        return None
    ids, lo, hi, _ = mesh.index()
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - o) / d
        t1 = (hi - o) / d
    # an axis with d == 0 gives -inf/+inf inside its slab (no constraint), equal
    # infinities outside it (a miss), and nan on its faces, which is ignored
    enter = np.nanmax(np.minimum(t0, t1), axis=1, initial=-np.inf)
    leave = np.nanmin(np.maximum(t0, t1), axis=1, initial=np.inf)
    return _first_hit(mesh, np.unique(ids[leave >= np.maximum(enter, RAY_MIN_PARAMETER)]), o, d)


def ray_crossing_count(mesh: TriangleMesh, origin, direction) -> int:
    a, b, c = mesh.corners()
    _, valid = _ray_hits_triangles(
        a, b, c, np.asarray(origin, float).reshape(3), np.asarray(direction, float).reshape(3)
    )
    return int(valid.sum())


def contains_point(mesh: TriangleMesh, point) -> bool:
    """Parity containment test for closed meshes."""
    return ray_crossing_count(mesh, point, _PARITY_DIRECTION) % 2 == 1


# one facet loop of exactly three vertices, each captured as its coordinate text
_STL_LOOP_RE = re.compile(
    rb"outer\s+loop\s+" + 3 * rb"vertex\s+(\S+\s+\S+\s+\S+)\s+" + rb"endloop"
)


def load_stl(path, drop_degenerate: bool = False) -> TriangleMesh:
    """Read an ASCII STL file (facet normals are ignored and recomputed).

    Every facet must be one ``outer loop`` of exactly three ``vertex x y z``
    lines before its ``endfacet``; text outside the loops is ignored.
    Vertices are deduplicated by exact coordinate value, in first-occurrence
    order, so the result is an indexed mesh. Degenerate facets raise unless
    drop_degenerate is set.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.lstrip().startswith(b"solid"):
        raise MeshValidationError(f"{path}: not an ASCII STL file")
    # each vertex is spelled once per facet that uses it: parse each spelling once
    spellings: dict[bytes, int] = {}
    corners = [spellings.setdefault(s, len(spellings))
               for m in _STL_LOOP_RE.finditer(data) for s in m.groups()]
    if len(corners) != 3 * data.count(b"endfacet"):
        facets = data.split(b"endfacet")  # the piece after the last endfacet holds no loop
        bad = next((i for i, f in enumerate(facets)
                    if len(_STL_LOOP_RE.findall(f)) != (i < len(facets) - 1)), len(facets) - 1)
        raise MeshValidationError(f"{path}: facet {bad} is not one loop of exactly three vertices")
    if not corners:
        raise MeshValidationError(f"{path}: no facets found")
    vertex_index: dict[tuple, int] = {}  # insertion-ordered: the keys are the vertices
    merged = []  # vertex id of each spelling
    for s in spellings:
        try:
            xyz = tuple(map(float, s.split()))
        except ValueError as exc:  # the message names the token
            raise MeshValidationError(
                f"{path}: facet {corners.index(len(merged)) // 3}: {exc}") from None
        merged.append(vertex_index.setdefault(xyz, len(vertex_index)))
    v = np.asarray(list(vertex_index), dtype=float)
    t = np.asarray(merged, dtype=np.int64)[np.asarray(corners)].reshape(-1, 3)
    if drop_degenerate:
        t = t[_areas(v, t) > DEGENERATE_AREA_MM2]
    return TriangleMesh(v, t)


def save_stl(mesh: TriangleMesh, path, name: str = "surface") -> None:
    """Write an ASCII STL with normals recomputed from winding."""
    normals = triangle_normals(mesh)
    a, b, c = mesh.corners()
    lines = [f"solid {name}"]
    for i in range(len(mesh)):
        nx, ny, nz = (float(x) for x in normals[i])
        lines.append(f"  facet normal {nx!r} {ny!r} {nz!r}")
        lines.append("    outer loop")
        for p in (a[i], b[i], c[i]):
            px, py, pz = (float(x) for x in p)
            lines.append(f"      vertex {px!r} {py!r} {pz!r}")
        lines.append("    endloop")
        lines.append("  endfacet")
    lines.append(f"endsolid {name}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def sample_surface(mesh: TriangleMesh, n: int, rng: np.random.Generator) -> np.ndarray:
    """Area-weighted random points on the surface, shape (n, 3)."""
    a, b, c = mesh.corners()
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    ids = rng.choice(len(mesh), size=n, p=areas / areas.sum())
    r1 = np.sqrt(rng.uniform(size=n))[:, None]
    r2 = rng.uniform(size=n)[:, None]
    return (1.0 - r1) * a[ids] + r1 * (1.0 - r2) * b[ids] + r1 * r2 * c[ids]
