"""Indexed triangle surfaces and their spatial queries.

Meshes are consumed in millimeters with outward-winding triangles:
normal = normalize((v1 - v0) x (v2 - v0)) points away from the enclosed
volume. Closest-point and ray queries are exact and deterministic, ties going
to the lowest triangle id. Closest points are served by one index, built on
the first query: an 8-ary tree over the triangles in the Morton order of their
centroids, from each triangle's box up. A batch of closest-point queries may
start from earlier triangle ids, with the same results. A ray tests every
triangle in one pass: a plan casts one ray per mesh, and the pass costs less
than building the index. Containment sums the generalized winding number over
every triangle, so open surfaces need no cap. A mesh gathers its corners once
into its one corner layout, a (coordinate, corner, triangle) table: the normals,
the index build, containment, closest points and rays run on its rows, with
fixed-order sums and no BLAS. A file that load_stl reads again in one process
(a session re-planning on one subject's skin and cortex) is parsed once more and
kept: later reads of the same bytes return that mesh, and its index, from memory.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import count, islice

import numpy as np

from .errors import EmptyMeshError, MeshValidationError, ValidationError
from .transforms import direction_length

DEGENERATE_AREA_MM2 = 1e-9
RAY_MIN_PARAMETER = 1e-9
_RAY_PARALLEL_EPS = 1e-12

CHUNK_SIZE = 8  # children per tree node
# cap on the (query, node) pairs of one step of a tree walk, so on its temporaries
_BLOCK_PAIRS = 1 << 14
# boxes are widened by this fraction of the mesh's coordinate scale, so rounding
# in the per-triangle distances can never cull the winning triangle
_BOX_PAD = 1e-9
# (lo, hi, anchor) of the nodes that pad a level: an empty box, an anchor at infinity
_EMPTY_NODE = np.array([[np.inf] * 3, [-np.inf] * 3, [np.inf] * 3])
# L (D + L) bound, L and D the largest coordinate magnitudes of a mesh and a query: below
# it every product in _closest_on_triangles (at most 216 L^2 (D + L)^2) and the squared
# distance of every lane it selects (the rejected lanes are masked) stay finite, so no
# row's bound is inf, which would keep the empty nodes too; a ray origin takes the same bound
_FAR_LIMIT = 1e150
# a point within this fraction of the coordinate scale of a triangle is on the surface: far
# above the rounding of a point put on a face, far below an offset meant to leave it
_ON_SURFACE = 1e-13


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
    """30-bit Morton codes of points (3, N), quantized to 1024 cells per axis of their box."""
    lo = points.min(axis=1, keepdims=True)
    span = points.max(axis=1, keepdims=True) - lo
    cells = ((points - lo) * (1023.0 / np.where(span > 0.0, span, 1.0))).astype(np.int64)
    for shift, mask in ((16, 0xFF0000FF), (8, 0x0F00F00F), (4, 0xC30C30C3), (2, 0x49249249)):
        cells = (cells | cells << shift) & mask  # spread each axis's 10 bits 3 apart
    return (cells[0] << 2) | (cells[1] << 1) | cells[2]


class TriangleMesh:
    """Read-only indexed triangle surface: its unit face normals (T, 3), from the stored
    winding, and a lazily built spatial index."""

    def __init__(self, vertices, triangles):
        v = np.array(vertices, dtype=float, order="C")  # copies
        t = np.array(triangles, dtype=np.int64, order="C")
        for name, x in (("vertex", v), ("triangle", t)):
            if x.ndim != 2 or x.shape[1] != 3:
                raise MeshValidationError(f"{name} array must have shape (N, 3), not {x.shape}")
        bad = np.flatnonzero(~np.isfinite(v)) // 3  # the rows of the bad entries
        if bad.size:
            raise MeshValidationError(f"non-finite vertex {bad[0]}: {v[bad[0]].tolist()}")
        # no query would pass _nearest's bound on a mesh with a coordinate c where
        # c^2 >= _FAR_LIMIT, and the cross products below could overflow
        bad = np.flatnonzero(np.abs(v) >= np.sqrt(_FAR_LIMIT)) // 3
        if bad.size:
            raise MeshValidationError(f"vertex {bad[0]} has a coordinate of 1e75 mm or more: "
                                      f"{v[bad[0]].tolist()}")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise MeshValidationError("triangle index out of range")
        v.setflags(write=False)
        t.setflags(write=False)
        self.vertices = v
        self.triangles = t
        # the corners, gathered once into a (coordinate, corner, triangle) table for the
        # normals, the index build, containment and closest points
        self._table = table = np.ascontiguousarray(v.T).take(t.T, axis=1)
        u, w = table[:, 1] - table[:, 0], table[:, 2] - table[:, 0]  # edge rows (3, T)
        cross = u[[1, 2, 0]] * w[[2, 0, 1]] - u[[2, 0, 1]] * w[[1, 2, 0]]  # as np.cross forms it
        length = np.sqrt((cross * cross).sum(axis=0))  # fixed-order sums: no BLAS kernel
        bad = np.flatnonzero(0.5 * length <= DEGENERATE_AREA_MM2)
        if bad.size:
            raise MeshValidationError(
                f"{bad.size} degenerate triangle(s), first at id {int(bad[0])}"
            )
        self.normals = np.ascontiguousarray((cross / length).T)
        for x in (table, self.normals):
            x.setflags(write=False)
        self._index = None

    def __len__(self) -> int:
        return len(self.triangles)

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-triangle vertex arrays (a, b, c), each a read-only (T, 3) view of the table."""
        return tuple(self._table.transpose(1, 2, 0))

    def index(self) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
        """Spatial index (ids, levels), built on first use (non-empty meshes).

        ids holds the triangle ids in Morton order of the centroids (from the corner table's
        rows), ties in id order: one sort of the keys (code << bits) | id. Each level
        is (N, 3, 3) node rows (lo, hi, anchor): a widened box and a vertex in
        it. levels[0] has one node per triangle of ids, and node j of a level
        above bounds nodes 8j to 8j + 7 below it (CHUNK_SIZE = 8), up to a top level
        of at most 8 nodes. Empty nodes (_EMPTY_NODE) pad each level to a multiple of 8.
        """
        if self._index is None:
            table = self._table
            a, b, c = table[:, 0], table[:, 1], table[:, 2]
            n = len(self)
            bits = max(1, (n - 1).bit_length())  # 30-bit codes: the keys fit in 63 bits
            keys = np.sort(_morton_codes((a + b + c) / 3.0) << bits | np.arange(n))
            ids = keys & ((1 << bits) - 1)
            pad = _BOX_PAD * (1.0 + np.abs(self.vertices).max())
            nodes = np.empty((n + -n % CHUNK_SIZE, 3, 3))  # the padded leaf level
            for k, rows in enumerate((table.min(axis=1) - pad, table.max(axis=1) + pad, a)):
                nodes[:n, k] = rows.take(ids, axis=1).T  # lo, hi, anchor in Morton order
            nodes[n:] = _EMPTY_NODE
            levels = []
            while not levels or len(nodes) > 1:  # up to the root, which is not kept
                empty = np.broadcast_to(_EMPTY_NODE, (-len(nodes) % CHUNK_SIZE, 3, 3))
                levels.append(np.concatenate([nodes, empty]) if len(empty) else nodes)
                # child k of every parent at once: min and max over 8 long rows, not 8-wide axes
                g = levels[-1].reshape(-1, CHUNK_SIZE, 3, 3).transpose(1, 0, 2, 3)
                nodes = np.stack([reduce(np.minimum, g[:, :, 0]), reduce(np.maximum, g[:, :, 1]),
                                  g[0, :, 2]], 1)
            for x in (ids, *levels):
                x.setflags(write=False)
            self._index = (ids, tuple(levels))
        return self._index


def _descend(mesh: TriangleMesh, n_rows: int, keep):
    """Walk the index depth first from the root for n_rows queries and yield the kept leaf
    pairs as (rows, triangle ids), at least once. A step expands at most
    _BLOCK_PAIRS / CHUNK_SIZE (row, node) pairs; keep(rows, nodes) flags which of their
    children to keep."""
    ids, levels = mesh.index()
    step = _BLOCK_PAIRS // CHUNK_SIZE
    stack = [(len(levels) - 1, np.arange(n_rows), np.zeros(n_rows, dtype=np.int64))]
    while stack:
        level, rows, parents = stack.pop()
        if len(rows) > step:
            stack.append((level, rows[step:], parents[step:]))
            rows, parents = rows[:step], parents[:step]
        children = (parents[:, None] * CHUNK_SIZE + np.arange(CHUNK_SIZE)).ravel()
        rows = rows.repeat(CHUNK_SIZE)
        kept = keep(rows, levels[level][children])
        rows, children = rows[kept], children[kept]
        if level:
            stack.append((level - 1, rows, children))
        else:
            yield rows, ids[children]


def _closest_on_triangles(corners, q):
    """Closest point of each (triangle, query) pair: points (3, P), squared distances (P,).

    corners holds (coordinate, corner, pair) rows gathered from a mesh's table, and q
    (coordinate, pair) query rows, or (3, 1) for one query against every pair. Each dot
    sums x, y, z in turn. One select picks each pair's Voronoi region (Ericson, Real-Time
    Collision Detection, 2005, 5.1.5) by exact comparisons, the first that holds in the
    order vertex a, vertex b, edge ab, vertex c, edge ac, edge bc, else the face. Every
    region's point is formed in every lane; a rejected lane's may divide by zero,
    overflow or be nan, and is masked.
    """
    a, b, c = corners.transpose(1, 0, 2)  # (3, P) rows each
    ab, ac = b - a, c - a
    d1, d2, d3, d4, d5, d6 = (u[0] * w[0] + u[1] * w[1] + u[2] * w[2]
                              for w in (q - a, q - b, q - c) for u in (ab, ac))
    va, vb, vc = d3 * d6 - d5 * d4, d5 * d2 - d1 * d6, d1 * d4 - d3 * d2
    with np.errstate(all="ignore"):
        denom = va + vb + vc
        points = np.select(
            [(d1 <= 0.0) & (d2 <= 0.0), (d3 >= 0.0) & (d4 <= d3),
             (vc <= 0.0) & (d1 >= 0.0) & (d3 <= 0.0), (d6 >= 0.0) & (d5 <= d6),
             (vb <= 0.0) & (d2 >= 0.0) & (d6 <= 0.0),
             (va <= 0.0) & (d4 - d3 >= 0.0) & (d5 - d6 >= 0.0)],
            [a, b, a + d1 / (d1 - d3) * ab, c, a + d2 / (d2 - d6) * ac,
             b + (d4 - d3) / (d4 - d3 + d5 - d6) * (c - b)],
            a + vb / denom * ab + vc / denom * ac)
    diff = points - q
    return points, diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]


def _nearest(mesh: TriangleMesh, q: np.ndarray,
             start: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest surface point (Q, 3) and triangle id (Q,) for each query row.

    The index walk keeps a node whose box's lower bound is at or below the row's
    upper bound, which each visited anchor and exact distance tightens; the exact
    routine runs on kept leaf triangles only. Ties go to the lowest id. start, one
    triangle id per row, seeds the upper bound with that triangle's exact squared
    distance: never below the minimum, so every tied winner is still kept.
    """
    if len(mesh) == 0:
        raise EmptyMeshError("closest_point on empty mesh")
    bad = np.flatnonzero(~np.isfinite(q).all(axis=1))
    if bad.size:  # a nan row would have no candidate triangle
        raise ValidationError(f"non-finite query point at row {bad[0]}: {q[bad[0]].tolist()}")
    scale = np.abs(mesh.vertices).max()
    bad = np.flatnonzero(scale * (np.abs(q).max(axis=1) + scale) >= _FAR_LIMIT)
    if bad.size:
        raise ValidationError(f"query point at row {bad[0]} is too far from the mesh for exact "
                              f"distances: {q[bad[0]].tolist()}")
    table = mesh._table
    if start is None:
        upper = np.full(len(q), np.inf)
    else:
        start = np.asarray(start)
        if start.shape != (len(q),) or start.dtype.kind not in "iu" or (
                len(q) and not 0 <= start.min() <= start.max() < len(mesh)):
            raise ValidationError(f"start ids must be {len(q)} triangle ids in [0, {len(mesh)})")
        upper = _closest_on_triangles(table[:, :, start], q.T)[1]
    best_d2 = np.full(len(q), np.inf)
    tri_ids = np.zeros(len(q), dtype=np.int64)
    points = np.empty_like(q)

    def keep(rows, nodes):
        p = q[rows]
        gap = np.maximum(nodes[:, 0] - p, 0.0) + np.maximum(p - nodes[:, 1], 0.0)
        diff = nodes[:, 2] - p
        np.minimum.at(upper, rows, np.einsum("ij,ij->i", diff, diff))
        return np.einsum("ij,ij->i", gap, gap) <= upper[rows]

    for rows, tris in _descend(mesh, len(q), keep):
        pts, d2 = _closest_on_triangles(table[:, :, tris], q.T[:, rows])
        first = np.lexsort((tris, d2, rows))  # per row: nearest, then lowest id
        first = first[np.flatnonzero(np.diff(rows[first], prepend=-1))]
        r, d2, tris = rows[first], d2[first], tris[first]
        better = (d2 < best_d2[r]) | ((d2 == best_d2[r]) & (tris < tri_ids[r]))
        r, first = r[better], first[better]
        best_d2[r], tri_ids[r], points[r] = d2[better], tris[better], pts[:, first].T
        np.minimum(upper, best_d2, out=upper)
    return points, tri_ids


def closest_point(mesh: TriangleMesh, query) -> SurfaceHit:
    """Globally nearest surface point; exact ties go to the lowest id."""
    points, tri_ids = _nearest(mesh, np.asarray(query, dtype=float).reshape(1, 3))
    return SurfaceHit(points[0], tri_ids[0])


def closest_point_batch(mesh: TriangleMesh, queries,
                        start_ids=None) -> tuple[np.ndarray, np.ndarray]:
    """Nearest surface point (Q, 3) and triangle id (Q,) for each query row.

    start_ids, one triangle id per row (say, each row's answer before a small move),
    warm-starts the search; the results are identical with or without it.
    """
    return _nearest(mesh, np.asarray(queries, dtype=float).reshape(-1, 3), start_ids)


def _ray_args(mesh: TriangleMesh, origin, direction) -> tuple[np.ndarray, np.ndarray, float]:
    """Origin and direction as finite 3-vectors, with the direction's length |d| from
    `direction_length` (|d|^2 a finite normal float) and the origin within the bound _nearest
    puts on its queries: a nan or zero direction would read as a miss, and a far origin as a
    hit wherever its rounding lands."""
    o = np.asarray(origin, dtype=float).reshape(3)
    d = np.asarray(direction, dtype=float).reshape(3)
    for name, v in (("origin", o), ("direction", d)):
        if not np.isfinite(v).all():
            raise ValidationError(f"non-finite ray {name}: {v.tolist()}")
    length = direction_length(d, "ray direction")
    scale = np.abs(mesh.vertices).max(initial=0.0)
    if scale * (np.abs(o).max() + scale) >= _FAR_LIMIT:
        raise ValidationError(f"ray origin is too far from the mesh for exact hits: {o.tolist()}")
    return o, d, length


def ray_intersect(mesh: TriangleMesh, origin, direction) -> SurfaceHit | None:
    """Nearest intersection with ray_parameter > 1e-9 mm, or None; exact ties go to the
    lowest id. The hit lies at o + t*d, and its ray_parameter is t*|d|, its distance from
    the origin in mm for any direction length.

    One Moller-Trumbore pass tests every triangle on the corner table's rows, with no index:
    a plan casts one ray at a freshly loaded skin, and one pass costs less than building the
    index it would walk. Each cross product is formed as np.cross forms it, and each dot
    sums x and z, then y, as einsum("ij,ij->i") does on (T, 3) rows (numpy 2.4); v sums
    x, y, z in turn. A triangle is parallel to the ray when |det| <= 1e-12 |d|: det scales
    with |d|, so the cut does not depend on the direction's length.
    """
    o, d, length = _ray_args(mesh, origin, direction)
    a, b, c = mesh._table.transpose(1, 0, 2)  # (3, T) rows each
    e1, e2, s = b - a, c - a, o[:, None] - a
    h = d[[1, 2, 0], None] * e2[[2, 0, 1]] - d[[2, 0, 1], None] * e2[[1, 2, 0]]
    qv = s[[1, 2, 0]] * e1[[2, 0, 1]] - s[[2, 0, 1]] * e1[[1, 2, 0]]
    det = e1[0] * h[0] + e1[2] * h[2] + e1[1] * h[1]
    valid = np.abs(det) > _RAY_PARALLEL_EPS * length  # det scales with |d|
    inv = np.where(valid, det, 1.0)
    u = (s[0] * h[0] + s[2] * h[2] + s[1] * h[1]) / inv
    v = (qv[0] * d[0] + qv[1] * d[1] + qv[2] * d[2]) / inv
    t = (e2[0] * qv[0] + e2[2] * qv[2] + e2[1] * qv[1]) / inv
    valid &= (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t * length > RAY_MIN_PARAMETER)
    if not valid.any():
        return None
    t = np.where(valid, t, np.inf)
    best = int(np.argmin(t))  # argmin keeps the lowest id on exact ties
    return SurfaceHit(o + t[best] * d, best, t[best] * length)


def contains_point(mesh: TriangleMesh, point) -> bool:
    """Whether the surface's generalized winding number w at point has |w| > 1/2.

    w sums each triangle's signed solid angle over 4 pi (Jacobson et al. 2013): +-1 inside
    a closed mesh of either winding, 0 outside, fractional near an open rim, 1/2 on a face.
    The solid angles are taken on the corner table's coordinate rows, O(T) per point. A
    point on the surface (within _ON_SURFACE of the coordinate scale) is not inside: the
    rounded sum would read w there as 0 or 1.
    """
    p = np.asarray(point, dtype=float).reshape(3)
    if not np.isfinite(p).all():  # a nan would read as outside
        raise ValidationError(f"non-finite point: {p.tolist()}")
    scale = np.abs(mesh.vertices).max(initial=0.0)
    reach = np.abs(p).max() + scale  # every solid-angle product is at most about 21 reach^3
    if reach >= 1e100:  # an overflow would read as outside
        raise ValidationError(f"point is too far from the mesh for exact containment: {p.tolist()}")
    # coordinate rows of the corners about p; each dot sums x and z, then y, the order
    # einsum("ij,ij->i") takes on (T, 3) rows (numpy 2.4), so w is bitwise einsum's
    (ax, bx, cx), (ay, by, cy), (az, bz, cz) = x, y, z = mesh._table - p[:, None, None]
    la, lb, lc = np.sqrt(x * x + z * z + y * y)
    det = ax * (by * cz - bz * cy) + az * (bx * cy - by * cx) + ay * (bz * cx - bx * cz)
    # |det| is twice the area times the plane's distance, and twice the area is at most
    # la lb + lb lc + lc la: the band is doubled for the rounding of det and the distances
    band = _ON_SURFACE * (1.0 + scale)
    near = mesh._table[:, :, np.abs(det) <= 2.0 * band * (la * lb + lb * lc + lc * la)]
    if near.size and _closest_on_triangles(near, p[:, None])[1].min() <= band * band:
        return False
    den = (la * lb * lc + (ax * bx + az * bz + ay * by) * lc
           + (bx * cx + bz * cz + by * cy) * la + (cx * ax + cz * az + cy * ay) * lb)
    return bool(abs(np.arctan2(det, den).sum()) > np.pi)  # Van Oosterom-Strackee half angles


# one facet record: a loop of exactly three vertices, each captured as its
# coordinate text, closed by the facet's endfacet
_STL_FACET_RE = re.compile(
    rb"outer\s+loop\s+" + 3 * rb"vertex\s+(\S+\s+\S+\s+\S+)\s+" + rb"endloop\s+endfacet\b"
)
# the same records, scanned about twice as fast: a spelling is a run of bytes other than
# one that no number holds and the next keyword starts with (v of vertex, d of endloop),
# which sre scans in its tight loop where \S tests a category per byte, ending in
# whitespace. The 256-byte bound keeps a loop with no endloop from scanning the rest of
# the file. Rstripped to exactly three words, a spelling is _STL_FACET_RE's, and its
# record is the one _STL_FACET_RE matches at the same place
_STL_FAST_RE = re.compile(
    rb"outer\s+loop\s+" + 2 * rb"vertex\s+([^v]{0,256}\s)" + rb"vertex\s+([^d]{0,256}\s)"
    rb"endloop\s+endfacet\b")
# the keywords that a well-formed file holds only in its records
_STL_KEYWORD_RE = re.compile(rb"outer\s+loop|endloop|endfacet")
# a solid or endsolid name in the text between records (\0 where a record was): it runs to
# the line end, across any record there, but ends before a word facet that is followed on
# its line by outer loop or a record, so a one-line file keeps its facets; only the first
# facet word after solid is tried (linear time): a later one could end the name only if it could
_STL_NAME_RE = re.compile(
    rb"solid\b(?:(?:(?!\bfacet\b)[^\n])*(?=\bfacet\b[^\n]*?(?:\0|outer\s+loop))|[^\n]*)")


# load_stl's last _KEEP paths (a subject's skin and cortex), least recent first
_KEEP = 2
_kept: dict = {}


def _holds_keyword(text: bytes) -> bool:
    # every keyword holds "loop" or "endfacet", which a plain byte search finds fast, and
    # memchr finds the p of "loop" faster still
    return ((b"p" in text and b"loop" in text) or b"endfacet" in text) and bool(
        _STL_KEYWORD_RE.search(text))


def load_stl(path) -> TriangleMesh:
    """Read an ASCII STL file (facet normals are ignored and recomputed).

    Every facet must be one ``outer loop`` of exactly three ``vertex x y z``
    lines, then ``endloop``, then its ``endfacet``; other text between the
    facets and the ``solid``/``endsolid`` names are ignored. One regex pass splits
    the file into facet records and the text between them, where one rule reads
    every name: it runs to its line end, across any record on that line, unless
    it ends before a word ``facet`` followed on the line by ``outer loop`` or a
    record. A record inside a name is name text, but one that goes on past the
    name's line end is a broken facet. A keyword left in that text or in a vertex
    spelling names the facet after the last whole record before it.
    The pass takes a fast record scan first. It accepts the file only if each
    spelling it finds is three words and no keyword lies between its records (names
    included); any other file is read again with the exact record regex, which alone
    accepts such a file or names its fault. Both give the same mesh.
    Vertices are merged by exact coordinate value, in first-occurrence order, so
    the result is an indexed mesh. Degenerate facets raise.

    The last _KEEP paths read are remembered. A path read for the first time keeps
    nothing, so a process that reads each file once holds no copy of any; read again, it
    keeps its bytes and mesh, and every later read whose bytes equal them (==, a length
    check, then memcmp) returns that same read-only mesh, with its index if a query built
    it. Changed bytes are parsed afresh, and a read that raises keeps nothing.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise MeshValidationError(f"cannot read STL file {path}: {err}") from err
    seen = _kept.pop(path, False)  # False: not seen; None: seen once; else (data, mesh)
    if seen and seen[0] == data:
        _kept[path] = seen
        return seen[1]
    # \0 marks a record below; a NUL byte of the file's own (a binary STL whose header
    # starts with "solid") would read as one
    if not re.match(rb"\s*solid", data) or b"\0" in data:
        raise MeshValidationError(f"{path}: not an ASCII STL file")
    try:
        vertices, triangles = _read_facets(path, data, fast=True)
    except MeshValidationError:
        vertices, triangles = _read_facets(path, data, fast=False)
    mesh = TriangleMesh(vertices, triangles)
    _kept[path] = None if seen is False else (data, mesh)
    if len(_kept) > _KEEP:
        del _kept[next(iter(_kept))]
    return mesh


def _read_facets(path, data: bytes, fast: bool) -> tuple[np.ndarray, np.ndarray]:
    """Merged vertices and triangles of load_stl's data, split by the fast or the exact
    record regex; any fault raises MeshValidationError."""
    record_re = _STL_FAST_RE if fast else _STL_FACET_RE
    parts = record_re.split(data)  # the text between records at 0, 4, 8, ...
    text = b"\0".join(parts[::4])  # \0 is no whitespace: no keyword forms across a join
    del parts[::4]  # leaves each record's three vertex spellings, in order
    if fast:
        parts = list(map(bytes.rstrip, parts))
    # each vertex is spelled once per facet that uses it: parse each spelling once
    spellings = dict.fromkeys(parts)
    # their words, each spelling's closed by the word vd, which no fast spelling holds
    words = b" vd ".join(spellings).split()
    between = _holds_keyword(text)
    # a fast record is the exact one at its place when its spellings are three words each
    # (held records too, so before names drop them); with no keyword between the records,
    # names included, no exact record starts there either, so both scans split alike
    if fast and (between or len(words) != 4 * len(spellings) - 1
                 or words[3::4].count(b"vd") != len(spellings) - 1):
        raise MeshValidationError(f"{path}: not read by the fast record scan")
    in_names = []  # (first, count) of the records that names hold, in file order

    def blank(name):
        if b"\0" in name[0]:  # count the records before a name only where it holds one
            in_names.append((text.count(b"\0", 0, name.start()), name[0].count(b"\0")))
        return b"#"  # no whitespace: no keyword forms across a blanked name

    gaps = _STL_NAME_RE.sub(blank, text)
    for first, k in reversed(in_names):
        del parts[3 * first:3 * (first + k)]
    if in_names:
        spellings = dict.fromkeys(parts)
        words = b" vd ".join(spellings).split()
    spellings.update(zip(spellings, count()))  # spelling -> id, in first use
    corners = np.fromiter(map(spellings.__getitem__, parts), np.int64, len(parts))
    n = len(corners) // 3
    bad = []  # each fault as the facet after the whole records before it
    if in_names:  # a name ends at its line end, so a record it holds that spans one is broken
        held = [i for first, k in in_names for i in range(first, first + k)]
        spans = [b"\n" in r[0] for r in islice(record_re.finditer(data), held[-1] + 1)]
        bad += [i - before for before, i in enumerate(held) if spans[i]]
    if between and _holds_keyword(gaps):  # a keyword outside a record's own
        bad.append(gaps.count(b"\0", 0, _STL_KEYWORD_RE.search(gaps).start()))
    if _holds_keyword(b"\0".join(spellings)):
        joined = b"\0".join(parts)
        bad.append(joined.count(b"\0", 0, _STL_KEYWORD_RE.search(joined).start()) // 3)
    if bad:
        raise MeshValidationError(
            f"{path}: facet {min(bad)} is not one loop of exactly three vertices")
    if not n:
        raise MeshValidationError(f"{path}: no facets found")
    del words[3::4]  # the vd words: every spelling is three words now
    try:
        xyz = np.fromiter(map(float, words), float).reshape(-1, 3)
    except ValueError as exc:  # the message names the word; name the first facet spelling it
        for s in spellings:  # in first use, so the first that fails holds that word
            try:
                list(map(float, s.split()))
            except ValueError:
                raise MeshValidationError(f"{path}: facet {parts.index(s) // 3}: {exc}") from None
    # merged by value in first use (+ 0.0: -0.0 is 0.0); each keeps its first spelling's value
    keys = (xyz + 0.0).view(np.dtype((np.void, 24))).ravel()
    _, first, merged = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    t = np.argsort(order)[merged][corners].reshape(-1, 3)  # argsort inverts the permutation
    return xyz[first[order]], t


def save_stl(mesh: TriangleMesh, path, name: str = "surface") -> None:
    """Write an ASCII STL with the mesh's face normals, named by one line without NUL that
    load_stl reads whole."""
    lines = [f"solid {name}"]
    line = lines[0].encode()
    # else load_stl would read a next line or a facet spelled in the name, or reject the file
    if b"\0" in line or _STL_NAME_RE.match(line).end() < len(line):
        raise ValidationError(f"STL solid name must be one line without NUL that load_stl "
                              f"reads whole: {name!r}")
    for (nx, ny, nz), corners in zip(mesh.normals.tolist(), mesh._table.T.tolist()):
        lines.append(f"  facet normal {nx!r} {ny!r} {nz!r}\n    outer loop")
        lines += [f"      vertex {px!r} {py!r} {pz!r}" for px, py, pz in corners]
        lines.append("    endloop\n  endfacet")
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
