import dataclasses
import math
import typing

import numpy as np
import pytest

from tmsnav.errors import EmptyMeshError, SingularEvaluation
from tmsnav.fieldsim import MU0, _flux_coefficients
from tmsnav.mesh import (
    _RAY_PARALLEL_EPS,
    RAY_MIN_PARAMETER,
    SurfaceHit,
    TriangleMesh,
    _ray_args,
    closest_point_batch,
)
from tmsnav.meshgen import _ICOSAHEDRON, icosphere
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


# the ray kernel as Moller-Trumbore on (T, 3) corner arrays, each dot written out in the
# order einsum("ij,ij->i") takes on (T, 3) rows in numpy 2.4 (x and z, then y), v's x, y
# then z: the reference that mesh.ray_intersect's pass over the corner table must equal bit
# for bit, on any numpy
def oracle_ray_hits_triangles(a, b, c, origin, direction):
    """Moller-Trumbore over a triangle batch: (t, valid) arrays. A triangle is parallel to
    the ray when |det| <= _RAY_PARALLEL_EPS |d|, since det scales with |d|."""
    def dot(x, y):
        return x[:, 0] * y[:, 0] + x[:, 2] * y[:, 2] + x[:, 1] * y[:, 1]

    e1 = b - a
    e2 = c - a
    h = np.cross(direction[None, :], e2)
    det = dot(e1, h)
    dx, dy, dz = direction
    valid = np.abs(det) > _RAY_PARALLEL_EPS * np.sqrt(dx * dx + dy * dy + dz * dz)
    inv = np.where(valid, det, 1.0)
    s = origin - a
    u = dot(s, h) / inv
    qv = np.cross(s, e1)
    v = (qv[:, 0] * direction[0] + qv[:, 1] * direction[1] + qv[:, 2] * direction[2]) / inv
    t = dot(e2, qv) / inv
    valid &= (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > RAY_MIN_PARAMETER)
    return t, valid


def ray_intersect_brute(mesh: TriangleMesh, origin, direction) -> SurfaceHit | None:
    """Exhaustive nearest ray hit through the oracle kernel; the reference query path.

    ray_parameter is t*|d|, in mm. The oracle's own cut t > RAY_MIN_PARAMETER, in units of
    |d|, is the stricter one only for |d| > 1 and a hit within |d| * 1e-9 mm of the origin.
    """
    o, d, length = _ray_args(mesh, origin, direction)
    t, valid = oracle_ray_hits_triangles(*mesh.corners(), o, d)
    valid &= t * length > RAY_MIN_PARAMETER
    if not valid.any():
        return None
    t = np.where(valid, t, np.inf)
    best = int(np.argmin(t))  # argmin keeps the lowest id on exact ties
    return SurfaceHit(o + t[best] * d, best, t[best] * length)


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


# the field of each wing's true circle as a trapezoid rule in the world frame: the reference
# that fieldsim's closed form, taken in the coil frame, must equal to 1e-12 of the field
def circle_b_field(coil, points, current_a=None) -> np.ndarray:
    """Biot-Savart field in tesla at one point (3,) or a batch (N, 3) of the coil's posed
    circles: each wing's line integral by the periodic trapezoid rule on 2^16 equally
    spaced nodes, which converges exponentially off the wire (Trefethen & Weideman, SIAM
    Rev. 56(3), 2014), with the exact clearance check of each circle."""
    nodes = 2**16
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    p = p.reshape(-1, 3)
    current = coil.peak_current_a if current_a is None else current_a
    u, v, normal = coil.pose.rotation.T  # the coil's axes in the world frame
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    radial = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    out = np.zeros_like(p)
    for offset, sense in zip(coil.wing_offsets(), coil.wing_senses):
        center = coil.pose.apply(np.array([offset, 0.0, 0.0]))
        d = p - center
        h = (d * normal).sum(-1)
        rho = np.linalg.norm(d - h[:, None] * normal, axis=1)
        if ((rho - coil.loop_radius_mm) ** 2 + h * h < 0.1**2).any():
            raise SingularEvaluation("evaluation point within 0.1 mm of the wire")
        wire = np.ascontiguousarray((center + coil.loop_radius_mm * radial).T) * 1e-3  # m
        tangent = np.cos(theta)[:, None] * v - np.sin(theta)[:, None] * u
        dl = sense * (2.0 * np.pi * coil.loop_radius_mm * 1e-3 / nodes) * tangent
        for lo in range(0, len(p), 2):  # two points at a time keep the temporaries small
            r = p[lo:lo + 2].T[:, :, None] * 1e-3 - wire[:, None, :]  # (3, points, nodes)
            r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2]
            r *= 1.0 / (r2 * np.sqrt(r2))
            m = (r.reshape(-1, nodes) @ dl).reshape(3, -1, 3)  # m[j, i, k]: sum of r_j dl_k
            out[lo:lo + 2] += (m[[2, 0, 1], :, [1, 2, 0]] - m[[1, 2, 0], :, [2, 0, 1]]).T
    out *= MU0 * current * coil.loop_turns / (4.0 * np.pi)
    return out[0] if single else out


# the vector potential of each wing's true circle as a trapezoid rule in the world frame: the
# reference that fieldsim's rim flux, taken in the coil frame, must equal to 1e-12
def circle_a_field(coil, points, current_a=None) -> np.ndarray:
    """Vector potential in tesla-meters at one point (3,) or a batch (N, 3) of the coil's
    posed circles: each wing's line integral of dl / |r| by the periodic trapezoid rule on
    2^16 equally spaced nodes, with the exact clearance check of each circle, as
    circle_b_field takes B."""
    nodes = 2**16
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    p = p.reshape(-1, 3)
    current = coil.peak_current_a if current_a is None else current_a
    u, v, normal = coil.pose.rotation.T  # the coil's axes in the world frame
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    radial = np.cos(theta)[:, None] * u + np.sin(theta)[:, None] * v
    tangent = np.cos(theta)[:, None] * v - np.sin(theta)[:, None] * u
    out = np.zeros_like(p)
    for offset, sense in zip(coil.wing_offsets(), coil.wing_senses):
        center = coil.pose.apply(np.array([offset, 0.0, 0.0]))
        d = p - center
        h = (d * normal).sum(-1)
        rho = np.linalg.norm(d - h[:, None] * normal, axis=1)
        if ((rho - coil.loop_radius_mm) ** 2 + h * h < 0.1**2).any():
            raise SingularEvaluation("evaluation point within 0.1 mm of the wire")
        wire = np.ascontiguousarray((center + coil.loop_radius_mm * radial).T)  # (3, nodes), mm
        dl = sense * (2.0 * np.pi * coil.loop_radius_mm / nodes) * tangent  # mm: dl / |r| has no unit
        for lo in range(0, len(p), 2):  # two points at a time keep the temporaries small
            r = p[lo:lo + 2].T[:, :, None] - wire[:, None, :]  # (3, points, nodes)
            np.square(r, out=r)
            inv = r[0]
            inv += r[1]
            inv += r[2]
            np.sqrt(inv, out=inv)
            out[lo:lo + 2] += np.divide(1.0, inv, out=inv) @ dl
    out *= MU0 * current * coil.loop_turns / (4.0 * np.pi)
    return out[0] if single else out


def near_wire_points(coil, rng, n):
    """Coil-frame points 0.15-5 mm from a wing's circle, at least 0.15 mm from every wing.

    Each sits beside a random wing at a random angle: in the winding plane
    (outside or inside the circle), straight above or below it, or at a
    random tilt between; points that come nearer the other wing are dropped.
    """
    offsets = np.array(coil.wing_offsets())
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    gap = np.exp(rng.uniform(np.log(0.15), np.log(5.0), n))
    tilt = rng.choice([0.0, np.pi, 0.5 * np.pi, -0.5 * np.pi, np.nan], size=n)
    tilt = np.where(np.isnan(tilt), rng.uniform(-np.pi, np.pi, n), tilt)
    radial = coil.loop_radius_mm + gap * np.cos(tilt)
    pts = np.stack([rng.choice(offsets, size=n) + radial * np.cos(phi),
                    radial * np.sin(phi), gap * np.sin(tilt)], axis=1)
    to_circle = [np.hypot(np.hypot(pts[:, 0] - o, pts[:, 1]) - coil.loop_radius_mm, pts[:, 2])
                 for o in offsets]
    return pts[np.min(to_circle, axis=0) >= 0.15]


def pose_arrays(pose: RigidTransform) -> tuple[np.ndarray, np.ndarray]:
    """One pose as the (rotation, translation) arrays the field functions take."""
    return pose.rotation, pose.translation


def flux_coefficient(coil, sensor, axis: int) -> float:
    """Webers per ampere through one sensor winding (turns included)."""
    return float(_flux_coefficients(coil, sensor, *pose_arrays(sensor.pose))[0, axis])


def interval_edges(cls) -> list[tuple[str, str, tuple]]:
    """(field name, JSON key, (below, least, greatest, above)) of each bounded field of the
    dataclass `cls`: the least and greatest values its interval text admits, read here
    independently of fileio, and the nearest values of the field's type outside them."""
    hints, out = typing.get_type_hints(cls), []
    for f in dataclasses.fields(cls):
        text = f.metadata.get("interval")
        if text is None:
            continue
        lo, hi = (float(x) for x in text.strip("[()]").split(","))
        least = lo if text[0] == "[" else float(np.nextafter(lo, np.inf))
        greatest = hi if text[-1] == "]" else float(np.nextafter(hi, -np.inf))
        if hints[f.name] is int:
            least, greatest = math.ceil(least), math.floor(greatest)
            edges = (least - 1, least, greatest, greatest + 1)
        else:
            edges = (float(np.nextafter(least, -np.inf)), least, greatest,
                     float(np.nextafter(greatest, np.inf)))
        out.append((f.name, f.metadata.get("json", f.name), edges))
    return out


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


def oracle_orthonormalize(rotation: np.ndarray) -> np.ndarray:
    """Nearest proper rotation in the Frobenius sense (via SVD)."""
    u, _, vt = np.linalg.svd(rotation)
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u = u.copy()
        u[:, -1] *= -1.0
        r = u @ vt
    return r


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


# --- phantom surfaces --------------------------------------------------------

# the icosphere as a loop over the faces with a midpoint cache, each norm the fixed-order sum
# sqrt(x*x + y*y + z*z): the reference that meshgen's array-built levels must equal byte for
# byte
def oracle_icosphere(radius: float = 1.0, subdivisions: int = 3,
                     center=(0.0, 0.0, 0.0)) -> TriangleMesh:
    """Subdivided icosahedron projected onto a sphere, one midpoint at a time."""
    def norm(m):
        return np.sqrt(m[0] * m[0] + m[1] * m[1] + m[2] * m[2])

    verts, tris = _ICOSAHEDRON
    verts = verts / norm(verts[0])
    vert_list = [tuple(p) for p in verts]
    cache: dict[tuple[int, int], int] = {}

    def midpoint(i, j):
        key = (i, j) if i < j else (j, i)
        idx = cache.get(key)
        if idx is None:
            m = np.asarray(vert_list[i]) + np.asarray(vert_list[j])
            m /= norm(m)
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
