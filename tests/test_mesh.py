import re
import time
import tracemalloc

import numpy as np
import pytest

from tmsnav import mesh as mesh_module
from tmsnav.errors import EmptyMeshError, MeshValidationError, ValidationError
from tmsnav.mesh import (
    _BLOCK_PAIRS,
    CHUNK_SIZE,
    TriangleMesh,
    _closest_on_triangles,
    closest_point,
    closest_point_batch,
    contains_point,
    load_stl,
    ray_intersect,
    sample_surface,
    save_stl,
)
from tmsnav.meshgen import ellipsoid, grid_patch, hemisphere, icosphere

from conftest import (
    closest_point_brute,
    oracle_closest_on_mesh,
    oracle_closest_on_triangle,
    oracle_closest_on_triangles,
    oracle_winding_number,
    random_soup,
    ray_intersect_brute,
)


def unit_triangle(z=0.0):
    return TriangleMesh([[0, 0, z], [1, 0, z], [0, 1, z]], [[0, 1, 2]])


# Shapes the spatial index must serve exactly as the brute-force oracles do, each built
# from the index's fan-out CHUNK_SIZE.
INDEX_SHAPES = ["soup", "one_triangle", "padded_chunk", "grid_patch", "hemisphere",
                "two_top_nodes"]


def real_nodes_per_level(mesh):
    """Node counts of the index levels, bottom up, without the empty padding nodes."""
    return [int(np.isfinite(level[:, 2, 0]).sum()) for level in mesh.index()[1]]


def index_shape(name, rng):
    if name == "soup":
        return random_soup(rng, 500)
    if name == "one_triangle":
        return random_soup(rng, 1)
    if name == "padded_chunk":  # one full chunk plus one padded chunk
        mesh = random_soup(rng, CHUNK_SIZE + 1)
        assert len(mesh) == CHUNK_SIZE + 1
        return mesh
    if name == "two_top_nodes":  # padded leaves, then C + 2 nodes, then a top level of 2
        n = CHUNK_SIZE ** 2 + CHUNK_SIZE + 1
        mesh = random_soup(rng, n)
        assert real_nodes_per_level(mesh) == [n, CHUNK_SIZE + 2, 2]
        assert [len(level) for level in mesh.index()[1]] == [
            CHUNK_SIZE * (CHUNK_SIZE + 2), 2 * CHUNK_SIZE, CHUNK_SIZE]
        return mesh
    if name == "grid_patch":  # zero z extent: flat boxes and Morton codes
        return grid_patch(12, 12, spacing=5.0, z=3.0)
    if name == "hemisphere":  # open rim
        return hemisphere(85.0, subdivisions=3)
    return icosphere(85.0, subdivisions=3)


def around(mesh, rng, n, margin=30.0):
    """n uniform points in the mesh's bounding box grown by margin mm."""
    lo, hi = mesh.vertices.min(axis=0) - margin, mesh.vertices.max(axis=0) + margin
    return rng.uniform(lo, hi, size=(n, 3))


# --- normals ---------------------------------------------------------------

def test_triangle_normal_basic():
    np.testing.assert_allclose(unit_triangle().normals[0], [0, 0, 1], atol=1e-15)


def test_triangle_normal_winding_flip():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
    np.testing.assert_allclose(m.normals[0], [0, 0, -1], atol=1e-15)


def test_triangle_normal_scale_invariant():
    m = TriangleMesh([[0, 0, 0], [2, 0, 0], [0, 3, 0]], [[0, 1, 2]])
    np.testing.assert_allclose(m.normals[0], [0, 0, 1], atol=1e-15)


def test_triangle_normal_unit_norm_and_sign_property():
    rng = np.random.default_rng(11)
    m = random_soup(rng, 100)
    flipped = TriangleMesh(m.vertices, m.triangles[:, [0, 2, 1]])
    for i in range(len(m)):
        n = m.normals[i]
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
        np.testing.assert_allclose(flipped.normals[i], -n, atol=1e-12)


def test_normals_are_the_normalised_cross_of_the_corners():
    # bitwise: the one table every plan, ICP step and saved STL reads
    for m in (random_soup(np.random.default_rng(12), 300), ellipsoid((80.0, 95.0, 70.0), 3)):
        a, b, c = m.corners()
        cross = np.cross(b - a, c - a)
        expected = cross / np.sqrt((cross * cross).sum(axis=1))[:, None]
        assert m.normals.shape == (len(m), 3)
        assert m.normals.tobytes() == expected.tobytes()


# --- validation ------------------------------------------------------------

def test_degenerate_triangle_rejected_at_load():
    with pytest.raises(MeshValidationError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, bad]]
    with pytest.raises(MeshValidationError, match="non-finite vertex 3"):
        TriangleMesh(verts, [[0, 1, 2], [0, 1, 3]])


@pytest.mark.parametrize("far", [1e300, -1e75, 1e100])
def test_vertex_too_far_for_exact_distances_rejected(far, recwarn):
    # no query could pass the closest-point bound, and the cross products would overflow
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, far, 0]]
    with pytest.raises(MeshValidationError, match="vertex 3 has a coordinate of 1e75 mm"):
        TriangleMesh(verts, [[0, 1, 2], [0, 1, 3]])
    assert not recwarn.list


def test_vertex_just_inside_the_far_bound_accepted():
    m = TriangleMesh([[0, 0, 0], [9e74, 0, 0], [0, 9e74, 0]], [[0, 1, 2]])
    assert m.normals.tolist() == [[0.0, 0.0, 1.0]]


TETRAHEDRON = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
TETRAHEDRON_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])


@pytest.mark.parametrize("vertices, triangles, message", [
    # each would reshape into a valid mesh: four vertices, four triangles
    (TETRAHEDRON.reshape(6, 2), [[0, 1, 2]], r"vertex array .* not \(6, 2\)"),
    (TETRAHEDRON, TETRAHEDRON_FACES.reshape(3, 4), r"triangle array .* not \(3, 4\)"),
    (TETRAHEDRON.ravel(), [[0, 1, 2]], r"vertex array .* not \(12,\)"),
    (TETRAHEDRON[None], [[0, 1, 2]], r"vertex array .* not \(1, 4, 3\)"),
    (TETRAHEDRON, [0, 1, 2], r"triangle array .* not \(3,\)"),
    (TETRAHEDRON, TETRAHEDRON_FACES[:, None], r"triangle array .* not \(4, 1, 3\)"),
], ids=["vertices_6x2", "triangles_3x4", "vertices_1d", "vertices_3d", "triangles_1d",
        "triangles_3d"])
def test_array_not_of_three_columns_rejected(vertices, triangles, message):
    with pytest.raises(MeshValidationError, match=message):
        TriangleMesh(vertices, triangles)
    assert len(TriangleMesh(TETRAHEDRON, TETRAHEDRON_FACES)) == 4
    assert len(TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))) == 0


def test_index_out_of_range_rejected():
    with pytest.raises(MeshValidationError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


def test_corners_and_index_are_read_only():
    # the mesh's queries read these arrays, so writing them would move later answers
    m = icosphere(50.0, subdivisions=2)
    ids, levels = m.index()
    for array in (*m.corners(), m.vertices, m.triangles, m.normals, ids, *levels):
        with pytest.raises(ValueError):
            array[...] += 1
    assert closest_point(m, [0.0, 0.0, 80.0]).point == pytest.approx([0.0, 0.0, 50.0])


def test_empty_mesh_query_raises():
    m = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
    with pytest.raises(EmptyMeshError):
        closest_point(m, [0, 0, 0])


# --- closest_point ---------------------------------------------------------

def test_closest_point_on_vertex():
    hit = closest_point(unit_triangle(), [0, 0, 0])
    np.testing.assert_allclose(hit.point, [0, 0, 0], atol=1e-15)
    assert hit.triangle_id == 0


def test_closest_point_orthogonal_projection():
    hit = closest_point(unit_triangle(), [0.25, 0.25, 5.0])
    np.testing.assert_allclose(hit.point, [0.25, 0.25, 0.0], atol=1e-12)


@pytest.mark.parametrize("n_triangles", [2, 70])  # one chunk; three chunks, all tied
def test_closest_point_tie_breaks_to_lowest_id(n_triangles):
    # parallel unit triangles alternating between z = +1 and z = -1, all
    # equidistant from the query; the Morton sort puts id 0 in any chunk
    q = [0.2, 0.2, 0.0]
    for first_z in (1.0, -1.0):
        zs = first_z * (-1.0) ** np.arange(n_triangles)
        verts = np.concatenate([[[0, 0, z], [1, 0, z], [0, 1, z]] for z in zs])
        m = TriangleMesh(verts, np.arange(3 * n_triangles).reshape(-1, 3))
        hit = closest_point(m, q)
        assert hit.triangle_id == 0
        assert hit.point[2] == first_z
        np.testing.assert_array_equal(hit.point, closest_point_brute(m, q).point)
        points, tri_ids = closest_point_batch(m, [q, q])
        np.testing.assert_array_equal(points, [hit.point, hit.point])
        assert tri_ids.tolist() == [0, 0]


def test_non_finite_query_rejected():
    m = icosphere(85.0, subdivisions=2)
    with pytest.raises(ValidationError, match="row 0"):
        closest_point(m, [np.nan, 0.0, 0.0])
    with pytest.raises(ValidationError, match="row 1"):
        closest_point_batch(m, [[0.0, 0.0, 90.0], [np.inf, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="non-finite point"):
        contains_point(m, [0.0, np.nan, 0.0])


@pytest.mark.parametrize("x", [1.3e154, 1e300])
def test_query_whose_squared_distances_overflow_rejected(x):
    # every bound and distance of the row would be inf, which keeps the empty index nodes too
    mesh = icosphere(85.0, subdivisions=2)
    for query in ([x, 0.0, 0.0], [0.0, -x, 0.0]):
        with pytest.raises(ValidationError, match="row 0 is too far from the mesh"):
            closest_point(mesh, query)
        with pytest.raises(ValidationError, match="row 1 is too far from the mesh"):
            closest_point_batch(mesh, [[0.0, 0.0, 90.0], query], [0, 0])


def test_closest_point_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    mesh = random_soup(rng, 120)
    queries = rng.uniform(-70, 70, size=(150, 3))
    for q in queries:
        hit = closest_point_brute(mesh, q)
        pt, tid, d = oracle_closest_on_mesh(mesh, q)
        assert np.linalg.norm(hit.point - q) == pytest.approx(d, abs=1e-9)
        np.testing.assert_allclose(hit.point, pt, atol=1e-7)


def region_queries(mesh, rng):
    """(queries, triangle ids): for every triangle, points in each of its seven Voronoi
    regions, in its plane and off it, and points exactly at its corners, on its edges
    and on its face."""
    a, b, c = mesh.corners()
    n = mesh.normals
    s = rng.uniform(0.1, 5.0, size=(len(mesh), 1))
    h = rng.choice([0.0, -2.0, 3.0], size=(len(mesh), 1))

    def unit(u):
        return u / np.linalg.norm(u, axis=1, keepdims=True)

    queries = [a, b, c, a + 0.3 * (b - a), b + 0.6 * (c - b), c + 0.25 * (a - c),
               (a + b + c) / 3.0, (a + b + c) / 3.0 + h * n]  # the face's region last
    for p, u, w in ((a, b, c), (b, c, a), (c, a, b)):
        queries.append(p - s * (unit(u - p) + unit(w - p)) + h * n)  # vertex p's region
        queries.append((p + u) / 2.0 + s * unit(np.cross(u - p, n)) + h * n)  # edge pu's
    return np.concatenate(queries), np.tile(np.arange(len(mesh)), len(queries))


@pytest.mark.parametrize("case", ["regions", "ellipsoid", "broadcast"])
def test_closest_point_kernel_equals_the_masked_oracle_bit_for_bit(case):
    # the one region select on (coordinate, corner, pair) rows against the per-region
    # masked assignments on (T, 3) corners. Where two regions hold, at a corner, their
    # points differ by the rounding of an edge or the sign of a zero: random corners,
    # half of them at x = -0.0, make a swap of two regions there show
    rng = np.random.default_rng(41)
    if case == "regions":
        vertices = rng.uniform(-50.0, 50.0, size=(900, 3))
        vertices[::2, 0] = -0.0
        mesh = TriangleMesh(vertices, np.arange(900).reshape(300, 3))
    else:
        mesh = ellipsoid(subdivisions=5)
    a, b, c = mesh.corners()
    if case == "broadcast":  # one query against every triangle: a vertex, inside, outside
        for q in (mesh.vertices[17], np.zeros(3), around(mesh, rng, 1)[0]):
            points, d2 = _closest_on_triangles(mesh._table, q[:, None])
            want_points, want_d2 = oracle_closest_on_triangles(a, b, c, q)
            assert points.T.tobytes() == want_points.tobytes()
            assert d2.tobytes() == want_d2.tobytes()
        return
    if case == "regions":
        queries, ids = region_queries(mesh, rng)
    else:
        ids = rng.integers(0, len(mesh), 20_000)
        queries = np.concatenate([around(mesh, rng, 10_000), sample_surface(mesh, 10_000, rng)])
    points, d2 = _closest_on_triangles(mesh._table[:, :, ids], queries.T)
    want_points, want_d2 = oracle_closest_on_triangles(a[ids, None], b[ids, None],
                                                       c[ids, None], queries)
    assert points.T.tobytes() == want_points[:, 0].tobytes()
    assert d2.tobytes() == want_d2[:, 0].tobytes()


def index_queries(shape, mesh, rng, n):
    if shape == "sphere_centre":  # every chunk's box can win: all are candidates
        return np.concatenate([np.zeros((1, 3)), rng.normal(scale=1e-3, size=(40, 3))])
    # random points, plus the vertices, where adjacent triangles tie
    return np.concatenate([around(mesh, rng, n), mesh.vertices[:300]])


@pytest.mark.parametrize("shape", INDEX_SHAPES + ["sphere_centre"])
def test_index_closest_point_identical_to_brute_force(shape):
    rng = np.random.default_rng(13)
    mesh = index_shape(shape, rng)
    queries = index_queries(shape, mesh, rng, 10_000 if shape == "soup" else 1000)
    batch, batch_ids = closest_point_batch(mesh, queries)
    for q, row, row_id in zip(queries, batch, batch_ids):
        accel = closest_point(mesh, q)
        brute = closest_point_brute(mesh, q)
        assert accel.triangle_id == brute.triangle_id == row_id
        np.testing.assert_array_equal(accel.point, brute.point)
        np.testing.assert_array_equal(row, brute.point)


@pytest.mark.parametrize("start", ["random", "answers", "answers_moved"])
@pytest.mark.parametrize("shape", INDEX_SHAPES)
def test_warm_started_closest_point_identical_to_cold(shape, start):
    rng = np.random.default_rng(15)
    mesh = index_shape(shape, rng)
    queries = index_queries(shape, mesh, rng, 2000)
    cold, cold_ids = closest_point_batch(mesh, queries)
    if start == "random":
        start_ids = rng.integers(0, len(mesh), size=len(queries))
    else:  # the true answers, as given, or for rows moved by up to 1 mm (an ICP step)
        start_ids = cold_ids
        if start == "answers_moved":
            queries = queries + rng.uniform(-1.0, 1.0, size=queries.shape)
            cold, cold_ids = closest_point_batch(mesh, queries)
    warm, warm_ids = closest_point_batch(mesh, queries, start_ids)
    np.testing.assert_array_equal(warm, cold)
    np.testing.assert_array_equal(warm_ids, cold_ids)


@pytest.mark.parametrize("start_ids", [[0], [0, 1, 2], [0.0, 1.0], [0, 33]])
def test_warm_start_ids_must_be_one_triangle_id_per_row(start_ids):
    with pytest.raises(ValidationError, match="start ids"):
        closest_point_batch(index_shape("padded_chunk", np.random.default_rng(0)),
                            np.zeros((2, 3)), start_ids)


TIE_QUERY = np.array([-1.0, -1.0, 11.0])
# one triangle more than a top node holds: the leaves, C + 1 nodes, a top level of 2
TIE_TRIANGLES = CHUNK_SIZE ** 2 + 1


def two_top_node_tie(upper_first):
    """TIE_TRIANGLES triangles in which ids 0 and 1 tie for TIE_QUERY and sit in different
    top nodes.

    Both share the vertex (0, 0, 0), the nearest point of each to TIE_QUERY
    (d2 = 123), and a ray from TIE_QUERY through it hits both at t = 1. One
    spans the top corner of the centroids' box, the other the bottom corner,
    so they are the last and the first in Morton order; upper_first gives id
    0 to the top one. The other small triangles lie over 15 mm away.
    """
    fan = np.array([[0, 0, 0], [60, 50, 10], [50, 60, 10],
                    [0, 0, 0], [-60, -50, -10], [-50, -60, -10]], dtype=float)
    if not upper_first:
        fan = fan[[3, 4, 5, 0, 1, 2]]
    rng = np.random.default_rng(21)
    anchors = rng.uniform([-30, -30, -5], [30, 30, 5], size=(4000, 3))
    anchors = anchors[np.linalg.norm(anchors - TIE_QUERY, axis=1) > 15.0][:TIE_TRIANGLES - 2]
    others = anchors[:, None] + np.concatenate(
        [np.zeros((len(anchors), 1, 3)), rng.uniform(-2, 2, size=(len(anchors), 2, 3))], axis=1)
    verts = np.concatenate([fan, others.reshape(-1, 3)])
    return TriangleMesh(verts, np.arange(len(verts)).reshape(-1, 3))


@pytest.mark.parametrize("n", [1, 2, 64, 65, 1024, 1025])
def test_index_ids_are_the_stable_argsort_of_the_morton_codes(n):
    # three in four triangles share one centroid, so ties decide most of the order: the
    # packed keys must give them in id order, with room for every id below the code bits
    rng = np.random.default_rng(n)
    anchors = np.where(rng.uniform(size=(n, 1)) < 0.75, 0.0, rng.uniform(-50, 50, (n, 3)))
    verts = (anchors[:, None] + [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    mesh = TriangleMesh(verts.reshape(-1, 3), np.arange(3 * n).reshape(-1, 3))
    a, b, c = mesh.corners()
    codes = mesh_module._morton_codes(((a + b + c) / 3.0).T)
    if n > 2:
        assert len(np.unique(codes)) <= n // 2
    assert mesh.index()[0].tolist() == np.argsort(codes, kind="stable").tolist()


@pytest.mark.parametrize("upper_first", [True, False], ids=["winner_in_top_node_1",
                                                            "winner_in_top_node_0"])
def test_tie_across_two_top_nodes_goes_to_lowest_id(upper_first, monkeypatch):
    mesh = two_top_node_tie(upper_first)
    assert len(mesh) == TIE_TRIANGLES and real_nodes_per_level(mesh)[-1] == 2
    rank = np.argsort(mesh.index()[0])  # Morton rank of each id; top node 1 starts at C^2
    top_1 = CHUNK_SIZE ** 2
    assert sorted(rank[:2] >= top_1) == [False, True] and (rank[0] >= top_1) == upper_first
    for k in (0, 1):  # each tied triangle alone: the same nearest point and ray hit
        alone = TriangleMesh(mesh.vertices, mesh.triangles[k:k + 1])
        assert closest_point_brute(alone, TIE_QUERY).point.tolist() == [0.0, 0.0, 0.0]
        assert ray_intersect_brute(alone, TIE_QUERY, -TIE_QUERY).ray_parameter == 1.0
    hit = closest_point(mesh, TIE_QUERY)
    assert hit.triangle_id == closest_point_brute(mesh, TIE_QUERY).triangle_id == 0
    # one row more than a step holds, so that some rows meet the two tied triangles in two
    # steps of the walk
    steps = []
    descend = mesh_module._descend

    def spy(*args):
        for rows, tris in descend(*args):
            steps.append({k: set(rows[tris == k].tolist()) for k in (0, 1)})
            yield rows, tris

    monkeypatch.setattr(mesh_module, "_descend", spy)
    n_rows = _BLOCK_PAIRS // CHUNK_SIZE + 1
    points, tri_ids = closest_point_batch(mesh, np.tile(TIE_QUERY, (n_rows, 1)))
    assert not points.any() and not tri_ids.any()
    assert any(step[0] - step[1] for step in steps)  # a row with one tied triangle in a step
    ray = ray_intersect(mesh, TIE_QUERY, -TIE_QUERY)
    assert ray.triangle_id == ray_intersect_brute(mesh, TIE_QUERY, -TIE_QUERY).triangle_id == 0
    assert ray.ray_parameter == 1.0


def test_warm_start_on_a_tied_higher_id_still_goes_to_lowest_id():
    mesh = two_top_node_tie(upper_first=True)
    for start in (1, 0):  # ids 0 and 1 tie for TIE_QUERY
        points, tri_ids = closest_point_batch(mesh, [TIE_QUERY] * 3, [start] * 3)
        assert not points.any() and not tri_ids.any()


def test_every_leaf_a_candidate_keeps_memory_bounded():
    # near the centre of a sphere every leaf box can hold the nearest point
    mesh = icosphere(85.0, subdivisions=5)
    assert len(mesh) == 20480
    rng = np.random.default_rng(23)
    queries = rng.uniform(-0.01, 0.01, size=(100, 3))
    tracemalloc.start()
    try:
        batch = closest_point_batch(mesh, queries)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
    for q, row in zip(queries[::25], batch[::25]):
        np.testing.assert_array_equal(row, closest_point_brute(mesh, q).point)


def test_closest_point_hit_lies_on_triangle():
    rng = np.random.default_rng(14)
    mesh = random_soup(rng, 200)
    a, b, c = mesh.corners()
    for q in rng.uniform(-60, 60, size=(200, 3)):
        hit = closest_point(mesh, q)
        i = hit.triangle_id
        # the hit point must lie on its own triangle
        back = oracle_closest_on_triangle(hit.point, a[i], b[i], c[i])
        assert np.linalg.norm(back - hit.point) <= 1e-9


# --- ray_intersect ----------------------------------------------------------

def test_ray_hits_unit_triangle():
    hit = ray_intersect(unit_triangle(), [0.25, 0.25, -1.0], [0.0, 0.0, 1.0])
    assert hit is not None
    np.testing.assert_allclose(hit.point, [0.25, 0.25, 0.0], atol=1e-12)
    assert hit.ray_parameter == pytest.approx(1.0, abs=1e-12)


def test_ray_pointing_away_misses():
    assert ray_intersect(unit_triangle(), [0.25, 0.25, -1.0], [0.0, 0.0, -1.0]) is None


def test_ray_origin_on_surface_excluded():
    assert ray_intersect(unit_triangle(), [0.25, 0.25, 0.0], [0.0, 0.0, -1.0]) is None


@pytest.mark.parametrize("query", [ray_intersect, ray_intersect_brute])
def test_non_finite_ray_rejected(query):
    # a nan ray hits nothing, so without the check it reads as a missed surface
    m = icosphere(85.0, subdivisions=2)
    with pytest.raises(ValidationError, match="origin"):
        query(m, [np.nan, 0.0, 0.0], [0.0, 0.0, 1.0])
    with pytest.raises(ValidationError, match="direction"):
        query(m, [0.0, 0.0, 0.0], [0.0, np.inf, 1.0])


@pytest.mark.parametrize("shape", INDEX_SHAPES + ["axis_parallel"])
def test_index_ray_identical_to_brute_force(shape):
    rng = np.random.default_rng(15)
    mesh = index_shape(shape, rng)
    origins = around(mesh, rng, 2000)
    if shape == "axis_parallel":  # zero direction components: inf/nan slab times
        axes = np.concatenate([np.eye(3), -np.eye(3)])
        directions = axes[rng.integers(0, 6, size=len(origins))]
    else:
        directions = rng.normal(size=origins.shape)
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    hits = 0
    for origin, d in zip(origins, directions):
        accel = ray_intersect(mesh, origin, d)
        brute = ray_intersect_brute(mesh, origin, d)
        if brute is None:
            assert accel is None
            continue
        hits += 1
        assert accel is not None
        assert accel.triangle_id == brute.triangle_id
        assert accel.ray_parameter == brute.ray_parameter
        np.testing.assert_array_equal(accel.point, brute.point)
        # hit point consistency: origin + t*d == point
        np.testing.assert_allclose(
            origin + accel.ray_parameter * d, accel.point, atol=1e-9
        )
    assert hits > 0


def test_ray_through_sphere_hits_near_and_far(sphere85):
    hit = ray_intersect(sphere85, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0])
    assert hit is not None
    assert 84.0 < hit.ray_parameter <= 85.0  # faceted surface sits just inside


# --- containment / sampling -------------------------------------------------

def test_contains_point_parity(sphere85):
    assert contains_point(sphere85, [0.0, 0.0, 0.0])
    assert contains_point(sphere85, [10.0, -20.0, 40.0])
    assert not contains_point(sphere85, [0.0, 0.0, 100.0])
    assert not contains_point(sphere85, [200.0, 0.0, 0.0])


def test_contains_point_on_open_surfaces():
    # nothing closes the rim: below the bowl and on either side of the patch is outside
    bowl = hemisphere(85.0, subdivisions=3)
    assert not contains_point(bowl, [0.0, 0.0, -40.0])  # w about 0.28
    assert contains_point(bowl, [0.0, 0.0, 10.0])  # w about 0.55
    patch = grid_patch(4, 4, spacing=5.0)
    for z in (-1.0, 1.0, 0.0):  # on the face itself w is exactly 1/2
        assert not contains_point(patch, [1.0, 1.0, z])


def test_contains_point_matches_ellipsoid_oracle():
    semi_axes = np.array([80.0, 95.0, 70.0])
    outward = ellipsoid(tuple(semi_axes), subdivisions=4)
    inward = TriangleMesh(outward.vertices, outward.triangles[:, ::-1])
    points = np.random.default_rng(8).uniform(-110.0, 110.0, size=(2000, 3))
    norm = np.linalg.norm(points / semi_axes, axis=1)
    # the facets lie within 0.1% of the analytic surface; skip a 2% band around it
    kept = (norm < 0.98) | (norm > 1.02)
    assert kept.sum() > 1900
    expected = (norm < 1.0)[kept].tolist()
    for mesh in (outward, inward):  # either winding gives the same answers
        assert [contains_point(mesh, p) for p in points[kept]] == expected


@pytest.mark.parametrize("shape", ["outward", "inward", "bowl", "patch"])
def test_contains_point_matches_scalar_winding_oracle(shape):
    # the decisions of the vectorised solid angles against one triangle at a time in Python
    # floats, on closed meshes of both windings and on open ones, where |w| comes near 1/2
    rng = np.random.default_rng(31)
    if shape in ("outward", "inward"):
        mesh = ellipsoid((80.0, 95.0, 70.0), subdivisions=2)
        if shape == "inward":
            mesh = TriangleMesh(mesh.vertices, mesh.triangles[:, ::-1])
        points = around(mesh, rng, 150)
    elif shape == "bowl":
        mesh = hemisphere(85.0, subdivisions=2)
        points = np.vstack([around(mesh, rng, 100),
                            rng.uniform([-40, -40, -5], [40, 40, 25], size=(100, 3))])
    else:  # heights over the interior of a 20 mm square: |w| -> 1/2 as they shrink
        mesh = grid_patch(4, 4, spacing=5.0)
        xy = rng.uniform(-8.0, 8.0, size=(150, 2))
        heights = rng.choice([-1.0, 1.0], 150) * 10.0 ** rng.uniform(-3.0, 1.0, 150)
        points = np.column_stack([xy, heights])
    w = np.array([oracle_winding_number(mesh, p) for p in points])
    margin = np.abs(np.abs(w) - 0.5)
    assert margin.min() > 1e-9  # no decision hangs on rounding
    if shape in ("outward", "inward"):
        assert sorted(set(np.round(w, 9))) == ([0.0, 1.0] if shape == "outward" else [-1.0, 0.0])
    else:
        assert (margin < 0.05).sum() >= 20
    assert [contains_point(mesh, p) for p in points] == (np.abs(w) > 0.5).tolist()


def test_contains_point_on_the_surface_is_not_inside():
    # a face centroid lies within rounding of the face, where w is 1/2 but its rounded sum
    # reads 0 or 1 by the sign of the face's rounded det; a vertex is on the surface too.
    # 1e-9 mm off the face, the point is inside or outside as its side says
    mesh = ellipsoid(subdivisions=5)
    a, b, c = (x[:200] for x in mesh.corners())
    centroids, normals = (a + b + c) / 3.0, mesh.normals[:200]
    assert not any(contains_point(mesh, p) for p in np.vstack([centroids, mesh.vertices[:50]]))
    assert all(contains_point(mesh, p) for p in centroids - 1e-9 * normals)
    assert not any(contains_point(mesh, p) for p in centroids + 1e-9 * normals)


def test_sample_surface_points_lie_on_mesh(sphere85):
    rng = np.random.default_rng(16)
    pts = sample_surface(sphere85, 50, rng)
    for p in pts:
        hit = closest_point(sphere85, p)
        assert np.linalg.norm(hit.point - p) <= 1e-9


# --- STL ---------------------------------------------------------------------

def test_stl_round_trip(tmp_path):
    mesh = icosphere(30.0, subdivisions=1)
    path = tmp_path / "sphere.stl"
    save_stl(mesh, path)
    back = load_stl(path)
    assert len(back) == len(mesh)
    # vertex dedup must reproduce the same surface (order may differ)
    h_orig = closest_point(mesh, [0, 0, 40.0])
    h_back = closest_point(back, [0, 0, 40.0])
    np.testing.assert_allclose(h_back.point, h_orig.point, atol=1e-12)


def test_save_stl_writes_the_mesh_normals(tmp_path):
    mesh = ellipsoid((80.0, 95.0, 70.0), 2)
    path = tmp_path / "skin.stl"
    save_stl(mesh, path)
    written = [line.split()[2:] for line in path.read_text().splitlines()
               if line.lstrip().startswith("facet normal")]
    assert np.array(written, dtype=float).tobytes() == mesh.normals.tobytes()


STL_RECORD = ("  facet normal 0 0 1\n    outer loop\n      vertex 0 0 0\n      vertex 1 0 0\n"
              "      vertex 0 1 0\n    endloop\n  endfacet")


@pytest.mark.parametrize("name", ["a\nendloop", "a\n" + STL_RECORD, "a\0b"],
                         ids=["keyword", "record", "nul"])
def test_save_stl_rejects_a_name_that_is_not_one_line_without_nul(tmp_path, name):
    # load_stl would reject the file, or read the record in both names as two more facets
    with pytest.raises(ValueError, match="one line without NUL"):
        save_stl(icosphere(10.0, 1), tmp_path / "named.stl", name=name)


def test_save_stl_name_round_trips_corner_for_corner(tmp_path):
    mesh = icosphere(10.0, 1)
    save_stl(mesh, tmp_path / "named.stl", name="left scalp, 1 mm (v2) \tfacet_x endloop")
    back = load_stl(tmp_path / "named.stl")
    for got, want in zip(back.corners(), mesh.corners()):
        np.testing.assert_array_equal(got, want)


def test_stl_file_normals_ignored(tmp_path):
    # write a facet with a wildly wrong normal: loader must recompute
    path = tmp_path / "tri.stl"
    path.write_text(
        "solid junk\n"
        "  facet normal 1 0 0\n"
        "    outer loop\n"
        "      vertex 0 0 0\n"
        "      vertex 1 0 0\n"
        "      vertex 0 1 0\n"
        "    endloop\n"
        "  endfacet\n"
        "endsolid junk\n"
    )
    mesh = load_stl(path)
    np.testing.assert_allclose(mesh.normals[0], [0, 0, 1], atol=1e-15)


def stl_text(*facets):
    """ASCII STL text with one facet per list of vertices."""
    lines = ["solid test"]
    for corners in facets:
        lines += ["  facet normal 0 0 1", "    outer loop"]
        lines += [f"      vertex {x} {y} {z}" for x, y, z in corners]
        lines += ["    endloop", "  endfacet"]
    return "\n".join(lines + ["endsolid test", ""])


@pytest.mark.parametrize("bad_corners", [2, 4])
def test_stl_facet_without_three_vertices_rejected(tmp_path, bad_corners):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    bad = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)][:bad_corners]
    path = tmp_path / "short.stl"
    path.write_text(stl_text(good, bad, good))
    with pytest.raises(MeshValidationError, match="facet 1 "):
        load_stl(path)


@pytest.mark.parametrize("what", ["directory", "missing"])
def test_stl_unreadable_path_rejected_naming_it(tmp_path, what):
    path = tmp_path / "skin.stl"
    if what == "directory":
        path.mkdir()
    with pytest.raises(MeshValidationError, match=re.escape(str(path))):
        load_stl(path)


def test_stl_unterminated_last_facet_rejected(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    path = tmp_path / "cut.stl"
    path.write_text(stl_text(good, good).replace("  endfacet\nendsolid", "endsolid"))
    with pytest.raises(MeshValidationError, match="facet 1 "):
        load_stl(path)


def test_stl_facet_with_two_loops_and_facet_with_none_rejected(tmp_path):
    # the loop total matches the endfacet total, but facet 0 holds both loops
    path = tmp_path / "two_loops.stl"
    path.write_text(
        "solid test\n"
        "  facet normal 0 0 1\n"
        "    outer loop\n      vertex 0 0 0\n      vertex 1 0 0\n      vertex 0 1 0\n"
        "    endloop\n"
        "    outer loop\n      vertex 0 0 1\n      vertex 1 0 1\n      vertex 0 1 1\n"
        "    endloop\n"
        "  endfacet\n"
        "  facet normal 0 0 1\n"
        "  endfacet\n"
        "endsolid test\n"
    )
    with pytest.raises(MeshValidationError, match="facet [01] "):
        load_stl(path)


@pytest.mark.parametrize("between", ["", "  facet normal 0 0 1\n"],
                         ids=["same_facet", "next_facet"])
def test_stl_unterminated_loop_before_a_complete_loop_rejected(tmp_path, between):
    # two vertices and no endloop, then a complete loop: one triangle if only
    # the complete records were counted
    path = tmp_path / "open_loop.stl"
    path.write_text(
        "solid test\n"
        "  facet normal 0 0 1\n"
        "    outer loop\n      vertex 0 0 1\n      vertex 1 0 1\n"
        + between +
        "    outer loop\n      vertex 0 0 0\n      vertex 1 0 0\n      vertex 0 1 0\n"
        "    endloop\n"
        "  endfacet\n"
        "endsolid test\n"
    )
    with pytest.raises(MeshValidationError, match="facet 0 "):
        load_stl(path)


@pytest.mark.parametrize("first", ["spelling", "stray"])
def test_stl_stray_keyword_and_keyword_spelling_name_the_earlier_facet(tmp_path, first):
    facets = [[(k, 0, 0), (k + 1, 0, 0), (k, 1, 0)] for k in range(5)]
    spelled, stray = (1, 3) if first == "spelling" else (3, 1)
    facets[spelled][1] = ("endloop", 0, 0)
    text = stl_text(*facets).split("  facet normal")
    text[stray] += "  endfacet\n"  # text[k] ends with facet k - 1: a stray before facet k
    path = tmp_path / "two_faults.stl"
    path.write_text("  facet normal".join(text))
    with pytest.raises(MeshValidationError, match="facet 1 is not one loop"):
        load_stl(path)


def test_stl_solid_name_containing_endfacet_loads(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    plain = tmp_path / "plain.stl"
    plain.write_text(stl_text(good))
    named = tmp_path / "named.stl"
    named.write_text(stl_text(good).replace("solid test", "solid endfacet_test"))
    a, b = load_stl(plain), load_stl(named)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    np.testing.assert_array_equal(a.triangles, b.triangles)


@pytest.mark.parametrize("name", ["x", "facet_x"])
def test_stl_one_line_file_loads_with_or_without_final_newline(tmp_path, name):
    body = ("facet normal 0 0 1 outer loop vertex 0 0 0 vertex 1 0 0 vertex 0 1 0 "
            "endloop endfacet")
    meshes = []
    for tail in ("", "\n"):
        path = tmp_path / f"one_line{len(tail)}.stl"
        path.write_text(f"solid {name} {body} endsolid {name}{tail}")
        meshes.append(load_stl(path))
    assert len(meshes[0]) == 1
    assert meshes[0].vertices.tobytes() == meshes[1].vertices.tobytes()
    np.testing.assert_array_equal(meshes[0].triangles, meshes[1].triangles)


def test_stl_later_solid_named_outer_loads(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    path = tmp_path / "two_solids.stl"
    path.write_text(stl_text(good) + stl_text(good).replace("solid test", "solid outer_skin"))
    assert len(load_stl(path)) == 2


@pytest.mark.parametrize("name, layout", [
    pytest.param(name, layout, id=name if layout == "lines" else f"{name}-{layout}")
    for layout in ("lines", "one_line") for name in ("endfacet_x", "endloop_x", "outer loop")
] + [pytest.param("facet endloop", "lines", id="facet endloop")])
def test_stl_later_solid_named_like_a_keyword_loads(tmp_path, name, layout):
    # the name on an inner solid/endsolid line is free text, like the first one's; on a
    # line that goes on with facets it ends before the next facet keyword, while on a
    # line of its own it may hold that word
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    text = stl_text(good) + stl_text(good).replace("solid test", f"solid {name}")
    if layout == "one_line":
        text = " ".join(text.split())
    path = tmp_path / "two_solids.stl"
    path.write_text(text)
    mesh, ref = load_stl(path), reference_load_stl(path)
    assert len(mesh) == 2
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.tobytes() == ref.triangles.tobytes()


@pytest.mark.parametrize("line", ["solid", "endsolid", "inner"])
def test_stl_facet_spelled_in_the_first_or_last_name_is_no_facet(tmp_path, line):
    # the names on the first, the last and an inner solid line are free text, even one
    # that spells a facet
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    facet = "outer loop vertex 5 5 5 vertex 6 5 5 vertex 5 6 5 endloop endfacet"
    text, old = stl_text(good), f"{line} test\n"
    if line == "inner":
        text, old = text + stl_text(good).replace("solid test", "solid b"), "\nsolid b\n"
    plain, named = tmp_path / "plain.stl", tmp_path / "named.stl"
    plain.write_text(text)
    named.write_text(text.replace(old, f"{old[:-1]} {facet}\n", 1))
    a, b = load_stl(plain), load_stl(named)
    assert len(b) == (2 if line == "inner" else 1)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.triangles.tobytes() == b.triangles.tobytes()


def test_stl_without_a_facet_record_keeps_its_first_name_free_text(tmp_path):
    # a file with no endfacet is scanned from its first line, whose name is still free text
    path = tmp_path / "no_facets.stl"
    path.write_text("solid a facet endloop\nendsolid a\n")
    with pytest.raises(MeshValidationError, match="no facets found"):
        load_stl(path)


def test_stl_facets_on_the_first_line_of_a_multi_line_file_load(tmp_path):
    # the first name ends before the word facet, so the facet on its line is a facet
    facet = "facet normal 0 0 1 outer loop vertex {} 0 0 vertex 1 0 0 vertex 0 1 0 endloop endfacet"
    path = tmp_path / "first_line.stl"
    path.write_text(f"solid x {facet.format(0)}\n{facet.format(2)}\nendsolid x\n")
    mesh, ref = load_stl(path), reference_load_stl(path)
    assert len(mesh) == 2
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.tobytes() == ref.triangles.tobytes()


def test_stl_one_line_file_without_the_word_facet_is_all_name(tmp_path):
    # with no word facet to end it, the first name runs to the end of the only line
    path = tmp_path / "no_facet_word.stl"
    path.write_text("solid x outer loop vertex 0 0 0 vertex 1 0 0 vertex 0 1 0 endloop endfacet"
                    " endsolid x\n")
    with pytest.raises(MeshValidationError, match="no facets found"):
        load_stl(path)


@pytest.mark.parametrize("before", ["", "solid b outer loop vertex 5 5 5 vertex 6 5 5 vertex 5 6 5"
                                    " endloop endfacet\n"], ids=["alone", "after_a_held_record"])
def test_stl_record_held_by_a_name_past_its_line_end_names_the_facet(tmp_path, before):
    # the endsolid name ends at its line end, inside the record that starts on its line,
    # so that record is a broken facet as if its outer loop were gone; a one-line record
    # that an earlier name holds is name text and is not counted
    facet = ("facet normal 0 0 1\nouter loop\nvertex 0 0 0\nvertex 1 0 0\nvertex 0 1 0\n"
             "endloop\nendfacet\n")
    head = f"solid x\n{facet}{before}{facet}facet normal 0 0 1\n"
    rest = "vertex 2 0 0\nvertex 3 0 0\nvertex 2 1 0\nendloop\nendfacet\n"
    path = tmp_path / "held.stl"
    for last in ("endsolid x outer loop\n", "endsolid x\n"):  # the record, or no record
        path.write_text(head + last + rest)
        with pytest.raises(MeshValidationError, match="facet 2 is not one loop"):
            load_stl(path)


def test_stl_rejects_binary_like_input(tmp_path):
    path = tmp_path / "bad.stl"
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    # a binary STL may start with "solid"; a NUL byte is no ASCII STL, in a name too
    binary = b"solid exported".ljust(80) + (1).to_bytes(4, "little") + bytes(50)
    for content in (b"\x00\x01\x02binarysoup", b"\xff\xfe\x00solid", binary,
                    stl_text(good, good).encode().replace(b"solid test", b"solid te\x00st", 1),
                    stl_text(good, good).encode().replace(b"vertex 1 0 0", b"vertex 1 \xff 0")):
        path.write_bytes(content)
        with pytest.raises(MeshValidationError):
            load_stl(path)


def test_stl_name_with_many_facet_words_reads_in_linear_time(tmp_path):
    # each facet word of a name looks ahead to the line end: trying every one is quadratic
    path = tmp_path / "facet_words.stl"
    path.write_text("solid x " + "facet " * 20000 + "\nendsolid x\n")
    start = time.perf_counter()
    with pytest.raises(MeshValidationError, match="no facets found"):
        load_stl(path)
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("token", [b"abc", b"1.0\xff"])
def test_stl_non_numeric_vertex_token_names_facet_and_token(tmp_path, token):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    path = tmp_path / "token.stl"
    # the bad spelling is in facets 1 and 2; the first facet using it is named
    text = stl_text(good, [(0, 0, 1), (1, 0, 1), (0, 1, 1)], [(0, 0, 1), (1, 0, 1), (1, 1, 1)])
    path.write_bytes(text.encode().replace(b"vertex 1 0 1", b"vertex " + token + b" 0 1"))
    with pytest.raises(MeshValidationError, match="facet 1: ") as err:
        load_stl(path)
    assert repr(token) in str(err.value)


def test_stl_non_ascii_whitespace_between_tokens_rejected(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    path = tmp_path / "nbsp.stl"
    path.write_text(stl_text(good, good).replace("vertex 0 1 0", "vertex 0\u00a01 0", 1),
                    encoding="utf-8")
    with pytest.raises(MeshValidationError, match="facet 0 "):
        load_stl(path)


def test_stl_bytes_outside_the_loops_are_ignored(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    plain = tmp_path / "plain.stl"
    plain.write_text(stl_text(good))
    noisy = tmp_path / "noisy.stl"
    noisy.write_bytes(stl_text(good).encode().replace(b"solid test", b"solid t\xffst")
                      .replace(b"normal 0 0 1", b"normal \xff \xc3\xa9 1"))
    a, b = load_stl(plain), load_stl(noisy)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    assert a.triangles.tobytes() == b.triangles.tobytes()


_REFERENCE_LOOP_RE = re.compile(
    r"outer\s+loop\s+" + 3 * r"vertex\s+(\S+)\s+(\S+)\s+(\S+)\s+" + r"endloop"
)


def reference_load_stl(path):
    """Dict loader kept as the oracle: every vertex occurrence parsed to a
    float tuple, deduplicated by an insertion-ordered dict (no file checks)."""
    with open(path, "r") as fh:
        text = fh.read()
    vertex_index = {}
    triangles = []
    for m in _REFERENCE_LOOP_RE.finditer(text):
        g = tuple(map(float, m.groups()))
        triangles.append([vertex_index.setdefault(corner, len(vertex_index))
                          for corner in (g[0:3], g[3:6], g[6:9])])
    v = np.asarray(list(vertex_index), dtype=float)
    t = np.asarray(triangles, dtype=np.int64)
    return TriangleMesh(v, t)


# the same vertices spelled with signed zeros, integer and exponent forms,
# tabs, runs of spaces and CRLF line ends
MIXED_SPELLING_STL = (
    "solid mixed\n"
    "facet normal 0 0 1\n outer loop\n"
    "  vertex 0.0 -0.0 0\n  vertex 1 0.0 0.0\n  vertex\t0\t1.0\t-0.0\n"
    " endloop\nendfacet\n"
    "facet normal 0 0 1\r\n  outer   loop\r\n"
    "    vertex  1e0   0  -0.0\r\n    vertex 1.0 1 0\r\n    vertex 0e0 1e0 0.00\r\n"
    "  endloop\r\nendfacet\r\n"
    "facet normal 0 0 1\n\touter loop\n"
    "\t\tvertex -0.0 0 0\n\t\tvertex 0 -0 1\n\t\tvertex 1.0 0 0\n"
    "\tendloop\nendfacet\n"
    "endsolid mixed\n"
)


@pytest.mark.parametrize("case", ["icosphere_20480", "mixed_spelling", "icosphere_5120"])
def test_stl_loader_matches_reference(tmp_path, case):
    path = tmp_path / f"{case}.stl"
    if case.startswith("icosphere"):
        save_stl(icosphere(85.0, subdivisions=5 if case.endswith("20480") else 4), path)
    else:
        path.write_text(MIXED_SPELLING_STL, newline="")
    mesh, ref = load_stl(path), reference_load_stl(path)
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.dtype == ref.triangles.dtype
    np.testing.assert_array_equal(mesh.triangles, ref.triangles)


def test_stl_degenerate_facet_rejected_naming_it(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    collinear = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
    path = tmp_path / "degenerate.stl"
    path.write_text(stl_text(good, collinear, [(1, 0, 0), (1, 1, 0), (0, 1, 0)]))
    with pytest.raises(MeshValidationError, match="first at id 1"):
        load_stl(path)


@pytest.mark.parametrize("layout", ["lines", "one_line"])
def test_stl_inner_solid_named_outer_matches_reference(tmp_path, layout):
    # "outer" in an inner solid's name: the bare count misses, the "outer loop" count holds
    text = stl_text([(0, 0, 0), (1, 0, 0), (0, 1, 0)]) + stl_text(
        [(1, 0, 0), (1, 1, 0), (0, 1, 0)], [(0, 0, 1), (1, 0, 1), (0, 1, 1)]
    ).replace("solid test", "solid outer_x")
    if layout == "one_line":
        text = " ".join(text.split())
    path = tmp_path / "outer_x.stl"
    path.write_text(text)
    mesh, ref = load_stl(path), reference_load_stl(path)
    assert len(mesh) == 3
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.tobytes() == ref.triangles.tobytes()


def test_stl_one_value_spelled_three_ways_matches_reference(tmp_path):
    path = tmp_path / "spelled.stl"
    path.write_text(stl_text([(0, 0, 0), (1, 0, 0), (0, 1, 0)],
                             [("1.0", 0, 0), (1, 1, 0), (0, "1e0", 0)],
                             [(0, 0, 0), ("1e0", 0, 0), (0, 0, "1.0")]))
    mesh, ref = load_stl(path), reference_load_stl(path)
    assert len(mesh.vertices) == 5
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.tobytes() == ref.triangles.tobytes()


def test_stl_non_numeric_token_names_the_first_facet_using_it(tmp_path):
    facets = [[(k, 0, 0), (k + 1, 0, 0), (k, 1, 0)] for k in range(7)]
    facets[3][1] = facets[5][2] = ("bad", 0, 0)
    path = tmp_path / "token.stl"
    path.write_text(stl_text(*facets))
    with pytest.raises(MeshValidationError, match="facet 3: .*b'bad'"):
        load_stl(path)


# spellings of one value each, and solid names, some spelled like facet keywords
CORPUS_SPELLINGS = [["0", "0.0", "-0", "-0.0", "0e0", "+0"], ["1", "1.0", "1e0", "10e-1", "+1"],
                    ["2.5", "25e-1", "2.50"]]
CORPUS_SOLID_NAMES = ["x", "facet_x", "endfacet_x", "endloop_x", "outer loop"]
CORPUS_CORRUPTIONS = ["drop", "fourth", "stray", "coordinate"]


def corpus_stl(seed, layout, corruption=None):
    """Seeded ASCII STL text and the facet that the corruption breaks (None without one).

    The file holds 2 to 6 facets in 1 to 3 solids, separated by random runs of space,
    tab, CR and LF (no LF in the one_line layout), and spells each coordinate in one of
    several ways. A solid line's name follows its keyword on the same line; in the lines
    layout each solid line is a line of its own. A corruption drops a vertex line of a
    facet, adds a fourth vertex to it, spells one of its coordinates "endloop", or
    ("stray") puts a stray keyword between it and the facet before it.
    """
    rng = np.random.default_rng(seed)
    lattice = np.array([0.0, 1.0, 2.5])  # the value that each row of spellings spells

    def spell(values):
        return [str(rng.choice(CORPUS_SPELLINGS[i])) for i in values]

    n_facets = int(rng.integers(2, 7))
    facets = []
    while len(facets) < n_facets:
        corners = rng.integers(0, 3, size=(3, 3))
        a, b, c = lattice[corners]
        if not np.cross(b - a, c - a).any():
            continue  # a degenerate facet
        tokens = ["facet", "normal", *spell(rng.integers(0, 3, size=3)), "outer", "loop"]
        for corner in corners:
            tokens += ["vertex", *spell(corner)]
        facets.append(tokens + ["endloop", "endfacet"])
    # drawn with or without a corruption, so that a corrupted file keeps the facets,
    # solids and names of its sound twin; a stray keyword needs a facet before the bad one
    bad = max(int(rng.integers(0, n_facets)), int(corruption == "stray"))
    j = 7 + 4 * int(rng.integers(0, 3))  # where one vertex line of the bad facet starts
    coordinate = int(rng.integers(1, 4))
    stray = str(rng.choice(["endloop", "endfacet", "outer loop"]))
    if corruption == "drop":
        del facets[bad][j:j + 4]
    elif corruption == "fourth":
        facets[bad][19:19] = ["vertex", *spell([1, 0, 2])]
    elif corruption == "coordinate":
        facets[bad][j + coordinate] = "endloop"
    elif corruption == "stray":
        facets[bad - 1] += stray.split()
    cuts = sorted(rng.choice(np.arange(1, n_facets), size=int(rng.integers(0, min(3, n_facets))),
                             replace=False).tolist())
    items = []
    for lo, hi in zip([0] + cuts, cuts + [n_facets]):
        name = str(rng.choice(CORPUS_SOLID_NAMES))
        sep = str(rng.choice([" ", "\t", " \t "]))  # the name follows on the keyword's line
        items.append(("solid", f"solid{sep}{name}"))
        items += [(None, token) for facet in facets[lo:hi] for token in facet]
        items.append(("solid", f"endsolid{sep}{name}"))
    runs = list(" \t\r\n" if layout == "lines" else " \t\r")
    text = items[0][1]
    for (kind_a, _), (kind_b, token) in zip(items, items[1:]):
        ws = "".join(rng.choice(runs, size=int(rng.integers(1, 4))))
        if layout == "lines" and (kind_a or kind_b):  # a solid line is a line of its own
            ws += "\n" + "".join(rng.choice([" ", "\t"], size=int(rng.integers(0, 3))))
        text += ws + token
    tail = str(rng.choice(["", runs[-1], "\r\n"] if layout == "lines" else ["", " "]))
    return text + tail, bad if corruption else None


@pytest.mark.parametrize("layout", ["lines", "one_line"])
def test_stl_seeded_corpus_matches_reference_and_corruptions_name_the_facet(tmp_path, layout):
    path = tmp_path / "corpus.stl"
    for seed in range(100):
        text, _ = corpus_stl(seed, layout)
        path.write_bytes(text.encode())
        mesh, ref = load_stl(path), reference_load_stl(path)
        assert mesh.vertices.tobytes() == ref.vertices.tobytes(), seed
        assert mesh.triangles.tobytes() == ref.triangles.tobytes(), seed
        corruption = CORPUS_CORRUPTIONS[seed % len(CORPUS_CORRUPTIONS)]
        text, bad = corpus_stl(seed, layout, corruption)
        path.write_bytes(text.encode())
        with pytest.raises(MeshValidationError,
                           match=f"facet {bad} is not one loop of exactly three vertices"):
            load_stl(path)


# words that a fuzzed file gains: facet keywords, a solid line, and words with the bytes
# that end the fast scan's spelling runs
FUZZ_WORDS = ["outer loop", "outer", "loop", "vertex", "endloop", "endfacet", "facet",
              "facet normal 0 0 1", "\nsolid y", "endsolid", "1v", "2d", "\n"]


def fuzzed_stl(seed):
    """corpus_stl text, sound or with a corruption and with its names kept or made plain,
    in which up to three words after the first are inserted, replaced by a FUZZ_WORDS word,
    deleted, or lengthened past the fast scan's 256-byte spelling runs."""
    rng = np.random.default_rng(seed)
    layout = str(rng.choice(["lines", "one_line"]))
    corruption = rng.choice([None] * 4 + CORPUS_CORRUPTIONS)
    text, _ = corpus_stl(int(rng.integers(1 << 30)), layout, corruption)
    if rng.integers(4):  # names without a keyword, as most files have
        text = re.sub(r"(solid[ \t]+)(?:endfacet_x|endloop_x|outer loop)", r"\1x", text)
    tokens = re.split(r"(\s+)", text)  # words at even positions
    for _ in range(int(rng.integers(0, 4))):
        k = 2 * int(rng.integers(1, len(tokens) // 2 + 1))
        edit = rng.choice(["insert", "replace", "delete", "long"])
        word = str(rng.choice(FUZZ_WORDS))
        if edit == "insert":
            tokens[k:k] = [word, " "]
        elif k < len(tokens):
            tokens[k] = {"replace": word, "delete": "", "long": "0" * 300 + tokens[k]}[edit]
    return "".join(tokens)


def mesh_or_message(read):
    """A mesh's (vertices, triangles) bytes, or the message of the MeshValidationError
    that reading or building it raises."""
    try:
        mesh = read()
        return mesh.vertices.tobytes(), mesh.triangles.tobytes()
    except MeshValidationError as err:
        return str(err)


def test_stl_fast_record_scan_agrees_with_the_exact_scan(tmp_path):
    path = tmp_path / "fuzz.stl"

    def scan(fast):
        return TriangleMesh(*mesh_module._read_facets(path, path.read_bytes(), fast))

    facet = "facet normal 0 0 1 outer loop vertex {} 0 0 vertex 1 0 0 vertex 0 1 0 endloop endfacet"
    for text, expected in [
        # a one-line file whose first name holds a fast record that swallows the next facet:
        # its spellings are checked before the name drops it
        (f"solid x outer loop vertex 1 2 3 endloop endfacet {facet.format(0)} "
         f"{facet.format(2)} endsolid x\n", 2),
        # an exact record that no fast one matches (a v in a spelling) runs from the first
        # name past its line end into a second name: a broken facet, not name text
        (f"solid x outer loop vertex 1v 2 3\nvertex solid y 3 vertex 1 2 3 endloop endfacet\n"
         f"{facet.format(0)}\nendsolid x\n", "facet 0 is not one loop"),
    ]:
        path.write_text(text)
        with pytest.raises(MeshValidationError):  # not accepted by the fast scan
            scan(fast=True)
        if isinstance(expected, int):
            assert len(load_stl(path)) == expected
        else:
            with pytest.raises(MeshValidationError, match=expected):
                load_stl(path)
    corpus = [corpus_stl(seed, ["lines", "one_line"][seed % 2],
                         [None, *CORPUS_CORRUPTIONS][seed % 5])[0] for seed in range(100)]
    accepted = 0
    for seed, text in enumerate(corpus + [fuzzed_stl(seed) for seed in range(400)]):
        path.write_text(text)
        exact = mesh_or_message(lambda: scan(fast=False))
        try:
            records = mesh_module._read_facets(path, path.read_bytes(), fast=True)
        except MeshValidationError:
            pass  # not accepted: load_stl reads the file again with the exact scan
        else:  # accepted: the same mesh, or the same degenerate facet
            assert mesh_or_message(lambda: TriangleMesh(*records)) == exact, seed
            accepted += 1
        assert mesh_or_message(lambda: load_stl(path)) == exact, seed
    assert accepted >= 30


def test_stl_loops_without_endloop_read_in_linear_time(tmp_path):
    # a record scan whose vertex runs were unbounded would try each loop to the end of the file
    path = tmp_path / "no_endloop.stl"
    path.write_text("solid x\n" + "outer loop vertex 1 2 3 vertex 1 2 3 vertex 1 2 3 " * 8000
                    + "\nendsolid x\n")
    start = time.perf_counter()
    with pytest.raises(MeshValidationError):
        load_stl(path)
    assert time.perf_counter() - start < 2.0


def test_outward_winding_of_generated_sphere(sphere85):
    normals = sphere85.normals
    a, b, c = sphere85.corners()
    centroids = (a + b + c) / 3.0
    assert np.all(np.einsum("ij,ij->i", normals, centroids) > 0.0)


def test_large_mesh_uses_acceleration_and_agrees_with_brute():
    big = icosphere(85.0, subdivisions=5)  # 20480 triangles
    assert len(big) > 10_000
    rng = np.random.default_rng(17)
    queries = rng.uniform(-100, 100, size=(25, 3))
    for q in queries:
        accel = closest_point(big, q)
        brute = closest_point_brute(big, q)
        assert accel.triangle_id == brute.triangle_id
        np.testing.assert_array_equal(accel.point, brute.point)
