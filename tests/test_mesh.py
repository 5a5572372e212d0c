import re

import numpy as np
import pytest

from tmsnav.errors import EmptyMeshError, MeshValidationError, ValidationError
from tmsnav.mesh import (
    DEGENERATE_AREA_MM2,
    TriangleMesh,
    closest_point,
    closest_point_batch,
    contains_point,
    load_stl,
    ray_intersect,
    sample_surface,
    save_stl,
    triangle_normal,
    triangle_normals,
)
from tmsnav.meshgen import ellipsoid, grid_patch, hemisphere, icosphere

from conftest import (
    closest_point_brute,
    oracle_closest_on_mesh,
    oracle_closest_on_triangle,
    random_soup,
    ray_intersect_brute,
)


def unit_triangle(z=0.0):
    return TriangleMesh([[0, 0, z], [1, 0, z], [0, 1, z]], [[0, 1, 2]])


# Shapes the spatial index must serve exactly as the brute-force oracles do.
INDEX_SHAPES = ["soup", "one_triangle", "padded_chunk", "grid_patch", "hemisphere"]


def index_shape(name, rng):
    if name == "soup":
        return random_soup(rng, 500)
    if name == "one_triangle":
        return random_soup(rng, 1)
    if name == "padded_chunk":  # one full chunk of 32 plus one padded chunk
        mesh = random_soup(rng, 33)
        assert len(mesh) == 33
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


# --- triangle_normal -------------------------------------------------------

def test_triangle_normal_basic():
    np.testing.assert_allclose(triangle_normal(unit_triangle(), 0), [0, 0, 1], atol=1e-15)


def test_triangle_normal_winding_flip():
    m = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
    np.testing.assert_allclose(triangle_normal(m, 0), [0, 0, -1], atol=1e-15)


def test_triangle_normal_scale_invariant():
    m = TriangleMesh([[0, 0, 0], [2, 0, 0], [0, 3, 0]], [[0, 1, 2]])
    np.testing.assert_allclose(triangle_normal(m, 0), [0, 0, 1], atol=1e-15)


def test_triangle_normal_unit_norm_and_sign_property():
    rng = np.random.default_rng(11)
    m = random_soup(rng, 100)
    flipped = TriangleMesh(m.vertices, m.triangles[:, [0, 2, 1]])
    for i in range(len(m)):
        n = triangle_normal(m, i)
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12
        np.testing.assert_allclose(triangle_normal(flipped, i), -n, atol=1e-12)


# --- validation ------------------------------------------------------------

def test_degenerate_triangle_rejected_at_load():
    with pytest.raises(MeshValidationError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(bad):
    verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, bad]]
    with pytest.raises(MeshValidationError, match="non-finite vertex 3"):
        TriangleMesh(verts, [[0, 1, 2], [0, 1, 3]])


def test_index_out_of_range_rejected():
    with pytest.raises(MeshValidationError):
        TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 3]])


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
        np.testing.assert_array_equal(closest_point_batch(m, [q, q]), [hit.point, hit.point])


def test_non_finite_query_rejected():
    m = icosphere(85.0, subdivisions=2)
    with pytest.raises(ValidationError, match="row 0"):
        closest_point(m, [np.nan, 0.0, 0.0])
    with pytest.raises(ValidationError, match="row 1"):
        closest_point_batch(m, [[0.0, 0.0, 90.0], [np.inf, 0.0, 0.0]])
    with pytest.raises(ValidationError, match="non-finite point"):
        contains_point(m, [0.0, np.nan, 0.0])


def test_closest_point_matches_scalar_oracle():
    rng = np.random.default_rng(12)
    mesh = random_soup(rng, 120)
    queries = rng.uniform(-70, 70, size=(150, 3))
    for q in queries:
        hit = closest_point_brute(mesh, q)
        pt, tid, d = oracle_closest_on_mesh(mesh, q)
        assert np.linalg.norm(hit.point - q) == pytest.approx(d, abs=1e-9)
        np.testing.assert_allclose(hit.point, pt, atol=1e-7)


@pytest.mark.parametrize("shape", INDEX_SHAPES + ["sphere_centre"])
def test_index_closest_point_identical_to_brute_force(shape):
    rng = np.random.default_rng(13)
    mesh = index_shape(shape, rng)
    if shape == "sphere_centre":  # every chunk's box can win: all are candidates
        queries = np.concatenate([np.zeros((1, 3)), rng.normal(scale=1e-3, size=(40, 3))])
    else:  # random points, plus the vertices, where adjacent triangles tie
        n = 10_000 if shape == "soup" else 1000
        queries = np.concatenate([around(mesh, rng, n), mesh.vertices[:300]])
    batch = closest_point_batch(mesh, queries)
    for q, row in zip(queries, batch):
        accel = closest_point(mesh, q)
        brute = closest_point_brute(mesh, q)
        assert accel.triangle_id == brute.triangle_id
        np.testing.assert_array_equal(accel.point, brute.point)
        np.testing.assert_array_equal(row, brute.point)


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
    np.testing.assert_allclose(triangle_normal(mesh, 0), [0, 0, 1], atol=1e-15)


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


def test_stl_solid_name_containing_endfacet_loads(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    plain = tmp_path / "plain.stl"
    plain.write_text(stl_text(good))
    named = tmp_path / "named.stl"
    named.write_text(stl_text(good).replace("solid test", "solid endfacet_test"))
    a, b = load_stl(plain), load_stl(named)
    assert a.vertices.tobytes() == b.vertices.tobytes()
    np.testing.assert_array_equal(a.triangles, b.triangles)


def test_stl_later_solid_named_outer_loads(tmp_path):
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    path = tmp_path / "two_solids.stl"
    path.write_text(stl_text(good) + stl_text(good).replace("solid test", "solid outer_skin"))
    assert len(load_stl(path)) == 2


@pytest.mark.parametrize("name", ["endfacet_x", "endloop_x", "outer loop"])
def test_stl_later_solid_named_like_a_keyword_loads(tmp_path, name):
    # the name on an inner solid/endsolid line is free text, like the first one's
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    path = tmp_path / "two_solids.stl"
    path.write_text(stl_text(good) + stl_text(good).replace("solid test", f"solid {name}"))
    assert len(load_stl(path)) == 2


def test_stl_rejects_binary_like_input(tmp_path):
    path = tmp_path / "bad.stl"
    good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
    for content in (b"\x00\x01\x02binarysoup", b"\xff\xfe\x00solid",
                    stl_text(good, good).encode().replace(b"vertex 1 0 0", b"vertex 1 \xff 0")):
        path.write_bytes(content)
        with pytest.raises(MeshValidationError):
            load_stl(path)


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


def reference_load_stl(path, drop_degenerate=False):
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
    if drop_degenerate:
        e1, e2 = v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]
        t = t[0.5 * np.linalg.norm(np.cross(e1, e2), axis=1) > DEGENERATE_AREA_MM2]
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


@pytest.mark.parametrize("case", ["icosphere_20480", "mixed_spelling", "degenerate_dropped",
                                  "icosphere_5120"])
def test_stl_loader_matches_reference(tmp_path, case):
    path = tmp_path / f"{case}.stl"
    drop = case == "degenerate_dropped"
    if case.startswith("icosphere"):
        save_stl(icosphere(85.0, subdivisions=5 if case.endswith("20480") else 4), path)
    elif case == "mixed_spelling":
        path.write_text(MIXED_SPELLING_STL, newline="")
    else:
        good = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        collinear = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        path.write_text(stl_text(good, collinear, [(1, 0, 0), (1, 1, 0), (0, 1, 0)]))
    mesh, ref = load_stl(path, drop_degenerate=drop), reference_load_stl(path, drop_degenerate=drop)
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.triangles.dtype == ref.triangles.dtype
    np.testing.assert_array_equal(mesh.triangles, ref.triangles)


def test_outward_winding_of_generated_sphere(sphere85):
    normals = triangle_normals(sphere85)
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
