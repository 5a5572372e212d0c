import numpy as np
import pytest

from tmsnav.errors import (
    DegenerateConstraint,
    DegenerateTail,
    GridEscapedSurface,
    NoSkinIntersection,
    TargetOffSurface,
)
from tmsnav.fileio import dump, parse
from tmsnav.mesh import closest_point, sample_surface, triangle_normal
from tmsnav.meshgen import grid_patch, hemisphere, icosphere
from tmsnav.pose_plan import (
    ConstraintKind,
    HotspotGrid,
    PlanPose,
    PoseConstraintInput,
    Strategy,
    closest_skin_pose,
    free_skin_pose,
    hotspot_grid,
    pose_from_constraint,
    restricted_cortex_pose,
    select_hotspot,
)

from conftest import closest_point_brute, oracle_closest_on_mesh


def assert_right_handed(rotation, tol=1e-9):
    assert np.abs(rotation.T @ rotation - np.eye(3)).max() <= tol
    np.testing.assert_allclose(
        np.cross(rotation[:, 0], rotation[:, 1]), rotation[:, 2], atol=tol
    )


# --- pose_from_constraint ----------------------------------------------------

def test_four_point_planar_frame():
    c = PoseConstraintInput.four_point([0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0], tail="p1")
    plan = pose_from_constraint(c)
    r = plan.pose.rotation
    np.testing.assert_allclose(r[:, 0], [0, -1, 0], atol=1e-15)  # x
    np.testing.assert_allclose(r[:, 1], [1, 0, 0], atol=1e-15)  # y
    np.testing.assert_allclose(r[:, 2], [0, 0, 1], atol=1e-15)  # n
    np.testing.assert_allclose(plan.pose.translation, [0, 0, 0], atol=1e-15)
    assert_right_handed(r)


def test_plane_point_swap_flips_normal():
    c = PoseConstraintInput.four_point([0, 0, 0], [0, 0, 0], [0, 1, 0], [1, 0, 0], tail="p1")
    plan = pose_from_constraint(c)
    np.testing.assert_allclose(plan.pose.rotation[:, 2], [0, 0, -1], atol=1e-15)


def test_three_point_uses_designated_center():
    c = PoseConstraintInput.three_point([0, 0, 0], [1, 0, 0], [0, 1, 0], center="p1", tail="p2")
    plan = pose_from_constraint(c)
    np.testing.assert_allclose(plan.pose.translation, [1, 0, 0], atol=1e-15)
    # tail y_raw is still measured from p
    np.testing.assert_allclose(plan.pose.rotation[:, 1], [0, 1, 0], atol=1e-15)


def test_two_point_matches_brute_force_reimplementation():
    mesh = icosphere(80.0, subdivisions=3)
    rng = np.random.default_rng(21)
    for _ in range(25):
        u = rng.normal(size=3)
        u[2] = abs(u[2]) + 1.0  # bias toward the upper hemisphere
        u /= np.linalg.norm(u)
        pc = 80.0 * u
        pt = pc + np.array([7.0, 0.0, 0.0])
        plan = pose_from_constraint(PoseConstraintInput.two_point(pc, pt), mesh)
        # independent recomputation from the oracle's closest triangle
        _, tid, _ = oracle_closest_on_mesh(mesh, pc)
        a, b, c = (mesh.vertices[i] for i in mesh.triangles[tid])
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n)
        y_raw = pt - pc
        y = y_raw - np.dot(y_raw, n) * n
        y /= np.linalg.norm(y)
        x = np.cross(y, n)
        np.testing.assert_allclose(plan.pose.rotation, np.stack([x, y, n], axis=1), atol=1e-12)
        assert_right_handed(plan.pose.rotation)


def test_two_point_center_projected_onto_triangle_plane():
    mesh = grid_patch(4, 4, spacing=10.0, z=0.0)
    plan = pose_from_constraint(
        PoseConstraintInput.two_point([1.0, 2.0, 3.0], [9.0, 2.0, 3.0]), mesh
    )
    np.testing.assert_allclose(plan.pose.translation, [1.0, 2.0, 0.0], atol=1e-12)


def test_two_point_requires_mesh():
    c = PoseConstraintInput.two_point([0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError):
        pose_from_constraint(c, None)


def test_collinear_plane_points_raise():
    c = PoseConstraintInput.four_point([0, 0, 0], [0, 0, 0], [1, 0, 0], [2, 0, 0])
    with pytest.raises(DegenerateConstraint):
        pose_from_constraint(c)


def test_tail_parallel_to_normal_raises():
    # tail point straight above the center: y_raw parallel to n
    bad = PoseConstraintInput(
        ConstraintKind.TWO_POINT, [0.0, 0.2, 0.0], None, [0.0, 0.2, 5.0], None
    )
    mesh = grid_patch(4, 4, spacing=1.0)
    with pytest.raises(DegenerateTail):
        pose_from_constraint(bad, mesh)


def test_center_beyond_sanity_bound_raises():
    mesh = grid_patch(4, 4, spacing=10.0)
    c = PoseConstraintInput.two_point([0.0, 0.0, 80.0], [5.0, 0.0, 80.0])
    with pytest.raises(TargetOffSurface):
        pose_from_constraint(c, mesh)
    # configurable bound
    plan = pose_from_constraint(c, mesh, surface_bound_mm=100.0)
    np.testing.assert_allclose(plan.pose.translation, [0, 0, 0], atol=1e-12)


def test_rotation_bitwise_invariant_under_pow2_scaling():
    # integer lattice points keep p1-p and p2-p exactly representable, so
    # power-of-two scaling must reproduce the rotation bit for bit
    rng = np.random.default_rng(22)
    done = 0
    while done < 20:
        p = rng.integers(-50, 50, size=3).astype(float)
        d1 = rng.integers(-8, 9, size=3).astype(float)
        d2 = rng.integers(-8, 9, size=3).astype(float)
        if np.linalg.norm(np.cross(d1, d2)) < 1.0:
            continue
        base = pose_from_constraint(
            PoseConstraintInput.four_point(p, p, p + d1, p + d2, tail="p2")
        )
        scaled = pose_from_constraint(
            PoseConstraintInput.four_point(p, p, p + 4.0 * d1, p + 0.5 * d2, tail="p2")
        )
        np.testing.assert_array_equal(scaled.pose.rotation, base.pose.rotation)
        done += 1


# --- free skin ----------------------------------------------------------------

def test_free_skin_at_hemisphere_apex():
    skin = hemisphere(85.0, subdivisions=4)
    plan = free_skin_pose(
        skin, PoseConstraintInput.two_point([0.0, 0.0, 85.2], [10.0, 0.0, 85.2])
    )
    # apex normal within the mesh's angular resolution of straight up
    assert plan.pose.rotation[:, 2] @ np.array([0.0, 0.0, 1.0]) > 0.995
    assert plan.strategy is Strategy.FREE_SKIN


def test_free_skin_flat_patch_grid_shares_rotation():
    skin = grid_patch(12, 12, spacing=5.0)
    rotations = []
    for gx in (-10.0, 0.0, 10.0):
        for gy in (-10.0, 0.0, 10.0):
            plan = free_skin_pose(
                skin,
                PoseConstraintInput.two_point([gx, gy, 0.0], [gx + 3.0, gy, 0.0]),
            )
            rotations.append(plan.pose.rotation)
    for r in rotations[1:]:
        np.testing.assert_array_equal(r, rotations[0])


def test_free_skin_on_head_mesh_center_on_surface(sphere85):
    rng = np.random.default_rng(23)
    pcs = sample_surface(sphere85, 200, rng)
    for pc in pcs:
        plan = free_skin_pose(
            sphere85, PoseConstraintInput.two_point(pc, pc + [5.0, 1.0, 0.0])
        )
        hit = closest_point(sphere85, plan.pose.translation)
        assert np.linalg.norm(hit.point - plan.pose.translation) <= 1e-6
        # z-axis equals the brute-force containing triangle's normal
        tid = closest_point_brute(sphere85, pc).triangle_id
        np.testing.assert_allclose(
            plan.pose.rotation[:, 2], triangle_normal(sphere85, tid), atol=1e-12
        )


# --- restricted cortex ----------------------------------------------------------

def test_restricted_cortex_concentric_spheres(sphere85, cortex70):
    c = PoseConstraintInput.two_point([0.0, 0.0, 70.0], [8.0, 0.0, 70.0])
    plan = restricted_cortex_pose(cortex70, sphere85, c)
    assert plan.strategy is Strategy.RESTRICTED_CORTEX
    # center reaches the outer sphere along the (near-radial) normal
    np.testing.assert_allclose(plan.pose.translation, [0, 0, 85], atol=1.0)
    assert abs(np.linalg.norm(plan.pose.translation) - 85.0) <= 0.1
    # rotation is the cortex pose's rotation, tangential at the target
    cortex_plan = pose_from_constraint(c, cortex70)
    np.testing.assert_array_equal(plan.pose.rotation, cortex_plan.pose.rotation)
    np.testing.assert_allclose(plan.cortex_target, cortex_plan.pose.translation, atol=1e-12)


def test_restricted_cortex_offset_sphere_quadratic_oracle(sphere85):
    cortex = icosphere(70.0, subdivisions=4, center=(10.0, 0.0, 0.0))
    c = PoseConstraintInput.two_point([10.0, 0.0, 70.0], [18.0, 0.0, 70.0])
    plan = restricted_cortex_pose(cortex, sphere85, c)
    # oracle: intersect the implementation's own ray with the ideal sphere
    cortex_plan = pose_from_constraint(c, cortex)
    o = cortex_plan.pose.translation
    d = cortex_plan.pose.rotation[:, 2]
    # |o + t d|^2 = 85^2, take the positive root
    b = 2.0 * np.dot(o, d)
    cc = np.dot(o, o) - 85.0**2
    t = (-b + np.sqrt(b * b - 4.0 * cc)) / 2.0
    np.testing.assert_allclose(plan.pose.translation, o + t * d, atol=0.2)


def test_restricted_cortex_no_skin_above_raises():
    cortex = grid_patch(4, 4, spacing=5.0, z=0.0)
    # skin patch far off to the side: the upward ray cannot reach it
    skin_far = grid_patch(4, 4, spacing=5.0, z=0.0)
    shifted = skin_far.vertices + np.array([500.0, 0.0, 30.0])
    from tmsnav.mesh import TriangleMesh

    skin = TriangleMesh(shifted, skin_far.triangles)
    c = PoseConstraintInput.two_point([0.0, 0.0, 0.0], [3.0, 0.0, 0.0])
    with pytest.raises(NoSkinIntersection):
        restricted_cortex_pose(cortex, skin, c)


def test_restricted_cortex_collision_warning(sphere85, cortex70):
    from tmsnav.mesh import TriangleMesh
    from tmsnav.transforms import RigidTransform, rotation_about_axis

    # concentric spheres give a tangent plane: no corner dips inside
    c = PoseConstraintInput.two_point([0.0, 0.0, 70.0], [8.0, 0.0, 70.0])
    tangent = restricted_cortex_pose(cortex70, sphere85, c)
    assert not tangent.skin_collision_warning

    # a cortex patch tilted 60 degrees makes the plan plane strongly secant:
    # one 70 mm footprint corner ends up inside the skin sphere
    patch = grid_patch(6, 6, spacing=4.0)
    tilt = RigidTransform(rotation_about_axis([0, 1, 0], np.deg2rad(60.0)), [0.0, 0.0, 60.0])
    cortex_tilted = TriangleMesh(tilt.apply(patch.vertices), patch.triangles)
    c2 = PoseConstraintInput.two_point([0.0, 0.0, 60.0], tilt.apply([0.0, 5.0, 0.0]))
    warned = restricted_cortex_pose(cortex_tilted, sphere85, c2)
    assert warned.skin_collision_warning


def test_restricted_cortex_corners_below_an_open_scalp_do_not_warn():
    from tmsnav.mesh import TriangleMesh
    from tmsnav.transforms import RigidTransform, rotation_about_axis

    # the tilted footprint puts two corners near (23, +-35, -20), below the
    # open rim of the scalp: outside it, so the plan must not warn
    skin = hemisphere(85.0, subdivisions=4)
    move = RigidTransform(rotation_about_axis([0, 1, 0], np.deg2rad(-30.0)), [93.7, 0.0, -2.5])
    patch = grid_patch(4, 4, spacing=4.0)
    cortex = TriangleMesh(move.apply(patch.vertices), patch.triangles)
    c = PoseConstraintInput.two_point(move.apply([0.0, 0.0, 0.0]), move.apply([0.0, 5.0, 0.0]))
    plan = restricted_cortex_pose(cortex, skin, c)
    assert not plan.skin_collision_warning


# --- closest skin ---------------------------------------------------------------

def test_closest_skin_concentric_matches_restricted(sphere85, cortex70):
    c = PoseConstraintInput.two_point([0.0, 0.0, 70.0], [8.0, 0.0, 70.0])
    a = restricted_cortex_pose(cortex70, sphere85, c)
    b = closest_skin_pose(cortex70, sphere85, c)
    np.testing.assert_allclose(b.pose.translation, a.pose.translation, atol=1.5)
    np.testing.assert_allclose(b.pose.translation, [0, 0, 85], atol=1.0)


def test_closest_skin_offset_sphere_analytic(sphere85):
    cortex = icosphere(70.0, subdivisions=4, center=(10.0, 0.0, 0.0))
    c = PoseConstraintInput.two_point([10.0, 0.0, 70.0], [18.0, 0.0, 70.0])
    plan = closest_skin_pose(cortex, sphere85, c)
    target = plan.cortex_target
    expected = 85.0 * target / np.linalg.norm(target)
    # faceting pulls the hit laterally by up to gap*sin(face tilt) ~ 0.6 mm
    np.testing.assert_allclose(plan.pose.translation, expected, atol=0.8)
    # differs from the ray-projected variant
    other = restricted_cortex_pose(cortex, sphere85, c)
    assert np.linalg.norm(plan.pose.translation - other.pose.translation) > 0.5


def test_closest_skin_z_axis_is_skin_triangle_normal(sphere85, cortex70):
    rng = np.random.default_rng(24)
    targets = sample_surface(cortex70, 1000, rng)
    for i, pc in enumerate(targets):
        tail = pc + [4.0, 3.0, 0.0]
        plan = closest_skin_pose(
            cortex70, sphere85, PoseConstraintInput.two_point(pc, tail)
        )
        tid = closest_point_brute(sphere85, plan.cortex_target).triangle_id
        np.testing.assert_allclose(
            plan.pose.rotation[:, 2], triangle_normal(sphere85, tid), atol=1e-12
        )
        hit = closest_point(sphere85, plan.pose.translation)
        assert np.linalg.norm(hit.point - plan.pose.translation) <= 1e-6
        if i < 20:  # scalar-oracle spot check on the triangle lookup
            _, oracle_tid, _ = oracle_closest_on_mesh(sphere85, plan.cortex_target)
            assert tid == oracle_tid


# --- hotspot grid ----------------------------------------------------------------

def seed_on_sphere(mesh, pc=(0.0, 0.0, 85.0)):
    return free_skin_pose(
        mesh, PoseConstraintInput.two_point(pc, np.asarray(pc) + [6.0, 0.0, 0.0])
    )


def test_hotspot_grid_1x1_echoes_seed(sphere85):
    seed = seed_on_sphere(sphere85)
    grid = hotspot_grid(sphere85, seed, 1, 1, 10.0)
    assert len(grid) == 1
    assert grid.poses[0] is seed


def test_hotspot_grid_flat_exact_pitch():
    skin = grid_patch(20, 20, spacing=5.0)
    seed = free_skin_pose(
        skin, PoseConstraintInput.two_point([0.0, 0.0, 0.0], [3.0, 0.0, 0.0])
    )
    grid = hotspot_grid(skin, seed, 3, 3, 10.0)
    centers = np.array([p.pose.translation for p in grid.poses])
    assert np.allclose(centers[:, 2], 0.0, atol=1e-12)
    # row-major ordering with the seed in the middle
    np.testing.assert_allclose(centers[4], seed.pose.translation, atol=1e-12)
    for i in range(3):
        for j in range(2):
            step = centers[3 * i + j + 1] - centers[3 * i + j]
            assert np.linalg.norm(step) == pytest.approx(10.0, abs=1e-9)
    for p in grid.poses:
        np.testing.assert_array_equal(p.pose.rotation, seed.pose.rotation)


def test_hotspot_grid_on_sphere(sphere85):
    seed = seed_on_sphere(sphere85)
    grid = hotspot_grid(sphere85, seed, 5, 5, 10.0)
    centers = np.array([p.pose.translation for p in grid.poses])
    for c, p in zip(centers, grid.poses):
        hit = closest_point(sphere85, c)
        assert np.linalg.norm(hit.point - c) <= 1e-6
        assert_right_handed(p.pose.rotation)
    # geodesic spacing on the ideal sphere: radial projection shrinks the
    # outer lattice pairs by ~6% (plus faceting jitter), the central
    # cross stays within 5%
    def geo(a, b):
        ua, ub = a / np.linalg.norm(a), b / np.linalg.norm(b)
        return 85.0 * np.arccos(np.clip(ua @ ub, -1.0, 1.0))

    for i in range(5):
        for j in range(4):
            assert abs(geo(centers[5 * i + j], centers[5 * i + j + 1]) - 10.0) <= 0.85
    mid = centers[12]
    for neighbor in (centers[11], centers[13], centers[7], centers[17]):
        assert abs(geo(mid, neighbor) - 10.0) <= 0.5


def test_hotspot_grid_escape_raises():
    skin = grid_patch(4, 4, spacing=5.0)  # 20 mm square patch
    seed = free_skin_pose(
        skin, PoseConstraintInput.two_point([0.0, 0.0, 0.0], [3.0, 0.0, 0.0])
    )
    with pytest.raises(GridEscapedSurface):
        hotspot_grid(skin, seed, 1, 21, 5.0)


def test_hotspot_grid_validates_shape(sphere85):
    seed = seed_on_sphere(sphere85)
    with pytest.raises(ValueError):
        hotspot_grid(sphere85, seed, 0, 3, 10.0)
    with pytest.raises(ValueError):
        hotspot_grid(sphere85, seed, 3, 3, 0.0)


def test_select_hotspot_ties_and_argmax(sphere85):
    seed = seed_on_sphere(sphere85)
    grid = hotspot_grid(sphere85, seed, 3, 3, 10.0)
    idx, pose = select_hotspot(grid, np.ones(9))
    assert idx == 0
    responses = np.zeros(9)
    responses[7] = 2.0
    idx, pose = select_hotspot(grid, responses)
    assert idx == 7
    assert pose is grid.poses[7]
    with pytest.raises(ValueError):
        select_hotspot(grid, np.ones(8))


# --- determinism & serialization -------------------------------------------------

def test_planning_is_bitwise_deterministic(sphere85, cortex70):
    c = PoseConstraintInput.two_point([2.0, -3.0, 69.8], [9.0, 0.0, 69.0])
    a = closest_skin_pose(cortex70, sphere85, c)
    b = closest_skin_pose(cortex70, sphere85, c)
    assert dump(a) == dump(b)


def test_plan_pose_json_round_trip(sphere85, cortex70):
    c = PoseConstraintInput.two_point([2.0, -3.0, 69.8], [9.0, 0.0, 69.0])
    plan = closest_skin_pose(cortex70, sphere85, c)
    back = parse(PlanPose, dump(plan), "plan")
    assert dump(back) == dump(plan)
    for con in (
        PoseConstraintInput.four_point([1, 2, 3], [1, 2, 3], [4, 5, 6], [7, 8, 10], tail="p2"),
        PoseConstraintInput.three_point([1, 2, 3], [4, 5, 6], [7, 8, 10], center="p1"),
    ):
        assert dump(parse(PoseConstraintInput, dump(con), "constraint")) == dump(con)


def test_grid_json_round_trip(sphere85):
    seed = seed_on_sphere(sphere85)
    grid = hotspot_grid(sphere85, seed, 2, 3, 8.0)
    back = parse(HotspotGrid, dump(grid), "grid")
    assert dump(back) == dump(grid)
