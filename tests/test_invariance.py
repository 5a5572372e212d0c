"""Metamorphic relations: an output depends only on the geometry it was given.

Each test changes the inputs in a way that must leave an output the same, or move it in
a known way, and checks that at the rounding level. They need no reference output.
"""

from dataclasses import replace

import numpy as np
import pytest

from tmsnav.fieldsim import CoilModel, PulseTrain, SensorModel, b_field, peak_to_peak_voltages
from tmsnav.mesh import TriangleMesh, closest_point_batch, contains_point, ray_intersect
from tmsnav.meshgen import ellipsoid, icosphere
from tmsnav.pose_plan import (
    PoseConstraintInput,
    _frame_from_normal_and_tail,
    closest_skin_pose,
    free_skin_pose,
    hotspot_grid,
    pose_from_constraint,
    restricted_cortex_pose,
)
from tmsnav.transforms import RigidTransform, compose, rotation_angle

from conftest import (
    near_wire_points,
    oracle_closest_on_triangles,
    random_rotation,
    random_transform,
)

SKIN_AXES = np.array([80.0, 95.0, 70.0])
CORTEX_AXES = np.array([65.0, 80.0, 55.0])


def ellipsoid_constraints(axes, offset, n, rng):
    """n two-point constraints `offset` mm along the outward normal of the analytic
    ellipsoid, at random directions, each tail 8 mm along a tangent."""
    constraints = []
    for d in rng.normal(size=(n, 3)):
        point = d / np.sqrt((d * d / axes ** 2).sum())
        normal = point / axes ** 2
        normal /= np.sqrt((normal * normal).sum())
        center = point + offset * normal
        constraints.append(PoseConstraintInput.two_point(
            center, center + 8.0 * np.cross(normal, [0.0, 0.0, 1.0])))
    return constraints


def head_plans(skin, cortex, skin_constraints, cortex_constraints):
    """(plan, query, tail direction) of every free-skin plan, its 5x5 hotspot grid and every
    closest-skin plan: the query is the point whose nearest skin triangle sets the pose's z
    axis, and the tail direction the vector projected into that triangle's plane for y."""
    plans = []
    for constraint in skin_constraints:
        seed = free_skin_pose(skin, constraint)
        plans.append((seed, constraint.center, constraint.tail_point - constraint.center))
        y_axis = seed.pose.rotation[:, 1]
        plans += [(pose, pose.source.center, y_axis)
                  for pose in hotspot_grid(skin, seed, 5, 5, 10.0).poses]
    for constraint in cortex_constraints:
        plan = closest_skin_pose(cortex, skin, constraint)
        plans.append((plan, plan.cortex_target,
                      pose_from_constraint(constraint, cortex).pose.rotation[:, 1]))
    return plans


def moved(transform, constraint):
    return PoseConstraintInput.two_point(transform.apply(constraint.center),
                                         transform.apply(constraint.tail_point))


# --- rays -------------------------------------------------------------------

def test_scaling_a_ray_direction_leaves_its_hit_the_same():
    # ray_parameter is in mm for any direction length: from 0.1 mm inside the sphere, the
    # skin ahead is hit whatever the direction's length, at the same point and distance; and
    # the parallel cut scales with |d|, so a short direction still hits (one of length 1e-15
    # missed every triangle under an absolute cut)
    mesh = icosphere(85.0, 3)
    rng = np.random.default_rng(41)
    origins = np.vstack([[84.9, 0.0, 0.0], rng.uniform(-45.0, 45.0, size=(200, 3))])
    directions = np.vstack([[1.0, 0.0, 0.0], rng.normal(size=(200, 3))])
    for origin, d in zip(origins, directions):
        hit = ray_intersect(mesh, origin, d)
        assert hit is not None
        for scale in (1e150, 1e9, 1e-3, 1e-15):  # 1e150: near the bound on |d|^2
            scaled = ray_intersect(mesh, origin, scale * d)
            assert scaled is not None and scaled.triangle_id == hit.triangle_id
            np.testing.assert_allclose(scaled.point, hit.point, rtol=0.0, atol=1e-12)
            assert scaled.ray_parameter == pytest.approx(hit.ray_parameter, rel=0.0, abs=1e-12)
    first = ray_intersect(mesh, origins[0], 1e9 * directions[0])
    assert first.point.tolist() == [85.0, 0.0, 0.0]
    assert first.ray_parameter == pytest.approx(0.1, abs=1e-12)


@pytest.mark.parametrize("name", ["icosphere", "ellipsoid"])
def test_reversing_the_winding_flips_the_normals_and_nothing_else(name):
    # swapping each triangle's last two corners negates its normal bit for bit (the cross of
    # swapped edges is the negated cross, its length the same sum); containment (|w| > 1/2
    # under either winding), closest points and ray hits depend on the surface alone, and a
    # closest point's id may change only among the triangles tied at that point
    mesh = icosphere(85.0, 3) if name == "icosphere" else ellipsoid(SKIN_AXES, 5)
    flipped = TriangleMesh(mesh.vertices, mesh.triangles[:, [0, 2, 1]])
    np.testing.assert_array_equal(flipped.normals, -mesh.normals)
    rng = np.random.default_rng(50)
    reach = np.abs(mesh.vertices).max(axis=0)
    points = rng.uniform(-1.3, 1.3, size=(300, 3)) * reach
    assert [contains_point(flipped, p) for p in points] == [contains_point(mesh, p) for p in points]
    near, ids = closest_point_batch(mesh, points)
    near_f, ids_f = closest_point_batch(flipped, points)
    np.testing.assert_allclose(near_f, near, rtol=0.0, atol=1e-12)
    swapped = np.flatnonzero(ids_f != ids)
    a, b, c = mesh.corners()
    for i in swapped:
        pair = [ids[i], ids_f[i]]
        _, d2 = oracle_closest_on_triangles(a[pair], b[pair], c[pair], points[i])
        assert abs(np.sqrt(d2[0]) - np.sqrt(d2[1])) <= 1e-12
    assert len(swapped) < 0.05 * len(points)
    origins = rng.uniform(-0.5, 0.5, size=(300, 3)) * reach  # inside the closed surface
    for origin, d in zip(origins, rng.normal(size=(300, 3))):
        hit, hit_f = ray_intersect(mesh, origin, d), ray_intersect(flipped, origin, d)
        assert hit is not None and hit_f.triangle_id == hit.triangle_id
        np.testing.assert_allclose(hit_f.point, hit.point, rtol=0.0, atol=1e-12)
        assert hit_f.ray_parameter == pytest.approx(hit.ray_parameter, rel=0.0, abs=1e-12)


# --- plans --------------------------------------------------------------------

def test_a_rigid_motion_of_the_image_frame_moves_every_plan_by_it():
    # skin, cortex and constraints moved by T: every pose moves by T, to rounding. Where the
    # query's nearest skin point is shared by several triangles (an edge or a vertex),
    # rounding picks which one sets z, so the moved pose is T times the frame of one of them
    rng = np.random.default_rng(43)
    skin, cortex = ellipsoid(SKIN_AXES, 4), ellipsoid(CORTEX_AXES, 4)
    skin_constraints = ellipsoid_constraints(SKIN_AXES, 0.7, 20, rng)
    cortex_constraints = ellipsoid_constraints(CORTEX_AXES, -5.0, 20, rng)
    transform = random_transform(rng)
    skin_t, cortex_t = (TriangleMesh(transform.apply(m.vertices), m.triangles)
                        for m in (skin, cortex))
    plans = head_plans(skin, cortex, skin_constraints, cortex_constraints)
    plans_t = head_plans(skin_t, cortex_t, [moved(transform, c) for c in skin_constraints],
                         [moved(transform, c) for c in cortex_constraints])
    assert len(plans) == len(plans_t) == 20 * 26 + 20
    shared = 0
    for (plan, query, tail), (plan_t, _, _) in zip(plans, plans_t):
        np.testing.assert_allclose(plan_t.pose.translation,
                                   transform.apply(plan.pose.translation), rtol=0.0, atol=1e-11)
        points, _ = oracle_closest_on_triangles(*skin.corners(), query)
        nearest = np.flatnonzero(np.abs(points - plan.pose.translation).max(axis=1) <= 1e-9)
        shared += len(nearest) > 1
        frames = transform.rotation @ _frame_from_normal_and_tail(skin.normals[nearest], tail)
        angles = rotation_angle(np.swapaxes(frames, 1, 2) @ plan_t.pose.rotation)
        assert np.degrees(angles.min()) <= 1e-10
    assert shared >= 1  # the tie branch is exercised


def test_permuting_a_meshs_vertices_leaves_every_plan_bitwise_the_same():
    rng = np.random.default_rng(47)
    skin, cortex = ellipsoid(SKIN_AXES, 3), ellipsoid(CORTEX_AXES, 3)

    def permuted(mesh):
        order = rng.permutation(len(mesh.vertices))
        return TriangleMesh(mesh.vertices[order], np.argsort(order)[mesh.triangles])

    skin_constraints = ellipsoid_constraints(SKIN_AXES, 0.7, 10, rng)
    cortex_constraints = ellipsoid_constraints(CORTEX_AXES, -5.0, 10, rng)
    skin_p, cortex_p = permuted(skin), permuted(cortex)
    assert not np.array_equal(skin_p.vertices, skin.vertices)
    pairs = [(a, b) for (a, _, _), (b, _, _) in zip(
        head_plans(skin, cortex, skin_constraints, cortex_constraints),
        head_plans(skin_p, cortex_p, skin_constraints, cortex_constraints))]
    pairs += [(restricted_cortex_pose(cortex, skin, c), restricted_cortex_pose(cortex_p, skin_p, c))
              for c in cortex_constraints]
    for plan, plan_p in pairs:
        assert plan_p.pose.rotation.tobytes() == plan.pose.rotation.tobytes()
        assert plan_p.pose.translation.tobytes() == plan.pose.translation.tobytes()
        assert plan_p.skin_collision_warning == plan.skin_collision_warning


def test_scaling_a_two_point_tail_vector_leaves_every_plan_the_same():
    # only the tail's direction sets y: scaling tail - center by s keeps each free-skin,
    # closest-skin and restricted-cortex plan's translation bitwise and its rotation to the
    # rounding of the scaled tail point, about eps |tail| / |tail - center| rad (measured
    # 9.8e-13 rad at s = 1e-3, where the tail lies 8 um from a center about 80 mm out)
    rng = np.random.default_rng(53)
    skin, cortex = ellipsoid(SKIN_AXES, 4), ellipsoid(CORTEX_AXES, 4)
    plans = [(lambda c: free_skin_pose(skin, c), ellipsoid_constraints(SKIN_AXES, 0.7, 20, rng))]
    cortex_constraints = ellipsoid_constraints(CORTEX_AXES, -5.0, 20, rng)
    plans += [(lambda c: closest_skin_pose(cortex, skin, c), cortex_constraints),
              (lambda c: restricted_cortex_pose(cortex, skin, c), cortex_constraints)]
    for plan, constraints in plans:
        for constraint in constraints:
            pose = plan(constraint)
            for scale in (1e-3, 7.0, 1e6):
                tail = constraint.center + scale * (constraint.tail_point - constraint.center)
                scaled = plan(PoseConstraintInput.two_point(constraint.center, tail))
                assert scaled.pose.translation.tobytes() == pose.pose.translation.tobytes()
                assert scaled.skin_collision_warning == pose.skin_collision_warning
                bound = 1e-13 + 4.0 * np.finfo(float).eps * np.abs(tail).max() / np.sqrt(
                    ((tail - constraint.center) ** 2).sum())
                assert rotation_angle(pose.pose.rotation.T @ scaled.pose.rotation) <= bound


# --- fields ---------------------------------------------------------------------------

def test_a_rigid_motion_of_coil_and_sensors_leaves_the_voltages_the_same():
    # a voltage depends only on where the sensor sits relative to the coil: moving the
    # figure-8 coil and 20 poses of a 3-axis sensor 12 to 35 mm under it by one rigid motion
    # changes no voltage beyond rounding (measured at most 4.2e-15 of the largest, over 50
    # motions)
    rng = np.random.default_rng(59)
    coil_pose = random_transform(rng)
    sensor, train = SensorModel(), PulseTrain()
    local = [RigidTransform(random_rotation(rng), [*rng.uniform(-60.0, 60.0, 2),
                                                   rng.uniform(-35.0, -12.0)])
             for _ in range(20)]

    def voltages(motion):
        coil = CoilModel(segments_per_loop=64, pose=compose(motion, coil_pose))
        poses = [compose(compose(motion, coil_pose), pose) for pose in local]
        return peak_to_peak_voltages(coil, sensor, np.array([p.rotation for p in poses]),
                                     np.array([p.translation for p in poses]), train)

    still = voltages(RigidTransform.identity())
    for _ in range(50):
        assert np.abs(voltages(random_transform(rng)) - still).max() <= 1e-13 * still.max()


def test_scaling_every_length_by_k_scales_the_field_by_1_over_k_and_the_voltages_by_k():
    # B is mu0 I / length and a flux B times an area: scaling the coil (radius, wing offset
    # and pose translation) and the points by k scales B by 1/k, and a sensor scaled with
    # them (radius and pose translation) sees k times the voltage, to rounding: measured at
    # most 8.9e-14 of the largest field, from points 0.15 mm beside the wire whose
    # coordinates round to eps times 300 mm, and 6.5e-16 of the largest voltage. A term of
    # the wrong power of length (a length fixed in mm, a distance where its square belongs)
    # breaks the power of k; a constant factor, such as the 1e3 of mm against m, does not,
    # and the closed-form tests check it. Every point and sensor is clear of the wire at
    # both scales: at k = 1e-3 the 0.1 mm clearance is 100 mm of the unscaled coil
    rng = np.random.default_rng(61)
    coil = CoilModel(pose=random_transform(rng))
    local = np.vstack([near_wire_points(coil, rng, 300), rng.uniform(-300.0, 300.0, (600, 3))])
    to_wire = np.min([np.hypot(np.hypot(local[:, 0] - o, local[:, 1]) - coil.loop_radius_mm,
                               local[:, 2]) for o in coil.wing_offsets()], axis=0)
    points = coil.pose.apply(local)
    sensor, train = SensorModel(), PulseTrain()
    # sensors 15 and 30 mm under the coil, then 160 and 250 mm under it
    poses = [compose(coil.pose, RigidTransform(random_rotation(rng),
                                               [*rng.uniform(-60.0, 60.0, 2), -depth]))
             for depth in (15.0, 30.0, 160.0, 250.0)]
    rotations = np.array([p.rotation for p in poses])
    translations = np.array([p.translation for p in poses])
    for k in (1e-3, 10.0, 1e3):
        scaled = replace(coil, loop_radius_mm=k * coil.loop_radius_mm,
                         wing_center_offset_mm=k * coil.wing_center_offset_mm,
                         pose=RigidTransform(coil.pose.rotation, k * coil.pose.translation))
        clear = to_wire >= 0.15 / min(k, 1.0)
        b = b_field(coil, points[clear])
        assert np.abs(k * b_field(scaled, k * points[clear]) - b).max() <= 1e-12 * np.abs(b).max()
        far = slice(2 if k < 1.0 else 0, None)  # at k = 1e-3, 160 and 250 mm under only
        v = peak_to_peak_voltages(coil, sensor, rotations[far], translations[far], train)
        sensor_k = replace(sensor, loop_radius_mm=k * sensor.loop_radius_mm)
        v_k = peak_to_peak_voltages(scaled, sensor_k, rotations[far], k * translations[far], train)
        assert np.abs(v_k / k - v).max() <= 1e-14 * v.max()
