from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from tmsnav.fileio import parse
from tmsnav.errors import SingularEvaluation, ValidationError
from tmsnav.fieldsim import (
    MU0,
    RIM_NODES,
    CoilModel,
    PulseTrain,
    SensorKind,
    SensorModel,
    _flux_coefficients,
    _wing_potential,
    _wings,
    _wire_meets_discs,
    b_field,
    displacement_sweep,
    peak_to_peak_voltages,
)
from tmsnav.transforms import RigidTransform, matmul3, rotation_about_axis

from conftest import (
    circle_a_field,
    circle_b_field,
    flux_coefficient,
    grid_patch,
    near_wire_points,
    on_axis_loop_field,
    pose_arrays,
    random_rotation,
    random_transform,
)


def sensor_at(z_mm, kind=SensorKind.SENSOR_3D):
    return SensorModel(kind=kind, pose=RigidTransform(np.eye(3), [0.0, 0.0, z_mm]))


def wing(coil, index):
    """Sub-model containing a single wing of coil, in place."""
    offset = coil.wing_offsets()[index]
    shifted = coil.pose.apply(np.array([offset, 0.0, 0.0]))
    centered = RigidTransform(coil.pose.rotation, shifted)
    return replace(coil, wing_center_offset_mm=0.0, pose=centered,
                   wing_senses=(coil.wing_senses[index],))


# --- references: the world-frame circle rules (conftest), polygon midpoint sum, polar rule ---

def world_segments(coil):
    """Segment midpoints and dl of each wing's inscribed segments_per_loop-gon in the world
    frame, built from the posed polygon."""
    mids = []
    dls = []
    theta = np.linspace(0.0, 2.0 * np.pi, coil.segments_per_loop + 1)
    ring = np.stack(
        [coil.loop_radius_mm * np.cos(theta),
         coil.loop_radius_mm * np.sin(theta),
         np.zeros_like(theta)],
        axis=1,
    )
    for offset, sense in zip(coil.wing_offsets(), coil.wing_senses):
        pts = ring + np.array([offset, 0.0, 0.0])
        if sense < 0:
            pts = pts[::-1]
        world = coil.pose.apply(pts)
        mids.append(0.5 * (world[:-1] + world[1:]))
        dls.append(world[1:] - world[:-1])
    return np.concatenate(mids), np.concatenate(dls)


def reference_b_field(coil, points, current_a=None):
    """Biot-Savart midpoint sum over every node x polygon segment in the world frame,
    with the exact clearance check on every pair; it converges to the circle as 1/N^2."""
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    p = p.reshape(-1, 3)
    current = coil.peak_current_a if current_a is None else current_a
    mids, dls = world_segments(coil)
    w = p[:, None, :] - (mids - 0.5 * dls)[None, :, :]
    seg_len2 = (dls * dls).sum(-1)
    t = np.clip((w * dls[None, :, :]).sum(-1) / seg_len2, 0.0, 1.0)
    nearest = w - t[:, :, None] * dls[None, :, :]
    if ((nearest * nearest).sum(-1) < 0.1**2).any():
        raise SingularEvaluation("evaluation point within 0.1 mm of a wire segment")
    r = (p[:, None, :] - mids[None, :, :]) * 1e-3  # meters
    norm3 = ((r * r).sum(-1)) ** 1.5
    contrib = np.cross(np.broadcast_to(dls[None, :, :] * 1e-3, r.shape), r)
    out = MU0 * current * coil.loop_turns / (4.0 * np.pi) * (
        contrib / norm3[:, :, None]
    ).sum(axis=1)
    return out[0] if single else out


def winding_frame(sensor, axis):
    """World-frame normal and the two axes spanning the disc of one sensor winding."""
    col = (2, 0, 1)[axis]
    cols = sensor.pose.rotation
    return cols[:, col], cols[:, (col + 1) % 3], cols[:, (col + 2) % 3]


def reference_peak_to_peak(coil, sensor, train, nodes=1024):
    """Per-axis peak-to-peak EMF from the loop integral of circle_a_field around each
    winding's rim (by Stokes, its flux), by the periodic trapezoid rule on `nodes` nodes."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    ks = []
    for axis in range(sensor.n_axes):
        _, u, v = winding_frame(sensor, axis)
        rim = sensor.pose.translation + sensor.loop_radius_mm * (cos * u + sin * v)
        a = circle_a_field(coil, rim, current_a=1.0)
        dl_m = 2.0 * np.pi * sensor.loop_radius_mm / nodes * 1e-3
        ks.append((a * (cos * v - sin * u)).sum() * dl_m * sensor.turns_per_axis)
    amp = train.intensity_fraction * coil.peak_current_a
    return 2.0 * np.abs(ks) * amp * 2.0 * np.pi * train.pulse_frequency_hz


def polar_flux(coil, sensor, axis, n_radial, n_angular):
    """Webers per ampere through one winding by an equal-area polar midpoint rule of B.n
    over its disc, n_radial rings by n_angular spokes: it converges as 1/n_radial^2."""
    normal, u, v = winding_frame(sensor, axis)
    rj = sensor.loop_radius_mm * np.sqrt((np.arange(n_radial) + 0.5) / n_radial)
    tk = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular
    rr, tt = (g.ravel()[:, None] for g in np.meshgrid(rj, tk, indexing="ij"))
    pts = sensor.pose.translation + rr * (np.cos(tt) * u + np.sin(tt) * v)
    weight_m2 = np.pi * sensor.loop_radius_mm**2 / (n_radial * n_angular) * 1e-6
    return (b_field(coil, pts, current_a=1.0) @ normal).sum() * weight_m2 * sensor.turns_per_axis


def library_a_field(coil, points):
    """fieldsim's vector potential per ampere in the world frame, from `_wing_potential`."""
    q = matmul3(np.asarray(points, dtype=float) - coil.pose.translation, coil.pose.rotation)
    a = matmul3(_wings(coil, q, _wing_potential), coil.pose.rotation.T)
    return MU0 * coil.loop_turns / (4.0 * np.pi) * a


# segments_per_loop is accepted but unused: each pair differs only in it
ORACLE_COILS = {
    "figure8-64": CoilModel(segments_per_loop=64),
    "figure8-1024": CoilModel(segments_per_loop=1024),
    "loop-64": CoilModel.single_loop(35.0, loop_turns=3, segments_per_loop=64),
    "loop-1024": CoilModel.single_loop(35.0, loop_turns=3, segments_per_loop=1024),
}


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_b_field_matches_world_frame_reference(name):
    rng = np.random.default_rng(75)
    for _ in range(4):
        coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
        # coil-frame points from the winding plane to 80 mm off it, then posed
        local = rng.uniform([-90.0, -60.0, 0.0], [90.0, 60.0, 80.0], size=(300, 3))
        local[:, 2] *= rng.choice([-1.0, 1.0], size=300)
        local = local[np.abs(local[:, 2]) > 2.0]
        local[:10, 2] = 0.0  # in the winding plane, clear of the wire
        local[:10, :2] = [[0.0, 50.0], [-20.0, 10.0], [20.0, -10.0], [120.0, 5.0], [-80.0, 60.0],
                          [10.0, 5.0], [-10.0, -5.0], [0.0, 90.0], [-150.0, 0.0], [0.0, -45.0]]
        pts = coil.pose.apply(local)
        ref = circle_b_field(coil, pts)
        b = b_field(coil, pts)
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()
        single = b_field(coil, pts[-1])
        assert single.shape == (3,)
        assert np.abs(single - ref[-1]).max() <= 1e-12 * np.abs(ref[-1]).max()


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_b_field_near_the_wire_matches_world_frame_reference(name):
    # the distance to the circle comes from the difference s - a, not from expanded
    # squares, so the field keeps its digits as the gap shrinks
    rng = np.random.default_rng(78)
    coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
    local = near_wire_points(coil, rng, 400)
    assert len(local) > 300
    pts = coil.pose.apply(local)
    ref = circle_b_field(coil, pts)
    b = b_field(coil, pts)
    assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_clearance_agrees_with_reference(name):
    # beside a wing's circle in its plane (outside and inside), above and below it: a point
    # 0.1 mm (1 - 1e-6) from the wire raises and one 0.1 mm (1 + 1e-6) from it does not, in
    # the reference and as the second row of a batch whose first row is far from the wire
    rng = np.random.default_rng(76)
    coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
    for center in coil.wing_offsets():
        phi = rng.uniform(0.0, 2.0 * np.pi)
        outward = np.array([np.cos(phi), np.sin(phi), 0.0])
        on_wire = np.array([center, 0.0, 0.0]) + coil.loop_radius_mm * outward
        up = np.array([0.0, 0.0, 1.0])
        for direction in (outward, -outward, up, -up):
            for gap, raises in ((0.1 * (1.0 - 1e-6), True), (0.1 * (1.0 + 1e-6), False)):
                point = coil.pose.apply(on_wire + gap * direction)
                with pytest.raises(SingularEvaluation) if raises else nullcontext():
                    circle_b_field(coil, point)
                with pytest.raises(SingularEvaluation) if raises else nullcontext():
                    b_field(coil, [coil.pose.apply([0.0, 0.0, 1e3]), point])


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_flipping_every_sense_negates_the_field(name):
    # a sense is the sign of its wing's integral, and negation is exact: far from the wire
    # (60-150 mm off the winding plane) and beside it alike, the field flips bit for bit
    rng = np.random.default_rng(84)
    coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
    flipped = replace(coil, wing_senses=tuple(-s for s in coil.wing_senses))
    far = rng.uniform([-90.0, -60.0, 60.0], [90.0, 60.0, 150.0], size=(200, 3))
    far[:, 2] *= rng.choice([-1.0, 1.0], size=200)
    for local in (far, near_wire_points(coil, rng, 400)):
        pts = coil.pose.apply(local)
        np.testing.assert_array_equal(b_field(flipped, pts), -b_field(coil, pts))


def test_sweep_direction_must_have_a_finite_normal_squared_length():
    # (1e300, 1e300, 0) squared overflows, and its norm read inf: every row was offset 0's;
    # 1e-160 squared is subnormal, and its norm kept too few digits for a unit
    sensor = sensor_at(-20.0)
    for direction in ([1e300, 1e300, 0.0], [1e-160, 0.0, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValidationError, match="sweep direction"):
            displacement_sweep(CoilModel(), sensor, direction, [0.0, 5.0])


@pytest.mark.parametrize("rho", [0.0, 1e-9, 1e-6, 1e-3])
def test_b_field_beside_a_wing_axis_matches_reference_per_point(rho):
    # the transverse field there is a difference of two nearly equal elliptic
    # terms in the textbook closed form, divided by rho
    for coil in (CoilModel.single_loop(35.0, loop_turns=3), CoilModel(segments_per_loop=128)):
        for center in coil.wing_offsets():
            for z in (-20.0, 5.0, 60.0):
                point = [center + 0.6 * rho, -0.8 * rho, z]
                ref = circle_b_field(coil, point)
                b = b_field(coil, point)
                assert np.abs(b - ref).max() <= 1e-12 * np.linalg.norm(ref)


def test_b_field_row_does_not_depend_on_its_place_in_the_batch():
    rng = np.random.default_rng(83)
    coil = replace(CoilModel(), pose=random_transform(rng))
    # every point far (10 mm or more below the winding plane), then every point near
    far = rng.uniform([-90.0, -60.0, -40.0], [90.0, 60.0, -10.0], size=(5001, 3))
    near = near_wire_points(coil, rng, 6000)[:5001]
    for local in (far, near):
        for point in local[1:11].copy():
            local[[0, 5000]] = point
            b = b_field(coil, coil.pose.apply(local))
            np.testing.assert_array_equal(b[0], b[5000])


def displaced(sensor: SensorModel, offset) -> SensorModel:
    pose = RigidTransform(sensor.pose.rotation, sensor.pose.translation + offset)
    return replace(sensor, pose=pose)


def test_induced_voltage_and_sweep_match_reference():
    rng = np.random.default_rng(77)
    train = PulseTrain()
    for coil in (CoilModel(segments_per_loop=128), CoilModel.single_loop(35.0)):
        coil = replace(coil, pose=random_transform(rng))
        for kind in SensorKind:
            sensor = SensorModel(kind=kind, pose=RigidTransform(
                rotation_about_axis(rng.normal(size=3), 0.4) @ coil.pose.rotation,
                coil.pose.apply([20.0, 3.0, -20.0]),
            ))
            direction = coil.pose.rotation[:, 0]
            refs = [reference_peak_to_peak(coil, displaced(sensor, off * direction), train)
                    for off in (0.0, 4.0, 8.0)]
            vpp = peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose), train)[0]
            assert np.abs(vpp - refs[0]).max() <= 1e-12 * np.abs(refs[0]).max()
            table = displacement_sweep(coil, sensor, direction, [0.0, 4.0, 8.0], train)
            for (off, *row), ref in zip(table["rows"], refs):
                ref = list(ref) + [0.0, 0.0]
                assert np.abs(np.subtract(row, ref[:3])).max() <= 1e-12 * max(ref)


def test_sweep_rows_match_per_offset_calls():
    coil = replace(CoilModel(), pose=random_transform(np.random.default_rng(79)))
    under_wing = coil.pose.apply([35.0, 0.0, -20.0])
    sensor = SensorModel(pose=RigidTransform(coil.pose.rotation, under_wing))
    direction = coil.pose.rotation @ np.array([0.6, 0.8, 0.0])
    offsets = np.linspace(0.0, 10.0, 11)
    rows = np.array(displacement_sweep(coil, sensor, direction, offsets)["rows"])
    moved = [displaced(sensor, off * direction).pose for off in offsets]
    single = np.array([peak_to_peak_voltages(coil, sensor, *pose_arrays(p), PulseTrain())[0]
                       for p in moved])
    np.testing.assert_array_equal(rows[:, 0], offsets)
    assert np.abs(rows[:, 1:] - single).max() <= 1e-13 * np.abs(single).max()


@pytest.mark.parametrize("segments", [64, 256])
def test_batch_blocks_across_poses_match_per_pose_calls(segments):
    # the rim nodes of all seven poses go through one field call; each pose's flux and voltage
    # must be the ones a call with that pose alone gives
    rng = np.random.default_rng(80)
    coil = CoilModel(segments_per_loop=segments)
    sensor = SensorModel()
    poses = [RigidTransform(rotation_about_axis(rng.normal(size=3), 0.3),
                            [rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), -20.0])
             for _ in range(7)]
    rotations = np.array([p.rotation for p in poses])
    shifts = np.array([p.translation for p in poses])
    batch = _flux_coefficients(coil, sensor, rotations, shifts)
    single = np.concatenate([_flux_coefficients(coil, sensor, *pose_arrays(p)) for p in poses])
    assert np.abs(batch - single).max() <= 1e-13 * np.abs(single).max()
    vpp = peak_to_peak_voltages(coil, sensor, rotations, shifts, PulseTrain())
    ref = np.array([peak_to_peak_voltages(coil, sensor, *pose_arrays(p), PulseTrain())[0]
                    for p in poses])
    assert np.abs(vpp - ref).max() <= 1e-13 * np.abs(ref).max()


# --- b_field -------------------------------------------------------------------

def test_single_loop_on_axis_matches_closed_form():
    coil = CoilModel.single_loop(35.0, loop_turns=3, segments_per_loop=1024,
                                 peak_current_a=1000.0)
    for z in np.linspace(5.0, 100.0, 20):
        b = b_field(coil, [0.0, 0.0, z])
        expected = on_axis_loop_field(35.0, z, 1000.0, turns=3)
        assert abs(b[2] - expected) <= 1e-3 * expected


def test_single_loop_on_axis_transverse_vanishes():
    coil = CoilModel.single_loop(35.0, segments_per_loop=256)
    b = b_field(coil, [0.0, 0.0, 25.0])
    assert abs(b[0]) <= 1e-12 * abs(b[2])
    assert abs(b[1]) <= 1e-12 * abs(b[2])


def test_figure8_mirror_relation():
    coil = CoilModel(segments_per_loop=128)
    rng = np.random.default_rng(71)
    pts = rng.uniform(-60.0, 60.0, size=(40, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 10.0
    mirrored = pts * np.array([-1.0, 1.0, 1.0])
    b = b_field(coil, pts)
    bm = b_field(coil, mirrored)
    scale = np.abs(b).max()
    # B is a pseudovector: x-component even, y and z odd across the plane
    np.testing.assert_allclose(bm[:, 0], b[:, 0], atol=1e-10 * scale)
    np.testing.assert_allclose(bm[:, 1], -b[:, 1], atol=1e-10 * scale)
    np.testing.assert_allclose(bm[:, 2], -b[:, 2], atol=1e-10 * scale)


def test_figure8_equals_sum_of_wings():
    coil = CoilModel(segments_per_loop=128)
    rng = np.random.default_rng(72)
    pts = rng.uniform(-80.0, 80.0, size=(25, 3))
    pts[:, 2] += 120.0  # comfortably clear of the wires
    total = b_field(coil, pts)
    parts = b_field(wing(coil, 0), pts) + b_field(wing(coil, 1), pts)
    np.testing.assert_allclose(parts, total, atol=1e-12 * np.abs(total).max())


def test_field_linear_in_current_and_turns():
    coil = CoilModel(segments_per_loop=128, peak_current_a=1000.0)
    p = [10.0, -5.0, 30.0]
    b1 = b_field(coil, p)
    np.testing.assert_allclose(b_field(coil, p, current_a=2000.0), 2.0 * b1, rtol=1e-12)
    doubled = CoilModel(segments_per_loop=128, peak_current_a=1000.0, loop_turns=18)
    np.testing.assert_allclose(b_field(doubled, p), 2.0 * b1, rtol=1e-12)


def test_field_segment_convergence():
    # the inscribed N-gon's midpoint sum tends to the circle's field as 1/N^2: each
    # fourfold refinement cuts its distance from b_field sixteenfold
    rng = np.random.default_rng(73)
    coil = replace(CoilModel(), pose=random_transform(rng))
    local = rng.uniform([-90.0, -60.0, 2.0], [90.0, 60.0, 60.0], size=(40, 3))
    local[:, 2] *= rng.choice([-1.0, 1.0], size=40)
    pts = coil.pose.apply(local)
    b = b_field(coil, pts)
    errors = [np.abs(reference_b_field(replace(coil, segments_per_loop=n), pts) - b).max()
              / np.abs(b).max() for n in (1024, 4096, 16384)]
    assert errors[0] < 1e-4
    for coarse, fine in zip(errors, errors[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_point_on_wire_raises():
    coil = CoilModel.single_loop(35.0, segments_per_loop=256)
    with pytest.raises(SingularEvaluation):
        b_field(coil, [35.0, 0.0, 0.0])


def test_rotated_coil_field_rotates_with_it():
    rng = np.random.default_rng(74)
    rot = rotation_about_axis([0.3, 1.0, -0.2], 0.7)
    base = CoilModel(segments_per_loop=128)
    moved = CoilModel(segments_per_loop=128, pose=RigidTransform(rot, [5.0, 2.0, -4.0]))
    pts = rng.uniform(-40.0, 40.0, size=(10, 3))
    pts[:, 2] += 90.0
    world_pts = (rot @ pts.T).T + np.array([5.0, 2.0, -4.0])
    np.testing.assert_allclose(
        b_field(moved, world_pts), (rot @ b_field(base, pts).T).T, atol=1e-15
    )


# --- model validation ----------------------------------------------------------

NON_RIGID = {
    "scaled": RigidTransform(np.diag([2.0, 2.0, 2.0]), np.zeros(3)),
    "sheared": RigidTransform([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3)),
    "mirrored": RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3)),
    "nan_rotation": RigidTransform(np.full((3, 3), np.nan), np.zeros(3)),
    "nan_translation": RigidTransform(np.eye(3), [0.0, np.nan, 0.0]),
}


@pytest.mark.parametrize("name", sorted(NON_RIGID))
def test_non_rigid_poses_rejected(name):
    pose = NON_RIGID[name]
    with pytest.raises(ValueError, match="coil matrix"):
        CoilModel(pose=pose)
    with pytest.raises(ValueError, match="sensor matrix"):
        SensorModel(pose=pose)


def test_matrix_bottom_row_must_be_affine():
    matrix = np.eye(4)
    matrix[3] = [0.0, 0.0, 1.0, 1.0]
    values = [float(x) for x in matrix.reshape(16)]
    with pytest.raises(ValueError, match="coil matrix: bottom row"):
        parse(CoilModel, {"matrix": values}, "coil")
    with pytest.raises(ValueError, match="sensor matrix: bottom row"):
        parse(SensorModel, {"matrix": values}, "sensor")


@pytest.mark.parametrize("fields, name", [
    ({"loop_radius_mm": 0.0}, "loop_radius_mm"),
    ({"loop_radius_mm": -5.0}, "loop_radius_mm"),
    ({"loop_turns": 0}, "loop_turns"),
    # b_field takes a sense as the sign of its wing's sum, so only 1 and -1 are senses
    ({"wing_senses": (2.0,)}, "wing_senses"),
    ({"wing_senses": (0.0,)}, "wing_senses"),
    ({"wing_senses": (1.0, -0.5)}, "wing_senses"),
])
def test_coil_geometry_validated(fields, name):
    with pytest.raises(ValueError, match=name):
        CoilModel(**fields)


def test_sensor_geometry_validated():
    with pytest.raises(ValueError, match="loop_radius_mm"):
        SensorModel(loop_radius_mm=0.0)
    with pytest.raises(ValueError, match="turns_per_axis"):
        SensorModel(turns_per_axis=0)


# --- flux ---------------------------------------------------------------------

def test_far_sensor_flux_negligible():
    # inverse-cube decay: at 10 m a 35 mm loop is ~7 orders below the
    # 20 mm near-field coefficient and absolutely negligible in volts
    coil = CoilModel.single_loop(35.0, segments_per_loop=128)
    near = abs(flux_coefficient(coil, sensor_at(-20.0), 0))
    far10 = abs(flux_coefficient(coil, sensor_at(-10_000.0), 0))
    far20 = abs(flux_coefficient(coil, sensor_at(-20_000.0), 0))
    assert far10 <= 1e-7 * near
    assert far10 <= 2e-15  # Wb/A
    assert far20 == pytest.approx(far10 / 8.0, rel=0.05)  # dipole r^-3 law


def test_flux_linear_in_sensor_turns():
    coil = CoilModel(segments_per_loop=128)
    s10 = SensorModel(turns_per_axis=10, pose=RigidTransform(np.eye(3), [35.0, 0.0, -20.0]))
    s20 = SensorModel(turns_per_axis=20, pose=s10.pose)
    k10 = flux_coefficient(coil, s10, 0)
    k20 = flux_coefficient(coil, s20, 0)
    assert k20 == pytest.approx(2.0 * k10, rel=1e-12)


def test_flux_quadrature_refinement():
    # the polar rule over the disc (the flux's rule before the rim) tends to the rim flux as
    # 1/n^2: each fourfold refinement of both node counts cuts its distance sixteenfold
    coil = replace(CoilModel(), pose=random_transform(np.random.default_rng(86)))
    sensor = SensorModel(pose=RigidTransform(
        rotation_about_axis([1.0, 0.3, 0.0], 0.4) @ coil.pose.rotation,
        coil.pose.apply([35.0, 0.0, -20.0])))
    for axis in range(sensor.n_axes):
        rim = flux_coefficient(coil, sensor, axis)
        errors = [abs(polar_flux(coil, sensor, axis, n, 2 * n) - rim) / abs(rim)
                  for n in (8, 32, 128)]
        assert errors[0] < 1e-5
        for coarse, fine in zip(errors, errors[1:]):
            assert 15.0 < coarse / fine < 17.0


def test_flux_vs_vector_potential_rim_oracle():
    # independent route: flux = loop integral of the vector potential
    # A(x) = (mu0 I N / 4 pi) sum dl / |x - x'| around the sensor rim
    coil = CoilModel.single_loop(35.0, loop_turns=2, segments_per_loop=512)
    sensor = sensor_at(-20.0)
    k = flux_coefficient(coil, sensor, 0)

    mids, dls = world_segments(coil)  # the 512-gon: its flux is the circle's to about 2e-5
    n_rim = 512
    theta = np.linspace(0.0, 2.0 * np.pi, n_rim + 1)
    rim = sensor.pose.translation + sensor.loop_radius_mm * np.stack(
        [np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1
    )
    rim_mid = 0.5 * (rim[:-1] + rim[1:]) * 1e-3
    rim_dl = (rim[1:] - rim[:-1]) * 1e-3
    diff = rim_mid[:, None, :] - mids[None, :, :] * 1e-3
    inv_dist = 1.0 / np.linalg.norm(diff, axis=2)
    a_vec = MU0 * 1.0 * coil.loop_turns / (4.0 * np.pi) * (
        (dls[None, :, :] * 1e-3) * inv_dist[:, :, None]
    ).sum(axis=1)
    rim_flux = (a_vec * rim_dl).sum() * sensor.turns_per_axis
    assert k == pytest.approx(rim_flux, rel=1e-4)


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_vector_potential_matches_world_frame_reference(name):
    # the potential the rim flux integrates, point by point, off the wire and 0.15-5 mm from it
    rng = np.random.default_rng(87)
    coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
    far = rng.uniform([-90.0, -60.0, 2.0], [90.0, 60.0, 80.0], size=(100, 3))
    far[:, 2] *= rng.choice([-1.0, 1.0], size=100)
    for local in (far, near_wire_points(coil, rng, 100)):
        pts = coil.pose.apply(local)
        ref = circle_a_field(coil, pts, current_a=1.0)
        assert np.abs(library_a_field(coil, pts) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("rho", [1e-9, 1e-6])
def test_vector_potential_beside_the_axis_matches_its_limit(rho):
    # beside the axis the loop integral tends to pi a^2 rho / (a^2 + z^2)^1.5 along the
    # azimuth, with a relative correction of order (rho / a)^2; the textbook form takes it
    # as a difference of K and E divided by rho, which keeps no digit at rho = 1e-9 a
    coil = CoilModel.single_loop(35.0, loop_turns=3)
    for z in (-20.0, 5.0, 60.0):
        a = library_a_field(coil, [[0.6 * rho, -0.8 * rho, z]])[0]
        limit = MU0 * 3 / (4.0 * np.pi) * np.pi * 35.0**2 * rho / (35.0**2 + z * z) ** 1.5
        assert np.abs(a - limit * np.array([0.8, 0.6, 0.0])).max() <= 1e-12 * limit


def placed(coil, columns, local_centre, kind=SensorKind.SENSOR_3D):
    """A sensor whose axes are `columns` and whose centre is `local_centre`, both given in
    the coil frame."""
    rotation = matmul3(coil.pose.rotation, np.array(columns, dtype=float).T)
    return SensorModel(kind=kind, pose=RigidTransform(rotation, coil.pose.apply(local_centre)))


LEVEL = ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0])  # primary normal along coil z
UPRIGHT = ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])  # primary normal along coil x


@pytest.mark.parametrize("kind", list(SensorKind))
def test_a_wire_through_or_onto_a_winding_raises(kind):
    # each primary disc below meets the wire of the wing at +35 mm, but no rim node comes
    # within the clearance of it: the disc test raises, not the rim nodes' clearance
    posed = replace(CoilModel(), pose=random_transform(np.random.default_rng(88)))
    cases = [
        # threaded transversally: the disc's normal is the wire's tangent at (35, 35, 0)
        (posed, UPRIGHT, [36.0, 35.0, 2.0]),
        # level, 0.05 mm above the coil plane, centred on the wire at (70, 0, 0)
        (posed, LEVEL, [70.0, 0.0, 0.05]),
        # in the plane x = 70, which touches the wire at (70, 0, 0) only (exact: coil unposed)
        (CoilModel(), UPRIGHT, [70.0, 2.0, -3.0]),
    ]
    for coil, columns, centre in cases:
        sensor = placed(coil, columns, centre, kind)
        with pytest.raises(SingularEvaluation, match="disc"):
            peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose), PulseTrain())


def test_a_winding_0_2_mm_clear_of_the_wire_matches_the_rim_reference():
    # the same primary discs moved 0.2 mm off the wire raise nothing (a 3-axis sensor there
    # raises: the wire threads a secondary winding); their rims pass within a millimetre of
    # it, where 32 nodes do not resolve the flux, so the reference takes the potential at the
    # same rim nodes
    posed = replace(CoilModel(), pose=random_transform(np.random.default_rng(89)))
    for coil, columns, centre in [(posed, LEVEL, [70.0, 0.0, 0.2]),
                                  (posed, UPRIGHT, [70.2, 2.0, -3.0]),
                                  (CoilModel(), UPRIGHT, [70.2, 2.0, -3.0])]:
        sensor = placed(coil, columns, centre, SensorKind.SENSOR_2D)
        ref = reference_peak_to_peak(coil, sensor, PulseTrain(), nodes=RIM_NODES)
        vpp = peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose), PulseTrain())[0]
        assert np.abs(vpp - ref).max() <= 1e-12 * np.abs(ref).max()


def test_disc_test_agrees_with_sampled_crossings():
    # the closed form against the wire sampled at 2^14 nodes: where consecutive nodes lie on
    # either side of a disc's plane, the crossing is interpolated between them and checked
    # against the disc's radius plus the clearance; discs within 1e-5 mm of that bound are
    # left out. Centres lie within 8 mm of a wing's wire, at random orientations
    rng = np.random.default_rng(91)
    coil = CoilModel()
    theta = 2.0 * np.pi * np.arange(2**14) / 2**14
    ring = 35.0 * np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)], axis=1)
    phi = rng.uniform(0.0, 2.0 * np.pi, 400)
    centres = np.stack([rng.choice(coil.wing_offsets(), 400) + 35.0 * np.cos(phi),
                        35.0 * np.sin(phi), np.zeros(400)], axis=1)
    centres += rng.uniform(-8.0, 8.0, size=(400, 3))
    normals = np.array([random_rotation(rng)[:, 2] for _ in range(400)])
    meets = _wire_meets_discs(coil, centres[:, None], normals[:, None], 7.5)[:, 0]
    sampled, margin = [], []
    for centre, normal in zip(centres, normals):
        reach = []
        for offset in coil.wing_offsets():
            wire = ring + [offset, 0.0, 0.0] - centre
            height = wire @ normal
            nxt = np.roll(np.arange(len(wire)), -1)
            sides = np.flatnonzero(height * height[nxt] <= 0.0)
            w = (height[sides] / (height[sides] - height[nxt][sides]))[:, None]
            crossing = wire[sides] + w * (wire[nxt][sides] - wire[sides])
            reach.extend(np.linalg.norm(crossing, axis=1) - 7.6)
        nearest = min(reach, default=np.inf)
        sampled.append(nearest <= 0.0)
        margin.append(abs(nearest))
    keep = np.array(margin) > 1e-5
    assert 50 < np.sum(meets) < 350
    np.testing.assert_array_equal(meets[keep], np.array(sampled)[keep])


def test_flipping_every_sense_leaves_every_voltage_bitwise_the_same():
    rng = np.random.default_rng(90)
    for coil in (CoilModel(), CoilModel.single_loop(35.0)):
        coil = replace(coil, pose=random_transform(rng))
        flipped = replace(coil, wing_senses=tuple(-s for s in coil.wing_senses))
        rotations = np.array([matmul3(rotation_about_axis(rng.normal(size=3), 0.5),
                                      coil.pose.rotation) for _ in range(20)])
        shifts = coil.pose.apply(rng.uniform([-60.0, -40.0, -40.0], [60.0, 40.0, -10.0],
                                             size=(20, 3)))
        np.testing.assert_array_equal(
            peak_to_peak_voltages(flipped, SensorModel(), rotations, shifts, PulseTrain()),
            peak_to_peak_voltages(coil, SensorModel(), rotations, shifts, PulseTrain()))


# --- induced voltage --------------------------------------------------------------

def test_zero_intensity_zero_output():
    coil = CoilModel(segments_per_loop=128)
    sensor = sensor_at(-20.0)
    vpp = peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose),
                                PulseTrain(intensity_fraction=0.0))[0]
    assert np.all(vpp == 0.0)


def test_peak_to_peak_linear_in_intensity():
    coil = CoilModel(segments_per_loop=128)
    sensor = sensor_at(-20.0)
    lo, hi = (peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose),
                                    PulseTrain(intensity_fraction=f))[0] for f in (0.15, 0.30))
    np.testing.assert_allclose(hi, 2.0 * lo, rtol=1e-12)


def test_primary_peak_to_peak_closed_form():
    coil = CoilModel.single_loop(35.0, loop_turns=2, segments_per_loop=512,
                                 peak_current_a=3000.0)
    sensor = sensor_at(-20.0)
    train = PulseTrain(intensity_fraction=0.3, pulse_frequency_hz=4000.0)
    vpp = peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose), train)[0]
    k = flux_coefficient(coil, sensor, 0)
    expected = 2.0 * abs(k) * 0.3 * 3000.0 * 2.0 * np.pi * 4000.0
    assert vpp[0] == pytest.approx(expected, rel=1e-12)


# --- displacement sweep --------------------------------------------------------------

def test_sweep_centered_secondaries_vanish():
    coil = CoilModel.single_loop(35.0, segments_per_loop=256)
    table = displacement_sweep(coil, sensor_at(-20.0), [1, 0, 0], [0.0, 5.0])
    row0 = table["rows"][0]
    assert row0[2] <= 1e-9 * row0[1]
    assert row0[3] <= 1e-9 * row0[1]


def test_sweep_monotone_flux_mechanism():
    coil = CoilModel.single_loop(35.0, segments_per_loop=256)
    offsets = list(np.linspace(0.0, 10.0, 11))
    table = displacement_sweep(coil, sensor_at(-20.0), [1, 0, 0], offsets)
    primary = np.array([r[1] for r in table["rows"]])
    secondary = np.array([r[2] for r in table["rows"]])
    assert np.all(np.diff(primary) < 0.0)
    assert np.all(np.diff(secondary) > 0.0)


def test_sweep_primary_even_under_direction_negation():
    coil = CoilModel.single_loop(35.0, segments_per_loop=256)
    offsets = [0.0, 3.0, 6.0]
    plus = displacement_sweep(coil, sensor_at(-20.0), [1, 0, 0], offsets)
    minus = displacement_sweep(coil, sensor_at(-20.0), [-1, 0, 0], offsets)
    for a, b in zip(plus["rows"], minus["rows"]):
        assert a[1] == pytest.approx(b[1], rel=1e-9)


def test_sweep_validates_offsets():
    coil = CoilModel.single_loop(35.0, segments_per_loop=128)
    with pytest.raises(ValueError):
        displacement_sweep(coil, sensor_at(-20.0), [1, 0, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        displacement_sweep(coil, sensor_at(-20.0), [1, 0, 0], [0.0, 2.0, 2.0])


def test_sweep_2d_sensor_reports_zero_secondaries():
    coil = CoilModel.single_loop(35.0, segments_per_loop=128)
    table = displacement_sweep(
        coil, sensor_at(-20.0, kind=SensorKind.SENSOR_2D), [1, 0, 0], [0.0, 4.0]
    )
    for row in table["rows"]:
        assert row[2] == 0.0 and row[3] == 0.0


# --- hotspot responses from a field sweep ---------------------------------------------

def test_select_hotspot_finds_pose_nearest_sensor():
    from tmsnav.pose_plan import PoseConstraintInput, free_skin_pose, hotspot_grid, select_hotspot

    skin = grid_patch(16, 16, spacing=5.0, z=0.0)
    seed = free_skin_pose(
        skin, PoseConstraintInput.two_point([0.0, 0.0, 0.0], [5.0, 0.0, 0.0])
    )
    grid = hotspot_grid(skin, seed, 3, 3, 8.0)
    # sensor sits 20 mm under the skin, laterally at a known grid node
    sensor_xy = np.array([8.0, -8.0])
    sensor = SensorModel(pose=RigidTransform(np.eye(3), [*sensor_xy, -20.0]))
    responses = []
    for plan in grid.poses:
        # drive the coil to the planned pose, z flipped into the head
        coil_pose = RigidTransform(
            plan.pose.rotation @ np.diag([1.0, -1.0, -1.0]), plan.pose.translation
        )
        coil = CoilModel.single_loop(35.0, segments_per_loop=128, pose=coil_pose)
        responses.append(peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose),
                                               PulseTrain())[0, 0])
    idx, best = select_hotspot(grid, responses)
    np.testing.assert_allclose(best.pose.translation[:2], sensor_xy, atol=1e-9)