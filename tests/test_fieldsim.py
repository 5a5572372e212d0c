from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

from tmsnav.fileio import parse
from tmsnav.errors import SingularEvaluation
from tmsnav.fieldsim import (
    _FAR_STRIP,
    MU0,
    CoilModel,
    PulseTrain,
    SensorKind,
    SensorModel,
    _flux_coefficients,
    b_field,
    displacement_sweep,
    peak_to_peak_voltages,
)
from tmsnav.transforms import RigidTransform, rotation_about_axis

from conftest import (
    flux_coefficient,
    grid_patch,
    on_axis_loop_field,
    pose_arrays,
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


# --- reference: the world-frame midpoint sum -------------------------------------

def world_segments(coil):
    """Segment midpoints and dl in the world frame, built from the posed polygon."""
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
    """Biot-Savart midpoint sum over every node x segment in the world frame,
    with the exact clearance check on every pair."""
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


def reference_peak_to_peak(coil, sensor, train):
    """Per-axis peak-to-peak EMF from one reference b_field call per axis."""
    ks = []
    for axis in range(sensor.n_axes):
        local = ((2, 0, 1))[axis]
        cols = sensor.pose.rotation
        rj = sensor.loop_radius_mm * np.sqrt((np.arange(8) + 0.5) / 8)
        tk = 2.0 * np.pi * (np.arange(16) + 0.5) / 16
        rr, tt = np.meshgrid(rj, tk, indexing="ij")
        disc = (np.cos(tt.ravel())[:, None] * cols[:, (local + 1) % 3]
                + np.sin(tt.ravel())[:, None] * cols[:, (local + 2) % 3])
        pts = sensor.pose.translation + rr.ravel()[:, None] * disc
        weight_mm2 = np.pi * sensor.loop_radius_mm**2 / 128
        b = reference_b_field(coil, pts, current_a=1.0)
        ks.append((b @ cols[:, local]).sum() * weight_mm2 * 1e-6 * sensor.turns_per_axis)
    amp = train.intensity_fraction * coil.peak_current_a
    return 2.0 * np.abs(ks) * amp * 2.0 * np.pi * train.pulse_frequency_hz


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
        ref = reference_b_field(coil, pts)
        b = b_field(coil, pts)
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()
        single = b_field(coil, pts[-1])
        assert single.shape == (3,)
        assert np.abs(single - ref[-1]).max() <= 1e-12 * np.abs(ref[-1]).max()


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


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_b_field_near_the_wire_matches_world_frame_reference(name):
    # the expanded r^2 loses digits as r shrinks; the exact recompute must keep them
    rng = np.random.default_rng(78)
    coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
    local = near_wire_points(coil, rng, 400)
    assert len(local) > 300
    pts = coil.pose.apply(local)
    ref = reference_b_field(coil, pts)
    b = b_field(coil, pts)
    assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(ORACLE_COILS))
def test_clearance_agrees_with_reference(name):
    rng = np.random.default_rng(76)
    coil = replace(ORACLE_COILS[name], pose=random_transform(rng))
    n = coil.segments_per_loop
    wing_center = np.array([coil.wing_offsets()[-1], 0.0, 0.0])
    theta = 2.0 * np.pi * np.array([n // 4, n // 4 + 0.5]) / n
    radial = np.stack([np.cos(theta), np.sin(theta), np.zeros(2)], axis=1)
    # a polygon vertex and a segment midpoint (the polygon is inscribed)
    vertex = wing_center + coil.loop_radius_mm * radial[0]
    midpoint = wing_center + coil.loop_radius_mm * np.cos(np.pi / n) * radial[1]
    for anchor, outward in ((vertex, radial[0]), (midpoint, radial[1])):
        for direction in (outward, np.array([0.0, 0.0, 1.0]), -outward):
            for gap, raises in ((0.099, True), (0.101, False)):
                point = coil.pose.apply(anchor + gap * direction)
                with pytest.raises(SingularEvaluation) if raises else nullcontext():
                    reference_b_field(coil, point)
                # second row of a batch whose first row is far from the wire
                with pytest.raises(SingularEvaluation) if raises else nullcontext():
                    b_field(coil, [[0.0, 0.0, 1e3], point])


def strip_edge_points(coil, rng, n, gap):
    """Coil-frame points on s^2 + a^2 + z^2 = 2 s a cosh(T (1 + gap) / N) around a random wing.

    s is the distance from that wing's axis and a = R cos(pi / N) the radius of
    its segment midpoints; gap = 0 is the edge of the strip beyond which the
    closed form replaces the segment sum.
    """
    segments = coil.segments_per_loop
    a = coil.loop_radius_mm * np.cos(np.pi / segments)
    cosh = np.cosh(_FAR_STRIP * (1.0 + gap) / segments)
    # the edge has a real z only where s^2 + a^2 <= 2 s a cosh
    reach = cosh + np.sqrt(cosh * cosh - 1.0)
    s = a * np.exp(rng.uniform(-0.99, 0.99, n) * np.log(reach))
    z = np.sqrt(np.maximum(2.0 * s * a * cosh - s * s - a * a, 0.0)) * rng.choice([-1.0, 1.0], n)
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    center = rng.choice(np.array(coil.wing_offsets()), size=n)
    return np.stack([center + s * np.cos(phi), s * np.sin(phi), z], axis=1)


@pytest.mark.parametrize("segments", [64, 128, 256, 1024])
@pytest.mark.parametrize("single", [True, False], ids=["loop", "figure8"])
def test_b_field_at_the_strip_edge_matches_world_frame_reference(segments, single):
    rng = np.random.default_rng(82)
    coil = CoilModel(segments_per_loop=segments)
    if single:
        coil = CoilModel.single_loop(35.0, loop_turns=3, segments_per_loop=segments)
    coil = replace(coil, pose=random_transform(rng))
    for gap in (-1e-9, 1e-9, -1e-2, 1e-2):  # just inside, just outside
        pts = coil.pose.apply(strip_edge_points(coil, rng, 100, gap))
        ref = reference_b_field(coil, pts)
        b = b_field(coil, pts)
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("rho", [0.0, 1e-9, 1e-6, 1e-3])
def test_b_field_beside_a_wing_axis_matches_reference_per_point(rho):
    # the transverse field there is a difference of two nearly equal elliptic
    # terms in the textbook closed form, divided by rho
    for coil in (CoilModel.single_loop(35.0, loop_turns=3), CoilModel(segments_per_loop=128)):
        for center in coil.wing_offsets():
            for z in (-20.0, 5.0, 60.0):
                point = [center + 0.6 * rho, -0.8 * rho, z]
                ref = reference_b_field(coil, point)
                b = b_field(coil, point)
                assert np.abs(b - ref).max() <= 1e-12 * np.linalg.norm(ref)


def test_fine_polygon_point_near_the_wire_raises():
    # with 2^17 segments the strip reaches within 0.011 mm of the wire: the
    # clearance guard, not the strip, must send this point to the segment sum
    coil = CoilModel.single_loop(35.0, segments_per_loop=2**17)
    phi = 0.3
    for radial, z in ((35.05, 0.0), (35.0, 0.05), (34.95, 0.0)):
        point = [radial * np.cos(phi), radial * np.sin(phi), z]
        with pytest.raises(SingularEvaluation):
            b_field(coil, point)


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
            ref = reference_peak_to_peak(coil, sensor, train)
            vpp = peak_to_peak_voltages(coil, sensor, *pose_arrays(sensor.pose), train)[0]
            assert np.abs(vpp - ref).max() <= 1e-12 * np.abs(ref).max()
            direction = coil.pose.rotation[:, 0]
            table = displacement_sweep(coil, sensor, direction, [0.0, 4.0, 8.0], train)
            for off, *row in table["rows"]:
                ref = reference_peak_to_peak(coil, displaced(sensor, off * direction), train)
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


@pytest.mark.parametrize("segments, quadrature", [(64, (8, 16)), (256, (5, 7))])
def test_batch_blocks_across_poses_match_per_pose_calls(segments, quadrature):
    # with 64 segments per wing about half the nodes take the segment sum, in
    # 256-row blocks that end inside a pose's nodes; with 256 all take the closed form
    rng = np.random.default_rng(80)
    coil = CoilModel(segments_per_loop=segments)
    sensor = SensorModel()
    poses = [RigidTransform(rotation_about_axis(rng.normal(size=3), 0.3),
                            [rng.uniform(-40.0, 40.0), rng.uniform(-40.0, 40.0), -20.0])
             for _ in range(7)]
    rotations = np.array([p.rotation for p in poses])
    shifts = np.array([p.translation for p in poses])
    batch = _flux_coefficients(coil, sensor, rotations, shifts, *quadrature)
    single = np.concatenate([_flux_coefficients(coil, sensor, *pose_arrays(p), *quadrature)
                             for p in poses])
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
    coarse = CoilModel(segments_per_loop=256)
    fine = CoilModel(segments_per_loop=512)
    rng = np.random.default_rng(73)
    pts = rng.uniform(-50.0, 50.0, size=(20, 3))
    pts[:, 2] = np.abs(pts[:, 2]) + 10.0  # standoffs >= 10 mm
    bc = b_field(coarse, pts)
    bf = b_field(fine, pts)
    rel = np.linalg.norm(bc - bf, axis=1) / np.linalg.norm(bf, axis=1)
    assert rel.max() < 1e-3


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
    coil = CoilModel(segments_per_loop=256)
    sensor = SensorModel(pose=RigidTransform(np.eye(3), [35.0, 0.0, -20.0]))
    base = flux_coefficient(coil, sensor, 0, n_radial=8, n_angular=16)
    fine = flux_coefficient(coil, sensor, 0, n_radial=32, n_angular=64)
    assert abs(base - fine) <= 5e-3 * abs(fine)


def test_flux_vs_vector_potential_rim_oracle():
    # independent route: flux = loop integral of the vector potential
    # A(x) = (mu0 I N / 4 pi) sum dl / |x - x'| around the sensor rim
    coil = CoilModel.single_loop(35.0, loop_turns=2, segments_per_loop=512)
    sensor = sensor_at(-20.0)
    k = flux_coefficient(coil, sensor, 0, n_radial=16, n_angular=32)

    [(_, mids, dls)] = coil.wings()  # one centred wing, identity pose: world frame
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
    assert k == pytest.approx(rim_flux, rel=5e-3)


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