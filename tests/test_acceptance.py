"""Acceptance suite: every release criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

from tmsnav.cli import EXIT_OK, main
from tmsnav.fieldsim import CoilModel, PulseTrain, SensorModel, b_field, displacement_sweep
from tmsnav.fileio import dump, write_json
from tmsnav.kinematics import APPROACH_FLIP, pose_error
from tmsnav.mesh import closest_point, sample_surface, save_stl
from tmsnav.meshgen import icosphere
from tmsnav.pose_plan import (
    PlanPose,
    PoseConstraintInput,
    Strategy,
    closest_skin_pose,
    free_skin_pose,
    restricted_cortex_pose,
)
from tmsnav.registration import (
    IcpConfig,
    LandmarkSet,
    icp_refine,
    pairpoint_register,
)
from tmsnav.session import ActuationModel, run_holding_session
from tmsnav.transforms import (
    RigidTransform,
    compose,
    rotation_about_axis,
    rotation_angle,
)

from conftest import achieved_coil_pose, on_axis_loop_field, random_transform


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num}] {title}: FAIL")
                raise
            print(f"[criterion {num}] {title}: PASS")
        return run
    return wrap


def round_sig(x, figures=4):
    if x == 0.0:
        return 0.0
    from math import floor, log10

    return round(x, -int(floor(log10(abs(x)))) + figures - 1)


# 1 ---------------------------------------------------------------------------

@criterion(1, "registration exactness, 1000 noiseless trials <= 1e-9 mm in < 5 s")
def test_criterion_1_registration_exactness():
    rng = np.random.default_rng(101)
    names = tuple(f"m{i}" for i in range(8))
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        truth = random_transform(rng)
        probe = rng.uniform(-90.0, 90.0, size=(8, 3))
        lm = LandmarkSet(names, truth.apply(probe), probe)
        res = pairpoint_register(lm)
        worst = max(worst, res.pairpoint_residual_mean)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst residual {worst:.2e} mm"
    assert elapsed < 5.0, f"took {elapsed:.2f} s"


# 2 ---------------------------------------------------------------------------

def octahedron_landmarks(inflation_mm):
    """Radially inflated octahedron: the best fit is the identity and the
    mean pair residual is exactly the inflation distance."""
    probe = 50.0 * np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
        dtype=float,
    )
    image = probe + inflation_mm * probe / 50.0
    names = tuple(f"f{i}" for i in range(6))
    return LandmarkSet(names, image, probe)


@criterion(2, "acceptance gate flips exactly at 6 mm pair-point / 2 mm surface residual")
def test_criterion_2_registration_gate():
    just_under = pairpoint_register(octahedron_landmarks(6.0 - 1e-6))
    just_over = pairpoint_register(octahedron_landmarks(6.0 + 1e-6))
    assert just_under.pairpoint_residual_mean == pytest.approx(6.0 - 1e-6, abs=1e-9)
    assert just_over.pairpoint_residual_mean == pytest.approx(6.0 + 1e-6, abs=1e-9)
    assert just_under.accepted and not just_over.accepted
    # equality sits on the accepting side
    at = pairpoint_register(octahedron_landmarks(6.0 - 1e-6),
                            pairpoint_threshold_mm=just_under.pairpoint_residual_mean)
    assert at.accepted

    # surface gate: cloud on an 85 mm sphere against inflated meshes
    rng = np.random.default_rng(102)
    cloud = sample_surface(icosphere(85.0, 3), 60, rng)
    over = icp_refine(icosphere(85.0 + 2.3, 3), cloud, RigidTransform.identity(),
                      IcpConfig(max_iterations=30), pairpoint_residual_mean=1.0)
    under = icp_refine(icosphere(85.0 + 1.7, 3), cloud, RigidTransform.identity(),
                       IcpConfig(max_iterations=30), pairpoint_residual_mean=1.0)
    assert over.icp_residual_mean > 2.0 and not over.accepted
    assert under.icp_residual_mean < 2.0 and under.accepted
    # and exactly at the measured value
    m = over.icp_residual_mean
    flip_lo = icp_refine(icosphere(85.0 + 2.3, 3), cloud, RigidTransform.identity(),
                         IcpConfig(max_iterations=30), pairpoint_residual_mean=1.0,
                         icp_threshold_mm=m)
    flip_hi = icp_refine(icosphere(85.0 + 2.3, 3), cloud, RigidTransform.identity(),
                         IcpConfig(max_iterations=30), pairpoint_residual_mean=1.0,
                         icp_threshold_mm=m - 1e-9)
    assert flip_lo.accepted and not flip_hi.accepted


# 3 ---------------------------------------------------------------------------

def rotation_defect(r):
    return max(
        float(np.abs(r.T @ r - np.eye(3)).max()),
        abs(float(np.linalg.det(r)) - 1.0),
    )


def tangent_tail(rng, pc, scale=8.0):
    while True:
        d = rng.normal(size=3)
        d -= (d @ pc) * pc / (pc @ pc)  # mostly tangential
        if np.linalg.norm(d) > 0.5:
            return pc + scale * d / np.linalg.norm(d)


@criterion(3, "10^4 random plans: rotations valid to 1e-9, centers on skin to 1e-6 mm")
def test_criterion_3_pose_validity(sphere85, cortex70):
    rng = np.random.default_rng(103)
    n_free, n_closest, n_restricted = 3400, 3300, 3300
    worst_rot = 0.0
    worst_center = 0.0

    for pc in sample_surface(sphere85, n_free, rng):
        plan = free_skin_pose(
            sphere85, PoseConstraintInput.two_point(pc, tangent_tail(rng, pc))
        )
        worst_rot = max(worst_rot, rotation_defect(plan.pose.rotation))
        hit = closest_point(sphere85, plan.pose.translation)
        worst_center = max(
            worst_center, float(np.linalg.norm(hit.point - plan.pose.translation))
        )

    for pc in sample_surface(cortex70, n_closest, rng):
        plan = closest_skin_pose(
            cortex70, sphere85, PoseConstraintInput.two_point(pc, tangent_tail(rng, pc))
        )
        worst_rot = max(worst_rot, rotation_defect(plan.pose.rotation))
        hit = closest_point(sphere85, plan.pose.translation)
        worst_center = max(
            worst_center, float(np.linalg.norm(hit.point - plan.pose.translation))
        )

    for pc in sample_surface(cortex70, n_restricted, rng):
        plan = restricted_cortex_pose(
            cortex70, sphere85, PoseConstraintInput.two_point(pc, tangent_tail(rng, pc))
        )
        worst_rot = max(worst_rot, rotation_defect(plan.pose.rotation))

    assert worst_rot <= 1e-9, f"worst rotation defect {worst_rot:.2e}"
    assert worst_center <= 1e-6, f"worst center-to-surface distance {worst_center:.2e} mm"


# 4 ---------------------------------------------------------------------------

@criterion(4, "10^3 chain round trips reproduce the planned coil pose to 1e-9")
def test_criterion_4_chain_round_trip():
    from tmsnav.kinematics import CANONICAL_EDGES, FrameGraph, GraphEdge, \
        solve_commanded_end_effector

    rng = np.random.default_rng(104)
    con = PoseConstraintInput.four_point([0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0])
    worst_t, worst_r = 0.0, 0.0
    for _ in range(1000):
        graph = FrameGraph({
            pair: GraphEdge(random_transform(rng), prov)
            for pair, prov in CANONICAL_EDGES.items()
        })
        plan = PlanPose(random_transform(rng), Strategy.FREE_SKIN, con)
        commanded = solve_commanded_end_effector(graph, plan)
        achieved = achieved_coil_pose(graph, commanded)
        target = compose(
            compose(compose(graph.edge("O", "Hr"), graph.edge("Hr", "H")), plan.pose),
            APPROACH_FLIP,
        )
        worst_t = max(worst_t, float(np.linalg.norm(
            achieved.translation - target.translation)))
        worst_r = max(worst_r, rotation_angle(achieved.rotation.T @ target.rotation))
    assert worst_t <= 1e-9, f"worst translation gap {worst_t:.2e} mm"
    assert worst_r <= 1e-9, f"worst rotation gap {worst_r:.2e} rad"


# 5 ---------------------------------------------------------------------------

@criterion(5, "single-loop on-axis field matches the closed form to 0.1% in < 10 s")
def test_criterion_5_field_oracle():
    start = time.perf_counter()
    coil = CoilModel.single_loop(35.0, loop_turns=9, segments_per_loop=1024,
                                 peak_current_a=5000.0)
    standoffs = np.linspace(5.0, 100.0, 20)
    points = np.stack([np.zeros(20), np.zeros(20), standoffs], axis=1)
    b = b_field(coil, points)
    for i, z in enumerate(standoffs):
        expected = on_axis_loop_field(35.0, z, 5000.0, turns=9)
        assert abs(b[i, 2] - expected) <= 1e-3 * expected, f"standoff {z} mm"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.2f} s"


# 6 ---------------------------------------------------------------------------

@criterion(6, "lateral sweep: primary strictly down, sweep-direction secondary strictly up")
def test_criterion_6_displacement_mechanism():
    coil = CoilModel.single_loop(35.0, segments_per_loop=256, peak_current_a=5000.0)
    sensor = SensorModel(pose=RigidTransform(np.eye(3), [0.0, 0.0, -20.0]))
    table = displacement_sweep(coil, sensor, [1.0, 0.0, 0.0],
                               list(np.linspace(0.0, 10.0, 11)))
    primary = np.array([row[1] for row in table["rows"]])
    secondary = np.array([row[2] for row in table["rows"]])
    assert np.all(np.diff(primary) < 0.0), "primary not strictly decreasing"
    assert np.all(np.diff(secondary) > 0.0), "secondary not strictly increasing"


# 7 ---------------------------------------------------------------------------

@criterion(7, "holding stability: robotic voltage std >= 10x smaller, mean higher")
def test_criterion_7_stability_reproduction():
    con = PoseConstraintInput.four_point([0, 0, 0], [0, 0, 0], [1, 0, 0], [0, 1, 0])
    plan = PlanPose(RigidTransform.identity(), Strategy.FREE_SKIN, con)
    coil = CoilModel.single_loop(35.0, segments_per_loop=128, peak_current_a=5000.0)
    sensor = SensorModel(pose=RigidTransform(np.eye(3), [0.0, 0.0, -20.0]))
    train = PulseTrain()
    ratios, rob_means, man_means = [], [], []
    for seed in range(20):
        rob = run_holding_session(plan, ActuationModel.robotic(seed), coil, sensor, train)
        man = run_holding_session(plan, ActuationModel.manual(seed), coil, sensor, train)
        ratios.append(man.stats["primary_vpp"]["std"] / rob.stats["primary_vpp"]["std"])
        rob_means.append(rob.stats["primary_vpp"]["mean"])
        man_means.append(man.stats["primary_vpp"]["mean"])
    assert min(ratios) >= 10.0, f"min std ratio {min(ratios):.1f}"
    assert np.mean(rob_means) > np.mean(man_means)


# 8 ---------------------------------------------------------------------------

@criterion(8, "pose-error anchors: 8 deg -> 0.1396 rad, 0.15 deg -> 2.618e-3 rad")
def test_criterion_8_pose_error_fixtures():
    planned = RigidTransform.identity()
    big = pose_error(planned, RigidTransform(
        rotation_about_axis([0.4, -1.0, 0.3], np.deg2rad(8.0)), np.zeros(3)))
    small = pose_error(planned, RigidTransform(
        rotation_about_axis([1.0, 0.2, -0.5], np.deg2rad(0.15)), np.zeros(3)))
    assert round_sig(big.rotation_error_rad) == 0.1396
    assert round_sig(small.rotation_error_rad) == 2.618e-3


# 9 ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def acceptance_project(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_project")
    skin = icosphere(85.0, subdivisions=3)
    cortex = icosphere(70.0, subdivisions=3)
    save_stl(skin, root / "skin.stl", name="skin")
    save_stl(cortex, root / "cortex.stl", name="cortex")
    rng = np.random.default_rng(109)
    probe = sample_surface(skin, 6, rng)
    write_json(root / "landmarks.json", {
        "names": [f"f{i}" for i in range(6)],
        "image_points": [list(p) for p in probe],
        "probe_points": [list(p) for p in probe],
    })
    cloud = sample_surface(skin, 30, np.random.default_rng(110))
    write_json(root / "cloud.json", {"points": [list(p) for p in cloud]})
    write_json(root / "constraint.json", dump(PoseConstraintInput.two_point(
        [0.0, 0.0, 70.0], [8.0, 0.0, 70.0])))
    from tmsnav.kinematics import CANONICAL_EDGES
    edges = []
    g_rng = np.random.default_rng(111)
    for i, (pair, provenance) in enumerate(sorted(CANONICAL_EDGES.items())):
        if pair == ("H", "b"):
            continue
        edges.append({
            "from": pair[0], "to": pair[1],
            "matrix": [float(x) for x in random_transform(g_rng).to_matrix().reshape(16)],
            "provenance": provenance, "timestamp_ms": float(i),
        })
    write_json(root / "graph.json", {"edges": edges})
    write_json(root / "responses.json", {"responses": [0, 0, 0, 0, 3, 0, 0, 0, 0]})
    write_json(root / "config.json", {
        "skin_mesh": "skin.stl",
        "cortex_mesh": "cortex.stl",
        "landmarks": "landmarks.json",
        "coil": {"segments_per_loop": 128},
        "sensor": {"matrix": [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, -20.0, 0, 0, 0, 1]},
        "train": {"trains": 5},
    })
    return root


@criterion(9, "every CLI command is byte-identical across repeated seeded runs")
def test_criterion_9_cli_determinism(acceptance_project, tmp_path):
    root = acceptance_project
    cfg = f"--config={root / 'config.json'}"

    def run_all(out: Path) -> dict[str, bytes]:
        plan_dir = out / "plan"
        assert main([cfg, f"--out={plan_dir}", "plan", "--strategy=closest-skin",
                     f"--constraint={root / 'constraint.json'}"]) == EXIT_OK
        reg_dir = out / "reg"
        assert main([cfg, f"--out={reg_dir}", "register",
                     f"--cloud={root / 'cloud.json'}"]) == EXIT_OK
        chain_dir = out / "chain"
        assert main([cfg, f"--out={chain_dir}", "chain",
                     f"--graph={root / 'graph.json'}",
                     f"--plan={plan_dir / 'plan.json'}",
                     f"--registration={reg_dir / 'registration.json'}"]) == EXIT_OK
        hot_dir = out / "hotspot"
        assert main([cfg, f"--out={hot_dir}", "hotspot",
                     f"--plan={plan_dir / 'plan.json'}", "--rows=3", "--cols=3",
                     "--spacing=8", f"--responses={root / 'responses.json'}"]) == EXIT_OK
        sweep_dir = out / "fieldsim"
        assert main([cfg, f"--out={sweep_dir}", "fieldsim", "--single-loop",
                     "--standoff=20", "--offsets=0:10:6"]) == EXIT_OK
        sess_dir = out / "session"
        assert main([cfg, "--seed=7", f"--out={sess_dir}", "session",
                     "--mode=holding", "--actuation=manual", "--svg"]) == EXIT_OK
        rep_dir = out / "report"
        assert main([f"--out={rep_dir}", "report",
                     f"--input={sess_dir / 'session.json'}"]) == EXIT_OK
        blobs = {}
        for sub in (plan_dir, reg_dir, chain_dir, hot_dir, sweep_dir, sess_dir, rep_dir):
            for p in sorted(sub.iterdir()):
                blobs[f"{sub.name}/{p.name}"] = p.read_bytes()
        return blobs

    first = run_all(tmp_path / "one")
    second = run_all(tmp_path / "two")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    # at least one artifact of each format materialized
    assert any(n.endswith(".csv") for n in first)
    assert any(n.endswith(".svg") for n in first)
