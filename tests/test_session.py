import random
from dataclasses import replace

import numpy as np
import pytest

from tmsnav import transforms
from tmsnav.fieldsim import CoilModel, PulseTrain, SensorModel, peak_to_peak_voltages
from tmsnav.fileio import dump, parse
from tmsnav.kinematics import APPROACH_FLIP
from tmsnav.pose_plan import PlanPose, PoseConstraintInput, Strategy, pose_from_constraint
from tmsnav.session import (
    ActuationModel,
    SessionRecord,
    run_alignment_trials,
    run_holding_session,
    session_csv_rows,
    session_to_dict,
    summarize,
)
from tmsnav.transforms import RigidTransform, compose, invert, rotation_angle

from conftest import pose_arrays, random_transform


def flat_plan(center=(0.0, 0.0, 0.0)) -> PlanPose:
    con = PoseConstraintInput.four_point(center, [0, 0, 0], [1, 0, 0], [0, 1, 0], tail="p1")
    base = pose_from_constraint(con)
    return PlanPose(RigidTransform(np.eye(3), center), Strategy.FREE_SKIN, base.source)


def holding_fixture():
    # single loop 20 mm above a 3-axis sensor, aligned on its axis
    coil = CoilModel.single_loop(35.0, segments_per_loop=128, peak_current_a=5000.0)
    sensor = SensorModel(pose=RigidTransform(np.eye(3), [0.0, 0.0, -20.0]))
    return flat_plan(), coil, sensor, PulseTrain()


# --- alignment trials -------------------------------------------------------------

def test_zero_noise_zero_errors():
    model = ActuationModel("robotic", 0.0, 0.0, rng_seed=7)
    record = run_alignment_trials(flat_plan(), model, repetitions=10)
    assert len(record.samples) == 10
    for s in record.samples:
        assert s.error.translation_error_mm == 0.0
        assert s.error.rotation_error_rad == 0.0


def test_rotation_error_mean_matches_half_normal():
    # mean |N(0, sigma)| = sigma * sqrt(2/pi); cross-check the numpy
    # stream against an independent Mersenne-Twister sampler
    sigma = 2.5e-3
    model = ActuationModel("robotic", 0.0, sigma, rng_seed=11)
    n = 30_000
    record = run_alignment_trials(flat_plan(), model, repetitions=n)
    sim_mean = np.mean([s.error.rotation_error_rad for s in record.samples])
    analytic = sigma * np.sqrt(2.0 / np.pi)
    assert abs(sim_mean - analytic) <= 0.03 * analytic
    oracle = random.Random(99)
    oracle_mean = np.mean([abs(oracle.gauss(0.0, sigma)) for _ in range(n)])
    assert abs(sim_mean - oracle_mean) <= 0.03 * analytic


def test_same_seed_bitwise_identical():
    model = ActuationModel.manual(rng_seed=13)
    a = run_alignment_trials(flat_plan(), model)
    b = run_alignment_trials(flat_plan(), model)
    for sa, sb in zip(a.samples, b.samples):
        np.testing.assert_array_equal(sa.measured.rotation, sb.measured.rotation)
        np.testing.assert_array_equal(sa.measured.translation, sb.measured.translation)
        assert sa.error.translation_error_mm == sb.error.translation_error_mm
        assert sa.error.rotation_error_rad == sb.error.rotation_error_rad
    assert session_to_dict(a) == session_to_dict(b)


def test_different_seed_differs():
    a = run_alignment_trials(flat_plan(), ActuationModel.manual(rng_seed=1))
    b = run_alignment_trials(flat_plan(), ActuationModel.manual(rng_seed=2))
    assert session_to_dict(a) != session_to_dict(b)


def test_smaller_sigmas_give_smaller_errors():
    small = ActuationModel("a", 0.4, 1e-3)
    big = ActuationModel("b", 1.5, 1e-1)
    margins_t, margins_r = [], []
    for seed in range(20):
        ra = run_alignment_trials(flat_plan(), replace(small, rng_seed=seed), repetitions=10)
        rb = run_alignment_trials(flat_plan(), replace(big, rng_seed=seed), repetitions=10)
        margins_t.append(rb.stats["translation_error_mm"]["mean"]
                         - ra.stats["translation_error_mm"]["mean"])
        margins_r.append(rb.stats["rotation_error_rad"]["mean"]
                         - ra.stats["rotation_error_rad"]["mean"])
    assert np.mean(margins_t) > 0.0
    assert np.mean(margins_r) > 0.0


def test_repetition_validation():
    with pytest.raises(ValueError):
        run_alignment_trials(flat_plan(), ActuationModel.robotic(), repetitions=0)


# --- holding session ----------------------------------------------------------------

def test_holding_zero_noise_identical_voltages():
    plan, coil, sensor, train = holding_fixture()
    model = ActuationModel("robotic", 0.0, 0.0, rng_seed=3)
    record = run_holding_session(plan, model, coil, sensor, train)
    assert record.voltages_vpp.shape == (20, 3)
    assert np.ptp(record.voltages_vpp[:, 0]) == 0.0
    assert record.stats["primary_vpp"]["std"] == 0.0


@pytest.mark.parametrize("actuation", ["robotic", "manual"])
def test_holding_voltages_match_per_train_induced_voltage(actuation):
    # a figure-8 over a 3-axis sensor 20 mm below the plan, off its centre: the one
    # batched field call of the session gives each train's per-call voltages
    plan = flat_plan()
    coil = CoilModel()
    sensor = SensorModel(pose=RigidTransform(np.eye(3), [0.0, 35.0, -20.0]))
    train = PulseTrain()
    model = getattr(ActuationModel, actuation)(17)
    record = run_holding_session(plan, model, coil, sensor, train)
    single = np.array([peak_to_peak_voltages(replace(coil, pose=s.measured), sensor,
                                             *pose_arrays(sensor.pose), train)[0]
                       for s in record.samples])
    assert record.voltages_vpp.shape == single.shape == (20, 3)
    assert np.abs(record.voltages_vpp - single).max() <= 1e-13 * np.abs(single).max()


def test_holding_timeline():
    plan, coil, sensor, train = holding_fixture()
    record = run_holding_session(plan, ActuationModel.robotic(5), coil, sensor, train)
    for k, s in enumerate(record.samples):
        assert s.timestamp_s == k * 15.0


def test_holding_period_follows_the_configured_train():
    # a train starts one period after the last: its pulses at its rate, then its wait
    plan, coil, sensor, _ = holding_fixture()
    train = PulseTrain(pulses_per_train=50, train_rate_hz=5.0, trains=4, inter_train_wait_s=20.0)
    record = run_holding_session(plan, ActuationModel.manual(5), coil, sensor, train)
    assert [s.timestamp_s for s in record.samples] == [0.0, 30.0, 60.0, 90.0]
    # the drift step grows with the square root of the period: 4x the period, 2x the slip
    drift = ActuationModel("manual", 0.0, 0.0, drift_mm_per_min=3.0, rng_seed=4)
    slips = []
    for wait in (5.0, 50.0):  # periods of 15 s and 60 s
        drifted = run_holding_session(plan, drift, coil, sensor,
                                      replace(train, inter_train_wait_s=wait))
        slips.append([s.error.translation_error_mm for s in drifted.samples])
    np.testing.assert_allclose(slips[1], 2.0 * np.asarray(slips[0]), rtol=1e-12)


def test_holding_nonzero_noise_nonzero_std():
    plan, coil, sensor, train = holding_fixture()
    record = run_holding_session(plan, ActuationModel.manual(8), coil, sensor, train)
    assert record.stats["primary_vpp"]["std"] > 0.0


def test_robotic_order_of_magnitude_stabler_than_manual():
    plan, coil, sensor, train = holding_fixture()
    ratios = []
    for seed in range(20):
        rob = run_holding_session(plan, ActuationModel.robotic(seed), coil, sensor, train)
        man = run_holding_session(plan, ActuationModel.manual(seed), coil, sensor, train)
        ratios.append(man.stats["primary_vpp"]["std"] / rob.stats["primary_vpp"]["std"])
    assert np.median(ratios) >= 10.0


def test_manual_drift_lowers_mean_primary_voltage():
    plan, coil, sensor, train = holding_fixture()
    quiet = run_holding_session(plan, ActuationModel("none", 0.0, 0.0, 0.0, 0),
                                coil, sensor, train)
    baseline = quiet.stats["primary_vpp"]["mean"]
    drifty = ActuationModel("manual", 0.0, 0.0, drift_mm_per_min=3.0, rng_seed=21)
    record = run_holding_session(plan, drifty, coil, sensor, train)
    assert record.stats["primary_vpp"]["mean"] < baseline


# --- summarize -----------------------------------------------------------------------

def test_summarize_single_sample():
    record = run_alignment_trials(flat_plan(), ActuationModel.manual(2), repetitions=1)
    stats = record.stats
    assert stats["translation_error_mm"]["std"] == 0.0
    assert stats["translation_error_mm"]["mean"] == \
        record.samples[0].error.translation_error_mm


def test_summarize_hand_computed_fixture():
    record = run_alignment_trials(flat_plan(), ActuationModel.manual(4), repetitions=3)
    values = [s.error.translation_error_mm for s in record.samples]
    mean = (values[0] + values[1] + values[2]) / 3.0
    var = ((values[0] - mean) ** 2 + (values[1] - mean) ** 2 + (values[2] - mean) ** 2) / 3.0
    stats = record.stats["translation_error_mm"]
    assert stats["mean"] == pytest.approx(mean, abs=1e-15)
    assert stats["std"] == pytest.approx(np.sqrt(var), abs=1e-15)
    assert stats["min"] == min(values)
    assert stats["max"] == max(values)


def test_summarize_streaming_vs_batch():
    record = run_alignment_trials(flat_plan(), ActuationModel.manual(6), repetitions=500)
    stats = record.stats["rotation_error_rad"]
    # Welford one-pass recomputation as the oracle
    count, mean, m2 = 0, 0.0, 0.0
    for s in record.samples:
        count += 1
        delta = s.error.rotation_error_rad - mean
        mean += delta / count
        m2 += delta * (s.error.rotation_error_rad - mean)
    assert stats["mean"] == pytest.approx(mean, rel=1e-12)
    assert stats["std"] == pytest.approx(np.sqrt(m2 / count), rel=1e-10)


def test_summarize_empty_record_rejected():
    record = run_alignment_trials(flat_plan(), ActuationModel.robotic(1), repetitions=2)
    empty = SessionRecord(record.planned, record.model, ())
    with pytest.raises(ValueError):
        summarize(empty)


def test_csv_rows_shape():
    plan, coil, sensor, train = holding_fixture()
    record = run_holding_session(plan, ActuationModel.robotic(9), coil, sensor, train)
    header, rows = session_csv_rows(record)
    assert header[:2] == ["index", "timestamp_s"]
    assert "primary_vpp" in header
    assert len(rows) == 20


# --- scalar oracle: the per-train loop that the batched sessions replace ---------------

def _rodrigues(axis, angle) -> np.ndarray:
    x, y, z = np.asarray(axis, dtype=float) / np.linalg.norm(axis)
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def _scalar_error(planned: RigidTransform, measured: RigidTransform) -> tuple:
    delta = measured.translation - planned.translation
    return (np.linalg.norm(delta), rotation_angle(planned.rotation.T @ measured.rotation),
            planned.rotation.T @ delta)


def scalar_alignment(plan, model, repetitions):
    """One scalar pose per repetition; returns the generator, poses and (distance, angle,
    components) errors."""
    rng = np.random.default_rng(model.rng_seed)
    poses = []
    for _ in range(repetitions):
        delta_t = rng.normal(0.0, model.translation_sigma_mm, size=3)
        axis = rng.normal(size=3)
        angle = rng.normal(0.0, model.rotation_sigma_rad)
        poses.append(RigidTransform(_rodrigues(axis, angle) @ plan.pose.rotation,
                                    plan.pose.translation + delta_t))
    return rng, poses, [_scalar_error(plan.pose, m) for m in poses], None


def scalar_holding(plan, model, coil, sensor, train):
    """One scalar actuated pose per train, then the sensor in each train's coil frame."""
    rng = np.random.default_rng(model.rng_seed)
    contact = max(abs(o) for o in coil.wing_offsets()) + coil.loop_radius_mm
    period_s = train.pulses_per_train / train.train_rate_hz + train.inter_train_wait_s
    drift_step = model.drift_mm_per_min * np.sqrt(period_s / 60.0)
    drift_xy = np.zeros(2)
    rot, origin = plan.pose.rotation, plan.pose.translation
    target = compose(plan.pose, APPROACH_FLIP)
    poses = []
    for k in range(train.trains):
        if k > 0:
            drift_xy = drift_xy + rng.normal(0.0, drift_step, size=2)
        slip = rng.normal(0.0, model.translation_sigma_mm, size=2) + drift_xy
        center = origin + slip[0] * rot[:, 0] + slip[1] * rot[:, 1]
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        tilt = abs(rng.normal(0.0, model.rotation_sigma_rad))
        if tilt == 0.0:
            actuated = RigidTransform(rot, center)
        else:
            contact_dir = np.cos(azimuth) * rot[:, 0] + np.sin(azimuth) * rot[:, 1]
            pivot = center + contact * contact_dir
            delta = _rodrigues(np.cross(rot[:, 2], contact_dir), tilt)
            actuated = RigidTransform(delta @ rot, pivot + delta @ (center - pivot))
        poses.append(compose(actuated, APPROACH_FLIP))
    in_coil = [compose(invert(m), sensor.pose) for m in poses]
    voltages = peak_to_peak_voltages(
        replace(coil, pose=RigidTransform.identity()), sensor,
        np.array([p.rotation for p in in_coil]), np.array([p.translation for p in in_coil]), train)
    return rng, poses, [_scalar_error(target, m) for m in poses], voltages


def batched(monkeypatch, run, *args):
    """The session `run` gives, and the generator it drew from."""
    made, real = [], np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(np.random, "default_rng", lambda seed: made.append(real(seed)) or made[-1])
        record = run(*args)
    return record, made[-1]


def assert_matches_oracle(record, rng, oracle):
    oracle_rng, poses, errors, voltages = oracle
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    pairs = [
        ([s.measured.rotation for s in record.samples], [p.rotation for p in poses]),
        ([s.measured.translation for s in record.samples], [p.translation for p in poses]),
        ([s.error.translation_error_mm for s in record.samples], [e[0] for e in errors]),
        ([s.error.rotation_error_rad for s in record.samples], [e[1] for e in errors]),
        ([s.error.translation_components_mm for s in record.samples], [e[2] for e in errors]),
    ]
    if voltages is not None:
        pairs.append((record.voltages_vpp, voltages))
    for got, want in pairs:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def tilted_fixture(seed: int, origin=None):
    """A plan at a random pose, a figure-8 coil and a 3-axis sensor 20 mm inside, off centre."""
    pose = random_transform(np.random.default_rng(seed))
    if origin is not None:
        pose = RigidTransform(pose.rotation, origin)
    plan = replace(flat_plan(), pose=pose)
    sensor = SensorModel(pose=RigidTransform(pose.rotation, pose.apply([5.0, 10.0, -20.0])))
    return plan, CoilModel(segments_per_loop=64), sensor, PulseTrain()


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("actuation", ["robotic", "manual"])
def test_holding_session_matches_the_scalar_oracle(monkeypatch, actuation, seed):
    plan, coil, sensor, train = tilted_fixture(40 + seed)
    model = getattr(ActuationModel, actuation)(seed)
    record, rng = batched(monkeypatch, run_holding_session, plan, model, coil, sensor, train)
    assert_matches_oracle(record, rng, scalar_holding(plan, model, coil, sensor, train))


@pytest.mark.parametrize("actuation", ["robotic", "manual"])
def test_alignment_trials_match_the_scalar_oracle(monkeypatch, actuation):
    plan = tilted_fixture(50)[0]
    model = getattr(ActuationModel, actuation)(12)
    record, rng = batched(monkeypatch, run_alignment_trials, plan, model, 25)
    assert_matches_oracle(record, rng, scalar_alignment(plan, model, 25))


def test_zero_noise_holding_poses_are_exactly_the_plan(monkeypatch):
    # the --actuation none model: no slip and no tilt, so every train holds the plan;
    # near the origin, lifting the centre by a zero tilt about the rim would round
    plan, coil, sensor, train = tilted_fixture(60, origin=[0.1234567, -0.00321, 1e-3])
    model = ActuationModel("none", 0.0, 0.0, 0.0, 4)
    record, rng = batched(monkeypatch, run_holding_session, plan, model, coil, sensor, train)
    oracle = scalar_holding(plan, model, coil, sensor, train)
    assert_matches_oracle(record, rng, oracle)
    flipped = compose(plan.pose, APPROACH_FLIP)
    for s in record.samples:
        np.testing.assert_array_equal(s.measured.rotation, flipped.rotation)
        np.testing.assert_array_equal(s.measured.translation, plan.pose.translation)
        assert s.error.translation_error_mm == 0.0
    assert np.ptp(record.voltages_vpp, axis=0).max() == 0.0
    assert all(record.stats[name]["std"] == 0.0
               for name in ("primary_vpp", "secondary1_vpp", "secondary2_vpp"))


@pytest.mark.parametrize("mode", ["holding", "alignment"])
def test_off_orthonormal_json_plan_takes_the_fallback_on_every_train(monkeypatch, mode):
    # a plan read from JSON may be up to 1e-6 off orthonormal: its rotation is
    # orthonormalized once, when it is parsed, so every train of either mode starts
    # from a rotation and nothing after the parse repairs drift
    plan, coil, sensor, train = tilted_fixture(70)
    doc = dump(plan)
    doc["rotation"] = [x * (1.0 + 1e-9) for x in doc["rotation"]]
    calls = []
    real = transforms.orthonormalize
    monkeypatch.setattr(transforms, "orthonormalize", lambda r: calls.append(1) or real(r))
    plan = parse(PlanPose, doc, "plan")
    assert len(calls) == 1
    assert transforms.orthonormality_error(plan.pose.rotation) <= 1e-15
    model = ActuationModel.manual(9)
    if mode == "holding":
        record, rng = batched(monkeypatch, run_holding_session, plan, model, coil, sensor, train)
        oracle = scalar_holding(plan, model, coil, sensor, train)
    else:
        record, rng = batched(monkeypatch, run_alignment_trials, plan, model, 10)
        oracle = scalar_alignment(plan, model, 10)
    assert len(calls) == 1
    for s in record.samples:
        assert transforms.orthonormality_error(s.measured.rotation) <= 1e-15
    assert_matches_oracle(record, rng, oracle)
