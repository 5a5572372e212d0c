import random
from dataclasses import replace

import numpy as np
import pytest

from tmsnav.fieldsim import CoilModel, PulseTrain, SensorModel
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
from tmsnav.transforms import RigidTransform


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
