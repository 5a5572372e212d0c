"""Desk-scale reproduction of the validation experiments.

Hardware actuation is replaced by seeded noise models: repeated
alignments to a planned pose (error statistics per repetition) and the
five-minute coil-holding test where every pulse train sees a freshly
actuated coil pose and the sensor voltages are recorded per train.
Identical seeds reproduce identical sessions bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .fieldsim import VOLTAGE_COLUMNS, CoilModel, PulseTrain, SensorModel, induced_voltage
from .fileio import dump
from .kinematics import APPROACH_FLIP, PoseError, pose_error
from .pose_plan import PlanPose
from .transforms import RigidTransform, compose, rotation_about_axis

# Default noise models. Rotation sigmas are anchored to the reported
# average rotation errors of the two actuation methods (2.5e-3 rad
# robotic, 1.4e-1 rad manual). The translation sigmas are calibrated
# stand-ins chosen so the robotic positional error is half the manual
# one; they are not measured values.
ROBOTIC_TRANSLATION_SIGMA_MM = 0.5
ROBOTIC_ROTATION_SIGMA_RAD = 2.5e-3
MANUAL_TRANSLATION_SIGMA_MM = 1.0
MANUAL_ROTATION_SIGMA_RAD = 1.4e-1
MANUAL_DRIFT_MM_PER_MIN = 0.5

ALIGNMENT_REPETITIONS = 10
ALIGNMENT_PERIOD_S = 1.0


@dataclass(frozen=True)
class ActuationModel:
    label: str
    translation_sigma_mm: float
    rotation_sigma_rad: float
    drift_mm_per_min: float = 0.0  # slow lateral random walk
    rng_seed: int = 0

    def __post_init__(self):
        if self.translation_sigma_mm < 0 or self.rotation_sigma_rad < 0 \
                or self.drift_mm_per_min < 0:
            raise ValueError("noise sigmas must be non-negative")

    @classmethod
    def robotic(cls, rng_seed: int = 0) -> "ActuationModel":
        return cls("robotic", ROBOTIC_TRANSLATION_SIGMA_MM,
                   ROBOTIC_ROTATION_SIGMA_RAD, 0.0, rng_seed)

    @classmethod
    def manual(cls, rng_seed: int = 0) -> "ActuationModel":
        return cls("manual", MANUAL_TRANSLATION_SIGMA_MM,
                   MANUAL_ROTATION_SIGMA_RAD, MANUAL_DRIFT_MM_PER_MIN, rng_seed)

@dataclass(frozen=True)
class SessionSample:
    timestamp_s: float
    measured: RigidTransform = field(metadata={"json": "matrix"})
    error: PoseError


@dataclass(frozen=True)
class SessionRecord:
    planned: PlanPose
    model: ActuationModel = field(metadata={"json": "actuation"})
    samples: tuple[SessionSample, ...]
    voltages_vpp: np.ndarray | None = None  # (trains, axes)
    stats: dict | None = None

    def __post_init__(self):
        times = [s.timestamp_s for s in self.samples]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("sample timestamps must be strictly increasing")
        if self.voltages_vpp is not None:
            v = np.asarray(self.voltages_vpp, dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, "voltages_vpp", v)


def _perturbed_pose(rng: np.random.Generator, target: RigidTransform,
                    model: ActuationModel, extra_offset=None) -> RigidTransform:
    delta_t = rng.normal(0.0, model.translation_sigma_mm, size=3)
    axis = rng.normal(size=3)
    angle = rng.normal(0.0, model.rotation_sigma_rad)
    delta_r = rotation_about_axis(axis, angle)
    t = target.translation + delta_t
    if extra_offset is not None:
        t = t + extra_offset
    return RigidTransform(delta_r @ target.rotation, t)


def run_alignment_trials(plan: PlanPose, model: ActuationModel,
                         repetitions: int = ALIGNMENT_REPETITIONS) -> SessionRecord:
    """Repeatedly actuate to the planned pose and log the pose errors."""
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    rng = np.random.default_rng(model.rng_seed)
    samples = []
    for k in range(repetitions):
        measured = _perturbed_pose(rng, plan.pose, model)
        samples.append(SessionSample(k * ALIGNMENT_PERIOD_S, measured,
                                     pose_error(plan.pose, measured)))
    record = SessionRecord(plan, model, tuple(samples))
    return replace(record, stats=summarize(record))


def _contact_radius(coil: CoilModel) -> float:
    return max(abs(o) for o in coil.wing_offsets()) + coil.loop_radius_mm


def _actuated_on_surface(rng: np.random.Generator, plan_pose: RigidTransform,
                         model: ActuationModel, contact_radius_mm: float,
                         drift_xy: np.ndarray) -> RigidTransform:
    """Draw a held-coil pose: in-plane slip plus a tilt pivoting on the rim.

    A coil pressed against the scalp cannot rotate freely about its own
    center: a tilt rests on the rim and lifts the center off the surface
    by contact_radius * sin(tilt). The plan pose's z is the outward
    surface normal, so slip and drift live in its x/y plane.
    """
    x_axis = plan_pose.rotation[:, 0]
    y_axis = plan_pose.rotation[:, 1]
    slip = rng.normal(0.0, model.translation_sigma_mm, size=2) + drift_xy
    center = plan_pose.translation + slip[0] * x_axis + slip[1] * y_axis
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    tilt = abs(rng.normal(0.0, model.rotation_sigma_rad))
    if tilt == 0.0:
        return RigidTransform(plan_pose.rotation, center)
    contact_dir = np.cos(azimuth) * x_axis + np.sin(azimuth) * y_axis
    pivot = center + contact_radius_mm * contact_dir
    # rim tangent; rotating the face up on the far side keeps the pivot down
    axis = np.cross(plan_pose.rotation[:, 2], contact_dir)
    delta = rotation_about_axis(axis, tilt)
    return RigidTransform(delta @ plan_pose.rotation,
                          pivot + delta @ (center - pivot))


def run_holding_session(plan: PlanPose, model: ActuationModel, coil: CoilModel,
                        sensor: SensorModel, train: PulseTrain) -> SessionRecord:
    """Hold the coil on the plan while pulse trains fire.

    One actuated pose is drawn per train (the published traces are
    per-train); manual drift accumulates as an in-plane random walk
    between trains. The coil's geometry comes from `coil`, its pose from
    the actuated plan (outward plan z flipped into the head).
    """
    rng = np.random.default_rng(model.rng_seed)
    contact = _contact_radius(coil)
    period_s = train.pulses_per_train / train.train_rate_hz + train.inter_train_wait_s
    drift_step = model.drift_mm_per_min * np.sqrt(period_s / 60.0)
    drift_xy = np.zeros(2)
    samples = []
    voltages = []
    target = compose(plan.pose, APPROACH_FLIP)
    for k in range(train.trains):
        if k > 0:
            drift_xy = drift_xy + rng.normal(0.0, drift_step, size=2)
        actuated_plan = _actuated_on_surface(rng, plan.pose, model, contact, drift_xy)
        measured = compose(actuated_plan, APPROACH_FLIP)
        trace = induced_voltage(replace(coil, pose=measured), sensor, train)
        voltages.append(trace.peak_to_peak_v)
        samples.append(SessionSample(k * period_s, measured,
                                     pose_error(target, measured)))
    record = SessionRecord(plan, model, tuple(samples), np.array(voltages))
    return replace(record, stats=summarize(record))


def _stats(values: np.ndarray) -> dict:
    v = np.asarray(values, dtype=float)
    return {
        "mean": float(v.mean()),
        "std": float(v.std()),  # population, so one sample reports 0
        "min": float(v.min()),
        "max": float(v.max()),
    }


def summarize(record: SessionRecord) -> dict:
    """Per-metric and per-axis mean/std/min/max for a session."""
    if not record.samples:
        raise ValueError("cannot summarize an empty session record")
    metrics = {
        "translation_error_mm": np.array(
            [s.error.translation_error_mm for s in record.samples]
        ),
        "rotation_error_rad": np.array(
            [s.error.rotation_error_rad for s in record.samples]
        ),
    }
    components = np.array(
        [s.error.translation_components_mm for s in record.samples]
    )
    for i, axis in enumerate(("x", "y", "z")):
        metrics[f"translation_{axis}_mm"] = components[:, i]
    if record.voltages_vpp is not None:
        metrics.update(zip(VOLTAGE_COLUMNS, record.voltages_vpp.T))
    return {name: _stats(values) for name, values in metrics.items()}


def session_to_dict(record: SessionRecord) -> dict:
    """The session document, each train's voltages written on its sample row."""
    doc = dump(record)
    for row, v in zip(doc["samples"], doc.pop("voltages_vpp") or ()):
        row["voltages_vpp"] = v
    return doc


def session_csv_rows(record: SessionRecord) -> tuple[list[str], list[tuple]]:
    header = ["index", "timestamp_s", "translation_error_mm", "rotation_error_rad"]
    n_axes = 0
    if record.voltages_vpp is not None:
        n_axes = record.voltages_vpp.shape[1]
        header += VOLTAGE_COLUMNS[:n_axes]
    rows = []
    for i, s in enumerate(record.samples):
        row = [i, s.timestamp_s, s.error.translation_error_mm, s.error.rotation_error_rad]
        if n_axes:
            row += [float(v) for v in record.voltages_vpp[i]]
        rows.append(tuple(row))
    return header, rows
