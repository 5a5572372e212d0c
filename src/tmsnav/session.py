"""Desk-scale reproduction of the validation experiments.

Hardware actuation is replaced by seeded noise models: repeated
alignments to a planned pose (error statistics per repetition) and the
five-minute coil-holding test where every pulse train sees a freshly
actuated coil pose and the sensor voltages are recorded per train.
Draws are taken train by train, then all poses at once with the fixed-order
3x3 product (`matmul3`): a seed gives the same session bit for bit under any
BLAS kernel, and no pose is repaired (the plan was made orthonormal when read).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ValidationError
from .fieldsim import VOLTAGE_COLUMNS, CoilModel, PulseTrain, SensorModel, peak_to_peak_voltages
from .fileio import dump
from .kinematics import APPROACH_FLIP, PoseError, pose_errors
from .pose_plan import PlanPose
from .transforms import RigidTransform, matmul3, rotation_about_axis

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


def _record(plan: PlanPose, model: ActuationModel, target: RigidTransform, rotations,
            translations, period_s: float, voltages=None) -> SessionRecord:
    """The session of one measured pose per stack row, sampled every period_s, with its stats."""
    errors = pose_errors(target, rotations, translations)
    samples = tuple(SessionSample(k * period_s, RigidTransform(r, t), e)
                    for k, (r, t, e) in enumerate(zip(rotations, translations, errors)))
    record = SessionRecord(plan, model, samples, voltages)
    return replace(record, stats=summarize(record))


def run_alignment_trials(plan: PlanPose, model: ActuationModel,
                         repetitions: int = ALIGNMENT_REPETITIONS) -> SessionRecord:
    """Repeatedly actuate to the planned pose and log the pose errors."""
    if repetitions < 1:
        raise ValidationError("repetitions must be >= 1")
    rng = np.random.default_rng(model.rng_seed)
    (shifts, axes), angles = np.empty((2, repetitions, 3)), np.empty(repetitions)
    for k in range(repetitions):
        shifts[k] = rng.normal(0.0, model.translation_sigma_mm, size=3)
        axes[k] = rng.normal(size=3)
        angles[k] = rng.normal(0.0, model.rotation_sigma_rad)
    rotations = matmul3(rotation_about_axis(axes, angles), plan.pose.rotation)
    return _record(plan, model, plan.pose, rotations, plan.pose.translation + shifts,
                   ALIGNMENT_PERIOD_S)


def run_holding_session(plan: PlanPose, model: ActuationModel, coil: CoilModel,
                        sensor: SensorModel, train: PulseTrain) -> SessionRecord:
    """Hold the coil on the plan while pulse trains fire.

    One actuated pose is drawn per train (the published traces are
    per-train); manual drift accumulates as an in-plane random walk
    between trains. The coil's geometry comes from `coil`, its pose from
    the actuated plan (outward plan z flipped into the head). Slip and
    drift live in the plan's x/y plane (its z is the outward surface
    normal), and a tilt pivots on the rim, lifting the center off the
    surface by contact_radius * sin(tilt).
    """
    rng = np.random.default_rng(model.rng_seed)
    period_s = train.pulses_per_train / train.train_rate_hz + train.inter_train_wait_s
    drift_step = model.drift_mm_per_min * np.sqrt(period_s / 60.0)
    drift_xy = np.zeros(2)
    n = train.trains
    slip, azimuth, tilt = np.empty((n, 2)), np.empty(n), np.empty(n)
    for k in range(n):
        if k > 0:
            drift_xy = drift_xy + rng.normal(0.0, drift_step, size=2)
        slip[k] = rng.normal(0.0, model.translation_sigma_mm, size=2) + drift_xy
        azimuth[k] = rng.uniform(0.0, 2.0 * np.pi)
        tilt[k] = abs(rng.normal(0.0, model.rotation_sigma_rad))
    x_axis, y_axis, z_axis = plan.pose.rotation.T
    center = plan.pose.translation + slip[:, :1] * x_axis + slip[:, 1:] * y_axis
    contact_dir = np.cos(azimuth)[:, None] * x_axis + np.sin(azimuth)[:, None] * y_axis
    contact_radius = max(abs(o) for o in coil.wing_offsets()) + coil.loop_radius_mm
    pivot = center + contact_radius * contact_dir
    # rim tangent; rotating the face up on the far side keeps the pivot down
    delta = rotation_about_axis(np.cross(z_axis, contact_dir), tilt)
    held = tilt == 0.0  # no tilt: the slipped plan pose as it is
    actuated = np.where(held[:, None, None], plan.pose.rotation,
                        matmul3(delta, plan.pose.rotation))
    lifted = pivot + matmul3((center - pivot)[:, None], delta.transpose(0, 2, 1))[:, 0]
    origins = np.where(held[:, None], center, lifted)
    # the coil frame: the actuated plan with its outward z flipped into the head
    rotations = matmul3(actuated, APPROACH_FLIP.rotation)
    target = RigidTransform(matmul3(plan.pose.rotation, APPROACH_FLIP.rotation),
                            plan.pose.translation)
    # the sensor as each train's coil sees it: one field evaluation for the session
    in_coil = matmul3(rotations.transpose(0, 2, 1), sensor.pose.rotation)
    offsets = matmul3((sensor.pose.translation - origins)[:, None], rotations)[:, 0]
    voltages = peak_to_peak_voltages(replace(coil, pose=RigidTransform.identity()),
                                     sensor, in_coil, offsets, train)
    return _record(plan, model, target, rotations, origins, period_s, voltages)


def _stats(values: np.ndarray) -> dict:
    v = np.asarray(values, dtype=float)
    return {
        "mean": float(v.mean()),
        # population, about the first sample: equal values give exactly 0, not a rounded mean's
        "std": float((v - v[0]).std()),
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
