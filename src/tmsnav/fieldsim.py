"""Quasi-static magnetic model of a figure-8 coil and inductive sensors.

The coil is discretized into straight wire segments per wing, lying in
the z = 0 plane of the coil frame. `b_field` moves the evaluation points
into that frame with one rigid transform, evaluates the Biot-Savart
midpoint sum there in blocks of points, and rotates the result back. A
point within 0.1 mm of any segment raises SingularEvaluation; the exact
point-to-segment distance is computed only for pairs whose midpoint
distance is below half the segment length plus that clearance. Coil and
sensor poses must be rigid.

Sensor flux is a polar quadrature of B over each winding disc, with the
nodes of all axes evaluated in one `b_field` call, and induced EMF
follows from the flux coefficient times dI/dt of a one-cycle biphasic
pulse. Everything is linear in current and turns by construction;
geometry is in millimeters, fields in tesla.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import SingularEvaluation, ValidationError
from .transforms import RigidTransform, check_rigid

MU0 = 4e-7 * np.pi  # T*m/A
WIRE_CLEARANCE_MM = 0.1
MIN_SEGMENTS_PER_LOOP = 64
# cap on each point x segment temporary in b_field; cache-sized blocks
# ran fastest
_BLOCK_ELEMENTS = 2**14
# sensor-frame column of each winding normal: primary z, then x and y
_AXIS_COLUMN = (2, 0, 1)


@dataclass(frozen=True)
class CoilModel:
    loop_radius_mm: float = 35.0
    loop_turns: int = 9  # per wing
    wing_center_offset_mm: float = 35.0  # wings at +/- offset along coil x
    segments_per_loop: int = 256
    peak_current_a: float = 5000.0
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})
    # winding sense per wing; two opposed wings make the figure-8
    wing_senses: tuple[float, ...] = (1.0, -1.0)

    def __post_init__(self):
        if self.segments_per_loop < MIN_SEGMENTS_PER_LOOP:
            raise ValueError(f"segments_per_loop must be >= {MIN_SEGMENTS_PER_LOOP}")
        if len(self.wing_senses) not in (1, 2):  # wire() builds one or two wings
            raise ValueError("coil wing_senses must list one or two wings")
        if not self.loop_radius_mm > 0:
            raise ValueError("coil loop_radius_mm must be positive")
        if self.loop_turns < 1:
            raise ValueError("coil loop_turns must be >= 1")
        check_rigid(self.pose.to_matrix(), "coil matrix")

    @classmethod
    def single_loop(cls, loop_radius_mm: float = 35.0, loop_turns: int = 1,
                    segments_per_loop: int = 256, peak_current_a: float = 5000.0,
                    pose: RigidTransform | None = None) -> "CoilModel":
        """One centered wing; the axisymmetric reference configuration."""
        return cls(
            loop_radius_mm=loop_radius_mm,
            loop_turns=loop_turns,
            wing_center_offset_mm=0.0,
            segments_per_loop=segments_per_loop,
            peak_current_a=peak_current_a,
            pose=pose if pose is not None else RigidTransform.identity(),
            wing_senses=(1.0,),
        )

    def wing_offsets(self) -> tuple[float, ...]:
        # single-wing models sit on the pose origin
        if len(self.wing_senses) == 1:
            return (0.0,)
        return (-self.wing_center_offset_mm, self.wing_center_offset_mm)

    def wire(self) -> tuple[np.ndarray, np.ndarray]:
        """Segment midpoints and direction vectors (dl), coil frame, mm.

        Each wing is a closed regular polygon in the z=0 plane; a negative
        sense reverses the traversal direction. Both arrays are (S, 3)
        with a zero z column; the pose is applied by the caller.
        """
        mids = []
        dls = []
        theta = np.linspace(0.0, 2.0 * np.pi, self.segments_per_loop + 1)
        ring = np.stack(
            [self.loop_radius_mm * np.cos(theta),
             self.loop_radius_mm * np.sin(theta),
             np.zeros_like(theta)],
            axis=1,
        )
        for offset, sense in zip(self.wing_offsets(), self.wing_senses):
            pts = ring + np.array([offset, 0.0, 0.0])
            if sense < 0:
                pts = pts[::-1]
            mids.append(0.5 * (pts[:-1] + pts[1:]))
            dls.append(pts[1:] - pts[:-1])
        return np.concatenate(mids), np.concatenate(dls)


class SensorKind(str, Enum):
    SENSOR_2D = "sensor_2d"
    SENSOR_3D = "sensor_3d"


@dataclass(frozen=True)
class SensorModel:
    kind: SensorKind = SensorKind.SENSOR_3D
    loop_radius_mm: float = 7.5
    turns_per_axis: int = 10
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})

    def __post_init__(self):
        if not self.loop_radius_mm > 0:
            raise ValueError("sensor loop_radius_mm must be positive")
        if self.turns_per_axis < 1:
            raise ValueError("sensor turns_per_axis must be >= 1")
        check_rigid(self.pose.to_matrix(), "sensor matrix")

    @property
    def n_axes(self) -> int:
        return 1 if self.kind is SensorKind.SENSOR_2D else 3

    def axis_direction(self, axis: int) -> np.ndarray:
        """Unit normal of the winding for one axis (0 = primary = local z)."""
        if not (0 <= axis < self.n_axes):
            raise ValueError(f"axis {axis} out of range for {self.kind.value}")
        return self.pose.rotation[:, _AXIS_COLUMN[axis]]

    def displaced(self, offset_vector) -> "SensorModel":
        moved = RigidTransform(
            self.pose.rotation, self.pose.translation + np.asarray(offset_vector, float)
        )
        return replace(self, pose=moved)


@dataclass(frozen=True)
class PulseTrain:
    pulses_per_train: int = 25
    train_rate_hz: float = 5.0
    intensity_fraction: float = 0.30  # fraction of maximum system output
    trains: int = 20
    inter_train_wait_s: float = 10.0
    pulse_frequency_hz: float = 4000.0  # biphasic carrier

    def __post_init__(self):
        for name in ("pulses_per_train", "train_rate_hz", "trains",
                     "inter_train_wait_s", "pulse_frequency_hz"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.intensity_fraction < 0:
            raise ValueError("intensity_fraction must be >= 0")


def b_field(coil: CoilModel, points, current_a: float | None = None) -> np.ndarray:
    """Magnetic field at one point (3,) or a batch (N, 3), in tesla.

    Discretized Biot-Savart line sum over both wings at the given current
    (peak current by default), evaluated in the coil frame. Points closer
    than 0.1 mm to any wire segment raise SingularEvaluation.
    """
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    rot = coil.pose.rotation
    q = (p.reshape(-1, 3) - coil.pose.translation) @ rot  # coil frame, mm
    mids, dls = coil.wire()
    # contiguous rows: broadcasting against strided columns is much slower
    mx, my = np.ascontiguousarray(mids[:, :2].T)
    dlx, dly = np.ascontiguousarray(dls[:, :2].T)
    # dl and the midpoints lie in z = 0, so with r = q - mid
    # dl x r = (dly qz, -dlx qz, dlx qy - dly qx + dly mx - dlx my):
    # three sums of the inverse cubes weighted by per-segment columns
    weights = np.stack([dlx, dly, dly * mx - dlx * my], axis=1)
    # a pair can only be within the clearance if its midpoint distance is
    # below half the segment length plus the clearance (padded for rounding)
    reach = (0.5 * np.hypot(dlx, dly) + WIRE_CLEARANCE_MM) * (1.0 + 1e-9)
    reach2 = reach * reach
    reach2_max = reach2.max()
    out = np.empty_like(q)
    block = max(1, _BLOCK_ELEMENTS // len(mids))
    for lo in range(0, len(q), block):
        qb = q[lo:lo + block]
        qx, qy, qz = qb[:, 0:1], qb[:, 1:2], qb[:, 2:3]
        r2 = qx - mx
        r2 *= r2
        dy = qy - my
        dy *= dy
        r2 += dy
        r2 += qz * qz
        if r2.min() < reach2_max:
            rows, segs = np.nonzero(r2 < reach2)
            _check_clearance(qb[rows], mids[segs], dls[segs])
        inv3 = np.sqrt(r2)
        inv3 *= r2
        np.divide(1.0, inv3, out=inv3)
        sx, sy, sc = (inv3 @ weights).T
        x, y, z = qb.T
        out[lo:lo + block, 0] = z * sy
        out[lo:lo + block, 1] = -z * sx
        out[lo:lo + block, 2] = y * sx - x * sy + sc
    current = coil.peak_current_a if current_a is None else current_a
    # r and dl in mm: the sum carries a factor 1e3 against SI units
    out = (MU0 * current * coil.loop_turns / (4.0 * np.pi) * 1e3) * (out @ rot.T)
    return out[0] if single else out


def _check_clearance(q, mids, dls) -> None:
    """Raise if any point q[i] lies within the clearance of segment i."""
    w = q - (mids - 0.5 * dls)
    t = np.clip((w * dls).sum(-1) / (dls * dls).sum(-1), 0.0, 1.0)
    nearest = w - t[:, None] * dls
    if ((nearest * nearest).sum(-1) < WIRE_CLEARANCE_MM**2).any():
        raise SingularEvaluation("evaluation point within 0.1 mm of a wire segment")


def _disc_nodes(sensor: SensorModel, axes, n_radial: int, n_angular: int):
    """Equal-area polar quadrature nodes of each listed winding disc.

    Returns the world-frame nodes stacked axis by axis, (len(axes) *
    n_radial * n_angular, 3), and the common weight (mm^2).
    """
    rj = sensor.loop_radius_mm * np.sqrt((np.arange(n_radial) + 0.5) / n_radial)
    tk = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular
    rr, tt = np.meshgrid(rj, tk, indexing="ij")
    u = (rr * np.cos(tt)).ravel()
    v = (rr * np.sin(tt)).ravel()
    local = np.zeros((len(axes), len(u), 3))
    for i, axis in enumerate(axes):
        # the other two sensor axes span the winding disc
        col = _AXIS_COLUMN[axis]
        local[i, :, (col + 1) % 3] = u
        local[i, :, (col + 2) % 3] = v
    weight = np.pi * sensor.loop_radius_mm**2 / (n_radial * n_angular)
    return sensor.pose.apply(local.reshape(-1, 3)), weight


def _flux_coefficients(coil: CoilModel, sensor: SensorModel, axes,
                       n_radial: int, n_angular: int) -> np.ndarray:
    """Webers per ampere through each listed winding, from one b_field call."""
    normals = [sensor.axis_direction(axis) for axis in axes]
    nodes, weight_mm2 = _disc_nodes(sensor, axes, n_radial, n_angular)
    b = b_field(coil, nodes, current_a=1.0).reshape(len(normals), -1, 3)
    flux_wb = np.array([(b[i] @ n).sum() for i, n in enumerate(normals)])
    return flux_wb * weight_mm2 * 1e-6 * sensor.turns_per_axis  # mm^2 -> m^2


def flux_coefficient(coil: CoilModel, sensor: SensorModel, axis: int,
                     n_radial: int = 8, n_angular: int = 16) -> float:
    """Webers per ampere through one sensor winding (turns included)."""
    return float(_flux_coefficients(coil, sensor, (axis,), n_radial, n_angular)[0])


@dataclass(frozen=True)
class VoltageTrace:
    peak_to_peak_v: np.ndarray  # per axis
    times_s: np.ndarray
    emf_v: np.ndarray  # (axes, samples)

    def __post_init__(self):
        object.__setattr__(self, "peak_to_peak_v",
                           np.asarray(self.peak_to_peak_v, dtype=float))
        object.__setattr__(self, "times_s", np.asarray(self.times_s, dtype=float))
        object.__setattr__(self, "emf_v", np.asarray(self.emf_v, dtype=float))


def induced_voltage(coil: CoilModel, sensor: SensorModel, train: PulseTrain,
                    samples_per_cycle: int = 64,
                    n_radial: int = 8, n_angular: int = 16) -> VoltageTrace:
    """Per-axis EMF for one biphasic pulse cycle.

    I(t) = intensity * peak * sin(2 pi f t) over one cycle; EMF is
    -k dI/dt per axis, so the analytic peak-to-peak is
    2 * |k| * intensity * peak * 2 pi f.
    """
    omega = 2.0 * np.pi * train.pulse_frequency_hz
    amp = train.intensity_fraction * coil.peak_current_a
    ks = _flux_coefficients(coil, sensor, range(sensor.n_axes), n_radial, n_angular)
    times = np.arange(samples_per_cycle + 1) / (
        samples_per_cycle * train.pulse_frequency_hz
    )
    emf = -ks[:, None] * amp * omega * np.cos(omega * times)[None, :]
    return VoltageTrace(2.0 * np.abs(ks) * amp * omega, times, emf)


def displacement_sweep(coil: CoilModel, sensor: SensorModel, direction,
                       offsets_mm, train: PulseTrain | None = None,
                       n_radial: int = 8, n_angular: int = 16) -> dict:
    """Per-axis peak-to-peak voltage at each lateral sensor offset.

    Returns a CSV-ready table: one row per offset with primary and the
    two secondary axes (zeros for axes a 2D sensor does not have).
    """
    d = np.asarray(direction, dtype=float).reshape(3)
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValidationError("sweep direction must be nonzero")
    d = d / norm
    offs = [float(x) for x in offsets_mm]
    if not offs or offs[0] != 0.0 or not all(b > a for a, b in zip(offs, offs[1:])):
        raise ValidationError("offsets must be sorted ascending starting at 0")
    train = train or PulseTrain()
    rows = []
    for off in offs:
        trace = induced_voltage(
            coil, sensor.displaced(off * d), train,
            n_radial=n_radial, n_angular=n_angular,
        )
        vpp = list(trace.peak_to_peak_v) + [0.0, 0.0]
        rows.append((off, float(vpp[0]), float(vpp[1]), float(vpp[2])))
    return {
        "header": ["offset_mm", "primary_vpp", "secondary1_vpp", "secondary2_vpp"],
        "rows": rows,
    }


def on_axis_loop_field(radius_mm: float, z_mm: float, current_a: float,
                       turns: int = 1) -> float:
    """Closed-form |B| on the axis of one circular loop, tesla."""
    r = radius_mm * 1e-3
    z = z_mm * 1e-3
    return MU0 * current_a * turns * r**2 / (2.0 * (r**2 + z**2) ** 1.5)
