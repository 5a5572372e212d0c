"""Quasi-static magnetic model of a figure-8 coil and inductive sensors.

Each wing is a circle of wire in the plane z = 0, counterclockwise about
+z. `b_field` moves the evaluation points into the coil frame with one
rigid transform and takes each wing's Biot-Savart line integral in its
centred frame, signed by its sense: the closed form of a circular loop,
from the complete elliptic integrals by the arithmetic-geometric mean. A
point within 0.1 mm of a wing's circle raises SingularEvaluation. Every
step works point by point, so a point's field does not depend on the rest
of its batch, and the pose products are fixed-order sums (`matmul3`), so
no value goes through BLAS or depends on its kernel. Coil and sensor
poses must be rigid.

Sensor flux is a polar quadrature of B over each winding disc. The nodes
of every axis and every sensor pose go through one `b_field` call, so a
holding session or a displacement sweep evaluates the field once.
`peak_to_peak_voltages` gives each axis's peak-to-peak EMF, the flux
coefficient times the peak dI/dt of a one-cycle biphasic pulse, for
one sensor pose or many, given as rotation and translation arrays.
Everything is linear in current and turns by construction; geometry is
in millimeters, fields in tesla.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SingularEvaluation, ValidationError
from .transforms import RigidTransform, check_rigid, direction_length, matmul3

MU0 = 4e-7 * np.pi  # T*m/A
WIRE_CLEARANCE_MM = 0.1
MIN_SEGMENTS_PER_LOOP = 64
# sensor-frame column of each winding normal: primary z, then x and y
_AXIS_COLUMN = (2, 0, 1)
VOLTAGE_COLUMNS = ("primary_vpp", "secondary1_vpp", "secondary2_vpp")  # one per axis, as above


@dataclass(frozen=True)
class CoilModel:
    loop_radius_mm: float = 35.0
    loop_turns: int = 9  # per wing
    wing_center_offset_mm: float = 35.0  # wings at +/- offset along coil x
    segments_per_loop: int = 256  # checked but unused: each wing is a true circle
    peak_current_a: float = 5000.0
    pose: RigidTransform = field(default_factory=RigidTransform.identity,
                                 metadata={"json": "matrix"})
    # winding sense per wing; two opposed wings make the figure-8
    wing_senses: tuple[float, ...] = (1.0, -1.0)

    def __post_init__(self):
        if self.segments_per_loop < MIN_SEGMENTS_PER_LOOP:
            raise ValueError(f"segments_per_loop must be >= {MIN_SEGMENTS_PER_LOOP}")
        if len(self.wing_senses) not in (1, 2) or any(s not in (1, -1) for s in self.wing_senses):
            raise ValueError("coil.wing_senses must list one or two wings, each 1 or -1")
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

    Biot-Savart field of both wings' circles at the given current (peak
    current by default), in the coil frame, each wing's closed form taken in
    its centred frame and signed by its sense (see `_wing_sum`). Points
    closer than 0.1 mm to a wing's circle raise SingularEvaluation.
    """
    p = np.asarray(points, dtype=float)
    single = p.ndim == 1
    rot = coil.pose.rotation
    q = matmul3(p.reshape(-1, 3) - coil.pose.translation, rot)  # coil frame, mm
    out = np.zeros_like(q)
    for offset, sense in zip(coil.wing_offsets(), coil.wing_senses):
        out += sense * _wing_sum(q - [offset, 0.0, 0.0], coil.loop_radius_mm)
    current = coil.peak_current_a if current_a is None else current_a
    # r and dl in mm: the integral carries a factor 1e3 against SI units
    out = (MU0 * current * coil.loop_turns / (4.0 * np.pi) * 1e3) * matmul3(out, rot.T)
    return out[0] if single else out


def _wing_sum(q, a) -> np.ndarray:
    """Line integral of dl x r / |r|^3 around one wing's circle at each point, (len(q), 3).

    q is in the wing's centred frame, where the wire is the circle of radius
    a in z = 0, traversed counterclockwise about +z; the caller signs the
    integral by the wing's sense. A point within the clearance of the circle
    raises SingularEvaluation. With s each point's distance from the axis,
    alpha2 = (s - a)^2 + z^2 its squared distance from the circle's nearest
    point, beta2 = (s + a)^2 + z^2, m = 4 a s / beta2 = 1 - kc^2 and the
    complete elliptic integrals K and E of parameter m, the integral is
        16 a^2 z G / (alpha2 beta2^1.5) * (x, y) across the axis and
        4 a / beta2^1.5 * (2 a D + 4 a s (a - s) G / alpha2) along it,
    where D = (K - E) / m and G = (E - kc^2 K - m kc^2 D) / m^2 are the
    integrals over a quarter period of sin^2 / Delta and kc^2 sin^4 / Delta^3,
    Delta^2 = 1 - m sin^2. Both are positive, so no difference of K and E
    cancels near the axis (the textbook form divides one by s). They come
    without a subtraction from the arithmetic-geometric mean of 1 and kc,
    the means A_k and B_k: with c_0^2 = m, c_k = (A_{k-1} - B_{k-1}) / 2 =
    c_{k-1}^2 / (4 A_k) and t the sum over k >= 1 of 2^(k-1) (c_k / m)^2,
    K = pi / (2 A_inf), D = K (1/2 + m t) and G = K (1/2 - (2 - m) t).
    """
    x, y, z = q.T
    s = np.sqrt(x * x + y * y)
    alpha2 = (s - a) ** 2 + z * z
    if (alpha2 < WIRE_CLEARANCE_MM**2).any():
        raise SingularEvaluation("evaluation point within 0.1 mm of the wire")
    four_as = (4.0 * a) * s
    beta2 = alpha2 + four_as
    m = four_as / beta2
    kc = np.sqrt(alpha2 / beta2)
    arith = 0.5 * (1.0 + kc)
    geom = np.sqrt(kc)
    quarter_m = 0.25 * m
    u = 0.25 / arith  # c_1 / m
    t = u * u
    for k in range(1, _agm_steps(a)):
        arith, geom = 0.5 * (arith + geom), np.sqrt(arith * geom)
        u = quarter_m * u * u / arith
        t += 2.0**k * u * u
    k_half = (0.25 * np.pi) / arith  # K / 2
    d = k_half * (1.0 + 2.0 * m * t)
    g = k_half * (1.0 - 2.0 * (2.0 - m) * t) / alpha2  # G / alpha2
    along = (4.0 * a) / (beta2 * np.sqrt(beta2))
    across = (4.0 * a) * z * g * along
    out = np.empty_like(q)
    out[:, 0] = across * x
    out[:, 1] = across * y
    out[:, 2] = along * ((2.0 * a) * d + four_as * (a - s) * g)
    return out


def _agm_steps(a) -> int:
    """AGM steps after which t and A_inf of every point clear of the wire are exact to rounding.

    c_k / m grows with m, and a point at least the clearance from a circle
    of radius a has kc >= clearance / (2 a + clearance), since beta exceeds
    alpha by at most 2 a; the steps that settle that kc settle all.
    """
    kc = WIRE_CLEARANCE_MM / (2.0 * a + WIRE_CLEARANCE_MM)
    m = 1.0 - kc * kc
    arith, geom = 0.5 * (1.0 + kc), np.sqrt(kc)
    u, steps = 0.25 / arith, 1
    while u > 1e-9:
        arith, geom = 0.5 * (arith + geom), np.sqrt(arith * geom)
        u = m * u * u / (4.0 * arith)
        steps += 1
    return steps


def _disc_nodes(sensor: SensorModel, n_radial: int, n_angular: int):
    """Equal-area polar quadrature nodes of each winding disc, sensor frame.

    Returns the nodes stacked axis by axis, (n_axes, n_radial * n_angular,
    3), and the common weight (mm^2).
    """
    rj = sensor.loop_radius_mm * np.sqrt((np.arange(n_radial) + 0.5) / n_radial)
    tk = 2.0 * np.pi * (np.arange(n_angular) + 0.5) / n_angular
    rr, tt = np.meshgrid(rj, tk, indexing="ij")
    u = (rr * np.cos(tt)).ravel()
    v = (rr * np.sin(tt)).ravel()
    local = np.zeros((sensor.n_axes, len(u), 3))
    for axis in range(sensor.n_axes):
        # the other two sensor axes span the winding disc
        col = _AXIS_COLUMN[axis]
        local[axis, :, (col + 1) % 3] = u
        local[axis, :, (col + 2) % 3] = v
    # a numpy power: one that overflows is inf, where a float's raises OverflowError
    weight = np.pi * np.float64(sensor.loop_radius_mm) ** 2 / (n_radial * n_angular)
    return local, weight


def _flux_coefficients(coil: CoilModel, sensor: SensorModel, rotations, translations,
                       n_radial: int = 8, n_angular: int = 16) -> np.ndarray:
    """Webers per ampere through each winding of `sensor` placed at each pose.

    Returns (P, n_axes). The P poses, rotations and translations, replace
    `sensor.pose`, in the frame the coil's pose is given in; the quadrature
    nodes of every pose and axis go through one b_field call.
    """
    rot = np.asarray(rotations, dtype=float).reshape(-1, 3, 3)
    shift = np.asarray(translations, dtype=float).reshape(-1, 3)
    local, weight_mm2 = _disc_nodes(sensor, n_radial, n_angular)
    nodes = matmul3(local.reshape(-1, 3), rot.transpose(0, 2, 1)) + shift[:, None, :]
    b = b_field(coil, nodes.reshape(-1, 3), current_a=1.0).reshape(len(rot), *local.shape)
    normals = rot[:, :, list(_AXIS_COLUMN[:sensor.n_axes])].transpose(0, 2, 1)
    flux_wb = (b * normals[:, :, None, :]).sum(axis=3).sum(axis=2)
    return flux_wb * weight_mm2 * 1e-6 * sensor.turns_per_axis  # mm^2 -> m^2


def peak_to_peak_voltages(coil: CoilModel, sensor: SensorModel, rotations, translations,
                          train: PulseTrain) -> np.ndarray:
    """Per-axis peak-to-peak EMF of `sensor` placed at each pose, (P, n_axes).

    The poses are (P, 3, 3) rotations and (P, 3) translations, or one pose.
    I(t) = intensity * peak * sin(2 pi f t) over one biphasic cycle; EMF is
    -k dI/dt per axis, so the peak-to-peak is 2 * |k| * intensity * peak * 2 pi f.
    Every pose's nodes go through one b_field call.
    """
    rate = train.intensity_fraction * coil.peak_current_a * 2.0 * np.pi * train.pulse_frequency_hz
    return 2.0 * np.abs(_flux_coefficients(coil, sensor, rotations, translations)) * rate


def displacement_sweep(coil: CoilModel, sensor: SensorModel, direction,
                       offsets_mm, train: PulseTrain | None = None) -> dict:
    """Per-axis peak-to-peak voltage at each lateral sensor offset.

    Returns a CSV-ready table: one row per offset with primary and the
    two secondary axes (zeros for axes a 2D sensor does not have). Every
    offset's nodes go through one field evaluation.
    """
    d = np.asarray(direction, dtype=float).reshape(3)
    d = d / direction_length(d, "sweep direction")
    offs = [float(x) for x in offsets_mm]
    if not offs or offs[0] != 0.0 or not all(b > a for a, b in zip(offs, offs[1:])):
        raise ValidationError("offsets must be sorted ascending starting at 0")
    train = train or PulseTrain()
    shifts = sensor.pose.translation + np.array(offs)[:, None] * d
    rotations = np.broadcast_to(sensor.pose.rotation, (len(offs), 3, 3))
    vpp = peak_to_peak_voltages(coil, sensor, rotations, shifts, train).tolist()
    rows = [(off, *(row + [0.0, 0.0])[:3]) for off, row in zip(offs, vpp)]
    return {"header": ["offset_mm", *VOLTAGE_COLUMNS], "rows": rows}
